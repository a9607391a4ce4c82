"""Print the input facts README.md quotes, computed from the noise parameters.

Run from the repository root: python3 perfbench/facts.py

- the share of mc-sweep shot-blocks that see at least one fault, as the
  batch kernel samples them: a net gate-layer flip on any qubit, or, in a
  performed round, a nonzero accepted ancilla pattern, a coupling-CNOT X
  fault or a readout flip.  This is the headroom of sparse sampling.
- the ancilla acceptance probability at every noise setting the workloads
  use.
- the machine: core count, Python and numpy versions.
"""
import os
import platform
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import numpy as np  # noqa: E402

from qec_cadence.ancilla import accepted_distribution, default_circuit  # noqa: E402
from qec_cadence.exact import parity_flip_prob  # noqa: E402
from qec_cadence.noise import NoiseParams  # noqa: E402

from workloads import Calibrate, ExactScan, McSweep  # noqa: E402


def clean_block_probability(noise: NoiseParams, m: int, eps_a: float) -> float:
    gates_clean = (1.0 - parity_flip_prob(noise.eps_g, m)) ** 7
    ancilla_clean = accepted_distribution(default_circuit(), noise).probs[0]
    p = 4.0 * noise.eps / 15.0  # each CNOT X class: control, target, both
    round_clean = ancilla_clean * (1.0 - 3.0 * p) ** 7 * (1.0 - noise.meas_flip) ** 7
    return gates_clean * (eps_a + (1.0 - eps_a) * round_clean)


def main() -> None:
    print(f"cores {os.cpu_count()}, Python {platform.python_version()}, "
          f"numpy {np.__version__}\n")
    print("| eps_a | m | B | shot-blocks with a fault |")
    print("|---|---|---|---|")
    weighted = total = 0.0
    for eps_g in McSweep.EPS_G:
        noise = NoiseParams.from_eps_g(eps_g)
        for eps_a in McSweep.EPS_A:
            for m in McSweep.M:
                blocks = McSweep.N_GATES // m
                share = 1.0 - clean_block_probability(noise, m, eps_a)
                weighted += share * blocks
                total += blocks
                print(f"| {eps_a} | {m} | {blocks} | {share:.3%} |")
    print(f"\nshot-block weighted over the grid: {weighted / total:.3%}\n")

    uses = {}
    for g in McSweep.EPS_G:
        uses.setdefault(g, []).append("mc-sweep")
    for g in ExactScan.EPS_G + (ExactScan.LOW_NOISE_EPS_G,):
        uses.setdefault(g, []).append("exact-scan")
    for g in Calibrate.EPS_G_GRID:
        uses.setdefault(g, []).append("calibrate")
    print("| eps_g | eps | ancilla p_accept | used by |")
    print("|---|---|---|---|")
    for g in sorted(uses):
        noise = NoiseParams.from_eps_g(g)
        p_accept = accepted_distribution(default_circuit(), noise).p_accept
        print(f"| {g:g} | {noise.eps:g} | {p_accept:.6f} | {', '.join(uses[g])} |")


if __name__ == "__main__":
    main()
