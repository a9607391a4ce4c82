"""The benchmark's workloads and the program names its traced run wraps.

A workload builds its inputs from the run seed alone, writes them as a
config where the program reads one, runs whole rounds of the same
operations, and checks the outputs of its last round outside the timed
region.  The program is called through module attributes looked up at call
time, so the same calls are timed with and without the tracer's wrappers.
"""
from __future__ import annotations

import contextlib
import json
import sys
from pathlib import Path

import numpy as np

from qec_cadence import calibration, cli, exact, faultsim, model
from qec_cadence.noise import NoiseParams

import checks


# The benchmark derives its own seeds and rates rather than calling
# cli.derive_seed or cli.rates_at, so its inputs stay the same when the
# program's helpers change or go.
def derived_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1, np.uint64)[0])


def _write_config(path: Path, config: dict) -> Path:
    path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return path


def _run_cli(*argv: str) -> None:
    # The program's progress lines go to stderr: stdout ends with the result.
    with contextlib.redirect_stdout(sys.stderr):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"qec-cadence {argv[0]} exited with code {code}")


def builtin_rates(eps_g: float, eps_a: float) -> model.AbstractRates:
    c = cli.BUILTIN_COEFFS
    return model.AbstractRates(
        eps_g=eps_g,
        eps_a=eps_a,
        eps_s=c["eps_s_per_eps_g"] * eps_g,
        eps_o=c["eps_o_per_eps_g"] * eps_g,
        eps_c=c["eps_c_per_eps_g"] * eps_g,
        eps_d=c["eps_d_per_eps_g"] * eps_g,
    )


class McSweep:
    """`qec-cadence sweep` over the paper's headline grid, through cli.main."""

    EPS_G = (1e-4,)
    EPS_A = (0.0, 0.3, 0.5)
    M = (1, 2, 4, 5, 8, 10, 20, 25)
    N_GATES = 1000
    # Two of faultsim's 16384-shot batches per point, one per worker; a
    # point that fits in one batch never reaches the pool.
    SHOTS = 32768
    THREADS = 2
    # Determinism sub-grid, also two batches per point.
    SUB_EPS_A = (0.5,)
    SUB_M = (20, 25)

    def __init__(self, seed: int, workdir: Path) -> None:
        self.workdir = workdir
        self.grid = {
            "eps_g": list(self.EPS_G),
            "eps_a": list(self.EPS_A),
            "m": list(self.M),
            "n_gates": self.N_GATES,
            "shots": self.SHOTS,
        }
        self.config = _write_config(workdir / "mc-sweep.json", {
            "seed": derived_seed(seed, 0),
            "rates": {"source": "builtin"},
            "sweep": self.grid,
        })
        self.sub_config = _write_config(workdir / "mc-sweep-sub.json", {
            "seed": derived_seed(seed, 1),
            "rates": {"source": "builtin"},
            "sweep": {**self.grid, "eps_a": list(self.SUB_EPS_A),
                      "m": list(self.SUB_M)},
        })
        self.out = workdir / "sweep.csv"
        self.operations = len(self.EPS_G) * len(self.EPS_A) * len(self.M)
        # shot-blocks: shots x B summed over the grid
        self.work = (self.SHOTS * len(self.EPS_G) * len(self.EPS_A)
                     * sum(self.N_GATES // m for m in self.M))

    def run_round(self) -> None:
        _run_cli("sweep", "--config", str(self.config),
                 "--threads", str(self.THREADS), "--out", str(self.out))

    def check(self) -> list[str]:
        reference = {
            (g, a, m): exact.logical_error_exact(
                NoiseParams.from_eps_g(g), a, self.N_GATES, m)
            for g in self.EPS_G for a in self.EPS_A for m in self.M
        }
        problems = checks.sweep_failures(
            self.out.read_text(encoding="utf-8"), self.grid, reference)
        outputs = []
        for threads in (1, 2):
            path = self.workdir / f"sweep-sub-{threads}.csv"
            _run_cli("sweep", "--config", str(self.sub_config),
                     "--threads", str(threads), "--out", str(path))
            outputs.append(path.read_bytes())
        if outputs[0] != outputs[1]:
            problems.append("sweep output differs between 1 and 2 workers")
        return problems


class ExactScan:
    """Cadence scan of acceptance criterion 7 through the library."""

    EPS_G = (5e-5, 1e-4, 3e-4)
    EPS_A = tuple(k / 20 for k in range(11))  # 0, 0.05, ..., 0.5
    M = tuple(range(1, 9))
    N_GATES = 840  # divisible by every m in 1..8
    LOW_NOISE_EPS_G = 1e-6
    LOW_NOISE_EPS_A = (0.0, 0.25, 0.5)
    LOW_NOISE_M = (1, 4, 8)

    def __init__(self, seed: int, workdir: Path) -> None:
        # The seed fixes the order of the calls, which a cache keyed on the
        # noise settings sees; the values do not depend on it.
        rng = np.random.default_rng(derived_seed(seed, 0))
        self.noise = {g: NoiseParams.from_eps_g(g) for g in self.EPS_G}
        points = [(g, a, m) for g in self.EPS_G for a in self.EPS_A for m in self.M]
        self.points = [points[i] for i in rng.permutation(len(points))]
        settings = [(g, a) for g in self.EPS_G for a in self.EPS_A]
        self.settings = [settings[i] for i in rng.permutation(len(settings))]
        self.rates = {s: builtin_rates(*s) for s in settings}
        # The scan calls the library; its grid in config form is what a
        # fresh process would parse before the same work (see setup_s).
        self.config = _write_config(workdir / "exact-scan.json", {
            "rates": {"source": "builtin"},
            "mmin": {"eps_g": list(self.EPS_G), "eps_a": list(self.EPS_A),
                     "m_grid": list(self.M), "n_gates": self.N_GATES},
        })
        self.operations = len(points)
        self.work = len(points)  # exact evaluations
        self.values: dict = {}
        self.choices: dict = {}

    def run_round(self) -> None:
        values = {}
        for g, a, m in self.points:
            values[(g, a, m)] = exact.logical_error_exact(
                self.noise[g], a, self.N_GATES, m)
        choices = {}
        for setting in self.settings:
            rates = self.rates[setting]
            choices[setting] = (
                model.m_min(rates),
                model.grid_argmin(rates, self.N_GATES, self.M)[0],
            )
        self.values, self.choices = values, choices

    def check(self) -> list[str]:
        problems = []
        for g, noise in self.noise.items():
            problems += checks.transfer_failures(
                exact.syndrome_extraction_transfer(noise), f"eps_g={g}")
        low = NoiseParams.from_eps_g(self.LOW_NOISE_EPS_G)
        for a in self.LOW_NOISE_EPS_A:
            rates = builtin_rates(self.LOW_NOISE_EPS_G, a)
            for m in self.LOW_NOISE_M:
                problems += checks.relative_gap_failures(
                    exact.logical_error_exact(low, a, self.N_GATES, m),
                    model.pl_second_order(
                        rates, model.Schedule(n_gates=self.N_GATES, m=m)),
                    checks.LOW_NOISE_TOLERANCE,
                    f"eps_g={self.LOW_NOISE_EPS_G} eps_a={a} m={m}",
                )
        for (g, a), chosen in self.choices.items():
            by_m = {m: self.values[(g, a, m)] for m in self.M}
            for name, m in zip(("m_min", "grid_argmin"), chosen):
                label = f"eps_g={g} eps_a={a} {name}"
                if m not in by_m:
                    problems.append(f"{label}={m} is outside the scanned 1..8")
                else:
                    problems += checks.cadence_failures(by_m, m, label)
        return problems


class Calibrate:
    """`qec-cadence calibrate` on the default grid, through cli.main."""

    EPS_G_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3)
    SHOTS = 1_000_000
    NORMALIZATION = "per_spectator"
    SPECTATORS = 6  # per_spectator divides each measured rate by this
    THREADS = 2

    def __init__(self, seed: int, workdir: Path) -> None:
        self.config = _write_config(workdir / "calibrate.json", {
            "seed": derived_seed(seed, 0),
            "calibration": {
                "eps_g_grid": list(self.EPS_G_GRID),
                "shots": self.SHOTS,
                "normalization": self.NORMALIZATION,
            },
        })
        self.out = workdir / "calibration.json"
        self.operations = len(self.EPS_G_GRID)
        self.work = self.SHOTS * len(self.EPS_G_GRID)  # single-round samples

    def run_round(self) -> None:
        _run_cli("calibrate", "--config", str(self.config),
                 "--threads", str(self.THREADS), "--out", str(self.out))

    def check(self) -> list[str]:
        record = json.loads(self.out.read_text(encoding="utf-8"))
        exact_rates = [exact.single_round_rates(NoiseParams.from_eps_g(g))
                       for g in self.EPS_G_GRID]
        return checks.calibration_failures(record, self.SPECTATORS, exact_rates)


WORKLOADS = {"mc-sweep": McSweep, "exact-scan": ExactScan, "calibrate": Calibrate}

# (module, attribute, span name): each name is wrapped in the module that
# looks it up, and the span carries the name of the module defining it.
TRACE_POINTS = (
    (cli, "main", "cli.main"),
    (cli, "estimate_pl_mc", "faultsim.estimate_pl_mc"),
    (cli, "calibrate", "calibration.calibrate"),
    (faultsim, "accepted_distribution", "ancilla.accepted_distribution"),
    (faultsim, "ProcessPoolExecutor", "faultsim.ProcessPoolExecutor"),
    (exact, "logical_error_exact", "exact.logical_error_exact"),
    (exact, "accepted_distribution", "ancilla.accepted_distribution"),
    (exact, "syndrome_extraction_transfer", "exact.syndrome_extraction_transfer"),
    (calibration, "measure_position_rates", "calibration.measure_position_rates"),
    (calibration, "accepted_distribution", "ancilla.accepted_distribution"),
    (calibration, "sample_round_outputs", "faultsim.sample_round_outputs"),
    (model, "pl_second_order", "model.pl_second_order"),
    (model, "approx_coefficients", "model.approx_coefficients"),
    (model, "m_min", "model.m_min"),
    (model, "grid_argmin", "model.grid_argmin"),
)
# Work counted at a span: shot-blocks of each estimate_pl_mc call.
TALLIES = {
    "faultsim.estimate_pl_mc": (
        "faultsim.shot_blocks", lambda cfg, *a, **k: cfg.shots * cfg.blocks),
}


def install_tracing(tracer) -> list[str]:
    """Wrap every trace point present; return the names that are absent.

    A refactor of the program may remove a traced name (ROADMAP: merge the
    two round kernels); the traced run then reports that layer as 0 calls
    instead of failing.
    """
    absent = []
    for module, attr, name in TRACE_POINTS:
        if hasattr(module, attr):
            tracer.wrap(module, attr, name, TALLIES.get(name))
        else:
            absent.append(f"{module.__name__}.{attr}")
    return absent
