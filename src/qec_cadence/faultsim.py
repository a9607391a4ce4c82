"""Monte Carlo fault propagation for blocks of gates with skippable rounds.

A trajectory is B = n_gates/m blocks.  Each block applies m transversal
one-qubit gates (per-qubit X faults only, since only the X frame is
tracked), then one syndrome-extraction round that is skipped with
probability eps_a.  The round couples a verified ancilla to the data with 7
transversal CNOTs, reads the ancilla out and applies the decoded correction
to the Pauli frame.  A trajectory fails if the final frame decodes to a
logical flip.

Two execution paths exist on purpose: an event-by-event path (qec_round,
run_trajectory) kept simple enough to inspect, and a vectorized batch
kernel behind estimate_pl_mc.  The batch kernel draws the accepted-ancilla
pattern directly from the exact conditional distribution of the
preparation circuit, which is what the retry loop converges to; tests hold
the two paths to the same statistics.

Determinism contract: estimate_pl_mc seeds every fixed-size batch from
(master_seed, batch_index) and reduces integer failure counts, so results
are bit-identical for a given master seed at any worker count.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .ancilla import (
    AncillaCircuit,
    RetryLimitError,
    accepted_distribution,
    default_circuit,
    prepare_verified_ancilla,
)
from .model import Schedule, as_count, as_rate
from .noise import (
    NoiseParams,
    parity_flip_prob,
    sample_one_qubit_fault,
    sample_two_qubit_fault,
)
from .steane import DECODE, RESIDUAL_LOGICAL, SYNDROME

RETRY_CAP = 1000
DEFAULT_BATCH_SIZE = 16384

_QUBIT_SHIFTS = np.arange(7, dtype=np.uint8)


class SimulationAbort(RuntimeError):
    """The simulation cannot produce valid samples with this configuration."""


def wilson_interval(failures: int, shots: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= failures <= shots:
        raise ValueError("failures must be in [0, shots]")
    phat = failures / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / shots + z * z / (4.0 * shots * shots)
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class TrajectoryConfig:
    n_gates: int
    m: int
    eps_a: float
    noise: NoiseParams
    shots: int
    master_seed: int
    batch_size: int = DEFAULT_BATCH_SIZE

    def __post_init__(self) -> None:
        Schedule(n_gates=self.n_gates, m=self.m)
        if not 0.0 <= as_rate("eps_a", self.eps_a) <= 1.0:
            raise ValueError(f"eps_a must be in [0, 1], got {self.eps_a}")
        if as_count("shots", self.shots) < 1:
            raise ValueError("shots must be >= 1")
        if as_count("batch_size", self.batch_size) < 1:
            raise ValueError("batch_size must be >= 1")

    @property
    def blocks(self) -> int:
        return self.n_gates // self.m


@dataclass(frozen=True)
class PlEstimate:
    failures: int
    shots: int
    p_hat: float
    ci_low: float
    ci_high: float

    @classmethod
    def from_counts(cls, failures: int, shots: int) -> "PlEstimate":
        lo, hi = wilson_interval(failures, shots)
        return cls(failures=failures, shots=shots, p_hat=failures / shots,
                   ci_low=lo, ci_high=hi)


# ---------------------------------------------------------------------------
# event-by-event path


def qec_round(
    pattern: int,
    rng: np.random.Generator,
    noise: NoiseParams,
    skip: bool = False,
    circuit: AncillaCircuit | None = None,
) -> int:
    """One syndrome-extraction round applied to a 7-bit data X pattern."""
    if skip:
        return pattern
    try:
        anc = prepare_verified_ancilla(rng, noise, circuit, retry_cap=RETRY_CAP)
    except RetryLimitError as exc:
        raise SimulationAbort(str(exc)) from exc
    data = pattern
    measured = anc ^ pattern  # ideal transversal copy of the data frame
    for q in range(7):
        on_data, on_anc = sample_two_qubit_fault(rng, noise)
        data ^= on_data << q
        measured ^= on_anc << q
    for q in range(7):
        if rng.random() < noise.meas_flip:
            measured ^= 1 << q
    return data ^ int(DECODE[SYNDROME[measured]])


def run_trajectory(
    cfg: TrajectoryConfig,
    rng: np.random.Generator,
    circuit: AncillaCircuit | None = None,
) -> bool:
    """One full trajectory; True means the run ends in a logical flip."""
    data = 0
    for _ in range(cfg.blocks):
        for _ in range(cfg.m):
            for q in range(7):
                data ^= sample_one_qubit_fault(rng, cfg.noise) << q
        skip = rng.random() < cfg.eps_a
        data = qec_round(data, rng, cfg.noise, skip=skip, circuit=circuit)
    return bool(RESIDUAL_LOGICAL[data])


# ---------------------------------------------------------------------------
# vectorized path


def _pack_bits(mask: np.ndarray) -> np.ndarray:
    """(n, 7) boolean -> n uint8 patterns, qubit q on bit q."""
    return (mask.astype(np.uint8) << _QUBIT_SHIFTS).sum(axis=1, dtype=np.uint8)


def sample_round_outputs(
    pattern: int | np.ndarray,
    shots: int,
    rng: np.random.Generator,
    noise: NoiseParams,
    anc_cumulative: np.ndarray,
) -> np.ndarray:
    """Vectorized qec_round: `shots` outputs of one performed round.

    `pattern` is one input pattern for every shot, or a uint8 array with one
    input per shot.  Draw order: ancilla, coupling, readout.  anc_cumulative
    is the cumulative accepted-ancilla distribution from
    accepted_distribution(...).probs.cumsum().
    """
    u_anc = rng.random(shots)
    u_cx = rng.random((shots, 7))
    u_meas = rng.random((shots, 7))
    anc = np.minimum(
        np.searchsorted(anc_cumulative, u_anc, side="right"), 127
    ).astype(np.uint8)
    p = noise.cnot_flip
    on_data = _pack_bits((u_cx < p) | ((u_cx >= 2 * p) & (u_cx < 3 * p)))
    on_anc = _pack_bits((u_cx >= p) & (u_cx < 3 * p))
    meas = _pack_bits(u_meas < noise.meas_flip)
    pattern = np.uint8(pattern)
    measured = anc ^ pattern ^ on_anc ^ meas
    return (pattern ^ on_data) ^ DECODE[SYNDROME[measured]]


def _batch_extent(cfg: TrajectoryConfig, batch_index: int) -> int:
    start = batch_index * cfg.batch_size
    return min(cfg.batch_size, cfg.shots - start)


def _simulate_batch(
    cfg: TrajectoryConfig, batch_index: int, anc_cumulative: np.ndarray
) -> int:
    """Failure count of one batch.  Pure function of its arguments."""
    n = _batch_extent(cfg, batch_index)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, batch_index])
    )
    p_gate = parity_flip_prob(cfg.noise.eps_g, cfg.m)
    data = np.zeros(n, dtype=np.uint8)
    for _ in range(cfg.blocks):
        # fixed draw order per block: gates, skip, then the round's
        # ancilla, coupling and readout draws in sample_round_outputs
        u_gate = rng.random((n, 7))
        u_skip = rng.random(n)
        data ^= _pack_bits(u_gate < p_gate)
        corrected = sample_round_outputs(data, n, rng, cfg.noise, anc_cumulative)
        data = np.where(u_skip < cfg.eps_a, data, corrected)
    return int(np.count_nonzero(RESIDUAL_LOGICAL[data]))


def _check_retry_feasibility(cfg: TrajectoryConfig, p_accept: float) -> None:
    """Mirror the event path's retry cap in the batched path.

    The event path aborts after RETRY_CAP consecutive rejections; the
    batched path samples the accepted distribution directly and would never
    notice.  Refuse configurations where the event path would abort with
    non-negligible probability, so both paths agree on what is runnable.
    """
    performed = cfg.shots * cfg.blocks * (1.0 - cfg.eps_a)
    if performed <= 0:
        return
    log_reject = RETRY_CAP * math.log1p(-p_accept) if p_accept < 1.0 else -math.inf
    if log_reject + math.log(max(performed, 1.0)) > math.log(1e-9):
        raise SimulationAbort(
            f"ancilla acceptance probability {p_accept:.3g} is too low for "
            f"the retry cap of {RETRY_CAP}; reduce eps"
        )


def estimate_pl_mc(
    cfg: TrajectoryConfig,
    threads: int = 1,
    circuit: AncillaCircuit | None = None,
) -> PlEstimate:
    """Logical error estimate over cfg.shots trajectories.

    Bit-identical for a fixed cfg at any `threads` value; workers only ever
    compute disjoint batches whose seeds depend on the batch index alone.
    """
    circuit = circuit or default_circuit()
    acc = accepted_distribution(circuit, cfg.noise)
    _check_retry_feasibility(cfg, acc.p_accept)
    anc_cumulative = np.cumsum(acc.probs)
    n_batches = -(-cfg.shots // cfg.batch_size)
    if threads <= 1 or n_batches == 1:
        failures = sum(
            _simulate_batch(cfg, b, anc_cumulative) for b in range(n_batches)
        )
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            failures = sum(
                pool.map(
                    _simulate_batch,
                    [cfg] * n_batches,
                    range(n_batches),
                    [anc_cumulative] * n_batches,
                    chunksize=max(1, n_batches // (4 * threads)),
                )
            )
    return PlEstimate.from_counts(failures, cfg.shots)
