"""Monte Carlo fault propagation for blocks of gates with skippable rounds.

A trajectory is B = n_gates/m blocks.  Each block applies m transversal
one-qubit gates (per-qubit X faults only, since only the X frame is
tracked), then one syndrome-extraction round that is skipped with
probability eps_a.  The round couples a verified ancilla to the data with 7
transversal CNOTs, reads the ancilla out and applies the decoded correction
to the Pauli frame.  A trajectory fails if the final frame decodes to a
logical flip.

Two execution paths exist on purpose: an event-by-event path (qec_round,
run_trajectory) kept simple enough to inspect, and a sparse batch kernel
behind estimate_pl_mc.  The batch kernel draws the accepted-ancilla
pattern directly from the exact conditional distribution of the
preparation circuit, which is what the retry loop converges to; tests hold
the two paths to the same statistics.

Sparse sampling.  At the rates of interest almost every shot-block sees no
fault, so the batch kernel draws fault locations only, as geometric gaps
over a flattened stream of locations (Gidney 2021, arXiv:2103.02202).  A
batch walks its blocks in chunks sized from the config so that a chunk
holds about CHUNK_EVENTS expected faults (at least one block).  Per chunk
the draw order is:

  1. gate flips over (block, shot, qubit) at parity_flip_prob(eps_g, m);
  2. the round faults of sample_round_faults over (block, shot):
     non-trivial accepted ancillas and their patterns, CNOT X-classes,
     readout flips;
  3. one skip uniform per (block, shot) with a round fault, in that order;

then, block by block, one skip uniform per "dirty" shot that has no round
fault in the block, in shot order.  Dirty means the data's syndrome is
non-zero; a corrected stabilizer or logical residual is quiescent.

Skip rule.  A round is skipped with probability eps_a, independently of
its faults, and each (block, shot) draws its skip at most once.  A faulty
round draws it in step 3; if skipped, all its faults are dropped and the
data stays as it was, with no second draw.  A fault-free round changes
the data only if the syndrome is non-zero, so only dirty shots draw a skip
for it.  Work scales with faults plus dirty shot-blocks, not with shots x
blocks.

Determinism contract: every batch seeds its generator from
SeedSequence([master_seed, batch_index]), its chunk layout depends on its
config alone, and failure counts are reduced as integers.  Results are
bit-identical for a given master seed at any worker count; estimate_many
runs the batches of all its configs in one process pool.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

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
# Expected faults per chunk of blocks: bounds the event arrays at any rate.
CHUNK_EVENTS = 1 << 16


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
# sparse path


class RoundFaults(NamedTuple):
    """Faults of a run of rounds, one entry per round that has any.

    `index` holds the sorted round indices.  `on_data` is the X pattern the
    round's CNOTs leave on the data; `on_measured` flips the measured
    ancilla against an ideal copy of the data: the accepted ancilla
    pattern, the CNOTs' copy-side faults and the readout flips.
    """

    index: np.ndarray
    on_data: np.ndarray
    on_measured: np.ndarray


def round_output(data, on_data, on_measured):
    """Data after a performed round with these faults (0, 0: fault-free)."""
    return data ^ on_data ^ DECODE[SYNDROME[data ^ on_measured]]


def _event_positions(rng: np.random.Generator, length: int, p: float) -> np.ndarray:
    """Sorted positions of independent Bernoulli(p) events in [0, length).

    Drawn as geometric gaps, so the cost scales with the events, not with
    `length`; how many gaps are drawn depends on (length, p) and the draws.
    """
    if p <= 0.0 or length <= 0:
        return np.empty(0, dtype=np.int64)
    mean = length * p
    size = int(mean + 4.0 * math.sqrt(mean)) + 16
    pos = np.cumsum(rng.geometric(p, size)) - 1
    while pos[-1] < length:
        pos = np.concatenate((pos, pos[-1] + np.cumsum(rng.geometric(p, size))))
    return pos[: np.searchsorted(pos, length)]


def _qubit_bits(positions: np.ndarray) -> np.ndarray:
    """Pattern bit of each (round, qubit) position, qubit q on bit q."""
    return np.left_shift(1, positions % 7).astype(np.uint8)


def _merge_rounds(index: np.ndarray, *masks: np.ndarray) -> tuple:
    """Merge the entries of each round of a sorted index, XOR-ing masks."""
    if index.size == 0:
        return (index, *masks)
    starts = np.flatnonzero(np.diff(index, prepend=-1))
    return (index[starts], *(np.bitwise_xor.reduceat(m, starts) for m in masks))


def sample_round_faults(
    rng: np.random.Generator, rounds: int, noise: NoiseParams, anc_probs: np.ndarray
) -> RoundFaults:
    """Faults of `rounds` performed rounds, drawn sparsely.

    Draw order: non-trivial accepted ancillas over rounds at
    1 - anc_probs[0], then their patterns from anc_probs[1:]; CNOT
    X-classes over (round, qubit) at 3 * cnot_flip, then their classes,
    uniform over data only, ancilla copy only and both; readout flips over
    (round, qubit) at meas_flip.  anc_probs is the accepted-ancilla
    distribution, accepted_distribution(...).probs.
    """
    nontrivial = np.cumsum(anc_probs[1:])
    anc = _event_positions(rng, rounds, 1.0 - anc_probs[0])
    anc_pattern = 1 + np.minimum(
        np.searchsorted(nontrivial, rng.random(anc.size) * nontrivial[-1],
                        side="right"),
        126,
    ).astype(np.uint8)
    cx = _event_positions(rng, 7 * rounds, 3.0 * noise.cnot_flip)
    cx_class = rng.integers(0, 3, cx.size)
    cx_bit = _qubit_bits(cx)
    meas = _event_positions(rng, 7 * rounds, noise.meas_flip)
    index = np.concatenate((anc, cx // 7, meas // 7))
    order = np.argsort(index, kind="stable")
    on_data = np.concatenate((
        np.zeros(anc.size, dtype=np.uint8),
        np.where(cx_class != 1, cx_bit, np.uint8(0)),
        np.zeros(meas.size, dtype=np.uint8),
    ))
    on_measured = np.concatenate((
        anc_pattern,
        np.where(cx_class != 0, cx_bit, np.uint8(0)),
        _qubit_bits(meas),
    ))
    return RoundFaults(*_merge_rounds(index[order], on_data[order], on_measured[order]))


def _skip_faulty_rounds(
    rng: np.random.Generator, faults: RoundFaults, eps_a: float
) -> tuple[RoundFaults, np.ndarray]:
    """Draw the skip of every faulty round once.

    Returns the faults of the performed rounds and the indices of the
    skipped ones, which keep their data and draw no skip again.
    """
    skipped = rng.random(faults.index.size) < eps_a
    return RoundFaults(*(a[~skipped] for a in faults)), faults.index[skipped]


def _batch_extent(cfg: TrajectoryConfig, batch_index: int) -> int:
    start = batch_index * cfg.batch_size
    return min(cfg.batch_size, cfg.shots - start)


def _chunk_blocks(cfg: TrajectoryConfig, shots: int, p_gate: float,
                  anc_probs: np.ndarray) -> int:
    """Blocks per chunk: about CHUNK_EVENTS expected faults, at least one."""
    noise = cfg.noise
    per_shot_block = (7.0 * p_gate + (1.0 - anc_probs[0])
                      + 7.0 * (3.0 * noise.cnot_flip + noise.meas_flip))
    fit = CHUNK_EVENTS / max(shots * per_shot_block, 1.0)
    return int(min(cfg.blocks, max(1.0, fit)))


def _simulate_batch(
    cfg: TrajectoryConfig, batch_index: int, anc_probs: np.ndarray
) -> int:
    """Failure count of one batch.  Pure function of its arguments."""
    n = _batch_extent(cfg, batch_index)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, batch_index])
    )
    p_gate = parity_flip_prob(cfg.noise.eps_g, cfg.m)
    chunk = _chunk_blocks(cfg, n, p_gate, anc_probs)
    data = np.zeros(n, dtype=np.uint8)
    dirty = np.empty(0, dtype=np.int64)  # shots whose syndrome is non-zero
    faulty = np.zeros(n, dtype=bool)  # per block: shots with a round fault
    for first in range(0, cfg.blocks, chunk):
        blocks = min(chunk, cfg.blocks - first)
        gates = _event_positions(rng, 7 * blocks * n, p_gate)
        gate_round, gate_flip = _merge_rounds(gates // 7, _qubit_bits(gates))
        performed, skipped = _skip_faulty_rounds(
            rng, sample_round_faults(rng, blocks * n, cfg.noise, anc_probs), cfg.eps_a
        )
        # every stream is sorted by block; slice each one block at a time
        edges = np.arange(blocks + 1) * n
        gate_at = np.searchsorted(gate_round, edges)
        done_at = np.searchsorted(performed.index, edges)
        skip_at = np.searchsorted(skipped, edges)
        gate_shot = gate_round % n
        done_shot = performed.index % n
        skip_shot = skipped % n
        for k in range(blocks):
            g = slice(gate_at[k], gate_at[k + 1])
            f = slice(done_at[k], done_at[k + 1])
            s = slice(skip_at[k], skip_at[k + 1])
            if not dirty.size and g.start == g.stop and f.start == f.stop \
                    and s.start == s.stop:
                continue
            data[gate_shot[g]] ^= gate_flip[g]
            touched = np.unique(np.concatenate(
                (dirty, gate_shot[g], done_shot[f], skip_shot[s])))
            faulty[done_shot[f]] = True
            faulty[skip_shot[s]] = True
            quiet = touched[~faulty[touched]]
            faulty[done_shot[f]] = False
            faulty[skip_shot[s]] = False
            # fault-free rounds: only dirty shots draw a skip
            quiet = quiet[SYNDROME[data[quiet]] != 0]
            fixed = quiet[rng.random(quiet.size) >= cfg.eps_a]
            data[fixed] = round_output(data[fixed], 0, 0)
            shots = done_shot[f]
            data[shots] = round_output(
                data[shots], performed.on_data[f], performed.on_measured[f])
            dirty = touched[SYNDROME[data[touched]] != 0]
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


def estimate_many(
    cfgs,
    threads: int = 1,
    circuit: AncillaCircuit | None = None,
) -> list[PlEstimate]:
    """Logical error estimates of several configs, one per config.

    Every config is checked before any sampling starts.  With threads > 1
    and more than one batch in total, the batches of all configs run on
    one process pool; the result is bit-identical at any `threads` value,
    since each batch's seed depends on its config and index alone.
    """
    cfgs = list(cfgs)
    circuit = circuit or default_circuit()
    accepted = {noise: accepted_distribution(circuit, noise)
                for noise in {cfg.noise for cfg in cfgs}}
    for cfg in cfgs:
        _check_retry_feasibility(cfg, accepted[cfg.noise].p_accept)
    tasks = [(i, b) for i, cfg in enumerate(cfgs)
             for b in range(-(-cfg.shots // cfg.batch_size))]
    args = (
        [cfgs[i] for i, _ in tasks],
        [b for _, b in tasks],
        [accepted[cfgs[i].noise].probs for i, _ in tasks],
    )
    if threads <= 1 or len(tasks) <= 1:
        counts = list(map(_simulate_batch, *args))
    else:
        # the platform's start method (fork on Linux): a spawned worker
        # re-imports numpy and the package, ~0.3 s and ~5 MB more per call
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            counts = list(pool.map(_simulate_batch, *args))
    failures = [0] * len(cfgs)
    for (i, _), count in zip(tasks, counts):
        failures[i] += count
    return [PlEstimate.from_counts(f, cfg.shots) for f, cfg in zip(failures, cfgs)]


def estimate_pl_mc(
    cfg: TrajectoryConfig,
    threads: int = 1,
    circuit: AncillaCircuit | None = None,
) -> PlEstimate:
    """Logical error estimate over cfg.shots trajectories.

    Bit-identical for a fixed cfg at any `threads` value; workers only ever
    compute disjoint batches whose seeds depend on the batch index alone.
    """
    return estimate_many([cfg], threads=threads, circuit=circuit)[0]
