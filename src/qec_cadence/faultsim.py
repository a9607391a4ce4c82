"""Monte Carlo fault propagation for blocks of gates with skippable rounds.

A trajectory is B = n_gates/m blocks.  Each block applies m transversal
one-qubit gates (per-qubit X faults only, since only the X frame is
tracked), then one syndrome-extraction round that is skipped with
probability eps_a.  The round couples a verified ancilla to the data with 7
transversal CNOTs, reads the ancilla out and applies the decoded correction
to the Pauli frame.  A trajectory fails if the final frame decodes to a
logical flip.  The round's ancilla is drawn from the exact accepted law
of the preparation circuit (ancilla.accepted_distribution), which is what
a preparation retried until verification accepts produces.

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
  4. two uniforms per event, a (shot, block) with a gate flip or a round
     fault: rng.random((2, k)) for the k events of each rank, ranks in
     order and shots in order within a rank, where an event's rank is
     its place among its shot's events in the chunk.  Row 0 is for the
     gap before the event, row 1 for its own round.

Skip rule.  A round is skipped with probability eps_a, independently of
its faults, and each (block, shot) draws its skip at most once.  A faulty
round draws it in step 3; if skipped, all its faults are dropped and the
data stays as it was, with no second draw.  A fault-free round changes
the data only if the syndrome is non-zero ("dirty"), and a performed one
corrects it, so a dirty shot stays uncorrected through a gap of j
fault-free rounds with probability eps_a**j.  Each event resolves the gap
since its shot's last event (carried across chunks), then its gate flips,
then its own round.  After a shot's last event nothing is drawn: a
correction never changes the logical verdict.  Work scales with faults,
not with shots x blocks.

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

from .ancilla import AncillaCircuit, accepted_distribution, default_circuit
from .model import Schedule, as_count, as_rate
from .noise import NoiseParams, parity_flip_prob
from .steane import DECODE, RESIDUAL_LOGICAL, SYNDROME

RETRY_CAP = 1000
DEFAULT_BATCH_SIZE = 16384
# Expected faults per chunk of blocks: bounds the event arrays at any rate.
CHUNK_EVENTS = 1 << 16


class SimulationAbort(RuntimeError):
    """The simulation cannot produce valid samples with this configuration."""


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-grid-point seed; independent of execution order."""
    seq = np.random.SeedSequence([master_seed, index])
    return int(seq.generate_state(1, np.uint64)[0])


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
    """Merge the entries of each key of a sorted index, XOR-ing masks."""
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
    # skip probability of an event's own round: fault-free, performed, skipped
    skip_prob = np.array([cfg.eps_a, 0.0, 1.0])
    data = np.zeros(n, dtype=np.uint8)
    settled = np.full(n, -1, dtype=np.int64)  # block of each shot's last event
    for first in range(0, cfg.blocks, chunk):
        blocks = min(chunk, cfg.blocks - first)
        gates = _event_positions(rng, 7 * blocks * n, p_gate)
        performed, skipped = _skip_faulty_rounds(
            rng, sample_round_faults(rng, blocks * n, cfg.noise, anc_probs), cfg.eps_a
        )
        # one event per (shot, block) with any fault, sorted shot-major
        key = np.concatenate((gates // 7, performed.index, skipped))
        g, p = gates.size, gates.size + performed.index.size
        flip, on_data, on_measured = np.zeros((3, key.size), dtype=np.uint8)
        flip[:g] = _qubit_bits(gates)
        on_data[g:p], on_measured[g:p] = performed.on_data, performed.on_measured
        kind = np.repeat(np.arange(3, dtype=np.uint8), (g, p - g, skipped.size))
        key = key % n * blocks + key // n
        order = np.argsort(key)  # the XOR merge does not depend on order
        key, flip, on_data, on_measured, kind = _merge_rounds(
            key[order], flip[order], on_data[order], on_measured[order], kind[order])
        if not key.size:
            continue
        shot, block = np.divmod(key, blocks)
        start = np.flatnonzero(np.diff(shot, prepend=-1))  # a shot's first event
        count = np.diff(start, append=key.size)
        end = start + count - 1
        # a dirty shot stays uncorrected through the fault-free rounds of a gap
        gap = np.diff(block, prepend=0) - 1
        gap[start] = first + block[start] - settled[shot[start]] - 1
        settled[shot[end]] = first + block[end]
        stay = cfg.eps_a ** gap
        for rank in range(count.max()):
            e = start[count > rank] + rank  # each shot's rank-th event, in shot order
            s = shot[e]
            u = rng.random((2, e.size))
            d = data[s]
            d = np.where(u[0] >= stay[e], round_output(d, 0, 0), d) ^ flip[e]
            data[s] = np.where(u[1] >= skip_prob[kind[e]],
                               round_output(d, on_data[e], on_measured[e]), d)
    return int(np.count_nonzero(RESIDUAL_LOGICAL[data]))


def _check_retry_feasibility(cfg: TrajectoryConfig, p_accept: float) -> None:
    """Refuse configs whose ancilla retries would run out.

    A round's hardware retries a rejected ancilla at most RETRY_CAP times
    and aborts the run after that.  The batch kernel draws accepted
    ancillas directly and would never notice, so a config is runnable only
    if any of its performed rounds exhausts the cap with probability below
    1e-9.
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
