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
holds about CHUNK_EVENTS expected faults (at least one block).  Inside a
chunk the rounds are numbered shot-major: round r is shot r // blocks,
block r % blocks, so every stream below comes out sorted by shot and
block.  Per chunk the draw order is:

  1. gate flips over (round, qubit) at parity_flip_prob(eps_g, m): the
     flips of the m gates before the round;
  2. ancillas with a non-zero syndrome over rounds, then their syndromes;
  3. CNOT X-classes over (round, qubit), then their classes;
  4. readout flips over (round, qubit);
  5. two uniforms per event, a round with any of these faults, in one
     rng.random((2, k)) call for the chunk's k events in shot-major order.
     Row 0 is for the gap before the event, row 1 for the skip of its
     own round.

Each fault's pattern is packed in one word (DATA_SHIFT, MEASURED_SHIFT),
and its round and word in one int64, the round above WORD_BITS, so one
sort of those integers brings each round's faults together and one XOR
reduction merges them; XOR does not depend on their order.  A round
reads its measured ancilla only through the syndrome, which is linear,
so the ancilla is drawn on its syndrome: each round, at the accepted
law's mass of syndromes s != 0, gets the weight-1 stand-in DECODE[s].
Every round output keeps the law of the full accepted pattern, and an
accepted ancilla of syndrome 0, which never changes a round, is never
drawn.  sample_round_faults, which the calibration micro-sims use, is
the same draw without gate flips.

Skip rule.  Every round is skipped with probability eps_a, independently
of its faults, and draws its skip once.  A skipped round leaves the data
as it was and drops its faults; a performed one applies them and corrects.
A fault-free round changes the data only if the syndrome is non-zero
("dirty"), so a dirty shot stays uncorrected through a gap of j
fault-free rounds with probability eps_a**j.  Each event resolves the gap
since its shot's last event (carried across chunks), then its gate flips,
then its own round.  The walk orders a chunk's shots by event count once,
so the shots with a k-th event are a prefix, lays the events out
rank-major, and takes every shot's k-th event at once, as one slice, for
k = 1, 2, ...  After a shot's last event nothing is
drawn: a correction never changes the logical verdict.  Work and memory
scale with faults, not with shots x blocks: eps_a**j is tabulated for
gaps of up to 2**16 rounds (_STAY_ENTRIES), and a longer gap takes
np.power for its own event, the same bits.

Class lanes.  The walk holds no pattern, only each shot's class
c = (s, p), its syndrome s and weight parity p (steane.CLASS).  The class
map is linear with the X-stabilizers as kernel, and every step acts on
the class alone: gate flips XOR their class into c; a fault-free round
takes (s, p) to (0, p ^ [s != 0]); a performed round with faults
(on_data, on_measured), ms = SYNDROME[on_measured], takes it to
(SYNDROME[on_data] ^ ms, p ^ parity(on_data) ^ [s != ms]); and the
verdict RESIDUAL_LOGICAL is p ^ [s != 0].  So the class walk gives each
shot the verdict the 7-bit walk gives, from the same draws.  The merged
words become classes after the merge, which is exact, since the class of
an XOR is the XOR of the classes; sample_round_faults keeps the
patterns.  A class takes 4 bits, so one uint16 per shot holds the
classes of up to LANES configs, one lane each, and a table of each
lane's correction class (s, [s != 0]) updates all lanes at once:
c ^= corr[c] & fix, c ^= flip, c ^= (corr[c ^ ms] ^ data) & perform, with
fix and perform the per-event masks of the lanes whose config fixes the
gap or performs the round.

Shared draws.  Nothing above reads eps_a but the walk: the faults, the
uniforms and the chunk layout are the same for configs that differ in
eps_a alone.  So a batch runs such a group at once (_groups): each chunk
is drawn, merged and ordered once, each config compares the shared
uniforms with its own eps_a, and one walk carries the group's classes,
one lane word per LANES configs.  Every config gets
exactly the count it gets alone, and a group's estimates are
common-random-number estimates: each exact-marginal, none independent of
the others.  Callers that need independent estimates give the configs
distinct master seeds.

Determinism contract: every batch of BATCH_SHOTS shots seeds its generator
from SeedSequence([master_seed, batch_index]), its chunk layout depends on
its config alone, and failure counts are reduced as integers.  Results are
bit-identical for a given master seed at any worker count, and whatever
other configs are run with it; estimate_many runs the batches of all its
groups in one process pool.
"""
from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import cache
from itertools import starmap
from typing import NamedTuple

import numpy as np

from .ancilla import accepted_distribution, default_circuit
from .model import Schedule, as_count, as_rate, as_seed
from .noise import NoiseParams, parity_flip_prob
from .steane import CLASS, DECODE, SYNDROME

# Shots per batch: a batch is the unit of seeding and of parallel work.
BATCH_SHOTS = 16384
# Expected faults per chunk of blocks: bounds the event arrays at any rate.
CHUNK_EVENTS = 1 << 16
# Entries of the eps_a**j table the walk reads for a gap of j fault-free
# rounds: every gap of a run of up to 2**16 blocks.  A longer gap takes
# np.power for its event, the same bits; a full table would hold 8 bytes
# per block and config, in every worker.
_STAY_ENTRIES = (1 << 16) + 1
# Two-sided 95% standard normal quantile of every confidence interval.
Z_95 = 1.96


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-grid-point seed; independent of execution order."""
    seq = np.random.SeedSequence([as_seed("master_seed", master_seed), index])
    return int(seq.generate_state(1, np.uint64)[0])


def wilson_interval(failures: int, shots: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if not 0 <= failures <= shots:
        raise ValueError("failures must be in [0, shots]")
    z = Z_95
    phat = failures / shots
    denom = 1.0 + z * z / shots
    center = (phat + z * z / (2 * shots)) / denom
    half = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / shots + z * z / (4.0 * shots * shots)
    )
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class TrajectoryConfig(Schedule):
    eps_a: float
    noise: NoiseParams
    shots: int
    master_seed: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not 0.0 <= as_rate("eps_a", self.eps_a) <= 1.0:
            raise ValueError(f"eps_a must be in [0, 1], got {self.eps_a}")
        if as_count("shots", self.shots) < 1:
            raise ValueError("shots must be >= 1")
        as_seed("master_seed", self.master_seed)


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
    ancilla against an ideal copy of the data: the ancilla's stand-in
    DECODE[s] for its syndrome s, the CNOTs' copy-side faults and the
    readout flips.
    """

    index: np.ndarray
    on_data: np.ndarray
    on_measured: np.ndarray


def round_output(data, on_data, on_measured):
    """Data after a performed round with these faults (0, 0: fault-free)."""
    return data ^ on_data ^ DECODE[SYNDROME[data ^ on_measured]]


# A round's faults packed in one uint32 word: the gate flips before it in
# bits 0-6, on_data in bits 8-14, on_measured in bits 16-22.  XOR acts on
# each field alone, so merging packed words is exact.
DATA_SHIFT = 8
MEASURED_SHIFT = 16
WORD_BITS = MEASURED_SHIFT + 7
# Packed word of each fault by qubit: a gate flip, a readout flip, an
# ancilla stand-in DECODE[s] by syndrome s, and a CNOT X-class (data only,
# copy only, both) at index 7 * class + qubit.  These tables and the lane
# tables below are built from Python ints, so that importing the module
# runs no numpy kernel the process would not run anyway.
_GATE_WORDS = np.array([1 << q for q in range(7)], dtype=np.uint32)
_MEAS_WORDS = np.array([1 << MEASURED_SHIFT + q for q in range(7)], dtype=np.uint32)
_ANCILLA_WORDS = np.array([int(d) << MEASURED_SHIFT for d in DECODE], dtype=np.uint32)
_CNOT_WORDS = np.array(
    [w << q for w in (1 << DATA_SHIFT, 1 << MEASURED_SHIFT,
                      1 << DATA_SHIFT | 1 << MEASURED_SHIFT) for q in range(7)],
    dtype=np.uint32)


def _event_positions(rng: np.random.Generator, length: int, p: float) -> np.ndarray:
    """Sorted positions of independent Bernoulli(p) events in [0, length).

    Drawn as geometric gaps, so the cost scales with the events, not with
    `length`; how many gaps are drawn depends on (length, p) and the draws.
    A gap is 1 + floor(E / -log(1 - p)) for a standard exponential E: that
    is Geometric(p) exactly, and cheaper to draw than rng.geometric.  Gaps
    are capped at `length`, which ends the run all the same, so no sum of
    them overflows however small p is.
    """
    if p <= 0.0 or length <= 0:
        return np.empty(0, dtype=np.int64)
    mean = length * p
    size = int(mean + 4.0 * math.sqrt(mean)) + 16
    scale = -1.0 / math.log1p(-p) if p < 1.0 else 0.0

    def run(offset):
        """Positions of `size` fresh gaps after `offset`, computed in place."""
        e = rng.standard_exponential(size)
        e *= scale
        np.minimum(e, length, out=e)
        gap = e.astype(np.int64)
        gap += 1
        gap[0] += offset
        return np.cumsum(gap, out=gap)

    pos = run(-1)
    while pos[-1] < length:
        pos = np.concatenate((pos, run(pos[-1])))
    return pos[: np.searchsorted(pos, length)]


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal keys in a sorted array."""
    return np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))


def _fault_streams(rng: np.random.Generator, rounds: int, p_gate: float,
                   noise: NoiseParams, syn_probs: np.ndarray) -> tuple:
    """Every fault of `rounds` rounds as (key, word), unmerged.

    `key` holds each fault's round and `word` its packed pattern
    (DATA_SHIFT, MEASURED_SHIFT); the four streams are concatenated in
    draw order, each sorted by round.  Draw order: gate flips over
    (round, qubit) at p_gate; ancillas with a non-zero syndrome over
    rounds at the mass of syn_probs[1:], then their syndromes s from
    syn_probs[1:]; CNOT X-classes over (round, qubit) at 3 * cnot_flip,
    then their classes, uniform over data only, ancilla copy only and
    both; readout flips over (round, qubit) at meas_flip.

    A round reads its measured side only through the syndrome, which is
    linear, so an ancilla enters as the weight-1 DECODE[s]: every round
    output has the law of the full accepted pattern, and an ancilla of
    syndrome 0 is never drawn.  _merge_rounds packs a round index above
    a word's WORD_BITS in an int64, so a draw covers under 2**40 rounds.
    """
    if rounds >> 63 - WORD_BITS:
        raise ValueError(f"a draw covers under 2**{63 - WORD_BITS} rounds, got {rounds}")
    gates = _event_positions(rng, 7 * rounds, p_gate)
    nonzero = np.cumsum(syn_probs[1:])
    anc = _event_positions(rng, rounds, float(nonzero[-1]))
    # s is 1 + the number of cumulative masses of syndromes 1..6 at or
    # below the draw: compares are cheaper than a search at 7 values
    pick = rng.random(anc.size) * nonzero[-1]
    anc_syndrome = np.ones(anc.size, dtype=np.uint8)
    for edge in nonzero[:-1]:
        anc_syndrome += pick >= edge
    cx = _event_positions(rng, 7 * rounds, 3.0 * noise.cnot_flip)
    cx_class = rng.integers(0, 3, cx.size)
    meas = _event_positions(rng, 7 * rounds, noise.meas_flip)
    key = np.concatenate((gates // 7, anc, cx // 7, meas // 7))
    word = np.concatenate((
        _GATE_WORDS.take(gates % 7),
        _ANCILLA_WORDS.take(anc_syndrome),
        _CNOT_WORDS.take(cx_class * 7 + cx % 7),
        _MEAS_WORDS.take(meas % 7),
    ))
    return key, word


def _merge_rounds(key: np.ndarray, word: np.ndarray) -> tuple:
    """One entry per round: the strictly increasing keys, XOR of their words.

    Each fault's round and word are packed in one int64, key above the
    word's WORD_BITS, and one sort of those integers brings every round's
    faults together; one XOR reduction then merges them.  XOR does not
    depend on order, so the words of a round may come in any order.
    """
    if not key.size:
        return key, word
    packed = key << WORD_BITS
    packed |= word
    packed.sort()
    key = packed >> WORD_BITS
    starts = _run_starts(key)
    merged = np.bitwise_xor.reduceat(packed, starts)
    merged &= (1 << WORD_BITS) - 1
    return key[starts], merged.astype(np.uint32)


def _field(word: np.ndarray, shift: int) -> np.ndarray:
    """The 7-bit field of packed words at `shift` (bits 7 and 15 stay 0)."""
    return (word >> shift).astype(np.uint8)


def sample_round_faults(
    rng: np.random.Generator, rounds: int, noise: NoiseParams, syn_probs: np.ndarray
) -> RoundFaults:
    """Faults of `rounds` performed rounds, drawn sparsely.

    The batch kernel's draw without gate flips (_fault_streams);
    syn_probs is the accepted ancilla's syndrome law,
    accepted_distribution(...).syndrome_law.
    """
    index, word = _merge_rounds(
        *_fault_streams(rng, rounds, 0.0, noise, syn_probs))
    return RoundFaults(index, _field(word, DATA_SHIFT), _field(word, MEASURED_SHIFT))


def _batch_extent(cfg: TrajectoryConfig, batch_index: int) -> int:
    return min(BATCH_SHOTS, cfg.shots - batch_index * BATCH_SHOTS)


def _chunk_blocks(cfg: TrajectoryConfig, shots: int, p_gate: float,
                  syn_probs: np.ndarray) -> int:
    """Blocks per chunk: about CHUNK_EVENTS expected faults, at least one."""
    noise = cfg.noise
    per_shot_block = (7.0 * p_gate + syn_probs[1:].sum()
                      + 7.0 * (3.0 * noise.cnot_flip + noise.meas_flip))
    fit = CHUNK_EVENTS / max(shots * per_shot_block, 1.0)
    return int(min(cfg.blocks, max(1.0, fit)))


# The walk's state: per shot, the data classes (steane.CLASS) of up to
# LANES configs in one uint16, config i of a word in bits 4i to 4i + 3.
LANES = 4
# A pattern's class, and its syndrome, copied into every lane.
_CLASS_LANES = np.array([0x1111 * int(c) for c in CLASS], dtype=np.uint16)
_SYNDROME_LANES = np.array([0x1111 * int(s) for s in SYNDROME], dtype=np.uint16)


@cache
def _lane_correction() -> np.ndarray:
    """Per lane of every uint16 word, the class (s, [s != 0]) of the
    correction DECODE[s] a round applies for the lane's syndrome s.

    c ^ table[c] is what a fault-free round makes of each lane's class,
    (0, p ^ [s != 0]), and its parity bit is the lane's logical verdict.
    s + 7 carries into bit 3 iff s != 0.  Built on first use: a process
    that only hands batches to a pool never holds its 128 KB.  Read-only,
    since every caller shares it.
    """
    s = np.arange(1 << 16, dtype=np.uint16) & 0x7777
    table = s | (s + 0x7777) & 0x8888
    table.setflags(write=False)
    return table


def _simulate_batch(
    group: tuple, batch_index: int, syn_probs: np.ndarray
) -> list[int]:
    """Failure counts of one batch, one per config of the group.

    The group's configs differ in eps_a alone (_groups): per chunk the
    draw, the merge, the bookkeeping and the rank order come once, and one
    walk updates every config's data class at once, one lane each.  Pure
    function of its arguments; syn_probs is the accepted ancilla's
    syndrome law.
    """
    cfg = group[0]
    n = _batch_extent(cfg, batch_index)
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, batch_index])
    )
    p_gate = parity_flip_prob(cfg.noise.eps_g, cfg.m)
    chunk = _chunk_blocks(cfg, n, p_gate, syn_probs)
    eps_a = [c.eps_a for c in group]
    # a dirty shot stays uncorrected through j fault-free rounds w.p. eps_a**j
    stay = np.array(eps_a, dtype=float)[:, None] ** np.arange(
        min(cfg.blocks + 1, _STAY_ENTRIES))
    lane = [np.uint16(0xF << 4 * (i % LANES)) for i in range(len(group))]
    correction = _lane_correction()
    state = np.zeros((-(-len(group) // LANES), n), dtype=np.uint16)
    settled = np.full(n, -1, dtype=np.int64)  # block of each shot's last event
    for first in range(0, cfg.blocks, chunk):
        blocks = min(chunk, cfg.blocks - first)
        # round r of the chunk is shot r // blocks, block r % blocks
        key, word = _merge_rounds(
            *_fault_streams(rng, blocks * n, p_gate, cfg.noise, syn_probs))
        if not key.size:
            continue
        shot = key // blocks
        start = _run_starts(shot)  # a shot's first event
        owner = shot[start]
        del shot
        count = np.diff(start, append=key.size)
        # fault-free rounds before each event: the step from the shot's
        # previous event, or from its carried last block at its first event
        gap = np.empty_like(key)
        np.subtract(key[1:], key[:-1], out=gap[1:])
        gap -= 1
        block = key[start] - owner * blocks
        block += first
        gap[start] = block - settled[owner] - 1
        settled[owner] = block + key[start + count - 1] - key[start]
        u_fix, u_perform = rng.random((2, key.size))
        # gaps past the table; a run of up to _STAY_ENTRIES - 1 blocks has none
        far = (np.flatnonzero(gap >= _STAY_ENTRIES)
               if cfg.blocks >= _STAY_ENTRIES else ())
        # each word's fix and perform decisions, as masks of its lanes' bits
        fix = np.zeros((len(state), key.size), dtype=np.uint16)
        perform = np.zeros_like(fix)
        threshold, hit = np.empty(key.size), np.empty(key.size, dtype=bool)
        for i, bits in enumerate(lane):
            stay[i].take(gap, out=threshold, mode="clip")
            if len(far):
                threshold[far] = np.power(eps_a[i], gap[far])
            fix[i // LANES] |= np.greater_equal(u_fix, threshold, out=hit) * bits
            perform[i // LANES] |= np.greater_equal(u_perform, eps_a[i], out=hit) * bits
        del gap, u_fix, u_perform
        # shots by falling event count, so the shots with a rank-th event
        # lead; ties in any order, since a rank's shots update independently
        by_count = np.argsort(-count)
        start, count, owner = start[by_count], count[by_count], owner[by_count]
        active = np.searchsorted(-count, -np.arange(count[0]), side="left").tolist()
        # events rank-major: a rank's events, each such shot's rank-th, are
        # one slice of every array the walk reads
        order = np.concatenate([start[:k] + rank for rank, k in enumerate(active)])
        word = word.take(order)
        flip = _CLASS_LANES.take(word & 0x7F)
        on_data = _CLASS_LANES.take(word >> DATA_SHIFT & 0x7F)
        on_measured = _SYNDROME_LANES.take(word >> MEASURED_SHIFT)
        for row, row_fix, row_perform in zip(
                state, fix.take(order, axis=1), perform.take(order, axis=1)):
            lo = 0
            for k in active:
                hi = lo + k
                s = owner[:k]
                c = row.take(s)
                c ^= correction.take(c) & row_fix[lo:hi]
                c ^= flip[lo:hi]
                c ^= (correction.take(c ^ on_measured[lo:hi]) ^ on_data[lo:hi]
                      ) & row_perform[lo:hi]
                row[s] = c
                lo = hi
    verdict = state ^ correction.take(state)
    return [int(np.count_nonzero(verdict[i // LANES] & 8 << 4 * (i % LANES)))
            for i in range(len(group))]


def _groups(cfgs) -> list[tuple]:
    """The configs that differ in eps_a alone, grouped, in first-seen order.

    Such configs draw the same faults and uniforms in every batch, since
    neither the draws nor the chunk layout read eps_a; _simulate_batch
    runs a group's batch once for all of them.
    """
    groups: dict = {}
    for cfg in cfgs:
        key = (cfg.n_gates, cfg.m, cfg.noise, cfg.shots, cfg.master_seed)
        groups.setdefault(key, []).append(cfg)
    return [tuple(group) for group in groups.values()]


def estimate_many(cfgs, threads: int = 1) -> list[PlEstimate]:
    """Logical error estimates of several configs, one per config.

    A config listed more than once is run once and its estimate repeated.
    Configs that differ in eps_a alone share each batch's draw (_groups):
    their estimates are common-random-number estimates, each
    exact-marginal but none independent of the others, so a caller that
    treats estimates as independent must give them distinct master seeds.
    Each count is exactly the one the config gets alone.  With threads > 1
    and more than one (group, batch) task, the tasks run on one process
    pool; the result is bit-identical at any `threads` value, since each
    batch's seed depends on its config and index alone.  The ancillas come
    from default_circuit().
    """
    cfgs = list(cfgs)
    failures = dict.fromkeys(cfgs, 0)  # each distinct config once
    syn_probs = {noise: accepted_distribution(default_circuit(), noise).syndrome_law
                 for noise in {cfg.noise for cfg in cfgs}}
    tasks = [(group, b, syn_probs[group[0].noise]) for group in _groups(failures)
             for b in range(-(-group[0].shots // BATCH_SHOTS))]
    if threads <= 1 or len(tasks) <= 1:
        counts = list(starmap(_simulate_batch, tasks))
    else:
        # the platform's start method (fork on Linux): a spawned worker
        # re-imports numpy and the package, ~0.3 s and ~5 MB more per call
        with ProcessPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
            counts = list(pool.map(_simulate_batch, *zip(*tasks)))
    for (group, _, _), group_counts in zip(tasks, counts):
        for cfg, count in zip(group, group_counts):
            failures[cfg] += count
    return [PlEstimate.from_counts(failures[cfg], cfg.shots) for cfg in cfgs]
