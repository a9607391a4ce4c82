"""Second-order analytic model for logical X failure of a gate sequence.

The physical story: N transversal logical gates are split into B = N/m blocks
of m gates, each block followed by one QEC round that is skipped with
probability eps_a.  Single faults are corrected; a logical failure needs two
faults on distinct qubits whose errors coexist on the data before a round
removes them.  The model sums all such pairs to second order in the rates.

Per-qubit elementary rates (all per gate or per performed round):
  eps_g  gate X error during one logical gate
  eps_s  wrong correction from a corrupted syndrome (ancilla or readout side)
  eps_o  erroneous syndrome that cancels the true one, so an existing error
         survives the round (omission).  It creates no error: a pair it
         completes needs a third fault, so eps_o stays out of the
         second-order sum.
  eps_c  X landed on the data by the coupling CNOT, invisible to the syndrome
  eps_d  X landed on both data and ancilla copy by the coupling CNOT
"""
from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass

# Ordered pairs of distinct qubits in the 7-qubit block: 7 * 6.
ORDERED_QUBIT_PAIRS = 42


@dataclass(frozen=True)
class AbstractRates:
    """Per-qubit fault rates of the abstract error model."""

    eps_g: float
    eps_a: float
    eps_s: float
    eps_o: float
    eps_c: float
    eps_d: float

    def validate(self) -> None:
        """Raise ValueError unless each rate is a number in [0, 1], eps_a in [0, 1).

        The simulator and the exact evaluator also run eps_a = 1 (every
        round skipped), but the closed form cannot: gamma divides by
        (1 - eps_a)^2.
        """
        for name in ("eps_g", "eps_s", "eps_o", "eps_c", "eps_d"):
            v = as_rate(name, getattr(self, name))
            if not 0.0 <= v <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= as_rate("eps_a", self.eps_a) < 1.0:
            raise ValueError(f"eps_a must be in [0, 1), got {self.eps_a}")

    def scaled(self, factor: float) -> "AbstractRates":
        """Scale every per-qubit rate (eps_a is a schedule knob, untouched)."""
        return AbstractRates(
            eps_g=self.eps_g * factor,
            eps_a=self.eps_a,
            eps_s=self.eps_s * factor,
            eps_o=self.eps_o * factor,
            eps_c=self.eps_c * factor,
            eps_d=self.eps_d * factor,
        )


def rates_at(coeffs: dict, eps_g: float, eps_a: float = 0.0) -> AbstractRates:
    """Rates at eps_g from per-eps_g coefficients, keyed `eps_s_per_eps_g` etc."""
    as_rate("eps_g", eps_g)
    return AbstractRates(
        eps_g=eps_g,
        eps_a=eps_a,
        eps_s=coeffs["eps_s_per_eps_g"] * eps_g,
        eps_o=coeffs["eps_o_per_eps_g"] * eps_g,
        eps_c=coeffs["eps_c_per_eps_g"] * eps_g,
        eps_d=coeffs["eps_d_per_eps_g"] * eps_g,
    )


def as_rate(name: str, value) -> float:
    """`value` as a float; ValueError unless it is a real number (not a bool)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


def as_count(name: str, value) -> int:
    """`value` as an int; ValueError for anything that is not an integer.

    numpy integers pass; 2.0, 2.5, "10" and True are refused, never
    truncated, parsed or counted as 1.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Schedule:
    """N logical gates in blocks of m, one QEC opportunity per block.

    The one check of an (n_gates, m) pair: the simulator and the exact
    evaluator build a Schedule to validate theirs.
    """

    n_gates: int
    m: int

    def __post_init__(self) -> None:
        n_gates = as_count("n_gates", self.n_gates)
        m = as_count("m", self.m)
        if n_gates <= 0 or m <= 0:
            raise ValueError(
                f"n_gates and m must be positive, got n_gates={n_gates}, m={m}"
            )
        if n_gates % m != 0:
            raise ValueError(f"m={m} does not divide n_gates={n_gates}")

    @property
    def blocks(self) -> int:
        return self.n_gates // self.m


def gamma(blocks: int, eps_a: float) -> float:
    """sum_{f=1}^{B-1} eps_a^f (B - f), in closed form.

    Counts (start block, skip-run length) pairs for an error that survives f
    consecutive skipped rounds, weighted by the skip probability.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if not 0.0 <= eps_a < 1.0:
        raise ValueError(f"eps_a must be in [0, 1), got {eps_a}")
    if eps_a == 0.0 or blocks == 1:
        return 0.0
    b = blocks
    one = 1.0 - eps_a
    return (b * eps_a * one - eps_a + eps_a ** (b + 1)) / (one * one)


def gamma3(blocks: int, eps_a: float) -> float:
    """sum_{f=1}^{B-1} eps_a^f (B - f - 1), in closed form.

    Same as gamma but the creating fault sits inside a performed round, so the
    survival window starts one block later.
    """
    if blocks < 1:
        raise ValueError("blocks must be >= 1")
    if not 0.0 <= eps_a < 1.0:
        raise ValueError(f"eps_a must be in [0, 1), got {eps_a}")
    if eps_a == 0.0 or blocks <= 2:
        return 0.0
    b = blocks
    one = 1.0 - eps_a
    return eps_a * (b * one - 2.0 + eps_a + eps_a ** (b - 1)) / (one * one)


def table_contributions(rates: AbstractRates, schedule: Schedule) -> list[tuple[str, float]]:
    """The 15 itemized second-order pair terms, each already times 42.

    Row naming: which two elementary faults pair up and how many blocks apart
    ("block" same block, "adjacent" next performed round, "skip" separated by
    one or more skipped rounds).
    """
    rates.validate()
    b = float(schedule.blocks)
    m = float(schedule.m)
    ea = rates.eps_a
    one = 1.0 - ea
    mg = m * rates.eps_g
    es, ec, ed = rates.eps_s, rates.eps_c, rates.eps_d
    sd = es + ed
    g = gamma(schedule.blocks, ea)
    g3 = gamma3(schedule.blocks, ea)
    k = float(ORDERED_QUBIT_PAIRS)
    rows = [
        ("block_gate_gate", k * b * mg * mg / 2.0),
        ("block_gate_syndlike", k * b * one * mg * sd),
        ("round_double_syndlike", k * b * one * ed * (es + ed / 2.0)),
        ("round_syndrome_correction", k * b * one * es * ec),
        ("round_correction_correction", k * b * one * ec * ec / 2.0),
        ("adjacent_syndrome_gate", k * (b - 1.0) * one * es * mg),
        ("adjacent_syndrome_syndlike", k * (b - 1.0) * one * one * es * sd),
        ("adjacent_correction_gate", k * (b - 1.0) * one * ec * mg),
        ("adjacent_correction_syndlike", k * (b - 1.0) * one * one * ec * sd),
        ("skip_gate_gate", k * g * mg * mg),
        ("skip_gate_syndlike", k * g * one * mg * sd),
        ("skip_syndrome_gate", k * g3 * one * es * mg),
        ("skip_syndrome_syndlike", k * g3 * one * one * es * sd),
        ("skip_correction_gate", k * g3 * one * ec * mg),
        ("skip_correction_syndlike", k * g3 * one * one * ec * sd),
    ]
    return rows


def pl_second_order(rates: AbstractRates, schedule: Schedule, clamp: bool = True) -> float:
    """Second-order logical X failure probability of the whole sequence.

    Sum of table_contributions (one arithmetic path, so the itemized rows add
    up to this value exactly).  Being a truncated series the raw sum can
    exceed 1 for large inputs; it is clamped to [0, 1] with a warning unless
    clamp=False.
    """
    total = math.fsum(value for _, value in table_contributions(rates, schedule))
    if clamp and not 0.0 <= total <= 1.0:
        warnings.warn(
            f"second-order sum {total:.3g} outside [0, 1]; clamped "
            "(rates too large for the truncation)",
            RuntimeWarning,
            stacklevel=2,
        )
        total = min(max(total, 0.0), 1.0)
    return total


@dataclass(frozen=True)
class ApproxCoefficients:
    """P_L(m) ~ d/m + c0 + c1*m for fixed total gate count."""

    d: float
    c0: float
    c1: float

    def evaluate(self, m: float) -> float:
        if m <= 0:
            raise ValueError("m must be positive")
        return self.d / m + self.c0 + self.c1 * m


def approx_coefficients(rates: AbstractRates, scale: float) -> ApproxCoefficients:
    """Large-B coefficients of the d/m + c0 + c1*m approximation.

    scale multiplies all three coefficients; pass the total gate count N to
    approximate the full-sequence failure probability.  The minimizing m
    depends only on d/c1, where scale cancels.
    """
    rates.validate()
    if scale <= 0:
        raise ValueError("scale must be positive")
    ea = rates.eps_a
    one = 1.0 - ea
    es, ec, ed = rates.eps_s, rates.eps_c, rates.eps_d
    eg = rates.eps_g
    k = ORDERED_QUBIT_PAIRS * scale
    bracket = ec * (es + ec / 2.0) + ed * (es + ed / 2.0) + (es + ed) * (ec + es)
    d = k * one * bracket
    c0 = k * eg * (ec + 2.0 * es + ed)
    c1 = k * eg * eg * (1.0 / one - 0.5)
    return ApproxCoefficients(d=d, c0=c0, c1=c1)


def m_min(rates: AbstractRates) -> int:
    """Integer m minimizing the d/m + c0 + c1*m approximation.

    The strict-minimum inequalities put m in the open unit interval around
    sqrt(1/4 + d/c1); ties (both neighbors equal) resolve to the smaller m,
    and the result is clamped to at least 1.
    """
    if rates.eps_g <= 0:
        raise ValueError("m_min needs eps_g > 0 (c1 must be positive)")
    coeffs = approx_coefficients(rates, scale=1.0)
    x = math.sqrt(0.25 + coeffs.d / coeffs.c1)
    lo = x - 0.5
    if lo == math.floor(lo):
        # Endpoint tie: P(lo) == P(lo + 1); take the smaller.
        candidate = int(lo)
    else:
        candidate = math.floor(lo) + 1
    return max(candidate, 1)


def grid_argmin(rates: AbstractRates, n_gates: int, m_grid) -> tuple[int, float]:
    """(m, P_L) minimizing pl_second_order over an m grid; ties to smaller m."""
    schedules = sorted(
        {Schedule(n_gates=n_gates, m=m) for m in m_grid}, key=lambda s: s.m
    )
    if not schedules:
        raise ValueError("empty m grid")
    best_m, best_p = None, None
    for schedule in schedules:
        p = pl_second_order(rates, schedule)
        if best_p is None or p < best_p:
            best_m, best_p = schedule.m, p
    return best_m, best_p


def pairwise_fault_oracle(rates: AbstractRates, schedule: Schedule) -> float:
    """Direct enumeration of all second-order fault pairs.

    Independent cross-check of pl_second_order: walks concrete fault
    locations (block index, gate index, qubit) in time order and adds the
    probability of every pair of faults on distinct qubits whose errors end
    up on the data simultaneously, weighting the in-between skipped rounds by
    eps_a per skip.  No closed-form block combinatorics and no 42 prefactor
    appear here; they must emerge from the counting.

    Pair semantics:
      * a gate error exists from its block on; a performed round removes it
      * syndrome and correction faults in a performed round leave one error
        behind from the end of that round on
      * an omission fault creates no error: it only lets an existing one
        survive a round, so any pair it completes has three faults and
        eps_o does not enter the sum
      * an error present while another gate error lands, or entering a
        performed round that suffers a syndrome or double fault, makes the
        pair logical
      * inside one performed round: syndrome+correction,
        correction+correction, double+syndrome and double+double pairs are
        logical; two plain syndrome errors are not (one miscorrection)
    """
    rates.validate()
    b = schedule.blocks
    m = schedule.m
    n_loc = 7 * b * (m + 3)
    if n_loc > 10_000:
        raise ValueError(f"too many elementary locations ({n_loc} > 10000)")
    ea = rates.eps_a
    one = 1.0 - ea
    eg, es, ec, ed = rates.eps_g, rates.eps_s, rates.eps_c, rates.eps_d
    # eps_a^f lookup so inner loops stay cheap.
    ea_pow = [1.0] + [0.0] * b
    for f in range(1, b + 1):
        ea_pow[f] = ea_pow[f - 1] * ea

    qubit_pairs_ordered = [(qa, qb) for qa in range(7) for qb in range(7) if qa != qb]
    qubit_pairs_unordered = [(qa, qb) for qa in range(7) for qb in range(qa + 1, 7)]

    total = 0.0
    # Gate-created errors: location (block i, gate g, qubit qa), prob eps_g.
    for i in range(b):
        # Completing gate error in the same block: unordered location pairs on
        # distinct qubits, all gate-index combinations.
        for _qa, _qb in qubit_pairs_unordered:
            total += (m * m) * eg * eg
        # Completing gate error in a later block j: every round i..j-1 skipped.
        # Time order makes each pair unique, so ordered qubit pairs count once.
        for j in range(i + 1, b):
            w = ea_pow[j - i]
            for _qa, _qb in qubit_pairs_ordered:
                total += m * eg * w * m * eg
        # Completing syndrome/double fault in round j >= i: rounds i..j-1
        # skipped, round j performed.
        for j in range(i, b):
            w = ea_pow[j - i] * one
            for _qa, _qb in qubit_pairs_ordered:
                total += m * eg * w * (es + ed)
    # Round-created errors (syndrome or correction fault in a performed
    # round i) completed later.
    for i in range(b):
        for j in range(i + 1, b):
            w_gate = one * ea_pow[j - i - 1]
            w_round = one * ea_pow[j - i - 1] * one
            for _qa, _qb in qubit_pairs_ordered:
                total += (es + ec) * w_gate * m * eg
                total += (es + ec) * w_round * (es + ed)
    # Pairs completing inside a single performed round.
    for i in range(b):
        for _qa, _qb in qubit_pairs_ordered:
            total += one * es * ec  # miscorrection next to a stray CNOT error
            total += one * ed * es  # double unmasked by a corrupted syndrome
        for _qa, _qb in qubit_pairs_unordered:
            total += one * ec * ec
            total += one * ed * ed
    return total
