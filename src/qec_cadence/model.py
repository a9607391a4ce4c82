"""Second-order analytic model for logical X failure of a gate sequence.

The physical story: N transversal logical gates are split into B = N/m blocks
of m gates, each block followed by one QEC round that is skipped with
probability eps_a.  Single faults are corrected; a logical failure needs two
faults on distinct qubits whose errors coexist on the data before a round
removes them.  The model sums all such pairs to second order in the rates.
The sum is stated once, as the 15 terms of _pair_terms: table_contributions
and pl_second_order read them at finite B, approx_coefficients reads their
large-B limit d/m + c0 + c1*m.

Per-qubit elementary rates (all per gate or per performed round), listed
once, in this order, as _PER_QUBIT_RATES:
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
from dataclasses import dataclass, replace

# Ordered pairs of distinct qubits in the 7-qubit block: 7 * 6.
ORDERED_QUBIT_PAIRS = 42
# The per-qubit rates of AbstractRates, the ones a noise strength scales.
_PER_QUBIT_RATES = ("eps_g", "eps_s", "eps_o", "eps_c", "eps_d")


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
        for name in _PER_QUBIT_RATES:
            v = as_rate(name, getattr(self, name))
            if not 0.0 <= v <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if not 0.0 <= as_rate("eps_a", self.eps_a) < 1.0:
            raise ValueError(f"eps_a must be in [0, 1), got {self.eps_a}")

    def scaled(self, factor: float) -> "AbstractRates":
        """Scale every per-qubit rate (eps_a is a schedule knob, untouched)."""
        return replace(self, **{name: getattr(self, name) * factor
                                for name in _PER_QUBIT_RATES})


def rates_at(coeffs: dict, eps_g: float, eps_a: float = 0.0) -> AbstractRates:
    """Rates at eps_g from per-eps_g coefficients, keyed `eps_s_per_eps_g` etc.

    A rate c * eps_g must stay in [0, 1], so a coefficient c above 1 caps
    eps_g at 1/c; past it the ValueError names eps_g and the cap.
    """
    as_rate("eps_g", eps_g)
    derived = {rate: coeffs[f"{rate}_per_eps_g"] * eps_g
               for rate in _PER_QUBIT_RATES[1:]}
    top = max(derived, key=derived.get)
    coeff = coeffs[f"{top}_per_eps_g"]
    if derived[top] > 1.0 and coeff > 1.0:
        raise ValueError(
            f"eps_g must be in [0, 1/{coeff!r}] (about {1.0 / coeff:.2g}) "
            f"with these rate coefficients, got {eps_g}"
        )
    return AbstractRates(eps_g=eps_g, eps_a=eps_a, **derived)


def as_rate(name: str, value) -> float:
    """`value` as a float; ValueError unless it is a real number (not a bool)."""
    if type(value) is float:  # skips the slow ABC check on the common path
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ValueError(f"{name} must be a real number, got {value!r}")


def as_seed(name: str, value) -> int:
    """`value` as a master seed; ValueError unless an integer in [0, 2^64)."""
    seed = as_count(name, value)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2^64)")
    return seed


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

    The one check of an (n_gates, m) pair: faultsim.TrajectoryConfig is a
    Schedule, and the exact evaluator builds one to validate its pair.
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
    """gamma(B - 1), and 0 at B = 1.

    The creating fault sits inside a performed round, so its survival
    window starts one block later.
    """
    return gamma(blocks - 1 if blocks > 1 else blocks, eps_a)


# A term's window, the places it fits in B blocks: B, B - 1, gamma, gamma3.
_BLOCK, _ADJACENT, _SKIP, _SKIP3 = range(4)


def _pair_terms(rates: AbstractRates) -> tuple:
    """The second-order sum as (name, window, power of m, product) terms.

    A term is 42 * window * m**power * product.  Names say which two faults
    pair up ("syndlike": syndrome or double) and how many blocks apart.
    """
    rates.validate()
    g, s, c, d = rates.eps_g, rates.eps_s, rates.eps_c, rates.eps_d
    one = 1.0 - rates.eps_a
    sd = s + d
    return (
        ("block_gate_gate", _BLOCK, 2, g * g / 2.0),
        ("block_gate_syndlike", _BLOCK, 1, one * g * sd),
        ("round_double_syndlike", _BLOCK, 0, one * d * (s + d / 2.0)),
        ("round_syndrome_correction", _BLOCK, 0, one * s * c),
        ("round_correction_correction", _BLOCK, 0, one * c * c / 2.0),
        ("adjacent_syndrome_gate", _ADJACENT, 1, one * s * g),
        ("adjacent_syndrome_syndlike", _ADJACENT, 0, one * one * s * sd),
        ("adjacent_correction_gate", _ADJACENT, 1, one * c * g),
        ("adjacent_correction_syndlike", _ADJACENT, 0, one * one * c * sd),
        ("skip_gate_gate", _SKIP, 2, g * g),
        ("skip_gate_syndlike", _SKIP, 1, one * g * sd),
        ("skip_syndrome_gate", _SKIP3, 1, one * s * g),
        ("skip_syndrome_syndlike", _SKIP3, 0, one * one * s * sd),
        ("skip_correction_gate", _SKIP3, 1, one * c * g),
        ("skip_correction_syndlike", _SKIP3, 0, one * one * c * sd),
    )


def _windowed(terms: tuple, eps_a: float, schedule: Schedule) -> list[tuple[str, float]]:
    """The pair terms at the schedule's B blocks, each already times 42."""
    b, m = schedule.blocks, float(schedule.m)
    window = (float(b), b - 1.0, gamma(b, eps_a), gamma3(b, eps_a))
    m_power = (1.0, m, m * m)
    k = float(ORDERED_QUBIT_PAIRS)
    return [(name, k * window[w] * m_power[p] * product)
            for name, w, p, product in terms]


def _clamped_sum(terms: tuple, eps_a: float, schedule: Schedule) -> float:
    """fsum of the windowed terms, clamped to [0, 1] with a warning."""
    total = math.fsum(value for _, value in _windowed(terms, eps_a, schedule))
    if not 0.0 <= total <= 1.0:
        warnings.warn(
            f"second-order sum {total:.3g} outside [0, 1]; clamped "
            "(rates too large for the truncation)",
            RuntimeWarning,
            stacklevel=3,  # the caller of pl_second_order or grid_argmin
        )
        total = min(max(total, 0.0), 1.0)
    return total


def table_contributions(rates: AbstractRates, schedule: Schedule) -> list[tuple[str, float]]:
    """The 15 second-order pair terms at B blocks, each already times 42."""
    return _windowed(_pair_terms(rates), rates.eps_a, schedule)


def pl_second_order(rates: AbstractRates, schedule: Schedule) -> float:
    """Second-order logical X failure probability of the whole sequence.

    Sum of table_contributions (one arithmetic path, so the itemized rows add
    up to this value exactly).  Being a truncated series the raw sum can
    exceed 1 for large inputs; it is clamped to [0, 1] with a warning.
    """
    return _clamped_sum(_pair_terms(rates), rates.eps_a, schedule)


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
    """Large-B limit of the pair terms, d/m + c0 + c1*m times scale (pass N).

    A window grows by a fixed slope per block, 1 for B and B - 1 and
    eps_a / (1 - eps_a) for both skip weights; at B = N/m a term of power p
    tends to N * 42 * slope * product * m**(p - 1), so p = 0, 1, 2 add to d,
    c0, c1.  The minimizing m depends only on d/c1, where scale cancels.
    """
    terms = _pair_terms(rates)
    if scale <= 0:
        raise ValueError("scale must be positive")
    skip = rates.eps_a / (1.0 - rates.eps_a)
    slope = (1.0, 1.0, skip, skip)
    coeffs = [0.0, 0.0, 0.0]
    for _, w, p, product in terms:
        coeffs[p] += slope[w] * product
    k = ORDERED_QUBIT_PAIRS * scale
    return ApproxCoefficients(*(k * c for c in coeffs))


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
    terms = _pair_terms(rates)  # built and validated once for the grid
    best_m, best_p = None, None
    for schedule in schedules:
        p = _clamped_sum(terms, rates.eps_a, schedule)
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
