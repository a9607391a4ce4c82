"""Correctness checks of the benchmark's workloads.

Every check compares an output of the timed code with a computation made
apart from that code path, or with a property the method must have; none
compares with a stored copy of earlier output.  Each returns a list of
failure messages, empty when the output passes.
"""
from __future__ import annotations

import math

import numpy as np

# The sweep CSV header as README.md documents it (section "Sweep CSV").
DOCUMENTED_HEADER = (
    "eps_g,eps_a,m,N,B,shots,failures,p_l_mc,ci_low,ci_high,"
    "p_l_formula,p_l_approx,seed"
)

# Binomial sigmas a correct sampler may stray.  Two-sided, 5 sigma is
# passed by chance with probability ~6e-7 per comparison, so the ~2000
# comparisons of two sets of 22 runs fail by chance ~1e-3 of the time.
Z_BOUND = 5.0
# Acceptance criterion 6: closed form within 30% of the reference.
FORMULA_TOLERANCE = 0.30
# A second-order expansion must match the exact value at vanishing noise.
LOW_NOISE_TOLERANCE = 0.05
# Acceptance criterion 7: the chosen cadence is within 1% of the best.
CADENCE_TOLERANCE = 1.01
ROW_SUM_TOLERANCE = 1e-12


def binomial_sigma(p: float, shots: int) -> float:
    return math.sqrt(p * (1.0 - p) / shots)


def parse_sweep_csv(text: str) -> tuple[str, list[dict]]:
    lines = text.splitlines()
    header, body = lines[0], lines[1:]
    names = header.split(",")
    rows = [dict(zip(names, line.split(","))) for line in body]
    return header, rows


def sweep_failures(text: str, grid: dict, reference: dict) -> list[str]:
    """Check a sweep CSV against its grid and the exact evaluator.

    grid: the config's sweep section.  reference: exact P_L keyed by
    (eps_g, eps_a, m), computed with exact.logical_error_exact.
    """
    header, rows = parse_sweep_csv(text)
    if header != DOCUMENTED_HEADER:
        return [f"sweep header {header!r} is not the documented one"]
    problems = []
    expected = [
        (g, a, m) for g in grid["eps_g"] for a in grid["eps_a"] for m in grid["m"]
    ]
    got = [(float(r["eps_g"]), float(r["eps_a"]), int(r["m"])) for r in rows]
    if got != expected:
        return [f"sweep rows cover {got}, expected {expected}"]
    n_gates, shots = grid["n_gates"], grid["shots"]
    for row, key in zip(rows, expected):
        label = "eps_g={} eps_a={} m={}".format(*key)
        if (int(row["N"]), int(row["B"]), int(row["shots"])) != (
            n_gates, n_gates // key[2], shots
        ):
            problems.append(f"{label}: N, B or shots differ from the config")
        p_mc = float(row["p_l_mc"])
        if int(row["failures"]) != round(p_mc * shots):
            problems.append(f"{label}: p_l_mc is not failures/shots")
        if not float(row["ci_low"]) <= p_mc <= float(row["ci_high"]):
            problems.append(f"{label}: p_l_mc {p_mc} outside its interval")
        p_exact = reference[key]
        sigma = binomial_sigma(p_exact, shots)
        if abs(p_mc - p_exact) > Z_BOUND * sigma:
            problems.append(
                f"{label}: p_l_mc {p_mc:.5g} is {abs(p_mc - p_exact) / sigma:.1f} "
                f"sigma from exact {p_exact:.5g}"
            )
        problems += relative_gap_failures(
            p_exact, float(row["p_l_formula"]), FORMULA_TOLERANCE,
            f"{label} p_l_formula")
    return problems


def transfer_failures(transfer: np.ndarray, label: str) -> list[str]:
    """A round's transfer matrix is a nonnegative row-stochastic matrix."""
    problems = []
    if transfer.min() < 0.0:
        problems.append(f"{label}: transfer matrix has a negative entry")
    drift = np.abs(transfer.sum(axis=1) - 1.0).max()
    if drift > ROW_SUM_TOLERANCE:
        problems.append(f"{label}: transfer row sums drift {drift:.3g} from 1")
    return problems


def relative_gap_failures(
    exact_value: float, formula_value: float, tolerance: float, label: str
) -> list[str]:
    gap = abs(formula_value - exact_value) / exact_value
    if gap > tolerance:
        return [f"{label}: closed form {formula_value:.5g} is {gap:.1%} off "
                f"exact {exact_value:.5g}"]
    return []


def cadence_failures(exact_by_m: dict, chosen_m: int, label: str) -> list[str]:
    """P_exact(chosen m) <= 1.01 * min over m of P_exact(m)."""
    best = min(exact_by_m.values())
    if exact_by_m[chosen_m] > CADENCE_TOLERANCE * best:
        return [f"{label}: m={chosen_m} gives {exact_by_m[chosen_m]:.5g}, "
                f"best is {best:.5g}"]
    return []


def fit_through_origin(xs, ys) -> float:
    """Least-squares slope of a line through the origin."""
    return sum(x * y for x, y in zip(xs, ys)) / sum(x * x for x in xs)


def calibration_failures(record: dict, divisor: float, exact_rates) -> list[str]:
    """Check a calibration record against exact single-round rates.

    divisor: the spectator count the stated normalization divides by.
    exact_rates: (rate_two, rate_one) of exact.single_round_rates at each
    grid point, in the record's order.  Per-point rates must lie within
    Z_BOUND binomial sigmas of exact, and the slopes within Z_BOUND sigmas
    of a zero-intercept fit of the exact rates, the sigmas propagated
    through the fit from the shot counts.
    """
    points = record["points"]
    if len(points) != len(exact_rates):
        return [f"calibration has {len(points)} points, expected {len(exact_rates)}"]
    problems = []
    xs = [p["eps_g"] for p in points]
    sxx = sum(x * x for x in xs)
    for which, slope_key, column in (
        ("rate_two", "slope_sd", 0), ("rate_one", "slope_co", 1)
    ):
        exact_col = [r[column] for r in exact_rates]
        var = 0.0
        for p, x, p_exact in zip(points, xs, exact_col):
            sigma = binomial_sigma(p_exact, p["shots"])
            var += (x * sigma / divisor) ** 2
            if abs(p[which] - p_exact) > Z_BOUND * sigma:
                problems.append(
                    f"eps_g={x}: {which} {p[which]:.5g} is "
                    f"{abs(p[which] - p_exact) / sigma:.1f} sigma from exact "
                    f"{p_exact:.5g}"
                )
        slope_exact = fit_through_origin(xs, [y / divisor for y in exact_col])
        half = Z_BOUND * math.sqrt(var) / sxx
        if abs(record[slope_key] - slope_exact) > half:
            problems.append(
                f"{slope_key} {record[slope_key]:.5g} is outside exact fit "
                f"{slope_exact:.5g} +- {half:.3g}"
            )
    return problems
