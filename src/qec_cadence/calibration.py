"""Micro-simulations that fit the per-round effective error rates.

Protocol: prepare the data with a single X error on qubit i, run one
performed (never skipped) syndrome-extraction round at the grid point's
noise, NoiseParams.from_eps_g(eps_g), and classify the output.  Outputs
that decode to a logical flip measure the round's tendency to add a
second independent error next to an existing one; outputs with exactly one
residual error measure pass-through and replacement.  Both rates grow
linearly in eps_g, and their fitted slopes, minus the analytically known
coupling-CNOT shares, give the per-qubit syndrome rate used by the
closed-form model and the omission (survival) rate, which the model records
but leaves out of its second-order sum.

Normalization: each measured rate aggregates contributions from the 6
spectator positions of the input error, so the default "per_spectator"
normalization divides the aggregate by 6 to obtain per-qubit rates.  The
"direct" alternative identifies the aggregate with the per-qubit rate
as-is; it is selectable for comparison but inflates every fitted slope by
roughly the spectator count.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from .ancilla import accepted_distribution, default_circuit
from .faultsim import (
    Z_95,
    derive_seed,
    round_output,
    sample_round_faults,
    wilson_interval,
)
from .model import as_count, as_seed
from .noise import NoiseParams
from .steane import RESIDUAL_LOGICAL, WEIGHT

DEFAULT_EPS_G_GRID = (1e-5, 5e-5, 1e-4, 5e-4, 1e-3)
DEFAULT_SHOTS = 1_000_000
# Coupling-CNOT shares of the fitted slopes, exact by construction:
# 4*eps/15 = (2/5)*eps_g for the data-only and data-plus-copy fault classes.
EPS_C_COEFF = 0.4
EPS_D_COEFF = 0.4
# Fixed reference coefficients (per eps_g) for Steane-style extraction
# rounds; configs use source "calibrated" to measure their own from the
# shipped circuit instead.
BUILTIN_COEFFS = {
    "eps_s_per_eps_g": 3.45,
    "eps_o_per_eps_g": 0.61,
    "eps_c_per_eps_g": EPS_C_COEFF,
    "eps_d_per_eps_g": EPS_D_COEFF,
}
SPECTATOR_COUNT = 6

SINGLE_ERROR_INPUTS = tuple(1 << q for q in range(7))


def fit_linear(points) -> float:
    """Zero-intercept least-squares slope of (x, y) pairs: sum xy / sum x^2."""
    pts = list(points)
    if not pts:
        raise ValueError("need at least one point")
    sxx = sum(x * x for x, _ in pts)
    if sxx == 0.0:
        raise ValueError("all x values are zero; slope is undefined")
    sxy = sum(x * y for x, y in pts)
    return sxy / sxx


@dataclass(frozen=True)
class PositionRates:
    """Per-input-position measurement of one grid point."""

    pattern: int
    shots: int
    two_count: int  # outputs decoding to a logical flip
    one_count: int  # outputs with exactly one residual error

    @property
    def rate_two(self) -> float:
        return self.two_count / self.shots

    @property
    def rate_one(self) -> float:
        return self.one_count / self.shots


def measure_position_rates(
    noise: NoiseParams, shots: int, seed: int = 0
) -> list[PositionRates]:
    """Run the protocol once per single-error input; shots split evenly.

    The ancillas come from default_circuit().  Only rounds with a fault
    are classified: a fault-free round corrects the single-error input to
    no error, which is neither a logical flip nor weight 1.  `seed` must
    be an integer in [0, 2^64), as calibrate's.
    """
    as_seed("seed", seed)
    if as_count("shots", shots) < len(SINGLE_ERROR_INPUTS):
        raise ValueError("need at least one shot per input pattern")
    syn_probs = accepted_distribution(default_circuit(), noise).syndrome_law
    base, extra = divmod(shots, len(SINGLE_ERROR_INPUTS))
    out = []
    for k, pattern in enumerate(SINGLE_ERROR_INPUTS):
        n = base + (1 if k < extra else 0)
        rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
        faults = sample_round_faults(rng, n, noise, syn_probs)
        outs = round_output(pattern, faults.on_data, faults.on_measured)
        out.append(
            PositionRates(
                pattern=pattern,
                shots=n,
                two_count=int(np.count_nonzero(RESIDUAL_LOGICAL[outs])),
                one_count=int(np.count_nonzero(WEIGHT[outs] == 1)),
            )
        )
    return out


def _mean_rates(positions) -> tuple[float, float]:
    two = sum(p.rate_two for p in positions) / len(positions)
    one = sum(p.rate_one for p in positions) / len(positions)
    return two, one


@dataclass(frozen=True)
class CalibrationPoint:
    eps_g: float
    shots: int
    rate_two: float
    rate_one: float
    rate_two_ci: tuple[float, float]
    rate_one_ci: tuple[float, float]

    def to_record(self) -> dict:
        """Every field by name, each interval as a JSON list."""
        record = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in record.items()}


@dataclass(frozen=True)
class CalibrationResult:
    points: tuple[CalibrationPoint, ...]
    normalization: str
    slope_sd: float
    slope_co: float
    slope_sd_ci: tuple[float, float]
    slope_co_ci: tuple[float, float]
    eps_s_coeff: float
    eps_o_coeff: float
    clamp_warnings: tuple[str, ...] = field(default=())

    @property
    def coefficients(self) -> dict:
        """Rates per eps_g, fitted and exact, in the keys model.rates_at reads."""
        return {**BUILTIN_COEFFS, "eps_s_per_eps_g": self.eps_s_coeff,
                "eps_o_per_eps_g": self.eps_o_coeff}

    def to_record(self) -> dict:
        return {
            "normalization": self.normalization,
            "slope_sd": self.slope_sd,
            "slope_co": self.slope_co,
            "slope_sd_ci": list(self.slope_sd_ci),
            "slope_co_ci": list(self.slope_co_ci),
            **self.coefficients,
            "clamp_warnings": list(self.clamp_warnings),
            "points": [p.to_record() for p in self.points],
        }


def _slope_and_ci(points, which: str, divisor: float) -> tuple[float, tuple[float, float]]:
    pts = [(p.eps_g, getattr(p, which) / divisor) for p in points]
    slope = fit_linear(pts)
    # propagate per-point binomial error through the zero-intercept fit
    sxx = sum(x * x for x, _ in pts)
    var = 0.0
    for p in points:
        rate = getattr(p, which)
        sig = math.sqrt(max(rate * (1.0 - rate), 1.0 / p.shots) / p.shots) / divisor
        var += (p.eps_g * sig) ** 2
    half = Z_95 * math.sqrt(var) / sxx
    return slope, (slope - half, slope + half)


def calibrate(
    eps_g_grid=DEFAULT_EPS_G_GRID,
    shots: int = DEFAULT_SHOTS,
    seed: int = 0,
    normalization: str = "per_spectator",
    noise_options: dict | None = None,
) -> CalibrationResult:
    """Measure both rates over the eps_g grid and fit the slopes.

    `shots` is the total per grid point, split over the 7 input positions.
    Seeds are derived per (grid point, input position), so results are
    deterministic and positions may be fanned out in any order.  `seed`
    must be an integer in [0, 2^64), as a TrajectoryConfig's master seed.
    """
    as_seed("seed", seed)
    if normalization not in ("per_spectator", "direct"):
        raise ValueError(f"unknown normalization {normalization!r}")
    if not eps_g_grid:
        raise ValueError("eps_g grid must be nonempty")
    divisor = SPECTATOR_COUNT if normalization == "per_spectator" else 1.0
    # every grid point's noise first, so a bad eps_g anywhere fails up front
    noises = [NoiseParams.from_eps_g(eps_g, **(noise_options or {}))
              for eps_g in eps_g_grid]
    points = []
    for j, (eps_g, noise) in enumerate(zip(eps_g_grid, noises)):
        positions = measure_position_rates(
            noise, shots, seed=derive_seed(seed, j))
        rate_two, rate_one = _mean_rates(positions)
        n_total = sum(p.shots for p in positions)
        two_total = sum(p.two_count for p in positions)
        one_total = sum(p.one_count for p in positions)
        points.append(
            CalibrationPoint(
                eps_g=eps_g,
                shots=n_total,
                rate_two=rate_two,
                rate_one=rate_one,
                rate_two_ci=wilson_interval(two_total, n_total),
                rate_one_ci=wilson_interval(one_total, n_total),
            )
        )
    slope_sd, sd_ci = _slope_and_ci(points, "rate_two", divisor)
    slope_co, co_ci = _slope_and_ci(points, "rate_one", divisor)
    # each coefficient is its slope less its CNOT share, clamped at 0
    clamp_notes = []
    coeffs = []
    for name, slope, share in (("eps_s", slope_sd, EPS_D_COEFF),
                               ("eps_o", slope_co, EPS_C_COEFF)):
        coeff = slope - share
        if coeff < 0.0:
            clamp_notes.append(f"{name} coefficient {coeff:.4f} clamped to 0")
            coeff = 0.0
        coeffs.append(coeff)
    eps_s_coeff, eps_o_coeff = coeffs
    for note in clamp_notes:
        warnings.warn(note, RuntimeWarning, stacklevel=2)
    return CalibrationResult(
        points=tuple(points),
        normalization=normalization,
        slope_sd=slope_sd,
        slope_co=slope_co,
        slope_sd_ci=sd_ci,
        slope_co_ci=co_ci,
        eps_s_coeff=eps_s_coeff,
        eps_o_coeff=eps_o_coeff,
        clamp_warnings=tuple(clamp_notes),
    )
