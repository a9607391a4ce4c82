"""Release acceptance gate: one test per numbered acceptance criterion.

These are the slow end-to-end checks, as opposed to the fine-grained unit
suite in the sibling files: closed forms against brute-force summation,
the second-order rate formula against Monte Carlo at production shot
counts, calibration slopes measured from the shipped extraction circuit,
and the determinism and throughput contract of the CLI sweep path.

`pytest tests/test_acceptance.py -v` prints one pass/fail line per
criterion.  The whole gate takes under half a minute on one core; the
Monte Carlo fixtures at the top dominate the runtime and are shared
between criteria, so the tests must run within a single session to stay
cheap.

Known state: every criterion is expected to pass.  Criterion 6's sign
sub-check (any >3-sigma deviation in the dense-correction corner eps_a = 0,
m <= 2 must be an underestimate by the formula) rests on the closed form
leaving the omission rate eps_o out of error creation.  An omission only
lets an existing error survive a round, so a pair it completes has three
faults.  Counted this way the formula sits within 2 sigma of Monte Carlo in
that corner; charging eps_o as creation (eps_s + eps_o + eps_c per round)
puts it 4 to 5 sigma above.
"""
import json
import math
import time

import numpy as np
import pytest

from qec_cadence import cli, steane
from qec_cadence.calibration import calibrate
from qec_cadence.exact import logical_error_exact
from qec_cadence.faultsim import TrajectoryConfig, estimate_many
from qec_cadence.model import (
    AbstractRates,
    Schedule,
    gamma,
    gamma3,
    grid_argmin,
    m_min,
    pairwise_fault_oracle,
    pl_second_order,
    rates_at,
    table_contributions,
)
from qec_cadence.noise import NoiseParams, bit_error_rates

N_GATES = 1000

# Criterion 6/8 grid: the desk-scale sweep the rate formula must track.
SWEEP_EPS_G = 1e-4
SWEEP_EPS_A = (0.0, 0.3, 0.5)
SWEEP_M = (1, 2, 4, 5, 8, 10, 20, 25)
SWEEP_SHOTS = 100_000

# Criterion 7 grid: cadence values spanning well below and above the optimum.
ARGMIN_EPS_G = 5e-5
ARGMIN_M_GRID = (1, 2, 4, 5, 8, 10, 20, 25, 100)
ARGMIN_SHOTS = 100_000
# Criterion 7 exact reference: divisible by every m in 1..8.
EXACT_N_GATES = 840

TREND_SHOTS = 400_000

SEED_SWEEP = 6001
SEED_TREND = 6002
SEED_ARGMIN = 6003
SEED_CALIBRATION = 6004


def _sigma(est) -> float:
    """Binomial standard error of a Monte Carlo estimate."""
    return math.sqrt(max(est.p_hat * (1.0 - est.p_hat), 1e-300) / est.shots)


def _mc_point(eps_g, eps_a, m, shots, seed):
    cfg = TrajectoryConfig(
        n_gates=N_GATES,
        m=m,
        eps_a=eps_a,
        noise=NoiseParams.from_eps_g(eps_g),
        shots=shots,
        master_seed=seed,
    )
    return estimate_many([cfg])[0]


@pytest.fixture(scope="module")
def calibration_run():
    """Full-size calibration: 10^6 shots per grid point, default grid."""
    t0 = time.perf_counter()
    result = calibrate(seed=SEED_CALIBRATION)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def agreement_sweep():
    """(eps_a, m) -> Monte Carlo estimate at eps_g = 1e-4, 10^5 shots."""
    t0 = time.perf_counter()
    grid = {}
    index = 0
    for eps_a in SWEEP_EPS_A:
        for m in SWEEP_M:
            seed = cli.derive_seed(SEED_SWEEP, index)
            grid[(eps_a, m)] = _mc_point(SWEEP_EPS_G, eps_a, m, SWEEP_SHOTS, seed)
            index += 1
    return grid, time.perf_counter() - t0


@pytest.fixture(scope="module")
def trend_runs():
    """High-statistics estimates for the skip-rate trend check."""
    runs = {}
    index = 0
    for m in (1, 25):
        for eps_a in SWEEP_EPS_A:
            seed = cli.derive_seed(SEED_TREND, index)
            runs[(m, eps_a)] = _mc_point(SWEEP_EPS_G, eps_a, m, TREND_SHOTS, seed)
            index += 1
    return runs


@pytest.fixture(scope="module")
def argmin_runs():
    """eps_a -> {m -> estimate} on the cadence grid at eps_g = 5e-5."""
    runs = {}
    index = 0
    for eps_a in SWEEP_EPS_A:
        per_m = {}
        for m in ARGMIN_M_GRID:
            seed = cli.derive_seed(SEED_ARGMIN, index)
            per_m[m] = _mc_point(ARGMIN_EPS_G, eps_a, m, ARGMIN_SHOTS, seed)
            index += 1
        runs[eps_a] = per_m
    return runs


def test_criterion_1_depolarizing_rate_split():
    """eps_g = 2*eps/3 and eps_c = eps_d = 2*eps_g/5, exactly."""
    for eps in (1e-6, 7.7e-5, 1.5e-4, 9.3e-4, 3e-3, 0.04, 0.25):
        eps_g, eps_c, eps_d = bit_error_rates(eps)
        assert eps_g == 2.0 * eps / 3.0
        assert eps_c == 2.0 * eps_g / 5.0
        assert eps_d == eps_c
        assert NoiseParams(eps).eps_g == eps_g


def test_criterion_2_skip_weight_closed_forms():
    """gamma/gamma3 match direct summation, B in [1, 200], eps_a in
    {0.00, ..., 0.99}, relative 1e-12, in under a second."""
    t0 = time.perf_counter()
    b_max = 200
    f = np.arange(1, b_max, dtype=np.float64)
    for k in range(100):
        a = k / 100.0
        powers = a**f
        # gamma(B) = sum_{f=1}^{B-1} a^f (B - f) telescopes to a double
        # cumulative sum of a^f, so the reference needs no cancellation.
        double = np.cumsum(np.cumsum(powers))
        for blocks in range(1, b_max + 1):
            direct = 0.0 if blocks < 2 else double[blocks - 2]
            direct3 = 0.0 if blocks < 3 else double[blocks - 3]
            assert gamma(blocks, a) == pytest.approx(direct, rel=1e-12, abs=0.0)
            assert gamma3(blocks, a) == pytest.approx(direct3, rel=1e-12, abs=0.0)
    assert time.perf_counter() - t0 < 1.0


ORACLE_RATE_SETS = (
    dict(eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4, eps_c=0.4e-4, eps_d=0.4e-4),
    dict(eps_g=1e-3, eps_s=1e-3, eps_o=1e-3, eps_c=1e-3, eps_d=1e-3),
    dict(eps_g=2e-4, eps_s=7e-4, eps_o=0.0, eps_c=1e-5, eps_d=9e-4),
    dict(eps_g=5e-6, eps_s=2e-6, eps_o=1e-6, eps_c=3e-6, eps_d=4e-6),
)


def test_criterion_3_formula_identity_and_oracle():
    """The contribution table sums exactly to pl_second_order, and the
    brute-force pairwise enumeration agrees to relative 1e-6."""
    t0 = time.perf_counter()
    for base in ORACLE_RATE_SETS:
        for eps_a in (0.0, 0.3, 0.7):
            rates = AbstractRates(eps_a=eps_a, **base)
            for blocks in (1, 2, 3, 5, 10):
                for m in (1, 2, 5):
                    schedule = Schedule(n_gates=blocks * m, m=m)
                    formula = pl_second_order(rates, schedule)
                    total = math.fsum(v for _, v in table_contributions(rates, schedule))
                    assert total == formula
                    oracle = pairwise_fault_oracle(rates, schedule)
                    assert formula == pytest.approx(oracle, rel=1e-6)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_error_pattern_exhaustives():
    """All 128 patterns behave: weight <= 1 fully corrected, every
    weight-2 pattern decodes to a logical flip, verdicts are invariant
    under the stabilizer group."""
    t0 = time.perf_counter()
    weight_two = 0
    for e in range(steane.N_PATTERNS):
        residual = e ^ steane.DECODE[steane.SYNDROME[e]]
        verdict = steane.RESIDUAL_LOGICAL[e]
        assert steane.SYNDROME[residual] == 0
        w = steane.WEIGHT[e]
        if w <= 1:
            assert residual == 0 and not verdict
        elif w == 2:
            assert verdict
            weight_two += 1
        for s in steane.STABILIZER_PATTERNS:
            assert steane.RESIDUAL_LOGICAL[e ^ s] == verdict
    assert weight_two == 21
    assert time.perf_counter() - t0 < 1.0


def test_criterion_5_calibration_slopes(calibration_run):
    """Micro-sims of the shipped extraction circuit reproduce the
    reference per-eps_g slopes 3.85 (syndrome + double) and 1.01
    (correction + omission) within +/-15%."""
    result, elapsed = calibration_run
    assert abs(result.slope_sd - 3.85) <= 0.15 * 3.85, result.slope_sd
    assert abs(result.slope_co - 1.01) <= 0.15 * 1.01, result.slope_co
    record = result.to_record()
    assert record["slope_sd"] == result.slope_sd
    assert record["slope_co"] == result.slope_co
    assert not result.clamp_warnings
    assert elapsed < 600.0


def test_criterion_6_formula_tracks_simulation(agreement_sweep):
    """At eps_g = 1e-4 over the full (eps_a, m) grid the formula stays
    within max(3 sigma, 30% relative) of Monte Carlo; any >3-sigma
    deviation in the dense-correction corner (eps_a = 0, m <= 2) must be
    an underestimate."""
    grid, elapsed = agreement_sweep
    coeffs = dict(cli.BUILTIN_COEFFS)
    tracking_problems = []
    sign_problems = []
    worst_rel = 0.0
    for (eps_a, m), est in grid.items():
        rates = cli.rates_at(coeffs, SWEEP_EPS_G, eps_a)
        formula = pl_second_order(rates, Schedule(n_gates=N_GATES, m=m))
        sigma = _sigma(est)
        deviation = formula - est.p_hat
        worst_rel = max(worst_rel, abs(deviation) / est.p_hat)
        tolerance = max(3.0 * sigma, 0.30 * est.p_hat)
        if abs(deviation) > tolerance:
            tracking_problems.append(
                f"eps_a={eps_a} m={m}: formula={formula:.4e} mc={est.p_hat:.4e} "
                f"|deviation|={abs(deviation):.2e} > tolerance={tolerance:.2e}"
            )
        if eps_a == 0.0 and m <= 2 and abs(deviation) > 3.0 * sigma and deviation > 0:
            sign_problems.append(
                f"eps_a={eps_a} m={m}: formula={formula:.4e} is {deviation / sigma:+.1f} "
                f"sigma ABOVE mc={est.p_hat:.4e}; an underestimate is required when "
                "the deviation here exceeds 3 sigma"
            )
    assert not tracking_problems, "tracking tolerance violated at:\n" + "\n".join(
        tracking_problems
    )
    assert elapsed < 1800.0
    assert not sign_problems, (
        "sign check failed in the dense-correction corner (the tracking "
        f"tolerance held at all {len(grid)} grid points, worst relative "
        f"deviation {worst_rel:.1%} < 30%):\n" + "\n".join(sign_problems)
    )


def test_criterion_7_cadence_range_invariance_argmin(calibration_run, argmin_runs):
    """With calibrated rates the optimal cadence is at most 6 across the
    operating window and costs within 1% of the exact evaluator's optimum,
    is exactly invariant in eps_g, and the formula's grid argmin matches
    the simulation's within overlapping CIs."""
    result, _ = calibration_run

    for eps_g in (5e-5, 7.5e-5, 1e-4, 1.5e-4, 2e-4, 2.5e-4, 3e-4):
        for k in range(11):
            eps_a = k * 0.05
            best = m_min(rates_at(result.coefficients, eps_g, eps_a))
            assert best <= 6, (eps_g, eps_a, best)

    # The lower edge of the range is the exact 128-state reference: m_min
    # must cost no more than 1% above the best m = 1..8.  At eps_a = 0.5 the
    # exact P(2) and P(3) differ by under 0.5%, so a fixed lower bound on m
    # cannot tell a right optimum from a wrong one.
    for eps_g in (5e-5, 1e-4, 3e-4):
        noise = NoiseParams.from_eps_g(eps_g)
        for k in range(11):
            eps_a = k * 0.05
            exact = {
                m: logical_error_exact(noise, eps_a, EXACT_N_GATES, m)
                for m in range(1, 9)
            }
            best = m_min(rates_at(result.coefficients, eps_g, eps_a))
            assert exact[best] <= 1.01 * min(exact.values()), (
                eps_g, eps_a, best, exact,
            )

    for eps_a in (0.0, 0.25, 0.5):
        values = {
            m_min(rates_at(result.coefficients, eps_g, eps_a))
            for eps_g in np.geomspace(5e-5, 3e-4, 9)
        }
        assert len(values) == 1, (eps_a, values)
    base = rates_at(result.coefficients, 1e-4, 0.3)
    assert {m_min(base.scaled(s)) for s in (0.5, 1.0, 2.0, 3.0)} == {m_min(base)}

    for eps_a in SWEEP_EPS_A:
        per_m = argmin_runs[eps_a]
        mc_best = min(ARGMIN_M_GRID, key=lambda m: (per_m[m].p_hat, m))
        formula_best, _ = grid_argmin(
            rates_at(result.coefficients, ARGMIN_EPS_G, eps_a), N_GATES, ARGMIN_M_GRID
        )
        if formula_best != mc_best:
            a, b = per_m[mc_best], per_m[formula_best]
            assert a.ci_low <= b.ci_high and b.ci_low <= a.ci_high, (
                f"eps_a={eps_a}: formula argmin m={formula_best} "
                f"[{b.ci_low:.3e}, {b.ci_high:.3e}] does not overlap simulation "
                f"argmin m={mc_best} [{a.ci_low:.3e}, {a.ci_high:.3e}]"
            )


def test_criterion_8_skip_rate_trend_reversal(trend_runs):
    """Below the optimal cadence (m = 1) skipping more corrections lowers
    the logical rate, resolved at 3 sigma per step; above it (m = 25) the
    ordering reverses."""

    def z(hi, lo):
        gap = hi.p_hat - lo.p_hat
        return gap / math.hypot(_sigma(hi), _sigma(lo))

    assert z(trend_runs[(1, 0.0)], trend_runs[(1, 0.3)]) > 3.0
    assert z(trend_runs[(1, 0.3)], trend_runs[(1, 0.5)]) > 3.0
    assert z(trend_runs[(25, 0.3)], trend_runs[(25, 0.0)]) > 3.0
    assert z(trend_runs[(25, 0.5)], trend_runs[(25, 0.3)]) > 3.0


def test_criterion_9_determinism_and_throughput(tmp_path):
    """Sweep output is byte-identical at any thread count for a fixed
    seed, and a million 1000-gate trajectories at m = 5 finish within the
    ten-minute budget."""
    config = {
        "seed": 7,
        "sweep": {
            "eps_g": [1e-4],
            "eps_a": [0.0, 0.5],
            "m": [5],
            "n_gates": N_GATES,
            "shots": 40_000,
        },
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    outputs = []
    for threads in (1, 2, 3):
        out = tmp_path / f"sweep_t{threads}.csv"
        code = cli.main(
            ["sweep", "--config", str(config_path), "--threads", str(threads), "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    cfg = TrajectoryConfig(
        n_gates=N_GATES,
        m=5,
        eps_a=0.0,
        noise=NoiseParams.from_eps_g(1e-4),
        shots=1_000_000,
        master_seed=97,
    )
    t0 = time.perf_counter()
    estimate_many([cfg])
    assert time.perf_counter() - t0 < 600.0
