"""Closed-form model tests.

The load-bearing identities: skip-weight closed forms equal their direct
sums, the contribution table sums exactly to the headline number, the
pairwise enumeration oracle reproduces the formula, and the optimal
cadence comes out of the quadratic where it should.
"""
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qec_cadence.exact import logical_error_exact
from qec_cadence.faultsim import TrajectoryConfig
from qec_cadence.model import (
    AbstractRates,
    ApproxCoefficients,
    Schedule,
    approx_coefficients,
    gamma,
    gamma3,
    grid_argmin,
    m_min,
    pairwise_fault_oracle,
    pl_second_order,
    rates_at,
    table_contributions,
)
from qec_cadence.noise import NoiseParams

BUILTIN = AbstractRates(
    eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4, eps_c=0.4e-4, eps_d=0.4e-4,
    eps_a=0.0,
)


def gamma_direct(blocks: int, eps_a: float) -> float:
    return math.fsum(
        eps_a**f * (blocks - f) for f in range(1, blocks)
    )


def gamma3_direct(blocks: int, eps_a: float) -> float:
    return math.fsum(
        eps_a**f * (blocks - f - 1) for f in range(1, blocks - 1)
    )


class TestSkipWeights:
    def test_frozen_values(self):
        assert gamma(3, 0.1) == pytest.approx(0.21, rel=1e-12)
        assert gamma(2, 0.5) == pytest.approx(0.5, rel=1e-12)
        assert gamma3(3, 0.1) == pytest.approx(0.1, rel=1e-12)

    def test_degenerate_cases_are_exactly_zero(self):
        assert gamma(1, 0.3) == 0.0
        assert gamma3(1, 0.3) == 0.0
        assert gamma3(2, 0.3) == 0.0
        assert gamma(5, 0.0) == 0.0
        assert gamma3(5, 0.0) == 0.0

    def test_closed_forms_match_direct_sums_on_grid(self):
        for blocks in (1, 2, 3, 4, 5, 10, 50, 200):
            for k in range(0, 100, 3):
                a = k / 100.0
                assert gamma(blocks, a) == pytest.approx(
                    gamma_direct(blocks, a), rel=1e-12, abs=1e-300
                )
                assert gamma3(blocks, a) == pytest.approx(
                    gamma3_direct(blocks, a), rel=1e-12, abs=1e-300
                )

    @given(
        blocks=st.integers(min_value=1, max_value=300),
        eps_a=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_closed_forms_match_direct_sums_property(self, blocks, eps_a):
        assert gamma(blocks, eps_a) == pytest.approx(
            gamma_direct(blocks, eps_a), rel=1e-11, abs=1e-300
        )
        assert gamma3(blocks, eps_a) == pytest.approx(
            gamma3_direct(blocks, eps_a), rel=1e-11, abs=1e-300
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma(0, 0.1)
        with pytest.raises(ValueError):
            gamma(3, 1.0)
        with pytest.raises(ValueError):
            gamma3(3, -0.1)


class TestSchedule:
    def test_blocks_times_m_equals_n(self):
        sched = Schedule(n_gates=1000, m=8)
        assert sched.blocks == 125

    def test_rejects_non_divisible(self):
        with pytest.raises(ValueError):
            Schedule(n_gates=1000, m=3)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            Schedule(n_gates=0, m=1)
        with pytest.raises(ValueError):
            Schedule(n_gates=10, m=0)


# Every consumer of an (n_gates, m) pair, called with counts (n_gates, m).
COUNT_CONSUMERS = {
    "Schedule": lambda n, m: Schedule(n_gates=n, m=m),
    "TrajectoryConfig": lambda n, m: TrajectoryConfig(
        n_gates=n, m=m, eps_a=0.0, noise=NoiseParams(eps=1e-3), shots=1,
        master_seed=0),
    "logical_error_exact": lambda n, m: logical_error_exact(
        NoiseParams(eps=1e-3), 0.0, n, m),
    "grid_argmin": lambda n, m: grid_argmin(BUILTIN, n, [m]),
}


class TestCountValidation:
    """Schedule is the one check of (n_gates, m); the others go through it."""

    @pytest.mark.parametrize("consumer", sorted(COUNT_CONSUMERS))
    def test_numpy_integers_accepted(self, consumer):
        COUNT_CONSUMERS[consumer](np.int64(10), np.int64(2))

    @pytest.mark.parametrize("bad", [2.5, 2.0, "10", True])
    @pytest.mark.parametrize("field", ["n_gates", "m"])
    @pytest.mark.parametrize("consumer", sorted(COUNT_CONSUMERS))
    def test_non_integers_rejected(self, consumer, field, bad):
        counts = {"n_gates": 10, "m": 1, field: bad}
        with pytest.raises(ValueError):
            COUNT_CONSUMERS[consumer](counts["n_gates"], counts["m"])

    @pytest.mark.parametrize("bad", [2.5, 2.0, "10", True])
    @pytest.mark.parametrize("field", ["shots", "batch_size"])
    def test_trajectory_counts_rejected(self, field, bad):
        kwargs = dict(n_gates=10, m=2, eps_a=0.0, noise=NoiseParams(eps=1e-3),
                      shots=1, master_seed=0)
        with pytest.raises(ValueError):
            TrajectoryConfig(**{**kwargs, field: bad})


RATE_FIELDS = ("eps_g", "eps_a", "eps_s", "eps_o", "eps_c", "eps_d")
COEFFS = {"eps_s_per_eps_g": 3.45, "eps_o_per_eps_g": 0.61,
          "eps_c_per_eps_g": 0.4, "eps_d_per_eps_g": 0.4}



def validate_with(name, value):
    AbstractRates(**{**{f: 1e-4 for f in RATE_FIELDS}, name: value}).validate()


# Every consumer of a rate, called with that one rate.
RATE_CONSUMERS = {
    **{f"AbstractRates.{name}": functools.partial(validate_with, name)
       for name in RATE_FIELDS},
    "rates_at.eps_g": lambda v: rates_at(COEFFS, v),
    "TrajectoryConfig.eps_a": lambda v: TrajectoryConfig(
        n_gates=10, m=2, eps_a=v, noise=NoiseParams(eps=1e-3), shots=1,
        master_seed=0),
    "logical_error_exact.eps_a": lambda v: logical_error_exact(
        NoiseParams(eps=1e-3), v, 10, 2),
}


class TestRateValidation:
    """A rate that is not a real number is a ValueError, never a TypeError."""

    @pytest.mark.parametrize("consumer", sorted(RATE_CONSUMERS))
    def test_numpy_floats_accepted(self, consumer):
        RATE_CONSUMERS[consumer](np.float64(1e-4))

    @pytest.mark.parametrize("bad", ["0.3", None, True, [1e-4]])
    @pytest.mark.parametrize("consumer", sorted(RATE_CONSUMERS))
    def test_non_reals_rejected(self, consumer, bad):
        with pytest.raises(ValueError):
            RATE_CONSUMERS[consumer](bad)


class TestRates:
    def test_validation_bounds(self):
        with pytest.raises(ValueError):
            AbstractRates(eps_g=-1e-3, eps_s=0, eps_o=0, eps_c=0, eps_d=0,
                          eps_a=0).validate()
        with pytest.raises(ValueError):
            AbstractRates(eps_g=1e-3, eps_s=0, eps_o=0, eps_c=0, eps_d=0,
                          eps_a=1.0).validate()
        with pytest.raises(ValueError):
            AbstractRates(eps_g=float("nan"), eps_s=0, eps_o=0, eps_c=0,
                          eps_d=0, eps_a=0).validate()

    def test_scaled_leaves_skip_probability_alone(self):
        r = AbstractRates(eps_g=1e-4, eps_s=3e-4, eps_o=1e-4, eps_c=4e-5,
                          eps_d=4e-5, eps_a=0.3)
        s = r.scaled(0.5)
        assert s.eps_g == pytest.approx(5e-5)
        assert s.eps_s == pytest.approx(1.5e-4)
        assert s.eps_a == 0.3


class TestSecondOrderFormula:
    def test_table_sums_exactly_to_formula(self):
        rates = AbstractRates(eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4,
                              eps_c=0.4e-4, eps_d=0.4e-4, eps_a=0.3)
        sched = Schedule(n_gates=1000, m=8)
        rows = table_contributions(rates, sched)
        assert len(rows) == 15
        assert math.fsum(v for _, v in rows) == pl_second_order(rates, sched)

    def test_pure_gate_noise_reduces_to_pair_count(self):
        # with every non-gate rate zero only same-block gate pairs remain:
        # 42 * B * m^2 * eps_g^2 / 2
        rates = AbstractRates(eps_g=1e-3, eps_s=0, eps_o=0, eps_c=0,
                              eps_d=0, eps_a=0)
        sched = Schedule(n_gates=10, m=1)
        assert pl_second_order(rates, sched) == pytest.approx(2.1e-4, rel=1e-12)

    def test_first_table_row_frozen_value(self):
        rates = AbstractRates(eps_g=0.01, eps_s=0, eps_o=0, eps_c=0,
                              eps_d=0, eps_a=0)
        rows = table_contributions(rates, Schedule(n_gates=2, m=2))
        label, value = rows[0]
        assert label == "block_gate_gate"
        assert value == pytest.approx(8.4e-3, rel=1e-12)

    def test_single_block_closed_form(self):
        eg, es, eo, ec, ed, ea = 1e-4, 3e-4, 1e-4, 4e-5, 4e-5, 0.25
        rates = AbstractRates(eps_g=eg, eps_s=es, eps_o=eo, eps_c=ec,
                              eps_d=ed, eps_a=ea)
        for m in (1, 2, 5):
            sched = Schedule(n_gates=m, m=m)
            expect = 42.0 * (
                (m * eg) ** 2 / 2.0
                + (1 - ea) * m * eg * (es + ed)
                + (1 - ea) * (ec * (es + ec / 2) + ed * (es + ed / 2))
            )
            assert pl_second_order(rates, sched) == pytest.approx(
                expect, rel=1e-12
            )

    def test_zero_gate_noise_closed_form(self):
        es, eo, ec, ed = 3e-4, 1e-4, 4e-5, 4e-5
        rates = AbstractRates(eps_g=0.0, eps_s=es, eps_o=eo, eps_c=ec,
                              eps_d=ed, eps_a=0.0)
        blocks = 7
        expect = 42.0 * (
            blocks * (ec * (es + ec / 2) + ed * (es + ed / 2))
            + (blocks - 1) * (ec + es) * (es + ed)
        )
        assert pl_second_order(rates, Schedule(n_gates=blocks, m=1)) == \
            pytest.approx(expect, rel=1e-12)


class TestPairwiseOracle:
    RATE_SETS = [
        dict(eps_g=1e-3, eps_s=1e-3, eps_o=1e-3, eps_c=1e-3, eps_d=1e-3),
        dict(eps_g=1e-3, eps_s=3.45e-4, eps_o=6.1e-5, eps_c=4e-5, eps_d=4e-5),
        dict(eps_g=2e-4, eps_s=0.0, eps_o=5e-4, eps_c=1e-3, eps_d=0.0),
    ]

    @pytest.mark.parametrize("rateset", RATE_SETS)
    @pytest.mark.parametrize("eps_a", [0.0, 0.3, 0.7])
    def test_oracle_matches_formula(self, rateset, eps_a):
        rates = AbstractRates(eps_a=eps_a, **rateset)
        for blocks in (1, 2, 3, 5, 10):
            for m in (1, 2, 5):
                sched = Schedule(n_gates=blocks * m, m=m)
                assert pairwise_fault_oracle(rates, sched) == pytest.approx(
                    pl_second_order(rates, sched), rel=1e-6
                )

    @given(
        eps_a=st.floats(min_value=0.0, max_value=0.9),
        scale=st.floats(min_value=0.0, max_value=1.0),
        blocks=st.integers(min_value=1, max_value=6),
        m=st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_oracle_matches_formula_property(self, eps_a, scale, blocks, m):
        rates = AbstractRates(
            eps_g=1e-3 * scale, eps_s=7e-4 * scale, eps_o=2e-4 * scale,
            eps_c=4e-4 * scale, eps_d=3e-4 * scale, eps_a=eps_a,
        )
        sched = Schedule(n_gates=blocks * m, m=m)
        assert pairwise_fault_oracle(rates, sched) == pytest.approx(
            pl_second_order(rates, sched), rel=1e-6, abs=1e-300
        )

    def test_oracle_caps_location_count(self):
        rates = AbstractRates(eps_g=1e-4, eps_s=0, eps_o=0, eps_c=0,
                              eps_d=0, eps_a=0)
        with pytest.raises(ValueError):
            pairwise_fault_oracle(rates, Schedule(n_gates=10000, m=1))


class TestApproximation:
    def test_coefficients_frozen_builtin_ratio(self):
        coeffs = approx_coefficients(BUILTIN, 1.0)
        # (2 * 0.4 * 3.65 + 3.85^2) / 0.5 in units of eps_g^2; eps_o, an
        # omission rate, creates no error and stays out of d
        assert coeffs.d / coeffs.c1 == pytest.approx(35.485, rel=1e-12)

    def test_scale_factors_through_all_coefficients(self):
        rates = BUILTIN
        one = approx_coefficients(rates, 1.0)
        thousand = approx_coefficients(rates, 1000.0)
        assert thousand.d == pytest.approx(1000 * one.d, rel=1e-12)
        assert thousand.c0 == pytest.approx(1000 * one.c0, rel=1e-12)
        assert thousand.c1 == pytest.approx(1000 * one.c1, rel=1e-12)

    def test_evaluate_is_d_over_m_plus_linear(self):
        coeffs = ApproxCoefficients(d=6.0, c0=2.0, c1=1.5)
        assert coeffs.evaluate(3) == pytest.approx(6.0 / 3 + 2.0 + 1.5 * 3)
        with pytest.raises(ValueError):
            coeffs.evaluate(0)

    def test_approx_tracks_formula_at_small_rates(self):
        rates = AbstractRates(eps_g=1e-5, eps_s=3.45e-5, eps_o=6.1e-6,
                              eps_c=4e-6, eps_d=4e-6, eps_a=0.3)
        sched = Schedule(n_gates=1000, m=5)
        full = pl_second_order(rates, sched)
        approx = approx_coefficients(rates, float(sched.n_gates)).evaluate(5)
        assert approx == pytest.approx(full, rel=0.05)

    def test_requires_positive_scale(self):
        with pytest.raises(ValueError):
            approx_coefficients(BUILTIN, 0.0)


class TestOptimalCadence:
    def test_builtin_rates_give_six_then_three(self):
        # d / c1 = 35.485 at eps_a = 0 puts the optimum at 6; at eps_a = 0.5
        # d / c1 = 8.87125 / 1.5 = 5.914 puts it at 2
        assert m_min(BUILTIN) == 6
        half = AbstractRates(eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4,
                             eps_c=0.4e-4, eps_d=0.4e-4, eps_a=0.5)
        assert m_min(half) == 2

    def test_invariant_under_uniform_rate_scaling(self):
        for lam in (0.1, 0.5, 3.0, 100.0):
            assert m_min(BUILTIN.scaled(lam)) == m_min(BUILTIN)

    def test_exact_tie_prefers_smaller_m(self):
        # dyadic rates make d / c1 land exactly on 12 = 3 * 4, where the
        # cost of m = 3 and m = 4 is identical; the smaller one wins.
        # d = 42 * (1 - eps_a) * eps_s^2 = 21 * 36 eps_g^2 and
        # c1 = 42 * eps_g^2 * (1 / (1 - eps_a) - 1/2) = 63 eps_g^2
        eg = 2.0**-6
        rates = AbstractRates(eps_g=eg, eps_s=6 * eg, eps_o=0.0,
                              eps_c=0.0, eps_d=0.0, eps_a=0.5)
        coeffs = approx_coefficients(rates, 1.0)
        assert coeffs.d / coeffs.c1 == 12.0
        assert coeffs.evaluate(3) == pytest.approx(coeffs.evaluate(4), rel=1e-12)
        assert m_min(rates) == 3

    def test_clamps_to_one_when_qec_is_cheap(self):
        rates = AbstractRates(eps_g=1e-3, eps_s=0.0, eps_o=0.0, eps_c=0.0,
                              eps_d=0.0, eps_a=0.0)
        assert m_min(rates) == 1

    def test_neighbors_never_beat_the_minimum(self):
        for eps_a in (0.0, 0.1, 0.25, 0.4, 0.5):
            rates = AbstractRates(eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4,
                                  eps_c=0.4e-4, eps_d=0.4e-4, eps_a=eps_a)
            best = m_min(rates)
            coeffs = approx_coefficients(rates, 1.0)
            cost = coeffs.evaluate(best)
            assert cost <= coeffs.evaluate(best + 1) + 1e-15
            if best > 1:
                assert cost <= coeffs.evaluate(best - 1) + 1e-15

    def test_rejects_zero_gate_rate(self):
        rates = AbstractRates(eps_g=0.0, eps_s=1.0, eps_o=0.0, eps_c=0.0,
                              eps_d=0.0, eps_a=0.0)
        with pytest.raises(ValueError):
            m_min(rates)


class TestGridArgmin:
    GRID = (1, 2, 4, 5, 8, 10, 20, 25, 100)

    def test_returns_divisor_minimizing_formula(self):
        rates = BUILTIN
        m_star, p_star = grid_argmin(rates, n_gates=1000, m_grid=self.GRID)
        values = {
            m: pl_second_order(rates, Schedule(1000, m)) for m in self.GRID
        }
        assert p_star == values[m_star] == min(values.values())

    def test_increasing_cost_picks_smallest_entry(self):
        rates = AbstractRates(eps_g=1e-4, eps_s=0.0, eps_o=0.0, eps_c=0.0,
                              eps_d=0.0, eps_a=0.0)
        assert grid_argmin(rates, 100, (1, 2, 5, 10))[0] == 1

    def test_rejects_empty_and_non_divisible_grids(self):
        with pytest.raises(ValueError):
            grid_argmin(BUILTIN, 1000, ())
        with pytest.raises(ValueError):
            grid_argmin(BUILTIN, 1000, (3,))

    def test_duplicate_entries_collapse(self):
        rates = BUILTIN
        assert grid_argmin(rates, 1000, (5, 5, 5, 8)) == \
            grid_argmin(rates, 1000, (5, 8))

    def test_formula_and_approx_argmin_agree_on_default_m_grid(self):
        for eps_a in (0.0, 0.3, 0.5):
            rates = AbstractRates(eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4,
                                  eps_c=0.4e-4, eps_d=0.4e-4, eps_a=eps_a)
            m_star, _ = grid_argmin(rates, 1000, self.GRID)
            coeffs = approx_coefficients(rates, 1000.0)
            approx_star = min(
                (m for m in self.GRID), key=lambda m: coeffs.evaluate(m)
            )
            assert m_star == approx_star


class TestMonotonicity:
    def test_more_skipping_helps_long_blocks_hurts_short_ones(self):
        # with frequent QEC the rounds dominate, so skipping them helps;
        # with rare QEC the accumulated gate errors need the rounds
        rates = {a: AbstractRates(eps_g=1e-4, eps_s=3.45e-4, eps_o=0.61e-4,
                                  eps_c=0.4e-4, eps_d=0.4e-4, eps_a=a)
                 for a in (0.0, 0.25, 0.5)}
        short = [pl_second_order(r, Schedule(1000, 1)) for r in rates.values()]
        long = [pl_second_order(r, Schedule(1000, 25)) for r in rates.values()]
        assert short[0] > short[1] > short[2]
        assert long[0] < long[1] < long[2]
