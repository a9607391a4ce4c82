"""Noise-model identities."""
import math
from fractions import Fraction

import pytest

from qec_cadence.noise import (
    NoiseParams,
    bit_error_rates,
    parity_flip_prob,
    xor_flip_prob,
)


class TestRateIdentities:
    def test_depolarizing_to_flip_rates_frozen_values(self):
        eps_g, eps_c, eps_d = bit_error_rates(1.5e-4)
        assert eps_g == pytest.approx(1e-4, rel=1e-15)
        assert eps_c == pytest.approx(4e-5, rel=1e-15)
        assert eps_d == pytest.approx(4e-5, rel=1e-15)

        eps_g, eps_c, eps_d = bit_error_rates(3e-3)
        assert eps_g == pytest.approx(2e-3, rel=1e-15)
        assert eps_c == pytest.approx(8e-4, rel=1e-15)
        assert eps_d == pytest.approx(8e-4, rel=1e-15)

    def test_coupling_rates_are_two_fifths_of_gate_rate(self):
        for eps in (1e-5, 7e-4, 0.03, 0.25, 0.3, 1.0):
            eps_g, eps_c, eps_d = bit_error_rates(eps)
            assert eps_g == pytest.approx(2 * eps / 3, rel=1e-15)
            assert eps_c == eps_d
            assert eps_c / eps_g == pytest.approx(0.4, rel=1e-15)

    def test_rejects_out_of_range_strength(self):
        with pytest.raises(ValueError):
            bit_error_rates(1.5)
        with pytest.raises(ValueError):
            bit_error_rates(-1e-9)


class TestParityFlipPrecision:
    @pytest.mark.parametrize("p", [1e-6, 1e-4, 0.3, 0.9])
    @pytest.mark.parametrize("repeats", [1, 5, 25, 840])
    def test_matches_rational_arithmetic(self, p, repeats):
        # (1 - (1 - 2p)^n) / 2 in exact arithmetic; the float form of it
        # is 2.7e-11 relative off at p = 1e-6, n = 1
        q = Fraction(p)
        want = (1 - (1 - 2 * q) ** repeats) / 2
        got = Fraction(parity_flip_prob(p, repeats))
        assert abs(got - want) <= Fraction(1, 10**15) * want

    def test_two_flips_combine_exactly_at_the_ends(self):
        assert xor_flip_prob(0.0, 0.3) == 0.3
        assert xor_flip_prob(1.0, 0.3) == 0.7
        assert xor_flip_prob(1.0, 1.0) == 0.0
        assert xor_flip_prob(0.5, 0.9) == 0.5
        assert parity_flip_prob(1.0, 840) == 0.0
        assert parity_flip_prob(1.0, 25) == 1.0


class TestNoiseParams:
    def test_gate_flip_rate(self):
        assert NoiseParams(eps=0.15).eps_g == pytest.approx(0.1, rel=1e-15)

    def test_from_eps_g_round_trips(self):
        for eg in (1e-5, 1e-4, 2e-3):
            assert NoiseParams.from_eps_g(eg).eps_g == pytest.approx(
                eg, rel=1e-15
            )

    def test_measurement_flip_defaults_to_gate_rate(self):
        n = NoiseParams(eps=0.15)
        assert n.meas_flip == n.eps_g

    def test_measurement_flip_override(self):
        assert NoiseParams(eps=0.15, p_meas=0.02).meas_flip == 0.02
        assert NoiseParams(eps=0.15, p_meas=0.0).meas_flip == 0.0

    def test_init_flip_toggle(self):
        assert NoiseParams(eps=0.15).init_flip == pytest.approx(0.1)
        assert NoiseParams(eps=0.15, include_init_error=False).init_flip == 0.0

    def test_wait_flip_is_scaled_gate_rate(self):
        n = NoiseParams(eps=0.15)
        assert n.wait_flip == pytest.approx(n.eps_g / 3.0, rel=1e-15)
        assert NoiseParams(eps=0.15, wait_scale=1.0).wait_flip == \
            pytest.approx(0.1, rel=1e-15)
        assert NoiseParams(eps=0.15, wait_scale=0.0).wait_flip == 0.0

    def test_cnot_flip_is_four_fifteenths_of_eps(self):
        # each X-carrying CNOT class (control, target, both) carries 4 of
        # the 15 equally likely Pauli pairs
        assert NoiseParams(eps=0.15).cnot_flip == pytest.approx(0.04, rel=1e-15)
        assert NoiseParams(eps=0.0).cnot_flip == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseParams(eps=-0.1)
        with pytest.raises(ValueError):
            NoiseParams(eps=1.5)
        with pytest.raises(ValueError):
            NoiseParams(eps=0.1, p_meas=0.6)
        with pytest.raises(ValueError):
            NoiseParams(eps=0.1, wait_scale=1.2)

    @pytest.mark.parametrize("options", [
        {"eps": "0.1"}, {"eps": None}, {"eps": True},
        {"p_meas": "0.01"}, {"p_meas": False},
        {"wait_scale": True}, {"wait_scale": "0.5"},
        {"include_init_error": "false"}, {"include_init_error": 1},
        {"include_init_error": None},
    ])
    def test_rejects_wrongly_typed_options(self, options):
        # never parsed, counted as a number or read for its truth value
        with pytest.raises(ValueError):
            NoiseParams(**{"eps": 0.1, **options})

    @pytest.mark.parametrize("eps_g", ["1e-4", True, None])
    def test_from_eps_g_names_a_wrongly_typed_rate(self, eps_g):
        # not a TypeError from 1.5 * "1e-4", nor eps = 1.5 from True
        with pytest.raises(ValueError, match="eps_g must be a real number"):
            NoiseParams.from_eps_g(eps_g)

    @pytest.mark.parametrize("eps_g", [
        0.0, -0.0, 1e-4, 2 / 3, math.nextafter(2 / 3, 1.0), 0.6666667, 0.9,
        -1e-5, -5e-324, float("nan"), float("inf"),
    ])
    def test_from_eps_g_range_is_that_of_eps(self, eps_g):
        # eps_g is refused under its own name exactly where eps = 1.5 * eps_g
        # would be refused
        try:
            NoiseParams(eps=1.5 * eps_g)
        except ValueError:
            with pytest.raises(ValueError) as caught:
                NoiseParams.from_eps_g(eps_g)
            assert str(caught.value) == f"eps_g must be in [0, 2/3], got {eps_g}"
        else:
            assert NoiseParams.from_eps_g(eps_g) == NoiseParams(eps=1.5 * eps_g)

    def test_frozen(self):
        n = NoiseParams(eps=0.1)
        with pytest.raises(Exception):
            n.eps = 0.2

