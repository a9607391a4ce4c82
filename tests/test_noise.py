"""Noise-model identities and sampler statistics."""
import numpy as np
import pytest

from qec_cadence.noise import (
    NoiseParams,
    bit_error_rates,
    sample_one_qubit_fault,
    sample_two_qubit_fault,
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
        for eps in (1e-5, 7e-4, 0.03, 0.25):
            eps_g, eps_c, eps_d = bit_error_rates(eps)
            assert eps_g == pytest.approx(2 * eps / 3, rel=1e-15)
            assert eps_c == eps_d
            assert eps_c / eps_g == pytest.approx(0.4, rel=1e-15)

    def test_rejects_out_of_range_strength(self):
        with pytest.raises(ValueError):
            bit_error_rates(0.3)
        with pytest.raises(ValueError):
            bit_error_rates(-1e-9)


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

    def test_measurement_flip_override_and_toggle(self):
        assert NoiseParams(eps=0.15, p_meas=0.02).meas_flip == 0.02
        assert NoiseParams(eps=0.15, include_meas_error=False).meas_flip == 0.0
        # the override is ignored when the channel is off entirely
        assert NoiseParams(
            eps=0.15, include_meas_error=False, p_meas=0.02
        ).meas_flip == 0.0

    def test_init_flip_toggle(self):
        assert NoiseParams(eps=0.15).init_flip == pytest.approx(0.1)
        assert NoiseParams(eps=0.15, include_init_error=False).init_flip == 0.0

    def test_wait_flip_is_scaled_gate_rate(self):
        n = NoiseParams(eps=0.15)
        assert n.wait_flip == pytest.approx(n.eps_g / 3.0, rel=1e-15)
        assert NoiseParams(eps=0.15, wait_scale=1.0).wait_flip == \
            pytest.approx(0.1, rel=1e-15)
        assert NoiseParams(eps=0.15, include_wait_error=False).wait_flip == 0.0

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

    def test_frozen(self):
        n = NoiseParams(eps=0.1)
        with pytest.raises(Exception):
            n.eps = 0.2


class TestSamplers:
    def test_one_qubit_fault_frequency(self):
        rng = np.random.default_rng(7)
        eps, n = 0.15, 200_000
        noise = NoiseParams(eps=eps)
        hits = sum(sample_one_qubit_fault(rng, noise) for _ in range(n))
        p = 2 * eps / 3
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(hits - n * p) < 4 * sigma

    def test_one_qubit_fault_extremes(self):
        rng = np.random.default_rng(0)
        assert sample_one_qubit_fault(rng, NoiseParams(eps=0.0)) == 0
        assert sample_one_qubit_fault(rng, NoiseParams(eps=1.0)) in (0, 1)

    def test_two_qubit_fault_class_frequencies(self):
        # each X-carrying class (control only, target only, both) occurs
        # with probability 4*eps/15; check all three at 4 sigma
        rng = np.random.default_rng(11)
        eps, n = 0.15, 1_000_000
        noise = NoiseParams(eps=eps)
        counts = {(1, 0): 0, (0, 1): 0, (1, 1): 0, (0, 0): 0}
        for _ in range(n):
            counts[sample_two_qubit_fault(rng, noise)] += 1
        p = 4 * eps / 15
        sigma = np.sqrt(n * p * (1 - p))
        for cls in ((1, 0), (0, 1), (1, 1)):
            assert abs(counts[cls] - n * p) < 4 * sigma
        assert counts[(0, 0)] == n - sum(
            counts[c] for c in ((1, 0), (0, 1), (1, 1))
        )

    def test_two_qubit_fault_zero_strength_is_silent(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            assert sample_two_qubit_fault(rng, NoiseParams(eps=0.0)) == (0, 0)
