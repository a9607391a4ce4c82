"""Exact 128-state reference machinery.

These routines are the ground truth the Monte Carlo path is checked
against, so they get their own independent checks: degenerate limits,
stochasticity, and closed forms where the physics collapses to one.
"""
import numpy as np
import pytest

from qec_cadence import steane
from qec_cadence.cli import BUILTIN_COEFFS, rates_at
from qec_cadence.exact import (
    block_output_distribution,
    convolve_bit_flips,
    logical_error_exact,
    parity_flip_prob,
    single_round_rates,
    syndrome_extraction_transfer,
)
from qec_cadence.model import Schedule, pl_second_order
from qec_cadence.noise import NoiseParams


def delta0():
    d = np.zeros(128)
    d[0] = 1.0
    return d


class TestParityFlip:
    def test_frozen_values(self):
        assert parity_flip_prob(0.1, 0) == 0.0
        assert parity_flip_prob(0.1, 1) == pytest.approx(0.1, rel=1e-15)
        assert parity_flip_prob(0.1, 2) == pytest.approx(0.18, rel=1e-12)

    def test_saturates_at_half(self):
        assert parity_flip_prob(0.5, 1) == 0.5
        assert parity_flip_prob(0.3, 10**6) == pytest.approx(0.5, rel=1e-12)

    def test_composes_additively_in_repeats(self):
        p = 0.07
        q = parity_flip_prob(p, 3)
        assert parity_flip_prob(q, 2) == pytest.approx(
            parity_flip_prob(p, 6), rel=1e-12
        )


class TestConvolution:
    def test_zero_rate_is_identity(self):
        d = np.random.default_rng(0).dirichlet(np.ones(128))
        assert np.array_equal(convolve_bit_flips(d, 0.0), d)

    def test_certain_flip_on_all_qubits_maps_to_complement(self):
        out = convolve_bit_flips(delta0(), 1.0)
        assert out[127] == pytest.approx(1.0)

    def test_single_qubit_rate_splits_the_mass(self):
        probs = [0.3, 0, 0, 0, 0, 0, 0]
        out = convolve_bit_flips(delta0(), probs)
        assert out[0] == pytest.approx(0.7)
        assert out[1] == pytest.approx(0.3)

    def test_preserves_normalization(self):
        d = np.random.default_rng(1).dirichlet(np.ones(128))
        out = convolve_bit_flips(d, [0.1, 0.2, 0, 0.05, 0.3, 0.01, 0.4])
        assert out.sum() == pytest.approx(1.0, rel=1e-12)


class TestTransfer:
    def test_noiseless_transfer_is_the_ideal_decoder(self):
        t = syndrome_extraction_transfer(NoiseParams(eps=0.0))
        for e in range(128):
            residual, _ = steane.apply_ideal_qec(e)
            assert t[e, residual] == 1.0
            assert t[e].sum() == 1.0

    def test_rows_are_distributions(self):
        t = syndrome_extraction_transfer(NoiseParams(eps=0.01))
        assert (t >= 0).all()
        np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=1e-12)

    def test_noisy_round_still_mostly_corrects(self):
        t = syndrome_extraction_transfer(NoiseParams(eps=1e-3))
        assert t[0, 0] > 0.95
        for q in range(7):
            assert t[1 << q, 0] > 0.95


class TestBlockEvolution:
    def test_always_skip_ignores_the_transfer(self):
        t = syndrome_extraction_transfer(NoiseParams(eps=0.01))
        d = np.random.default_rng(2).dirichlet(np.ones(128))
        out = block_output_distribution(d, t, gate_flip=0.0, eps_a=1.0)
        assert np.array_equal(out, d)

    def test_never_skip_applies_the_transfer(self):
        t = syndrome_extraction_transfer(NoiseParams(eps=0.0))
        d = np.zeros(128)
        d[steane.pattern_from_qubits([3])] = 1.0
        out = block_output_distribution(d, t, gate_flip=0.0, eps_a=0.0)
        assert out[0] == pytest.approx(1.0)

    def test_skip_mixes_linearly(self):
        t = syndrome_extraction_transfer(NoiseParams(eps=0.005))
        d = np.random.default_rng(3).dirichlet(np.ones(128))
        skipped = block_output_distribution(d, t, 0.0, 1.0)
        done = block_output_distribution(d, t, 0.0, 0.0)
        mixed = block_output_distribution(d, t, 0.0, 0.3)
        np.testing.assert_allclose(
            mixed, 0.3 * skipped + 0.7 * done, rtol=1e-12, atol=1e-300
        )


class TestEndToEnd:
    def test_zero_noise_never_fails(self):
        assert logical_error_exact(NoiseParams(eps=0.0), 0.3, 20, 4) == 0.0

    def test_all_skipped_reduces_to_independent_qubit_parities(self):
        # with every round skipped the run is just n_gates noisy gate
        # layers followed by one ideal decode; each qubit carries an
        # independent parity flip and the answer is a binomial sum
        noise = NoiseParams(eps=0.03)
        n_gates = 20
        q = parity_flip_prob(noise.eps_g, n_gates)
        expect = 0.0
        for e in range(128):
            w = steane.pattern_weight(e)
            if steane.residual_is_logical(e):
                expect += q**w * (1 - q) ** (7 - w)
        for m in (4, 5, 10):
            got = logical_error_exact(noise, 1.0, n_gates, m)
            assert got == pytest.approx(expect, rel=1e-12)

    def test_rejects_non_divisible_block_length(self):
        with pytest.raises(ValueError):
            logical_error_exact(NoiseParams(eps=0.01), 0.0, 10, 3)

    @pytest.mark.parametrize(
        "eps_a, n_gates, m",
        [(-0.5, 100, 1), (1.5, 100, 1), (float("nan"), 100, 1),
         (0.0, 0, 1), (0.0, 100, 0), (0.0, -10, 5), (0.0, 100, -1)],
    )
    def test_rejects_what_trajectory_config_rejects(self, eps_a, n_gates, m):
        # same ranges as TrajectoryConfig: n_gates >= 1, m >= 1, m divides
        # n_gates, 0 <= eps_a <= 1; no silent number, no ZeroDivisionError
        with pytest.raises(ValueError):
            logical_error_exact(NoiseParams.from_eps_g(1e-4), eps_a, n_gates, m)

    def test_more_noise_means_more_failures(self):
        lo = logical_error_exact(NoiseParams(eps=1e-3), 0.3, 40, 5)
        hi = logical_error_exact(NoiseParams(eps=4e-3), 0.3, 40, 5)
        assert 0 < lo < hi


class TestSingleRoundRates:
    def test_noiseless_round_passes_nothing_through(self):
        two, one = single_round_rates(NoiseParams(eps=0.0))
        assert two == 0.0
        assert one == 0.0

    def test_rates_scale_linearly_at_leading_order(self):
        two_a, one_a = single_round_rates(NoiseParams(eps=1.5e-4))
        two_b, one_b = single_round_rates(NoiseParams(eps=3e-4))
        assert two_b / two_a == pytest.approx(2.0, rel=0.02)
        assert one_b / one_a == pytest.approx(2.0, rel=0.02)


class TestSecondOrderReference:
    def test_closed_form_matches_exact_at_low_noise(self):
        # at eps_g = 1e-6 higher orders are negligible, so a gap here is a
        # miscounted second-order term: charging the omission rate eps_o
        # as error creation put the formula up to 15.5% above the exact
        # value (at eps_a = 0, m = 1)
        eps_g, n_gates = 1e-6, 100
        noise = NoiseParams.from_eps_g(eps_g)
        for eps_a in (0.0, 0.3, 0.5):
            rates = rates_at(BUILTIN_COEFFS, eps_g, eps_a)
            for m in (1, 2, 5, 10, 25):
                exact = logical_error_exact(noise, eps_a, n_gates, m)
                formula = pl_second_order(rates, Schedule(n_gates, m))
                assert formula == pytest.approx(exact, rel=0.05), (eps_a, m)
