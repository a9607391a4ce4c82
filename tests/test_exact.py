"""Exact 128-state reference machinery.

These routines are the ground truth the Monte Carlo path is checked
against, so they get their own independent checks: degenerate limits,
stochasticity, and closed forms where the physics collapses to one.
"""
import itertools
import time

import numpy as np
import pytest

from qec_cadence import exact, steane
from qec_cadence.ancilla import (
    accepted_distribution,
    default_circuit,
    strip_verification,
)
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


def block_by_block(noise, transfer, eps_a, n_gates, m):
    """P_L from n_gates // m steps of block_output_distribution."""
    gate_flip = parity_flip_prob(noise.eps_g, m)
    dist = delta0()
    for _ in range(n_gates // m):
        dist = block_output_distribution(dist, transfer, gate_flip, eps_a)
    return float(dist[steane.RESIDUAL_LOGICAL].sum())


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


CIRCUITS = {
    "default": default_circuit(),
    "stripped": strip_verification(default_circuit()),
}


def enumerated_rows(noise, circuit, inputs):
    """Rows of the round's transfer matrix by brute-force enumeration.

    Sums over the 4^7 per-qubit CNOT fault classes (no fault, data only,
    ancilla copy only, both) and the 128 ancilla-plus-readout patterns, with
    out = x ^ df ^ DECODE[SYNDROME[x ^ a ^ af]] written out literally.
    """
    p, r = noise.cnot_flip, noise.meas_flip
    # (data flip, ancilla-copy flip, probability) of each CNOT fault class
    classes = [(0, 0, 1.0 - 3.0 * p), (1, 0, p), (0, 1, p), (1, 1, p)]
    df, af, prob = [], [], []
    for combo in itertools.product(classes, repeat=7):
        df.append(sum(c[0] << q for q, c in enumerate(combo)))
        af.append(sum(c[1] << q for q, c in enumerate(combo)))
        prob.append(float(np.prod([c[2] for c in combo])))
    df, af, prob = np.array(df), np.array(af), np.array(prob)
    prepared = accepted_distribution(circuit, noise).probs
    readout = [r**w * (1.0 - r) ** (7 - w) for w in map(int, steane.WEIGHT)]
    anc = [sum(prepared[b] * readout[a ^ b] for b in range(128))
           for a in range(128)]
    rows = np.zeros((len(inputs), 128))
    for i, x in enumerate(inputs):
        for a in range(128):
            out = x ^ df ^ steane.DECODE[steane.SYNDROME[x ^ a ^ af]]
            rows[i] += np.bincount(out, weights=anc[a] * prob, minlength=128)
    return rows


def convolved_response(noise, circuit):
    """The 8x128 response table from the 128-state laws.

    Readout flips are convolved into the accepted ancilla law qubit by
    qubit, and the coupling CNOTs are a 128x128 table over (df, af).
    """
    idx, syn = np.arange(128), np.arange(8)
    anc = convolve_bit_flips(
        accepted_distribution(circuit, noise).probs, noise.meas_flip
    )
    shift = np.bincount(steane.SYNDROME, weights=anc, minlength=8)
    p, k = noise.cnot_flip, np.arange(8)
    coupling = (p**k * (1.0 - 3.0 * p) ** (7 - k))[
        steane.WEIGHT[idx[:, None] | idx]
    ]
    joint = coupling @ shift[steane.SYNDROME[:, None] ^ syn]
    terms = (idx[None, :, None] ^ steane.DECODE[syn[:, None, None] ^ syn]) * 8 + syn
    return joint.ravel()[terms].sum(axis=2)


class TestTransferStructure:
    @pytest.mark.parametrize("eps", [0.0, 1e-6, 1e-3, 0.3, 0.95, 1.0])
    @pytest.mark.parametrize("options", [
        {}, {"p_meas": 0.5}, {"p_meas": 0.0},
        {"include_init_error": False}, {"wait_scale": 0.0},
    ], ids=str)
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_response_matches_the_128_state_formula(self, eps, options, circuit):
        # readout and coupling enter through syndrome laws; the table must
        # not move beyond rounding, and keep its exact zeros
        noise = NoiseParams(eps=eps, **options)
        got = exact._syndrome_response(noise, CIRCUITS[circuit])
        want = convolved_response(noise, CIRCUITS[circuit])
        assert np.array_equal(got == 0, want == 0)
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("eps", [1e-3, 1e-2])
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_rows_match_brute_force_enumeration(self, eps, circuit):
        noise = NoiseParams(eps=eps)
        inputs = [0] + [1 << q for q in range(7)] + [0b0010010]
        t = syndrome_extraction_transfer(noise, CIRCUITS[circuit])
        want = enumerated_rows(noise, CIRCUITS[circuit], inputs)
        np.testing.assert_allclose(t[inputs], want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_invariant_under_codeword_translation(self, eps, circuit):
        # a round sees the data only through its syndrome:
        # T[x ^ c, y ^ c] == T[x, y] for every Hamming codeword c
        t = syndrome_extraction_transfer(NoiseParams(eps=eps), CIRCUITS[circuit])
        idx = np.arange(128)
        assert len(steane.CODEWORDS) == 16
        for c in steane.CODEWORDS:
            assert np.array_equal(t[np.ix_(idx ^ c, idx ^ c)], t), c

    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    @pytest.mark.parametrize("circuit", sorted(CIRCUITS))
    def test_chain_lumps_onto_stabilizer_classes(self, eps, circuit):
        # the 16-class chain logical_error_exact runs is exact: classes are
        # the cosets of the X-stabilizers, the verdict is a class function,
        # and every pattern of a class moves to each class with one law
        cls = exact._CLASS
        idx = np.arange(128)
        for x in range(128):
            assert np.array_equal(cls[idx ^ x], cls ^ cls[x]), x
        assert tuple(np.flatnonzero(cls == 0)) == steane.STABILIZER_PATTERNS
        t = syndrome_extraction_transfer(NoiseParams(eps=eps), CIRCUITS[circuit])
        lumped = np.stack([t[:, cls == b].sum(axis=1) for b in range(16)], axis=1)
        for a in range(16):
            members = cls == a
            assert len(set(steane.RESIDUAL_LOGICAL[members])) == 1, a
            spread = lumped[members].max(axis=0) - lumped[members].min(axis=0)
            assert spread.max() <= 1e-15, a


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


class TestKernelPower:
    # The run is one power of the block kernel; these hold it to the
    # one-block-at-a-time reference.  At eps = 1e-2 a kernel that applied
    # the gate layer only on performed rounds reads 6-25% low at
    # eps_a = 0.3.  The order of G and T within a block does not show from
    # the clean state, so no test here leans on it.

    @pytest.mark.parametrize("eps", [1e-4, 1e-2])
    def test_power_equals_block_by_block(self, eps):
        noise = NoiseParams(eps=eps)
        transfer = syndrome_extraction_transfer(noise)
        for eps_a in (0.0, 0.3, 1.0):
            for m in (1, 3, 5):
                for n_gates in (15, 30):
                    assert logical_error_exact(
                        noise, eps_a, n_gates, m
                    ) == pytest.approx(
                        block_by_block(noise, transfer, eps_a, n_gates, m),
                        rel=1e-12,
                    ), (eps_a, m, n_gates)

    def test_power_equals_block_by_block_without_verification(self):
        noise = NoiseParams(eps=1e-2)
        circuit = strip_verification(default_circuit())
        transfer = syndrome_extraction_transfer(noise, circuit)
        for eps_a in (0.0, 0.3):
            for m in (1, 3, 5):
                assert logical_error_exact(
                    noise, eps_a, 30, m, circuit
                ) == pytest.approx(
                    block_by_block(noise, transfer, eps_a, 30, m), rel=1e-12
                ), (eps_a, m)

    def test_criterion_7_scan_is_fast(self):
        # the exact half of acceptance criterion 7: 264 evaluations over 3
        # noise settings, so 3 round builds; the other 261 calls reuse one
        t0 = time.perf_counter()
        for eps_g in (5e-5, 1e-4, 3e-4):
            noise = NoiseParams.from_eps_g(eps_g)
            for k in range(11):
                for m in range(1, 9):
                    logical_error_exact(noise, k * 0.05, 840, m)
        assert time.perf_counter() - t0 < 5.0


@pytest.fixture
def cold_response_cache():
    exact._syndrome_response.cache_clear()
    yield
    exact._syndrome_response.cache_clear()


class TestCallsShareNoState:
    def test_writing_a_returned_transfer_leaves_later_calls_alone(self):
        noise = NoiseParams(eps=1e-3)
        before = logical_error_exact(noise, 0.3, 30, 3)
        rates_before = single_round_rates(noise)
        t = syndrome_extraction_transfer(noise)
        assert t.flags.writeable
        t[:] = 0.0
        t[:, 127] = 1.0  # every round leaves all seven qubits flipped
        assert logical_error_exact(noise, 0.3, 30, 3) == before
        assert single_round_rates(noise) == rates_before

    def test_noise_settings_and_circuits_get_their_own_entries(self):
        default = NoiseParams(eps=1e-2)
        cached = logical_error_exact(default, 0.3, 30, 3)
        for other in (
            NoiseParams(eps=1e-2, p_meas=0.0),
            NoiseParams(eps=1e-2, wait_scale=0.0),
            NoiseParams(eps=1e-2, include_init_error=False),
        ):
            assert logical_error_exact(other, 0.3, 30, 3) != cached, other
        stripped = strip_verification(default_circuit())
        assert logical_error_exact(default, 0.3, 30, 3, stripped) != cached

    def test_a_scan_builds_its_round_once(self, monkeypatch, cold_response_cache):
        builds = []

        def counting(circuit, noise):
            builds.append(noise)
            return accepted_distribution(circuit, noise)

        monkeypatch.setattr(exact, "accepted_distribution", counting)
        noise = NoiseParams.from_eps_g(1e-4)
        for k in range(11):
            for m in range(1, 9):
                logical_error_exact(noise, k * 0.05, 840, m)
        assert builds == [noise]
        table = exact._syndrome_response(noise, None)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1.0


class TestCadenceMap:
    def test_optimal_cadence_falls_as_postselection_fails_more(self):
        # The paper's headline question: how the optimal m moves with eps_a.
        # Exact optimum over the 22 divisors of N = 840 up to 60, ties to
        # the smallest m.  Both rows read 6, 5, 4, 4, 3, 2, 2, 1, 1, 1 for
        # eps_a = 0, 0.1, ..., 0.9.  Near ties are left out of the equality:
        # at eps_g 1e-4, eps_a 0.5 the runner-up m = 3 is 0.06% above m = 2.
        # eps_g 3e-4 is not tested: at eps_a 0.5 and 0.7 its exact winners
        # are 3 and 2 by under 0.5%, where the closed-form m_min gives 2 and 1.
        n_gates = 840
        divisors = [m for m in range(1, 61) if n_gates % m == 0]
        assert len(divisors) == 22
        expected = [6, 5, 4, 4, 3, 2, 2, 1, 1, 1]
        near_ties = {(1e-4, 0.5)}
        for eps_g in (5e-5, 1e-4):
            noise = NoiseParams.from_eps_g(eps_g)
            row = []
            for k in range(10):
                eps_a = k / 10
                row.append(min(divisors, key=lambda m: logical_error_exact(
                    noise, eps_a, n_gates, m)))
                if (eps_g, eps_a) not in near_ties:
                    assert row[-1] == expected[k], (eps_g, eps_a, row)
            assert row == sorted(row, reverse=True), (eps_g, row)


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
