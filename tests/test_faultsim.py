"""Monte Carlo sampler: statistics plumbing, physics, determinism.

The sparse batch kernel is validated against the ideal decoder at zero
noise, and against the exact evaluator at hot noise, both for one round's
output histogram and for a whole trajectory's failure rate.  The exact
side has no sampling noise, so a disagreement is the kernel's.  The exact
evaluator propagates distributions and shares no code with the kernel,
which draws every fault channel itself through sample_round_faults.
"""
import tracemalloc

import numpy as np
import pytest

from qec_cadence import faultsim, steane
from qec_cadence.ancilla import accepted_distribution, default_circuit
from qec_cadence.calibration import measure_position_rates
from qec_cadence.exact import (
    logical_error_exact,
    parity_flip_prob,
    syndrome_extraction_transfer,
)
from qec_cadence.faultsim import (
    DEFAULT_BATCH_SIZE,
    PlEstimate,
    SimulationAbort,
    TrajectoryConfig,
    _check_retry_feasibility,
    _event_positions,
    _simulate_batch,
    _skip_faulty_rounds,
    estimate_pl_mc,
    round_output,
    sample_round_faults,
    wilson_interval,
)
from qec_cadence.noise import NoiseParams


def make_cfg(**overrides):
    base = dict(
        n_gates=12, m=3, eps_a=0.3, noise=NoiseParams(eps=0.02),
        shots=20_000, master_seed=123,
    )
    base.update(overrides)
    return TrajectoryConfig(**base)


# the accepted-ancilla law of a noiseless preparation: always pattern 0
CLEAN_ANCILLA = np.eye(128)[0]


class TestWilson:
    def test_contains_point_estimate(self):
        for failures, shots in ((0, 10), (3, 10), (10, 10), (17, 1000)):
            lo, hi = wilson_interval(failures, shots)
            assert 0.0 <= lo <= failures / shots <= hi <= 1.0

    def test_edge_counts_pin_the_boundary(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05
        lo, hi = wilson_interval(100, 100)
        assert 0.95 < lo < 1
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(500, 1000)
        assert lo + hi == pytest.approx(1.0, rel=1e-12)

    def test_width_shrinks_with_shots(self):
        w1 = np.diff(wilson_interval(50, 1000))[0]
        w2 = np.diff(wilson_interval(200, 4000))[0]
        assert w2 == pytest.approx(w1 / 2, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(-1, 10)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)
        with pytest.raises(ValueError):
            wilson_interval(0, 0)


class TestConfig:
    def test_blocks(self):
        assert make_cfg(n_gates=1000, m=8).blocks == 125

    def test_validation(self):
        with pytest.raises(ValueError):
            make_cfg(n_gates=10, m=3)
        with pytest.raises(ValueError):
            make_cfg(eps_a=1.5)
        with pytest.raises(ValueError):
            make_cfg(shots=0)
        with pytest.raises(ValueError):
            make_cfg(n_gates=0, m=1)

    def test_estimate_fields_are_consistent(self):
        est = PlEstimate.from_counts(7, 100)
        assert est.p_hat == 0.07
        assert (est.ci_low, est.ci_high) == wilson_interval(7, 100)


class TestVectorizedRound:
    def test_matches_exact_round_transfer(self):
        # the sparse round's output histogram against the exact transfer
        # row of the same input pattern: only the sampled side fluctuates
        noise = NoiseParams(eps=0.05)
        anc_probs = accepted_distribution(default_circuit(), noise).probs
        pattern = np.uint8(steane.pattern_from_qubits([2, 6]))
        n = 30_000
        faults = sample_round_faults(np.random.default_rng(3), n, noise, anc_probs)
        outs = np.full(n, round_output(pattern, 0, 0), dtype=np.uint8)
        outs[faults.index] = round_output(
            pattern, faults.on_data, faults.on_measured)
        counts = np.bincount(outs, minlength=128)
        probs = syndrome_extraction_transfer(noise)[pattern]
        assert np.all(counts[probs == 0] == 0)
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 5 * sigma)

    def test_one_sorted_entry_per_faulty_round(self):
        noise = NoiseParams(eps=0.05)
        anc_probs = accepted_distribution(default_circuit(), noise).probs
        faults = sample_round_faults(np.random.default_rng(5), 5000, noise, anc_probs)
        assert np.all(np.diff(faults.index) > 0)
        assert 0 <= faults.index[0] and faults.index[-1] < 5000

    def test_noiseless_round_is_the_ideal_decoder(self):
        for e in range(128):
            residual, _ = steane.apply_ideal_qec(e)
            assert round_output(np.uint8(e), 0, 0) == residual
        faults = sample_round_faults(
            np.random.default_rng(0), 1000, NoiseParams(eps=0.0), CLEAN_ANCILLA)
        assert all(a.size == 0 for a in faults)

    def test_ancilla_patterns_follow_the_accepted_law(self):
        # no CNOT or readout faults: a round's only fault is its ancilla,
        # so the measured-side histogram is a sample of the accepted law
        anc_probs = accepted_distribution(
            default_circuit(), NoiseParams(eps=0.06)).probs
        n = 40_000
        faults = sample_round_faults(
            np.random.default_rng(42), n, NoiseParams(eps=0.0), anc_probs)
        assert not faults.on_data.any()
        counts = np.bincount(faults.on_measured, minlength=128)
        assert counts[0] == 0
        counts[0] = n - faults.index.size
        assert np.all(counts[anc_probs == 0] == 0)
        sigma = np.sqrt(n * anc_probs * (1 - anc_probs))
        assert np.all(np.abs(counts - n * anc_probs) <= 5 * sigma)

    def test_cnot_classes_each_fire_at_the_cnot_rate(self):
        # clean ancillas and no readout flips: every (round, qubit) carries
        # at most one CNOT X-class, data only, copy only or both, each at
        # cnot_flip (4 eps / 15)
        noise = NoiseParams(eps=0.15, include_meas_error=False)
        n = 20_000
        faults = sample_round_faults(
            np.random.default_rng(7), n, noise, CLEAN_ANCILLA)
        bits = np.left_shift(1, np.arange(7, dtype=np.uint8))
        on_data = (faults.on_data[:, None] & bits) != 0
        on_copy = (faults.on_measured[:, None] & bits) != 0
        counts = [np.count_nonzero(on_data & ~on_copy),
                  np.count_nonzero(~on_data & on_copy),
                  np.count_nonzero(on_data & on_copy)]
        trials, p = 7 * n, noise.cnot_flip
        sigma = np.sqrt(trials * p * (1 - p))
        assert all(abs(c - trials * p) < 4 * sigma for c in counts), counts

    def test_readout_flips_every_qubit_at_the_rate(self):
        noise = NoiseParams(eps=0.0, p_meas=0.1)
        n = 20_000
        faults = sample_round_faults(
            np.random.default_rng(11), n, noise, CLEAN_ANCILLA)
        assert not faults.on_data.any()
        bits = np.left_shift(1, np.arange(7, dtype=np.uint8))
        hits = np.count_nonzero(faults.on_measured[:, None] & bits, axis=0)
        sigma = np.sqrt(n * noise.meas_flip * (1 - noise.meas_flip))
        assert np.all(np.abs(hits - n * noise.meas_flip) < 4 * sigma), hits


class TestSkipFaultyRounds:
    @pytest.mark.parametrize("eps_a", [0.0, 0.3, 1.0])
    def test_each_faulty_round_is_skipped_once_at_eps_a(self, eps_a):
        noise = NoiseParams(eps=0.05)
        anc_probs = accepted_distribution(default_circuit(), noise).probs
        faults = sample_round_faults(np.random.default_rng(5), 5000, noise, anc_probs)
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        performed, skipped = _skip_faulty_rounds(rng, faults, eps_a)
        # performed and skipped split the faulty rounds; performed ones
        # keep their faults entry for entry
        kept = np.isin(faults.index, performed.index)
        np.testing.assert_array_equal(skipped, faults.index[~kept])
        for got, full in zip(performed, faults):
            np.testing.assert_array_equal(got, full[kept])
        n = faults.index.size
        sigma = np.sqrt(n * eps_a * (1 - eps_a))
        assert abs(skipped.size - n * eps_a) <= 5 * sigma
        # the stream contract: one uniform per faulty round, no more
        assert rng.random() == twin.random(n + 1)[-1]


class TestEventPositions:
    def test_each_location_fires_at_the_rate(self):
        rng = np.random.default_rng(9)
        length, p, reps = 40, 0.3, 5000
        hits = np.zeros(length)
        for _ in range(reps):
            pos = _event_positions(rng, length, p)
            assert np.all(np.diff(pos) > 0)
            hits[pos] += 1
        sigma = np.sqrt(reps * p * (1 - p))
        assert np.all(np.abs(hits - reps * p) < 5 * sigma)

    def test_edge_rates(self):
        rng = np.random.default_rng(10)
        assert _event_positions(rng, 100, 0.0).size == 0
        assert np.array_equal(_event_positions(rng, 100, 1.0), np.arange(100))
        assert _event_positions(rng, 0, 0.5).size == 0


class TestBatchKernel:
    def test_matches_exact_reference(self):
        cfg = make_cfg(shots=200_000)
        p_exact = logical_error_exact(cfg.noise, cfg.eps_a, cfg.n_gates, cfg.m)
        est = estimate_pl_mc(cfg)
        sigma = np.sqrt(p_exact * (1 - p_exact) / cfg.shots)
        assert abs(est.p_hat - p_exact) < 4 * sigma

    def test_all_rounds_skipped_closed_form(self):
        noise = NoiseParams(eps=0.03)
        cfg = make_cfg(
            n_gates=20, m=5, eps_a=1.0, noise=noise, shots=100_000
        )
        q = parity_flip_prob(noise.eps_g, cfg.n_gates)
        expect = sum(
            q ** steane.pattern_weight(e) * (1 - q) ** (7 - steane.pattern_weight(e))
            for e in range(128)
            if steane.residual_is_logical(e)
        )
        est = estimate_pl_mc(cfg)
        sigma = np.sqrt(expect * (1 - expect) / cfg.shots)
        assert abs(est.p_hat - expect) < 4 * sigma

    def test_zero_noise_zero_failures(self):
        cfg = make_cfg(noise=NoiseParams(eps=0.0), shots=5000)
        est = estimate_pl_mc(cfg)
        assert est.failures == 0

    def test_ci_width_halves_when_shots_quadruple(self):
        small = estimate_pl_mc(make_cfg(shots=20_000))
        large = estimate_pl_mc(make_cfg(shots=80_000))
        w_small = small.ci_high - small.ci_low
        w_large = large.ci_high - large.ci_low
        assert w_large == pytest.approx(w_small / 2, rel=0.1)


class TestChunkCarry:
    """One block per chunk: every event's gap starts from the carried state.

    Each shot's last event block carries across chunks, and a dirty shot
    survives a gap of j fault-free rounds with probability eps_a**j.
    """

    @pytest.mark.parametrize("eps_a", [0.5, 0.9])
    @pytest.mark.parametrize("m", [1, 3])
    def test_one_block_chunks_match_exact(self, monkeypatch, eps_a, m):
        monkeypatch.setattr(faultsim, "CHUNK_EVENTS", 0)
        cfg = make_cfg(n_gates=24, m=m, eps_a=eps_a, noise=NoiseParams(eps=0.01),
                       shots=200_000, master_seed=11)
        assert faultsim._chunk_blocks(cfg, cfg.batch_size, 0.0, CLEAN_ANCILLA) == 1
        p_exact = logical_error_exact(cfg.noise, eps_a, cfg.n_gates, m)
        est = estimate_pl_mc(cfg)
        sigma = np.sqrt(p_exact * (1 - p_exact) / cfg.shots)
        assert abs(est.p_hat - p_exact) < 5 * sigma


class TestHighRates:
    def test_batch_memory_does_not_grow_with_blocks_or_rate(self):
        # the top of every rate range, ~7 faults per shot-block: all the
        # batch's fault positions at once would take ~900 MB, one block's
        # ~1 MB per array; chunked generation keeps the peak near the latter
        cfg = TrajectoryConfig(
            n_gates=1000, m=1, eps_a=0.5,
            noise=NoiseParams(eps=0.3, p_meas=0.5), shots=16384, master_seed=4,
        )
        anc_probs = accepted_distribution(default_circuit(), cfg.noise).probs
        tracemalloc.start()
        try:
            _simulate_batch(cfg, 0, anc_probs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32e6, peak


class TestDeterminism:
    def test_thread_count_does_not_change_the_answer(self):
        cfg = make_cfg(shots=5000, batch_size=1000)
        serial = estimate_pl_mc(cfg, threads=1)
        parallel = estimate_pl_mc(cfg, threads=3)
        assert serial == parallel

    def test_batch_size_does_change_the_stream(self):
        # different batch layout means different draws; only the seed and
        # batch structure together define the result
        a = estimate_pl_mc(make_cfg(shots=5000, batch_size=1000))
        b = estimate_pl_mc(make_cfg(shots=5000, batch_size=2500))
        assert a.shots == b.shots  # both valid estimates of the same number

    def test_same_seed_same_counts_repeated_calls(self):
        cfg = make_cfg(shots=30_000)
        assert estimate_pl_mc(cfg) == estimate_pl_mc(cfg)

    def test_different_seeds_decorrelate(self):
        a = estimate_pl_mc(make_cfg(shots=30_000, master_seed=1))
        b = estimate_pl_mc(make_cfg(shots=30_000, master_seed=2))
        assert a.failures != b.failures


class TestStreamPin:
    """Fixed results of fixed seeds: the RNG stream itself is a contract.

    A change that moves any of these numbers changes what every seeded
    sweep and calibration prints; it must be made on purpose and logged.
    """

    def test_batch_kernel_failure_count(self):
        cfg = TrajectoryConfig(
            n_gates=60, m=3, eps_a=0.4, noise=NoiseParams.from_eps_g(2e-3),
            shots=5000, master_seed=2718, batch_size=1024,
        )
        assert estimate_pl_mc(cfg).failures == 472

    def test_single_round_position_counts(self):
        positions = measure_position_rates(6e-3, 7003, seed=31)
        assert [(p.two_count, p.one_count) for p in positions] == [
            (88, 27), (107, 28), (82, 24), (74, 38), (88, 16), (92, 18),
            (90, 27),
        ]


class TestRetryGuard:
    def test_low_acceptance_aborts(self):
        cfg = make_cfg(shots=100_000)
        with pytest.raises(SimulationAbort):
            _check_retry_feasibility(cfg, p_accept=1e-3)

    def test_normal_acceptance_passes(self):
        cfg = make_cfg(shots=100_000)
        _check_retry_feasibility(cfg, p_accept=0.5)
        _check_retry_feasibility(cfg, p_accept=1.0)

    def test_all_skip_never_aborts(self):
        cfg = make_cfg(eps_a=1.0, shots=100_000)
        _check_retry_feasibility(cfg, p_accept=1e-6)
