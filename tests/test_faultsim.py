"""Monte Carlo sampler: statistics plumbing, physics, determinism.

The sparse batch kernel is validated three ways: against the ideal
decoder at zero noise, against the exact 128-state reference at hot noise
(no sampling ambiguity about which one is wrong: the reference is exact),
and against the event-by-event path that draws faults one at a time.
Neither reference shares code with the kernel: the exact evaluator
propagates distributions, and the event path draws every location.
"""
import tracemalloc

import numpy as np
import pytest

from qec_cadence import steane
from qec_cadence.ancilla import (
    accepted_distribution,
    default_circuit,
    prepare_verified_ancilla,
)
from qec_cadence.calibration import measure_position_rates
from qec_cadence.exact import logical_error_exact, parity_flip_prob
from qec_cadence.faultsim import (
    DEFAULT_BATCH_SIZE,
    PlEstimate,
    SimulationAbort,
    TrajectoryConfig,
    _check_retry_feasibility,
    _event_positions,
    _simulate_batch,
    estimate_pl_mc,
    qec_round,
    round_output,
    run_trajectory,
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


class TestEventPath:
    def test_noiseless_round_is_the_ideal_decoder(self):
        rng = np.random.default_rng(0)
        noise = NoiseParams(eps=0.0)
        for e in range(128):
            residual, _ = steane.apply_ideal_qec(e)
            assert qec_round(e, rng, noise) == residual

    def test_skipped_round_is_a_no_op_even_under_noise(self):
        rng = np.random.default_rng(1)
        noise = NoiseParams(eps=0.2)
        state0 = rng.bit_generator.state
        for e in (0, 5, 127):
            assert qec_round(e, rng, noise, skip=True) == e
        # skipping must not consume randomness either
        assert rng.bit_generator.state == state0

    def test_noiseless_trajectory_never_fails(self):
        rng = np.random.default_rng(2)
        cfg = make_cfg(noise=NoiseParams(eps=0.0), shots=1)
        assert not run_trajectory(cfg, rng)

    def test_event_path_matches_exact_reference(self):
        cfg = make_cfg(shots=1)
        p_exact = logical_error_exact(cfg.noise, cfg.eps_a, cfg.n_gates, cfg.m)
        rng = np.random.default_rng(77)
        n = 12_000
        fails = sum(run_trajectory(cfg, rng) for _ in range(n))
        sigma = np.sqrt(n * p_exact * (1 - p_exact))
        assert abs(fails - n * p_exact) < 4 * sigma


class TestVectorizedRound:
    def test_matches_event_round_statistics(self):
        # same input pattern, both paths, compare output histograms
        noise = NoiseParams(eps=0.05)
        anc_probs = accepted_distribution(default_circuit(), noise).probs
        pattern = np.uint8(steane.pattern_from_qubits([2, 6]))
        n = 30_000
        faults = sample_round_faults(np.random.default_rng(3), n, noise, anc_probs)
        outs = np.full(n, round_output(pattern, 0, 0), dtype=np.uint8)
        outs[faults.index] = round_output(
            pattern, faults.on_data, faults.on_measured)
        vec_counts = np.bincount(outs, minlength=128)

        rng = np.random.default_rng(4)
        ev_counts = np.zeros(128, dtype=int)
        for _ in range(n):
            ev_counts[qec_round(int(pattern), rng, noise)] += 1

        for out in range(128):
            p = max(vec_counts[out], ev_counts[out]) / n
            if p == 0:
                continue
            sigma = np.sqrt(2 * n * p * (1 - p))  # both sides fluctuate
            assert abs(vec_counts[out] - ev_counts[out]) < 5 * sigma

    def test_one_sorted_entry_per_faulty_round(self):
        noise = NoiseParams(eps=0.05)
        anc_probs = accepted_distribution(default_circuit(), noise).probs
        faults = sample_round_faults(np.random.default_rng(5), 5000, noise, anc_probs)
        assert np.all(np.diff(faults.index) > 0)
        assert 0 <= faults.index[0] and faults.index[-1] < 5000


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
        assert estimate_pl_mc(cfg).failures == 504

    def test_single_round_position_counts(self):
        positions = measure_position_rates(6e-3, 7003, seed=31)
        assert [(p.two_count, p.one_count) for p in positions] == [
            (88, 27), (107, 28), (82, 24), (74, 38), (88, 16), (92, 18),
            (90, 27),
        ]

    def test_event_path(self):
        cfg = make_cfg(n_gates=6, m=2, eps_a=0.3, noise=NoiseParams(eps=0.03))
        rng = np.random.default_rng(5)
        assert sum(run_trajectory(cfg, rng) for _ in range(300)) == 95
        rng = np.random.default_rng(8)
        patterns = [prepare_verified_ancilla(rng, NoiseParams(eps=0.05))
                    for _ in range(40)]
        assert patterns == [
            0, 8, 0, 0, 0, 1, 24, 0, 98, 1, 8, 75, 25, 0, 0, 0, 0, 0, 2, 0,
            0, 0, 0, 3, 0, 0, 0, 8, 0, 0, 0, 8, 0, 14, 0, 34, 0, 16, 16, 42,
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
