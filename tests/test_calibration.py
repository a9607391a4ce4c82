"""Calibration protocol: rate measurement, slope fitting, normalization."""
import numpy as np
import pytest

from qec_cadence import calibration
from qec_cadence.calibration import (
    EPS_C_COEFF,
    EPS_D_COEFF,
    SPECTATOR_COUNT,
    CalibrationPoint,
    PositionRates,
    calibrate,
    fit_linear,
    measure_position_rates,
)
from qec_cadence.exact import single_round_rates
from qec_cadence.model import rates_at
from qec_cadence.noise import NoiseParams

SMALL_GRID = (5e-4, 1e-3)
SMALL_SHOTS = 140_000


class TestFitLinear:
    def test_exact_fit(self):
        assert fit_linear([(1.0, 2.0), (2.0, 4.0)]) == pytest.approx(2.0)

    def test_least_squares_compromise(self):
        # sum xy / sum x^2 = (1 + 8) / (1 + 4)
        assert fit_linear([(1.0, 1.0), (2.0, 4.0)]) == pytest.approx(1.8)

    def test_single_point(self):
        assert fit_linear([(2.0, 5.0)]) == pytest.approx(2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_linear([])
        with pytest.raises(ValueError):
            fit_linear([(0.0, 1.0), (0.0, 2.0)])


class TestRateMeasurement:
    def test_zero_noise_measures_zero(self):
        positions = measure_position_rates(NoiseParams(eps=0.0), 7000)
        assert calibration._mean_rates(positions) == (0.0, 0.0)

    def test_position_bookkeeping(self):
        positions = measure_position_rates(NoiseParams(eps=1e-3), 7001, seed=9)
        assert len(positions) == 7
        assert [p.pattern for p in positions] == [1 << q for q in range(7)]
        assert sum(p.shots for p in positions) == 7001
        for p in positions:
            assert 0 <= p.two_count <= p.shots
            assert 0 <= p.one_count <= p.shots
            assert p.rate_two == p.two_count / p.shots

    def test_requires_a_shot_per_position(self):
        with pytest.raises(ValueError):
            measure_position_rates(NoiseParams(eps=1e-3), 3)

    def test_deterministic_in_seed(self):
        noise = NoiseParams(eps=2e-3)
        a = measure_position_rates(noise, 50_000, seed=4)
        b = measure_position_rates(noise, 50_000, seed=4)
        assert a == b

    def test_matches_exact_reference(self):
        noise = NoiseParams(eps=3e-3)
        shots = 700_000
        exact_two, exact_one = single_round_rates(noise)
        positions = measure_position_rates(noise, shots, seed=11)
        mc_two, mc_one = calibration._mean_rates(positions)
        sig_two = np.sqrt(exact_two * (1 - exact_two) / shots)
        sig_one = np.sqrt(exact_one * (1 - exact_one) / shots)
        assert abs(mc_two - exact_two) < 4 * sig_two
        assert abs(mc_one - exact_one) < 4 * sig_one

    def test_each_position_matches_its_exact_rate(self):
        # the preparation schedule treats qubits differently (cascade
        # order, wait counts), so positions are NOT interchangeable; each
        # must instead match its own exact per-position rate
        from qec_cadence.exact import syndrome_extraction_transfer
        from qec_cadence.steane import RESIDUAL_LOGICAL

        noise = NoiseParams(eps=5e-3)
        transfer = syndrome_extraction_transfer(noise)
        positions = measure_position_rates(noise, 700_000, seed=13)
        for q, p in enumerate(positions):
            expect = float(transfer[1 << q][RESIDUAL_LOGICAL].sum())
            sigma = np.sqrt(expect * (1 - expect) / p.shots)
            assert abs(p.rate_two - expect) < 4.5 * sigma, q


@pytest.fixture(scope="module")
def result():
    return calibrate(eps_g_grid=SMALL_GRID, shots=SMALL_SHOTS, seed=3)


class TestCalibrate:
    def test_point_bookkeeping(self, result):
        assert len(result.points) == 2
        assert [p.eps_g for p in result.points] == list(SMALL_GRID)
        for p in result.points:
            assert p.shots == SMALL_SHOTS
            assert p.rate_two_ci[0] <= p.rate_two <= p.rate_two_ci[1]
            assert p.rate_one_ci[0] <= p.rate_one <= p.rate_one_ci[1]

    def test_slopes_near_exact_reference(self, result):
        # compare against the sampling-free reference at the larger grid
        # point; the fit mixes two eps values, so allow a few percent
        two, one = single_round_rates(NoiseParams(eps=1.5e-3))
        assert result.slope_sd == pytest.approx(
            two / SPECTATOR_COUNT / 1e-3, rel=0.05
        )
        assert result.slope_co == pytest.approx(
            one / SPECTATOR_COUNT / 1e-3, rel=0.05
        )

    def test_coefficient_identities(self, result):
        assert result.eps_s_coeff == pytest.approx(
            result.slope_sd - EPS_D_COEFF, rel=1e-12
        )
        assert result.eps_o_coeff == pytest.approx(
            result.slope_co - EPS_C_COEFF, rel=1e-12
        )
        assert result.coefficients["eps_c_per_eps_g"] == EPS_C_COEFF
        assert result.coefficients["eps_d_per_eps_g"] == EPS_D_COEFF
        assert result.clamp_warnings == ()

    def test_rates_at_scales_all_coefficients(self, result):
        rates = rates_at(result.coefficients, 2e-4, eps_a=0.3)
        assert rates.eps_g == 2e-4
        assert rates.eps_a == 0.3
        assert rates.eps_s == pytest.approx(result.eps_s_coeff * 2e-4)
        assert rates.eps_o == pytest.approx(result.eps_o_coeff * 2e-4)
        assert rates.eps_c == pytest.approx(0.4 * 2e-4)
        assert rates.eps_d == pytest.approx(0.4 * 2e-4)

    def test_normalizations_differ_by_the_spectator_count(self, result):
        direct = calibrate(
            eps_g_grid=SMALL_GRID, shots=SMALL_SHOTS, seed=3,
            normalization="direct",
        )
        # same seed means identical raw counts; only the divisor changes
        assert direct.points == result.points
        assert direct.slope_sd == pytest.approx(
            SPECTATOR_COUNT * result.slope_sd, rel=1e-12
        )
        assert direct.slope_co == pytest.approx(
            SPECTATOR_COUNT * result.slope_co, rel=1e-12
        )

    def test_deterministic_in_seed(self, result):
        again = calibrate(eps_g_grid=SMALL_GRID, shots=SMALL_SHOTS, seed=3)
        assert again == result

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate(eps_g_grid=(), shots=1000)
        with pytest.raises(ValueError):
            calibrate(eps_g_grid=(1e-4,), shots=1000, normalization="bogus")

    def test_json_serializable_types_only(self, result):
        # no numpy scalars may leak into the record
        def walk(x):
            if isinstance(x, dict):
                for v in x.values():
                    walk(v)
            elif isinstance(x, list):
                for v in x:
                    walk(v)
            else:
                assert isinstance(x, (str, int, float, bool)) or x is None
        walk(result.to_record())


class TestClampPath:
    def test_negative_coefficients_clamp_with_warning(self, monkeypatch):
        # at high eps_g the fitted slopes flatten below the analytic 0.4
        # coupling share (eps_g = 0.5 fits slope_sd ~0.17); fake zero rates
        # reach the same path without sampling: clamp to zero, warn, record
        def fake_positions(noise, shots, seed=0):
            return [
                PositionRates(pattern=1 << q, shots=1000, two_count=0,
                              one_count=0)
                for q in range(7)
            ]

        monkeypatch.setattr(
            calibration, "measure_position_rates", fake_positions
        )
        with pytest.warns(RuntimeWarning):
            result = calibrate(eps_g_grid=(1e-4,), shots=7000, seed=0)
        assert result.eps_s_coeff == 0.0
        assert result.eps_o_coeff == 0.0
        assert len(result.clamp_warnings) == 2


def test_calibration_point_record_round_trip():
    p = CalibrationPoint(
        eps_g=1e-4, shots=1000, rate_two=0.01, rate_one=0.02,
        rate_two_ci=(0.005, 0.015), rate_one_ci=(0.015, 0.025),
    )
    rec = p.to_record()
    assert rec["eps_g"] == 1e-4
    assert rec["rate_two_ci"] == [0.005, 0.015]
