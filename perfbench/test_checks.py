"""Each benchmark check rejects a wrong answer and accepts a right one.

Run from the repository root: python3 -m pytest -q perfbench/test_checks.py
"""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
from qec_cadence import calibration, cli, exact  # noqa: E402
from qec_cadence.noise import NoiseParams  # noqa: E402

EPS_G = 1e-4
GRID = {"eps_g": [EPS_G], "eps_a": [0.0], "m": [20, 25], "n_gates": 1000,
        "shots": 32768}
CAL_GRID = (1e-5, 1e-4, 1e-3)


def _sweep_csv(tmp_path, eps_g: float) -> str:
    config = tmp_path / f"sweep-{eps_g}.json"
    config.write_text(json.dumps({"seed": 7, "sweep": {**GRID, "eps_g": [eps_g]}}))
    out = tmp_path / f"sweep-{eps_g}.csv"
    assert cli.main(["sweep", "--config", str(config), "--threads", "1",
                     "--out", str(out)]) == 0
    return out.read_text()


def _relabel_eps_g(text: str, eps_g: float) -> str:
    lines = text.splitlines()
    rows = [",".join([repr(eps_g)] + line.split(",")[1:]) for line in lines[1:]]
    return "\n".join([lines[0], *rows]) + "\n"


@pytest.fixture(scope="module")
def reference():
    noise = NoiseParams.from_eps_g(EPS_G)
    return {(EPS_G, a, m): exact.logical_error_exact(noise, a, GRID["n_gates"], m)
            for a in GRID["eps_a"] for m in GRID["m"]}


@pytest.fixture(scope="module")
def sweep_text(tmp_path_factory):
    return _sweep_csv(tmp_path_factory.mktemp("sweep"), EPS_G)


def test_sweep_check_accepts_the_sampler(sweep_text, reference):
    assert checks.sweep_failures(sweep_text, GRID, reference) == []


def test_sweep_check_rejects_rows_simulated_at_1_5x_eps_g(tmp_path, reference):
    wrong = _relabel_eps_g(_sweep_csv(tmp_path, 1.5 * EPS_G), EPS_G)
    problems = checks.sweep_failures(wrong, GRID, reference)
    assert any("sigma from exact" in p for p in problems), problems


@pytest.mark.parametrize("mutate, message", [
    (lambda t: t.replace("p_l_mc", "p_mc", 1), "not the documented one"),
    (lambda t: t.replace(",25,", ",24,"), "rows cover"),
])
def test_sweep_check_rejects_bad_layout(sweep_text, reference, mutate, message):
    problems = checks.sweep_failures(mutate(sweep_text), GRID, reference)
    assert any(message in p for p in problems), problems


def _edit_column(text: str, column: str, fn) -> str:
    header, rows = checks.parse_sweep_csv(text)
    for row in rows:
        row[column] = repr(fn(row))
    return "\n".join([header] + [",".join(r.values()) for r in rows]) + "\n"


def test_sweep_check_rejects_interval_missing_the_estimate(sweep_text, reference):
    wrong = _edit_column(sweep_text, "ci_high", lambda r: 0.5 * float(r["p_l_mc"]))
    problems = checks.sweep_failures(wrong, GRID, reference)
    assert any("outside its interval" in p for p in problems), problems


def test_sweep_check_rejects_formula_off_by_half(sweep_text, reference):
    wrong = _edit_column(sweep_text, "p_l_formula",
                         lambda r: 1.5 * float(r["p_l_formula"]))
    problems = checks.sweep_failures(wrong, GRID, reference)
    assert any("p_l_formula" in p for p in problems), problems


@pytest.fixture(scope="module")
def transfer():
    return exact.syndrome_extraction_transfer(NoiseParams.from_eps_g(EPS_G))


def test_transfer_check_accepts_the_evaluator(transfer):
    assert checks.transfer_failures(transfer, "t") == []


def test_transfer_check_rejects_one_perturbed_row(transfer):
    wrong = transfer.copy()
    wrong[5] *= 1.0 + 1e-9
    problems = checks.transfer_failures(wrong, "t")
    assert any("row sums" in p for p in problems), problems


def test_transfer_check_rejects_a_negative_entry(transfer):
    wrong = transfer.copy()
    small, large = int(np.argmin(wrong[3])), int(np.argmax(wrong[3]))
    wrong[3, large] += wrong[3, small] + 1e-6
    wrong[3, small] = -1e-6  # row sum unchanged
    problems = checks.transfer_failures(wrong, "t")
    assert any("negative" in p for p in problems), problems


def test_low_noise_check_rejects_a_6_percent_gap():
    assert checks.relative_gap_failures(1.0, 1.04, 0.05, "x") == []
    assert checks.relative_gap_failures(1.0, 1.06, 0.05, "x") != []


def test_cadence_check_rejects_a_choice_2_percent_worse():
    by_m = {1: 1.02, 2: 1.0, 3: 1.005}
    assert checks.cadence_failures(by_m, 3, "x") == []
    assert checks.cadence_failures(by_m, 1, "x") != []


@pytest.fixture(scope="module")
def exact_rates():
    return [exact.single_round_rates(NoiseParams.from_eps_g(g)) for g in CAL_GRID]


def _calibration_record(normalization: str) -> dict:
    result = calibration.calibrate(eps_g_grid=CAL_GRID, shots=140_000, seed=3,
                                   normalization=normalization)
    return result.to_record()


def test_calibration_check_accepts_per_spectator_slopes(exact_rates):
    record = _calibration_record("per_spectator")
    assert checks.calibration_failures(record, 6, exact_rates) == []


def test_calibration_check_rejects_direct_slopes(exact_rates):
    record = _calibration_record("direct")
    problems = checks.calibration_failures(record, 6, exact_rates)
    assert any("slope_sd" in p for p in problems), problems
    assert any("slope_co" in p for p in problems), problems


def test_calibration_check_rejects_rates_from_twice_the_noise(exact_rates):
    record = _calibration_record("per_spectator")
    doubled = calibration.calibrate(eps_g_grid=[2 * g for g in CAL_GRID],
                                    shots=140_000, seed=3).to_record()
    for point, wrong in zip(record["points"], doubled["points"]):
        point["rate_two"] = wrong["rate_two"]
    problems = checks.calibration_failures(record, 6, exact_rates)
    assert any("rate_two" in p and "sigma" in p for p in problems), problems
