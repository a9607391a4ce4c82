"""Command-line interface: config contract, CSV output, exit codes.

Heavy sweeps live in the acceptance suite; everything here uses tiny grids
so the whole file stays fast while still driving main() end to end.
"""
import json
import multiprocessing
import os
from pathlib import Path

import pytest

from qec_cadence import cli, faultsim
from qec_cadence.cli import (
    BUILTIN_COEFFS,
    CSV_HEADER,
    DEFAULT_SEED,
    Config,
    ConfigError,
    derive_seed,
    load_config,
    main,
    rate_coefficients,
    rates_at,
    resolve_seed,
)
from qec_cadence.faultsim import SimulationAbort
from qec_cadence.model import AbstractRates, Schedule, approx_coefficients, m_min
from qec_cadence.selfcheck import CheckResult


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"

TINY_SWEEP = {
    "seed": 42,
    "sweep": {
        "eps_g": [1e-3],
        "eps_a": [0.0, 0.3],
        "m": [1, 2],
        "n_gates": 4,
        "shots": 3000,
    },
}


@pytest.fixture(autouse=True)
def no_ambient_seed(monkeypatch):
    monkeypatch.delenv("QEC_CADENCE_SEED", raising=False)


class TestConfig:
    def test_empty_dict_gives_defaults(self):
        cfg = Config.from_dict({})
        assert cfg.seed == DEFAULT_SEED
        assert cfg.rates == {"source": "builtin"}
        assert cfg.out is None
        assert cfg.sweep["n_gates"] == 1000

    def test_round_trip_is_lossless(self):
        for raw in ({}, TINY_SWEEP,
                    {"rates": {"source": "explicit", **BUILTIN_COEFFS}},
                    {"noise": {"include_wait_error": False}}):
            cfg = Config.from_dict(raw)
            again = Config.from_dict(cfg.to_dict())
            assert again == cfg
            assert again.to_dict() == cfg.to_dict()

    def test_serialized_form_is_fully_explicit(self):
        d = Config.from_dict({}).to_dict()
        assert set(d) == {
            "seed", "noise", "rates", "sweep", "mmin", "calibration", "out"
        }
        assert set(d["sweep"]) == {"eps_g", "eps_a", "m", "n_gates", "shots"}
        assert set(d["mmin"]) == {"eps_g", "eps_a", "m_grid", "n_gates"}
        assert set(d["noise"]) == {
            "include_meas_error", "p_meas", "include_init_error",
            "include_wait_error", "wait_scale",
        }

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"sweeep": {}})
        with pytest.raises(ConfigError):
            Config.from_dict({"sweep": {"shotz": 5}})
        with pytest.raises(ConfigError):
            Config.from_dict({"noise": {"include_everything": True}})
        with pytest.raises(ConfigError):
            Config.from_dict({"rates": {"source": "builtin", "extra": 1}})

    def test_rates_source_validation(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"rates": {"source": "psychic"}})
        with pytest.raises(ConfigError):
            Config.from_dict({"rates": {}})
        cfg = Config.from_dict(
            {"rates": {"source": "explicit", "eps_s_per_eps_g": 3.0}}
        )
        # allowed at parse time; missing coefficients surface on use
        with pytest.raises(ConfigError):
            rate_coefficients(cfg)

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"seed": -1})
        with pytest.raises(ConfigError):
            Config.from_dict({"seed": 2**64})
        with pytest.raises(ConfigError):
            Config.from_dict({"seed": "42"})

    def test_out_must_be_a_string(self):
        with pytest.raises(ConfigError):
            Config.from_dict({"out": 7})


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestSeedResolution:
    def test_config_seed_is_the_fallback(self):
        cfg = Config.from_dict({"seed": 7})
        assert resolve_seed(None, cfg) == 7

    def test_environment_overrides_config(self, monkeypatch):
        monkeypatch.setenv("QEC_CADENCE_SEED", "123")
        cfg = Config.from_dict({"seed": 7})
        assert resolve_seed(None, cfg) == 123

    def test_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("QEC_CADENCE_SEED", "123")
        cfg = Config.from_dict({"seed": 7})
        assert resolve_seed(55, cfg) == 55

    def test_invalid_environment_seed(self, monkeypatch):
        monkeypatch.setenv("QEC_CADENCE_SEED", "0x12")
        with pytest.raises(ConfigError):
            resolve_seed(None, Config.from_dict({}))

    def test_out_of_range_flag(self):
        with pytest.raises(ConfigError):
            resolve_seed(2**64, Config.from_dict({}))

    def test_derive_seed_is_stable_and_spread(self):
        a = derive_seed(42, 0)
        assert a == derive_seed(42, 0)
        assert a != derive_seed(42, 1)
        assert a != derive_seed(43, 0)
        assert 0 <= a < 2**64


class TestSweepCommand:
    def test_csv_contract(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--config", cfg_path, "--threads", "1",
                     "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2 * 2

        index = 0
        for eps_a in (0.0, 0.3):
            rates = rates_at(BUILTIN_COEFFS, 1e-3, eps_a)
            approx = approx_coefficients(rates, scale=4)
            for m in (1, 2):
                row = dict(zip(CSV_HEADER.split(","),
                               lines[1 + index].split(",")))
                assert float(row["eps_g"]) == 1e-3
                assert float(row["eps_a"]) == eps_a
                assert int(row["m"]) == m
                assert int(row["N"]) == 4
                assert int(row["B"]) == 4 // m
                assert int(row["shots"]) == 3000
                assert 0 <= int(row["failures"]) <= 3000
                assert float(row["ci_low"]) <= float(row["p_l_mc"]) \
                    <= float(row["ci_high"])
                assert float(row["p_l_mc"]) == int(row["failures"]) / 3000
                assert 0.0 <= float(row["p_l_formula"]) <= 1.0
                assert float(row["p_l_approx"]) == approx.evaluate(m)
                assert int(row["seed"]) == derive_seed(42, index)
                index += 1

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = str(tmp_path / name)
            assert main(["sweep", "--config", cfg_path, "--threads", "2",
                         "--out", out]) == 0
            outs.append(open(out, "rb").read())
        assert outs[0] == outs[1]

    def test_one_pool_for_the_whole_grid(self, tmp_path, monkeypatch):
        # six points of one batch each: the batches of all points share one
        # pool, which is gone when the call returns
        payload = {"seed": 5, "sweep": {"eps_g": [1e-4], "eps_a": [0.0, 0.5],
                                        "m": [5, 10, 25], "n_gates": 1000,
                                        "shots": 10_000}}
        cfg_path = write_config(tmp_path, payload)
        starts = []
        pool = faultsim.ProcessPoolExecutor

        def counting(*args, **kwargs):
            starts.append(kwargs.get("max_workers"))
            return pool(*args, **kwargs)
        monkeypatch.setattr(faultsim, "ProcessPoolExecutor", counting)
        outs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}.csv"
            del starts[:]
            assert main(["sweep", "--config", cfg_path, "--threads",
                         str(threads), "--out", str(out)]) == 0
            assert starts == ([] if threads == 1 else [threads])
            assert not multiprocessing.active_children()
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_flag_seed_changes_the_rows(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg_path, "--out", out_a]) == 0
        assert main(["sweep", "--config", cfg_path, "--out", out_b,
                     "--seed", "99"]) == 0
        a = open(out_a).read().splitlines()
        b = open(out_b).read().splitlines()
        assert a[0] == b[0]
        assert a[1:] != b[1:]

    def test_environment_seed_matches_flag_seed(self, tmp_path, monkeypatch):
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        assert main(["sweep", "--config", cfg_path, "--out", out_a,
                     "--seed", "99"]) == 0
        monkeypatch.setenv("QEC_CADENCE_SEED", "99")
        assert main(["sweep", "--config", cfg_path, "--out", out_b]) == 0
        assert open(out_a, "rb").read() == open(out_b, "rb").read()

    def test_out_falls_back_to_config_then_default(self, tmp_path, monkeypatch):
        payload = dict(TINY_SWEEP)
        payload["out"] = str(tmp_path / "from_config.csv")
        cfg_path = write_config(tmp_path, payload)
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", cfg_path]) == 0
        assert (tmp_path / "from_config.csv").exists()

    def test_sweep_validation_errors_exit_3(self, tmp_path):
        bad_m = dict(TINY_SWEEP, sweep=dict(TINY_SWEEP["sweep"], m=[3]))
        assert main(["sweep", "--config",
                     write_config(tmp_path, bad_m, "m.json")]) == 3
        bad_a = dict(TINY_SWEEP, sweep=dict(TINY_SWEEP["sweep"],
                                            eps_a=[1.0]))
        assert main(["sweep", "--config",
                     write_config(tmp_path, bad_a, "a.json")]) == 3
        empty = dict(TINY_SWEEP, sweep=dict(TINY_SWEEP["sweep"], eps_g=[]))
        assert main(["sweep", "--config",
                     write_config(tmp_path, empty, "g.json")]) == 3


    # each grid's last value alone is bad: m = 3 does not divide n_gates = 4,
    # eps_a = 1 is outside the closed form's range, eps_g < 0 is no rate
    @pytest.mark.parametrize("grid", [{"m": [1, 2, 3]}, {"eps_a": [0.0, 1.0]},
                                      {"eps_g": [1e-3, -1e-3]}],
                             ids=["m", "eps_a", "eps_g"])
    def test_validates_whole_grid_before_sampling(self, tmp_path, monkeypatch,
                                                  grid):
        def never(*args, **kwargs):
            raise AssertionError("sampled before the grid was validated")
        monkeypatch.setattr(cli, "estimate_many", never)
        payload = dict(TINY_SWEEP, sweep=dict(TINY_SWEEP["sweep"], **grid))
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--out", str(tmp_path / "x.csv")]) == 3
        assert not (tmp_path / "x.csv").exists()


def test_type_error_while_sampling_surfaces(tmp_path, monkeypatch):
    # only config values map to exit 3; a program bug keeps its traceback
    def broken(*args, **kwargs):
        raise TypeError("bug in the sampler")
    monkeypatch.setattr(cli, "estimate_many", broken)
    with pytest.raises(TypeError, match="bug in the sampler"):
        main(["sweep", "--config", write_config(tmp_path, TINY_SWEEP)])


TINY_MMIN = {"mmin": {"eps_g": [1e-4], "eps_a": [0.0], "m_grid": [1, 2],
                      "n_gates": 10}}
EXPLICIT_MMIN = dict(TINY_MMIN, rates={"source": "explicit", **BUILTIN_COEFFS})
TINY_CALIBRATION = {"calibration": {"eps_g_grid": [1e-3], "shots": 700}}

# (command, base config, section, overrides): each override alone is bad.
MALFORMED = [
    ("sweep", TINY_SWEEP, "sweep", {"m": [0]}),
    ("sweep", TINY_SWEEP, "sweep", {"n_gates": 0}),
    ("sweep", TINY_SWEEP, "sweep", {"shots": "10"}),
    ("sweep", TINY_SWEEP, "sweep", {"shots": 100.0}),
    ("sweep", TINY_SWEEP, "sweep", {"m": [2.0]}),
    ("mmin", TINY_MMIN, "mmin", {"n_gates": 0}),
    ("mmin", TINY_MMIN, "mmin", {"m_grid": [0]}),
    ("mmin", TINY_MMIN, "mmin", {"eps_g": [0]}),
    ("mmin", TINY_MMIN, "mmin", {"m_grid": [2.5], "n_gates": 10}),
    ("calibrate", TINY_CALIBRATION, "calibration", {"shots": "7"}),
    ("mmin", TINY_MMIN, "mmin", {"eps_a": ["0.3"]}),
    ("mmin", TINY_MMIN, "mmin", {"eps_g": ["1e-4"]}),
    ("sweep", TINY_SWEEP, "sweep", {"eps_a": [None]}),
    ("mmin", EXPLICIT_MMIN, "rates", {"eps_s_per_eps_g": None}),
    ("sweep", TINY_SWEEP, None, {"seed": True}),
    ("sweep", TINY_SWEEP, "noise", {"include_meas_error": "false"}),
    ("sweep", TINY_SWEEP, "noise", {"wait_scale": True}),
    ("sweep", TINY_SWEEP, "noise", {"include_wait_error": None}),
    ("calibrate", TINY_CALIBRATION, "calibration", {"eps_g_grid": ["1e-4"]}),
]


@pytest.mark.parametrize(
    "command,base,section,overrides", MALFORMED,
    ids=[f"{c}-{json.dumps(o)}" for c, _, _, o in MALFORMED],
)
def test_malformed_config_exits_3(tmp_path, capsys, command, base, section,
                                  overrides):
    if section is None:  # top-level keys
        payload = dict(base, **overrides)
    else:
        payload = dict(base, **{section: dict(base.get(section, {}), **overrides)})
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


class TestShippedConfigs:
    def test_every_config_loads(self):
        paths = sorted(CONFIGS_DIR.glob("*.json"))
        assert paths
        for path in paths:
            load_config(str(path))

    def test_cadence_table(self, capsys):
        path = str(CONFIGS_DIR / "cadence-table.json")
        assert main(["mmin", "--config", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps_g,eps_a,m_min,argmin_m,argmin_pl"
        assert len(lines) == 1 + 3 * 11


class TestMminCommand:
    def test_table_matches_library_calls(self, tmp_path, capsys):
        payload = {
            "mmin": {
                "eps_g": [5e-5, 1e-4],
                "eps_a": [0.0, 0.5],
                "m_grid": [1, 2, 4, 5, 10],
                "n_gates": 20,
            }
        }
        cfg_path = write_config(tmp_path, payload)
        assert main(["mmin", "--config", cfg_path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "eps_g,eps_a,m_min,argmin_m,argmin_pl"
        rows = [line.split(",") for line in lines[1:] if "," in line]
        assert len(rows) == 4
        for row in rows:
            eps_g, eps_a = float(row[0]), float(row[1])
            rates = rates_at(BUILTIN_COEFFS, eps_g, eps_a)
            assert int(row[2]) == m_min(rates)
        # with builtin coefficients the optimum is 6 gates per round at
        # eps_a = 0 and 2 at eps_a = 0.5, independent of eps_g
        assert [r[2] for r in rows] == ["6", "2", "6", "2"]

    def test_writes_file_when_asked(self, tmp_path):
        payload = {"mmin": {"eps_g": [1e-4], "eps_a": [0.0],
                            "m_grid": [1, 2], "n_gates": 10}}
        out = str(tmp_path / "mmin.csv")
        assert main(["mmin", "--config", write_config(tmp_path, payload),
                     "--out", out]) == 0
        assert open(out).read().startswith("eps_g,eps_a,m_min")


class TestCalibrateCommand:
    def test_writes_record_and_feeds_back_in(self, tmp_path, capsys):
        payload = {
            "seed": 5,
            "calibration": {
                "eps_g_grid": [5e-4, 1e-3],
                "shots": 14000,
                "normalization": "per_spectator",
            },
        }
        cfg_path = write_config(tmp_path, payload)
        record_path = str(tmp_path / "cal.json")
        assert main(["calibrate", "--config", cfg_path,
                     "--out", record_path]) == 0
        record = json.loads(open(record_path).read())
        for key in ("slope_sd", "slope_co", "eps_s_per_eps_g",
                    "eps_o_per_eps_g", "points", "seed", "noise",
                    "normalization"):
            assert key in record
        assert record["seed"] == 5
        assert len(record["points"]) == 2
        assert "slope_sd" in capsys.readouterr().out

        # a downstream command can consume the record as its rate source
        mmin_payload = {
            "rates": {"source": "calibrated", "record": record_path},
            "mmin": {"eps_g": [1e-4], "eps_a": [0.0], "m_grid": [1, 2],
                     "n_gates": 10},
        }
        mmin_cfg = write_config(tmp_path, mmin_payload, "mmin.json")
        assert main(["mmin", "--config", mmin_cfg]) == 0
        out = capsys.readouterr().out
        coeffs = rate_coefficients(load_config(mmin_cfg))
        assert coeffs["eps_s_per_eps_g"] == record["eps_s_per_eps_g"]
        assert str(m_min(rates_at(coeffs, 1e-4, 0.0))) in out

    def test_missing_record_is_a_config_error(self, tmp_path):
        payload = {
            "rates": {"source": "calibrated",
                      "record": str(tmp_path / "absent.json")},
            "mmin": {"eps_g": [1e-4], "eps_a": [0.0], "m_grid": [1],
                     "n_gates": 10},
        }
        assert main(["mmin", "--config", write_config(tmp_path, payload)]) == 3


class TestCheckCommand:
    def test_healthy_install_passes(self, capsys):
        assert main(["check"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "7/7 checks passed" in out

    def test_failure_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli, "run_self_checks",
            lambda: [CheckResult("synthetic", False, "injected failure")],
        )
        assert main(["check"]) == 1
        assert "FAIL synthetic" in capsys.readouterr().out


class TestExitCodes:
    def test_missing_config_flag_is_a_config_error(self, capsys):
        assert main(["sweep"]) == 3
        assert "requires --config" in capsys.readouterr().err

    def test_simulation_abort_exits_2(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SimulationAbort("injected")
        monkeypatch.setattr(cli, "estimate_many", boom)
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_bad_threads_value(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        assert main(["sweep", "--config", cfg_path, "--threads", "0"]) == 3

    def test_invalid_noise_options_exit_3(self, tmp_path):
        payload = dict(TINY_SWEEP, noise={"p_meas": 0.9})
        cfg_path = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "x.csv")]) == 3
