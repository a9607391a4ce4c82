"""Command-line interface: config contract, CSV output, exit codes.

Heavy sweeps live in the acceptance suite; everything here uses tiny grids
so the whole file stays fast while still driving main() end to end.
"""
import json
import multiprocessing
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from qec_cadence import calibration, cli, faultsim
from qec_cadence.calibration import calibrate
from qec_cadence.cli import (
    BUILTIN_COEFFS,
    CSV_HEADER,
    DEFAULT_SEED,
    ConfigError,
    derive_seed,
    load_config,
    main,
    parse_config,
    rate_coefficients,
    rates_at,
    resolve_seed,
)
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
        cfg = parse_config({})
        assert cfg["seed"] == DEFAULT_SEED
        assert cfg["rates"] == {"source": "builtin"}
        assert cfg["out"] is None
        assert cfg["sweep"]["n_gates"] == 1000

    @pytest.mark.parametrize("raw", [
        {}, TINY_SWEEP, {"rates": {"source": "explicit", **BUILTIN_COEFFS}},
        {"noise": {"wait_scale": 0.0}},
        *(json.loads(p.read_text(encoding="utf-8"))
          for p in sorted(CONFIGS_DIR.glob("*.json"))),
    ], ids=["empty", "tiny-sweep", "explicit-rates", "no-wait-flips",
            *sorted(p.name for p in CONFIGS_DIR.glob("*.json"))])
    def test_round_trip_is_lossless(self, raw):
        cfg = parse_config(raw)
        assert parse_config(cfg) == cfg
        assert parse_config(json.loads(json.dumps(cfg))) == cfg

    def test_editing_a_parsed_config_leaves_the_defaults_alone(self):
        before = json.loads(json.dumps(parse_config({})))
        for section in parse_config({}).values():
            for value in (section.values() if isinstance(section, dict) else ()):
                if isinstance(value, list):
                    value.append(0.2)
        assert parse_config({}) == before

    def test_serialized_form_is_fully_explicit(self):
        d = parse_config({})
        assert set(d) == {
            "seed", "noise", "rates", "sweep", "mmin", "calibration", "out"
        }
        assert set(d["sweep"]) == {"eps_g", "eps_a", "m", "n_gates", "shots"}
        assert set(d["mmin"]) == {"eps_g", "eps_a", "m_grid", "n_gates"}
        assert set(d["noise"]) == {"p_meas", "include_init_error", "wait_scale"}

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(ConfigError):
            parse_config({"sweeep": {}})
        with pytest.raises(ConfigError):
            parse_config({"sweep": {"shotz": 5}})
        with pytest.raises(ConfigError):
            parse_config({"noise": {"include_everything": True}})
        with pytest.raises(ConfigError):
            parse_config({"rates": {"source": "builtin", "extra": 1}})

    def test_rates_source_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"rates": {"source": "psychic"}})
        with pytest.raises(ConfigError):
            parse_config({"rates": {}})
        # explicit coefficients are checked at parse time, as noise is
        with pytest.raises(ConfigError, match="explicit rates missing"):
            parse_config(
                {"rates": {"source": "explicit", "eps_s_per_eps_g": 3.0}})

    def test_seed_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"seed": -1})
        with pytest.raises(ConfigError):
            parse_config({"seed": 2**64})
        with pytest.raises(ConfigError):
            parse_config({"seed": "42"})

    def test_out_must_be_a_string(self):
        with pytest.raises(ConfigError):
            parse_config({"out": 7})


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
        cfg = parse_config({"seed": 7})
        assert resolve_seed(None, cfg) == 7

    def test_environment_overrides_config(self, monkeypatch):
        monkeypatch.setenv("QEC_CADENCE_SEED", "123")
        cfg = parse_config({"seed": 7})
        assert resolve_seed(None, cfg) == 123

    def test_flag_overrides_environment(self, monkeypatch):
        monkeypatch.setenv("QEC_CADENCE_SEED", "123")
        cfg = parse_config({"seed": 7})
        assert resolve_seed(55, cfg) == 55

    def test_invalid_environment_seed(self, monkeypatch):
        monkeypatch.setenv("QEC_CADENCE_SEED", "0x12")
        with pytest.raises(ConfigError):
            resolve_seed(None, parse_config({}))

    def test_out_of_range_flag(self):
        with pytest.raises(ConfigError):
            resolve_seed(2**64, parse_config({}))

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
            for pair, m in enumerate((1, 2)):
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
                # one seed per (eps_g, m) pair, indexed by the pair alone
                assert int(row["seed"]) == derive_seed(42, pair)
                index += 1

    def test_rows_of_one_pair_share_a_seed(self, tmp_path):
        payload = {"seed": 9, "sweep": {"eps_g": [1e-3, 2e-3],
                                        "eps_a": [0.0, 0.3, 0.9],
                                        "m": [1, 2, 4], "n_gates": 8,
                                        "shots": 2000}}
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", write_config(tmp_path, payload),
                     "--threads", "1", "--out", str(out)]) == 0
        rows = [dict(zip(CSV_HEADER.split(","), line.split(",")))
                for line in out.read_text().splitlines()[1:]]
        seeds = {}
        for row in rows:
            seeds.setdefault((row["eps_g"], row["m"]), set()).add(row["seed"])
        assert len(seeds) == 6
        assert all(len(s) == 1 for s in seeds.values())
        assert len({s for (s,) in seeds.values()}) == 6
        for g, eps_g in enumerate((1e-3, 2e-3)):
            for j, m in enumerate((1, 2, 4)):
                assert seeds[(repr(eps_g), str(m))] == {str(derive_seed(9, 3 * g + j))}

    def test_adding_an_eps_a_leaves_the_other_rows_as_they_were(self, tmp_path):
        grid = {"eps_g": [1e-3, 3e-3], "eps_a": [0.0, 0.5], "m": [1, 2],
                "n_gates": 8, "shots": 20_000}
        wider = dict(grid, eps_a=[0.0, 0.3, 0.5, 0.9])
        texts = []
        for name, sweep in (("a", grid), ("b", wider)):
            out = tmp_path / f"{name}.csv"
            cfg_path = write_config(tmp_path, {"seed": 4, "sweep": sweep},
                                    name=f"{name}.json")
            assert main(["sweep", "--config", cfg_path, "--threads", "2",
                         "--out", str(out)]) == 0
            texts.append(out.read_text().splitlines())
        narrow, wide = texts
        kept = [line for line in wide[1:]
                if line.split(",")[1] in (repr(0.0), repr(0.5))]
        assert len(wide) == 1 + 2 * 4 * 2
        assert [narrow[0]] + kept == narrow

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
    ("sweep", TINY_SWEEP, "noise", {"p_meas": "0.1"}),
    ("sweep", TINY_SWEEP, "noise", {"wait_scale": True}),
    ("sweep", TINY_SWEEP, "noise", {"include_init_error": None}),
    # removed toggles: p_meas 0 and wait_scale 0 turn those channels off
    ("sweep", TINY_SWEEP, "noise", {"include_meas_error": False}),
    ("sweep", TINY_SWEEP, "noise", {"include_wait_error": False}),
    ("mmin", TINY_MMIN, "noise", {"p_meas": "abc"}),
    ("mmin", TINY_MMIN, "noise", {"wait_scale": 2.0}),
    ("check", {}, "noise", {"p_meas": 0.9}),
    ("calibrate", TINY_CALIBRATION, "calibration", {"eps_g_grid": ["1e-4"]}),
    ("sweep", TINY_SWEEP, "sweep", {"eps_g": 1e-4}),
    ("mmin", TINY_MMIN, "mmin", {"m_grid": 5}),
    ("calibrate", TINY_CALIBRATION, "calibration", {"eps_g_grid": 1e-4}),
    ("mmin", TINY_MMIN, "mmin", {"eps_a": []}),
    ("sweep", TINY_SWEEP, None, {"noise": 5}),
    ("mmin", TINY_MMIN, None, {"rates": {"source": "calibrated"}}),
    ("mmin", TINY_MMIN, None, {"rates": {"source": ["builtin"]}}),
    *(("mmin", TINY_MMIN, None, {"rates": {"source": "calibrated", "record": bad}})
      for bad in (["a.json"], {"x": 1}, 3.5, 2, 1, True)),
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


# (rates, error): each refused by parse_config, so by every subcommand
BAD_RATES = [
    ({"source": "explicit", **BUILTIN_COEFFS, "eps_s_per_eps_g": "abc",
      "eps_o_per_eps_g": -1},
     "explicit rates: eps_s_per_eps_g must be a real number, got 'abc'"),
    ({"source": "explicit", "eps_s_per_eps_g": 3.0},
     "explicit rates missing ['eps_o_per_eps_g', 'eps_c_per_eps_g', "
     "'eps_d_per_eps_g']"),
    ({"source": "calibrated"}, "rates source 'calibrated' needs a 'record' path"),
]


@pytest.mark.parametrize("rates,error", BAD_RATES,
                         ids=["malformed", "missing-keys", "no-record"])
@pytest.mark.parametrize("command,base", [
    ("sweep", TINY_SWEEP), ("mmin", TINY_MMIN),
    ("calibrate", TINY_CALIBRATION), ("check", {}),
], ids=["sweep", "mmin", "calibrate", "check"])
def test_bad_rates_exit_3_on_every_subcommand(tmp_path, capsys, monkeypatch,
                                              command, base, rates, error):
    # calibrate and check read no rates, and refuse them all the same
    def no_work(*args, **kwargs):
        raise AssertionError("ran with refused rates")

    for name in ("estimate_many", "calibrate", "run_self_checks"):
        monkeypatch.setattr(cli, name, no_work)
    payload = dict(base, rates=rates)
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--threads", "1", "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err == f"config error: {error}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
@pytest.mark.parametrize("command,payload", [
    ("sweep", TINY_SWEEP), ("mmin", TINY_MMIN), ("calibrate", TINY_CALIBRATION),
], ids=["sweep", "mmin", "calibrate"])
def test_unwritable_out_exits_3(tmp_path, capsys, monkeypatch, command, payload,
                               where):
    # the path is refused before any sampling starts
    def no_work(*args, **kwargs):
        raise AssertionError("sampled before checking the output path")

    monkeypatch.setattr(cli, "estimate_many", no_work)
    monkeypatch.setattr(cli, "calibrate", no_work)
    out = tmp_path if where == "directory" else tmp_path / "absent" / "out"
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--threads", "1", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith(f"config error: cannot write {out}: ")


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


GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


class TestGoldenOutputs:
    """The shipped configs' seeded outputs, byte for byte.

    Each file was written by the CLI on its config.  A change that moves
    any of these bytes changes what every seeded run writes; it must be
    made on purpose and logged, as TestStreamPin says.  The check stdout
    is left out: its relative-error digits come from 16x16 BLAS products,
    which change with the machine.
    """

    @pytest.mark.parametrize("argv, golden", [
        (["sweep", "paper-sweep.json", "--seed", "5", "--threads", "1"],
         "paper-sweep-seed5.csv"),
        (["sweep", "paper-sweep.json", "--seed", "5", "--threads", "2"],
         "paper-sweep-seed5.csv"),
        (["mmin", "cadence-table.json"], "cadence-table.csv"),
        (["calibrate", "calibration.json", "--seed", "11"],
         "calibration-seed11.json"),
    ], ids=["sweep-threads-1", "sweep-threads-2", "mmin", "calibrate"])
    def test_output_is_the_golden_file(self, tmp_path, argv, golden):
        command, config, *flags = argv
        out = tmp_path / golden
        assert main([command, "--config", str(CONFIGS_DIR / config), *flags,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == (GOLDEN_DIR / golden).read_bytes()


class TestReadme:
    def test_python_quick_start_runs(self, capsys):
        # an API change must not leave the documented example broken
        readme = (CONFIGS_DIR.parent / "README.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        assert len(capsys.readouterr().out.splitlines()) == 3


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

    # each record alone is bad: a non-number, a bool that would read as 1.0,
    # a JSON list, a missing coefficient
    @pytest.mark.parametrize("corrupt", [
        lambda r: {**r, "eps_s_per_eps_g": "abc"},
        lambda r: {**r, "eps_o_per_eps_g": True},
        lambda r: [r],
        lambda r: {k: v for k, v in r.items() if k != "eps_d_per_eps_g"},
    ], ids=["string", "bool", "list", "missing-key"])
    def test_malformed_record_is_a_config_error(self, tmp_path, capsys, corrupt):
        record = calibrate(eps_g_grid=(1e-3,), shots=700).to_record()
        record_path = tmp_path / "cal.json"
        record_path.write_text(json.dumps(corrupt(record)))
        payload = dict(TINY_MMIN,
                       rates={"source": "calibrated", "record": str(record_path)})
        assert main(["mmin", "--config", write_config(tmp_path, payload)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("config error: ") and str(record_path) in err

    def test_clamp_note_is_reported_once(self, tmp_path):
        # at eps_g = 0.5 the fitted slopes flatten below the 0.4 coupling
        # shares, so both coefficients clamp; a subprocess, because pytest
        # captures warnings raised in-process
        payload = {"seed": 3,
                   "calibration": {"eps_g_grid": [0.5], "shots": 7000}}
        record_path = tmp_path / "cal.json"
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(cli.__file__).resolve().parents[1]),
            env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qec_cadence.cli", "calibrate",
             "--config", write_config(tmp_path, payload),
             "--out", str(record_path)],
            env=env, capture_output=True, text=True, check=True,
        )
        record = json.loads(record_path.read_text())
        assert len(record["clamp_warnings"]) == 2
        for note in record["clamp_warnings"]:
            assert proc.stderr.count(note) == 1, proc.stderr


@pytest.mark.parametrize("eps_g", [0.9, -1e-5])
@pytest.mark.parametrize("command,section,key,base", [
    ("sweep", "sweep", "eps_g", TINY_SWEEP),
    ("calibrate", "calibration", "eps_g_grid", TINY_CALIBRATION),
], ids=["sweep", "calibrate"])
def test_eps_g_outside_its_range_is_named(tmp_path, capsys, command, section,
                                          key, base, eps_g):
    # eps_g in [0, 2/3] is depolarizing eps = 1.5 * eps_g in [0, 1]; the
    # message names the key the config holds, not the derived eps
    payload = dict(base, **{section: dict(base[section], **{key: [eps_g]})})
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--threads", "1", "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err == f"config error: eps_g must be in [0, 2/3], got {eps_g}\n"
    assert not (tmp_path / "out").exists()


# coefficients of a calibrated record whose largest, 5.0, caps eps_g at 0.2
CAPPED_RECORD = {"eps_s_per_eps_g": 5.0, "eps_o_per_eps_g": 0.5,
                 "eps_c_per_eps_g": 0.4, "eps_d_per_eps_g": 0.4}


@pytest.mark.parametrize("command,source,eps_g,cap", [
    ("sweep", "builtin", 0.5, "1/3.45] (about 0.29)"),
    ("mmin", "builtin", 0.5, "1/3.45] (about 0.29)"),
    ("mmin", "builtin", 0.9, "1/3.45] (about 0.29)"),
    ("sweep", "calibrated", 0.25, "1/5.0] (about 0.2)"),
    ("mmin", "calibrated", 0.25, "1/5.0] (about 0.2)"),
])
def test_eps_g_past_its_rate_cap_is_named(tmp_path, capsys, command, source,
                                          eps_g, cap):
    # the closed form's rates are coefficient * eps_g and must stay in
    # [0, 1], so the largest coefficient caps eps_g; the message names
    # eps_g and that cap, never a derived rate the config does not hold
    base, section = {"sweep": (TINY_SWEEP, "sweep"),
                     "mmin": (TINY_MMIN, "mmin")}[command]
    payload = dict(base, **{section: dict(base[section], eps_g=[eps_g])})
    if source == "calibrated":
        record = tmp_path / "cal.json"
        record.write_text(json.dumps(CAPPED_RECORD))
        payload["rates"] = {"source": "calibrated", "record": str(record)}
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--threads", "1", "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert captured.err == (f"config error: eps_g must be in [0, {cap} with "
                            f"these rate coefficients, got {eps_g}\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_rate_cap_moves_with_the_rate_source(tmp_path):
    # eps_g 0.25, refused above under the record's cap 1/5, is under the
    # builtin cap 1/3.45 (where the second-order sum clamps)
    payload = dict(TINY_MMIN, mmin=dict(TINY_MMIN["mmin"], eps_g=[0.25]))
    with pytest.warns(RuntimeWarning, match="clamped"):
        assert main(["mmin", "--config", write_config(tmp_path, payload)]) == 0


@pytest.mark.parametrize("eps_g", [0.0, 1e-4])
@pytest.mark.parametrize("key,value", [
    ("eps_s_per_eps_g", "-1"),
    ("eps_d_per_eps_g", "NaN"),
    ("eps_o_per_eps_g", "Infinity"),
])
@pytest.mark.parametrize("source", ["explicit", "calibrated"])
@pytest.mark.parametrize("command", ["sweep", "mmin"])
def test_negative_or_non_finite_coefficient_is_named(tmp_path, capsys, command,
                                                     source, key, value, eps_g):
    # a coefficient c gives the rate c * eps_g, so c must be finite and
    # >= 0 even where eps_g = 0 makes the rate itself look harmless; JSON
    # accepts NaN and Infinity, and the message names the key given
    coeffs = {**BUILTIN_COEFFS, key: json.loads(value)}
    base, section = {"sweep": (TINY_SWEEP, "sweep"),
                     "mmin": (TINY_MMIN, "mmin")}[command]
    payload = dict(base, **{section: dict(base[section], eps_g=[eps_g])})
    if source == "explicit":
        payload["rates"] = {"source": "explicit", **coeffs}
    else:
        record = tmp_path / "cal.json"
        record.write_text(json.dumps(coeffs))
        payload["rates"] = {"source": "calibrated", "record": str(record)}
    assert main([command, "--config", write_config(tmp_path, payload),
                 "--threads", "1", "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("config error: ")
    assert captured.err.endswith(
        f"{key} must be finite and >= 0, got {float(coeffs[key])!r}\n")
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_calibrate_validates_whole_grid_before_sampling(tmp_path, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("sampled before the grid was validated")
    monkeypatch.setattr(calibration, "measure_position_rates", never)
    payload = {"calibration": {"eps_g_grid": [1e-4, 0.9], "shots": 700}}
    assert main(["calibrate", "--config", write_config(tmp_path, payload),
                 "--out", str(tmp_path / "cal.json")]) == 3
    assert not (tmp_path / "cal.json").exists()


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

    def test_bad_threads_value(self, tmp_path):
        cfg_path = write_config(tmp_path, TINY_SWEEP)
        assert main(["sweep", "--config", cfg_path, "--threads", "0"]) == 3

    def test_invalid_noise_options_exit_3(self, tmp_path):
        payload = dict(TINY_SWEEP, noise={"p_meas": 0.9})
        cfg_path = write_config(tmp_path, payload)
        assert main(["sweep", "--config", cfg_path,
                     "--out", str(tmp_path / "x.csv")]) == 3
