"""Command-line front end.

Subcommands: calibrate (fit round error rates, write a JSON record), sweep
(Monte Carlo vs closed-form grid, write CSV), mmin (optimal-cadence table
from the closed form), check (built-in consistency battery).

Config is a single JSON document.  parse_config validates it and returns a
plain dict with every documented default filled in; json.dumps serializes
that dict, and parsing the dump gives it back.  Seed precedence: --seed
flag, then QEC_CADENCE_SEED, then the config value.  Exit codes: 0 ok,
1 self-check failure, 3 config error.  No run aborts: the verified ancilla
accepts with probability at least 1/3 at any valid noise setting
(ancilla.accepted_distribution).
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import fields

from .calibration import (
    BUILTIN_COEFFS,
    DEFAULT_EPS_G_GRID,
    DEFAULT_SHOTS,
    calibrate,
)
from .faultsim import TrajectoryConfig, derive_seed, estimate_many
from .model import (
    Schedule,
    approx_coefficients,
    as_rate,
    as_seed,
    grid_argmin,
    m_min,
    pl_second_order,
    rates_at,
)
from .noise import NoiseParams
from .selfcheck import run_self_checks

CSV_HEADER = (
    "eps_g,eps_a,m,N,B,shots,failures,p_l_mc,ci_low,ci_high,"
    "p_l_formula,p_l_approx,seed"
)

DEFAULT_NOISE_OPTIONS = {
    f.name: f.default for f in fields(NoiseParams) if f.name != "eps"
}

DEFAULT_SWEEP = {
    "eps_g": [1e-4],
    "eps_a": [0.0, 0.3, 0.5],
    "m": [1, 2, 4, 5, 8, 10, 20, 25],
    "n_gates": 1000,
    "shots": 100_000,
}

DEFAULT_MMIN = {
    "eps_g": [5e-5],
    "eps_a": [0.0, 0.1, 0.2, 0.3, 0.4, 0.5],
    "m_grid": [1, 2, 4, 5, 8, 10, 20, 25, 100],
    "n_gates": 1000,
}

DEFAULT_CALIBRATION = {
    "eps_g_grid": list(DEFAULT_EPS_G_GRID),
    "shots": DEFAULT_SHOTS,
    "normalization": "per_spectator",
}

DEFAULT_SEED = 20260823
# Section keys whose value is a grid: a non-empty JSON list.
GRID_KEYS = {"eps_g", "eps_a", "m", "m_grid", "eps_g_grid"}


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 3."""


def _valid_seed(value) -> int:
    """`value` as a master seed (model.as_seed); ConfigError if not one."""
    try:
        return as_seed("seed", value)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _coefficients(given: dict, where: str) -> dict:
    """The four per-eps_g coefficients of `given`, each finite and >= 0."""
    missing = [k for k in BUILTIN_COEFFS if k not in given]
    if missing:
        raise ConfigError(f"{where} missing {missing}")
    try:
        coeffs = {k: as_rate(k, given[k]) for k in BUILTIN_COEFFS}
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    for k, c in coeffs.items():
        if not 0.0 <= c < math.inf:
            raise ConfigError(f"{where}: {k} must be finite and >= 0, got {c!r}")
    return coeffs


def _section(raw: dict, name: str, defaults: dict) -> dict:
    got = raw.get(name, {})
    if not isinstance(got, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(got) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    section = {**defaults, **got}
    for key in GRID_KEYS & set(section):
        if not isinstance(section[key], list) or not section[key]:
            raise ConfigError(
                f"{name}.{key} must be a non-empty list, got {section[key]!r}")
        section[key] = list(section[key])  # editing it leaves the defaults alone
    return section


def parse_config(raw: dict) -> dict:
    """The validated config: `raw` as plain JSON data with every default filled in."""
    allowed = {"seed", "noise", "rates", "sweep", "mmin", "calibration", "out"}
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
    seed = _valid_seed(raw.get("seed", DEFAULT_SEED))
    rates = raw.get("rates", {"source": "builtin"})
    if not isinstance(rates, dict) or "source" not in rates:
        raise ConfigError("rates must be an object with a 'source' key")
    rate_keys = {"builtin": {"source"}, "explicit": {"source", *BUILTIN_COEFFS},
                 "calibrated": {"source", "record"}}
    source = rates["source"]
    if not isinstance(source, str) or source not in rate_keys:
        raise ConfigError(
            f"rates source must be builtin, explicit or calibrated, got {source!r}")
    unknown = set(rates) - rate_keys[source]
    if unknown:
        raise ConfigError(f"unknown key(s) in rates: {sorted(unknown)}")
    if source == "explicit":
        _coefficients(rates, "explicit rates")
    if not isinstance(rates.get("record", ""), str):
        raise ConfigError("rates.record must be a string path")
    if source == "calibrated" and not rates.get("record"):
        raise ConfigError("rates source 'calibrated' needs a 'record' path")
    out = raw.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a string path")
    # every subcommand gets a noise section that NoiseParams accepts
    noise = _section(raw, "noise", DEFAULT_NOISE_OPTIONS)
    try:
        NoiseParams(eps=0.0, **noise)
    except ValueError as exc:
        raise ConfigError(f"invalid noise options: {exc}") from exc
    return {
        "seed": seed,
        "noise": noise,
        "rates": dict(rates),
        "sweep": _section(raw, "sweep", DEFAULT_SWEEP),
        "mmin": _section(raw, "mmin", DEFAULT_MMIN),
        "calibration": _section(raw, "calibration", DEFAULT_CALIBRATION),
        "out": out,
    }


def load_config(path: str | None) -> dict:
    if path is None:
        return parse_config({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return parse_config(raw)


def rate_coefficients(config: dict) -> dict:
    """Per-eps_g coefficients {eps_s, eps_o, eps_c, eps_d}, each finite, >= 0.

    parse_config has checked explicit rates; a calibration record is read
    here, at command time, and gets the same check.
    """
    rates = config["rates"]
    if rates["source"] == "builtin":
        return dict(BUILTIN_COEFFS)
    if rates["source"] == "explicit":
        return _coefficients(rates, "explicit rates")
    where = f"calibration record {rates['record']}"
    try:
        with open(rates["record"], "r", encoding="utf-8") as fh:
            given = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load {where}: {exc}") from exc
    if not isinstance(given, dict):
        raise ConfigError(f"{where} must be a JSON object")
    return _coefficients(given, where)


def _fmt(x: float) -> str:
    return repr(float(x))


def _check_writable(path: str) -> None:
    """Refuse an output path that cannot be a file, before any work is done."""
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: it is a directory")
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise ConfigError(f"cannot write {path}: no directory {parent}")


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def cmd_sweep(config: dict, seed: int, threads: int, out: str | None) -> int:
    section = config["sweep"]
    n_gates = section["n_gates"]
    # Build every point before sampling any: the library objects validate
    # the grid, so a bad value anywhere in it fails up front.
    points = []
    try:
        coeffs = rate_coefficients(config)
        schedules = [Schedule(n_gates=n_gates, m=m) for m in section["m"]]
        for g, eps_g in enumerate(section["eps_g"]):
            noise = NoiseParams.from_eps_g(eps_g, **config["noise"])
            # one seed per (eps_g, m): the pair's eps_a rows share its draw
            seeds = [derive_seed(seed, g * len(schedules) + j)
                     for j in range(len(schedules))]
            for eps_a in section["eps_a"]:
                rates = rates_at(coeffs, eps_g, eps_a)
                approx = approx_coefficients(rates, scale=n_gates)
                for sched, master_seed in zip(schedules, seeds):
                    cfg = TrajectoryConfig(
                        n_gates=n_gates, m=sched.m, eps_a=eps_a, noise=noise,
                        shots=section["shots"], master_seed=master_seed,
                    )
                    points.append((eps_g, cfg, pl_second_order(rates, sched),
                                   approx.evaluate(sched.m)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = out or config["out"] or "sweep.csv"
    _check_writable(path)
    estimates = estimate_many([cfg for _, cfg, _, _ in points], threads=threads)
    lines = [CSV_HEADER]
    for (eps_g, cfg, p_formula, p_approx), est in zip(points, estimates):
        lines.append(
            ",".join(
                [
                    _fmt(eps_g), _fmt(cfg.eps_a), str(cfg.m), str(cfg.n_gates),
                    str(cfg.blocks), str(cfg.shots), str(est.failures),
                    _fmt(est.p_hat), _fmt(est.ci_low), _fmt(est.ci_high),
                    _fmt(p_formula), _fmt(p_approx), str(cfg.master_seed),
                ]
            )
        )
    text = "\n".join(lines) + "\n"
    _write_text(path, text)
    print(f"wrote {len(lines) - 1} rows to {path}")
    return 0


def cmd_mmin(config: dict, seed: int, threads: int, out: str | None) -> int:
    section = config["mmin"]
    lines = ["eps_g,eps_a,m_min,argmin_m,argmin_pl"]
    # Pure arithmetic: any ValueError here comes from a bad config value.
    try:
        coeffs = rate_coefficients(config)
        for eps_g in section["eps_g"]:
            for eps_a in section["eps_a"]:
                rates = rates_at(coeffs, eps_g, eps_a)
                best = m_min(rates)
                gm, gpl = grid_argmin(rates, section["n_gates"], section["m_grid"])
                lines.append(",".join(
                    [_fmt(eps_g), _fmt(eps_a), str(best), str(gm), _fmt(gpl)]
                ))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    text = "\n".join(lines) + "\n"
    path = out or config["out"]
    if path:
        _write_text(path, text)
    print(text, end="")
    return 0


def cmd_calibrate(config: dict, seed: int, threads: int, out: str | None) -> int:
    section = config["calibration"]
    path = out or config["out"] or "calibration.json"
    _check_writable(path)
    try:
        result = calibrate(
            eps_g_grid=section["eps_g_grid"],
            shots=section["shots"],
            seed=seed,
            normalization=section["normalization"],
            noise_options=dict(config["noise"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    record = result.to_record()
    record["seed"] = seed
    record["noise"] = dict(config["noise"])
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    _write_text(path, text)
    print(
        f"slope_sd = {result.slope_sd:.4f}  slope_co = {result.slope_co:.4f}  "
        f"({result.normalization}); wrote {path}"
    )
    return 0


def cmd_check(config: dict, seed: int, threads: int, out: str | None) -> int:
    results = run_self_checks()
    failed = 0
    for r in results:
        print(("PASS" if r.passed else "FAIL"), r.name, "-", r.detail)
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "calibrate": cmd_calibrate,
    "sweep": cmd_sweep,
    "mmin": cmd_mmin,
    "check": cmd_check,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qec-cadence",
        description="Gate-cadence optimization toolkit for skippable QEC rounds",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--threads", type=int, default=None,
                        help="worker count of sweep (default: hardware "
                             "parallelism); calibrate, mmin and check run on "
                             "one core")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed; overrides QEC_CADENCE_SEED and config")
    parser.add_argument("--out", default=None, help="output path")
    return parser


def resolve_seed(flag_seed: int | None, config: dict) -> int:
    if flag_seed is not None:
        return _valid_seed(flag_seed)
    env = os.environ.get("QEC_CADENCE_SEED")
    if env is None:
        return config["seed"]
    try:
        seed = int(env, 10)
    except ValueError as exc:
        raise ConfigError(
            f"QEC_CADENCE_SEED must be a decimal integer, got {env!r}"
        ) from exc
    return _valid_seed(seed)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command != "check" and args.config is None:
            raise ConfigError(f"{args.command} requires --config")
        config = load_config(args.config)
        seed = resolve_seed(args.seed, config)
        threads = args.threads if args.threads is not None else (os.cpu_count() or 1)
        if threads < 1:
            raise ConfigError("--threads must be >= 1")
        return _COMMANDS[args.command](config, seed, threads, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
