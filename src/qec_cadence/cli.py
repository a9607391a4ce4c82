"""Command-line front end.

Subcommands: calibrate (fit round error rates, write a JSON record), sweep
(Monte Carlo vs closed-form grid, write CSV), mmin (optimal-cadence table
from the closed form), check (built-in consistency battery).

Config is a single JSON document; parsing fills documented defaults and
serializing writes every field back out, so a round-tripped config is fully
explicit.  Seed precedence: --seed flag, then QEC_CADENCE_SEED, then the
config value.  Exit codes: 0 ok, 1 self-check failure, 2 simulation abort,
3 config error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .calibration import (
    DEFAULT_EPS_G_GRID,
    DEFAULT_SHOTS,
    EPS_C_COEFF,
    EPS_D_COEFF,
    CalibrationResult,
    calibrate,
)
from .faultsim import SimulationAbort, TrajectoryConfig, estimate_many
from .model import (
    Schedule,
    approx_coefficients,
    as_count,
    as_rate,
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

# Fixed reference coefficients (per eps_g) for Steane-style extraction
# rounds; use source "calibrated" to measure your own from the shipped
# circuit instead.
BUILTIN_COEFFS = {
    "eps_s_per_eps_g": 3.45,
    "eps_o_per_eps_g": 0.61,
    "eps_c_per_eps_g": EPS_C_COEFF,
    "eps_d_per_eps_g": EPS_D_COEFF,
}

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


class ConfigError(ValueError):
    """Invalid configuration; maps to exit code 3."""


def _section(raw: dict, name: str, defaults: dict) -> dict:
    got = raw.get(name, {})
    if not isinstance(got, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(got) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name!r}: {sorted(unknown)}")
    return {**defaults, **got}


@dataclass(frozen=True)
class Config:
    seed: int
    noise: dict
    rates: dict
    sweep: dict
    mmin: dict
    calibration: dict
    out: str | None

    @classmethod
    def from_dict(cls, raw: dict) -> "Config":
        allowed = {"seed", "noise", "rates", "sweep", "mmin", "calibration", "out"}
        unknown = set(raw) - allowed
        if unknown:
            raise ConfigError(f"unknown top-level config key(s): {sorted(unknown)}")
        try:
            seed = as_count("seed", raw.get("seed", DEFAULT_SEED))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if not 0 <= seed < 2**64:
            raise ConfigError("seed must be an integer in [0, 2^64)")
        rates = raw.get("rates", {"source": "builtin"})
        if not isinstance(rates, dict) or "source" not in rates:
            raise ConfigError("rates must be an object with a 'source' key")
        source = rates["source"]
        if source == "builtin":
            allowed_rates = {"source"}
        elif source == "explicit":
            allowed_rates = {"source", *BUILTIN_COEFFS}
        elif source == "calibrated":
            allowed_rates = {"source", "record"}
        else:
            raise ConfigError(
                f"rates source must be builtin, explicit or calibrated, got {source!r}"
            )
        unknown = set(rates) - allowed_rates
        if unknown:
            raise ConfigError(f"unknown key(s) in rates: {sorted(unknown)}")
        out = raw.get("out")
        if out is not None and not isinstance(out, str):
            raise ConfigError("out must be a string path")
        return cls(
            seed=seed,
            noise=_section(raw, "noise", DEFAULT_NOISE_OPTIONS),
            rates=dict(rates),
            sweep=_section(raw, "sweep", DEFAULT_SWEEP),
            mmin=_section(raw, "mmin", DEFAULT_MMIN),
            calibration=_section(raw, "calibration", DEFAULT_CALIBRATION),
            out=out,
        )

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "noise": dict(self.noise),
            "rates": dict(self.rates),
            "sweep": dict(self.sweep),
            "mmin": dict(self.mmin),
            "calibration": dict(self.calibration),
            "out": self.out,
        }


def load_config(path: str | None) -> Config:
    if path is None:
        return Config.from_dict({})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return Config.from_dict(raw)


def rate_coefficients(config: Config) -> dict:
    """Per-eps_g coefficients {eps_s, eps_o, eps_c, eps_d} for the model."""
    source = config.rates["source"]
    if source == "builtin":
        return dict(BUILTIN_COEFFS)
    if source == "explicit":
        missing = [k for k in BUILTIN_COEFFS if k not in config.rates]
        if missing:
            raise ConfigError(f"explicit rates missing {missing}")
        return {k: as_rate(k, config.rates[k]) for k in BUILTIN_COEFFS}
    record_path = config.rates.get("record")
    if not record_path:
        raise ConfigError("rates source 'calibrated' needs a 'record' path")
    try:
        with open(record_path, "r", encoding="utf-8") as fh:
            record = json.load(fh)
        result = CalibrationResult.from_record(record)
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise ConfigError(
            f"cannot load calibration record {record_path}: {exc}"
        ) from exc
    return result.coefficients


def derive_seed(master_seed: int, index: int) -> int:
    """Deterministic per-grid-point seed; independent of execution order."""
    seq = np.random.SeedSequence([master_seed, index])
    return int(seq.generate_state(1, np.uint64)[0])


def _fmt(x: float) -> str:
    return repr(float(x))


def _noise_for(config: Config, eps_g: float) -> NoiseParams:
    try:
        return NoiseParams.from_eps_g(eps_g, **config.noise)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid noise options: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def cmd_sweep(config: Config, seed: int, threads: int, out: str | None) -> int:
    section = config.sweep
    n_gates = section["n_gates"]
    if not section["eps_g"] or not section["eps_a"] or not section["m"]:
        raise ConfigError("sweep grids must be nonempty")
    # Build every point before sampling any: the library objects validate
    # the grid, so a bad value anywhere in it fails up front.
    points = []
    try:
        coeffs = rate_coefficients(config)
        schedules = [Schedule(n_gates=n_gates, m=m) for m in section["m"]]
        for eps_g in section["eps_g"]:
            noise = _noise_for(config, eps_g)
            for eps_a in section["eps_a"]:
                rates = rates_at(coeffs, eps_g, eps_a)
                approx = approx_coefficients(rates, scale=n_gates)
                for sched in schedules:
                    cfg = TrajectoryConfig(
                        n_gates=n_gates, m=sched.m, eps_a=eps_a, noise=noise,
                        shots=section["shots"],
                        master_seed=derive_seed(seed, len(points)),
                    )
                    points.append((eps_g, cfg, pl_second_order(rates, sched),
                                   approx.evaluate(sched.m)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
    path = out or config.out or "sweep.csv"
    _write_text(path, text)
    print(f"wrote {len(lines) - 1} rows to {path}")
    return 0


def cmd_mmin(config: Config, seed: int, threads: int, out: str | None) -> int:
    section = config.mmin
    if not section["eps_g"] or not section["eps_a"] or not section["m_grid"]:
        raise ConfigError("mmin grids must be nonempty")
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
    print(text, end="")
    path = out or config.out
    if path:
        _write_text(path, text)
    return 0


def cmd_calibrate(config: Config, seed: int, threads: int, out: str | None) -> int:
    section = config.calibration
    try:
        result = calibrate(
            eps_g_grid=section["eps_g_grid"],
            shots=section["shots"],
            seed=seed,
            normalization=section["normalization"],
            noise_options=dict(config.noise),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    record = result.to_record()
    record["seed"] = seed
    record["noise"] = dict(config.noise)
    text = json.dumps(record, indent=2, sort_keys=True) + "\n"
    path = out or config.out or "calibration.json"
    _write_text(path, text)
    print(
        f"slope_sd = {result.slope_sd:.4f}  slope_co = {result.slope_co:.4f}  "
        f"({result.normalization}); wrote {path}"
    )
    for note in result.clamp_warnings:
        print(f"warning: {note}", file=sys.stderr)
    return 0


def cmd_check(config: Config, seed: int, threads: int, out: str | None) -> int:
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


def resolve_seed(flag_seed: int | None, config: Config) -> int:
    if flag_seed is not None:
        seed = flag_seed
    else:
        env = os.environ.get("QEC_CADENCE_SEED")
        if env is not None:
            try:
                seed = int(env, 10)
            except ValueError as exc:
                raise ConfigError(
                    f"QEC_CADENCE_SEED must be a decimal integer, got {env!r}"
                ) from exc
        else:
            return config.seed
    if not 0 <= seed < 2**64:
        raise ConfigError("seed must be in [0, 2^64)")
    return seed


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
    except SimulationAbort as exc:
        print(f"simulation abort: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
