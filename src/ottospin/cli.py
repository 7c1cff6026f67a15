"""Command-line front end.

Subcommands: ``cycle`` evaluates a single operating point and prints
JSON, ``sweep`` regenerates the parameter-scan data sets as CSV or JSON,
and ``verify`` runs the built-in regression suite.

Configuration precedence: command-line flags override an optional
key=value config file, which overrides the built-in baseline defaults
(2 kHz / 3.6 kHz, 200 us, populations 0.261 / 0.813).  All interface
units are SI: frequencies in Hz, times in seconds.

Exit codes: 0 success, 1 verification or runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .analysis import (
    SweepTable,
    region_map,
    sweep_efficiency_vs_population,
    sweep_efficiency_vs_ratio,
    sweep_xi_vs_tau,
)
from .errors import AccuracyError, DomainError
from .otto import CyclePoint, closed_form_cycle
from .propagator import RampProtocol, transition_probability
from .qspin import ReservoirSpec
from .verify import VerifyParams, run_all

DEFAULTS = {
    "nu_cold": 2000.0,
    "nu_hot": 3600.0,
    "tau": 200e-6,
    "steps": 4096,
    "p_cold": 0.261,
    "p_hot": 0.813,
    "format": None,
    "out": "-",
    "tau_list": None,
    "p_hot_range": None,
    "xi_range": None,
    "ratio_list": None,
}

SWEEP_KINDS = ("xi-tau", "region", "eta-phot", "eta-ratio")
MIN_STEPS = 100


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


def _parse_float_list(text: str, field: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"{field}: could not parse {text!r} as a comma-separated "
                          f"list of numbers") from exc
    if not values:
        raise ConfigError(f"{field}: list must not be empty")
    return values


def _parse_range(text: str, field: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"{field}: expected lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"{field}: expected lo:hi:n with numeric bounds, got {text!r}") from exc
    if n < 2 or hi <= lo:
        raise ConfigError(f"{field}: need hi > lo and n >= 2, got {text!r}")
    return [float(v) for v in np.linspace(lo, hi, n)]


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"config file {path}: {exc.strerror or exc}") from exc
    return values


@dataclass
class RunConfig:
    nu_cold: float
    nu_hot: float
    tau: float
    steps: int
    p_cold: float
    p_hot: float
    format: str
    out: str
    tau_list: list[float] | None
    p_hot_range: list[float] | None
    xi_range: list[float] | None
    ratio_list: list[float] | None


_SCALARS = {"nu_cold": float, "nu_hot": float, "tau": float, "steps": int,
            "p_cold": float, "p_hot": float, "format": str, "out": str}
_LISTS = {"tau_list": _parse_float_list, "ratio_list": _parse_float_list}
_RANGES = {"p_hot_range": _parse_range, "xi_range": _parse_range}


def merge_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config-file values, and flags into a RunConfig."""
    merged = dict(DEFAULTS)
    if getattr(args, "config", None):
        for key, text in _read_config_file(args.config).items():
            if key in _SCALARS:
                try:
                    merged[key] = _SCALARS[key](text)
                except ValueError as exc:
                    raise ConfigError(f"{key}: could not parse {text!r}") from exc
            elif key in _LISTS:
                merged[key] = _LISTS[key](text, key)
            elif key in _RANGES:
                merged[key] = _RANGES[key](text, key)
            else:
                raise ConfigError(f"unknown config key {key!r}")
    for key in _SCALARS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    for key, parser in {**_LISTS, **_RANGES}.items():
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = parser(value, key)
    return RunConfig(**merged)


def validate_config(cfg: RunConfig, min_steps: int = MIN_STEPS) -> None:
    for name, value in (("nu-cold", cfg.nu_cold), ("nu-hot", cfg.nu_hot), ("tau", cfg.tau)):
        if not np.isfinite(value):
            raise ConfigError(f"{name}: must be finite, got {value}")
    if not cfg.nu_cold > 0:
        raise ConfigError(f"nu-cold: must be positive, got {cfg.nu_cold}")
    if not cfg.nu_hot > cfg.nu_cold:
        raise ConfigError(f"nu-hot: must exceed nu-cold ({cfg.nu_cold}), got {cfg.nu_hot}")
    if not cfg.tau > 0:
        raise ConfigError(f"tau: must be positive seconds, got {cfg.tau}")
    if cfg.steps < min_steps:
        raise ConfigError(f"steps: must be at least {min_steps}, got {cfg.steps}")
    if not 0.0 < cfg.p_cold < 0.5:
        raise ConfigError(f"p-cold: must lie in (0, 0.5) so beta_cold > 0, got {cfg.p_cold}")
    if not 0.5 < cfg.p_hot < 1.0:
        raise ConfigError(f"p-hot: must lie in (0.5, 1) so beta_hot < 0, got {cfg.p_hot}")
    if cfg.format not in (None, "csv", "json"):
        raise ConfigError(f"format: must be csv or json, got {cfg.format}")


def _write_text(out: str, text: str) -> None:
    if out == "-":
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc


def cmd_cycle(cfg: RunConfig) -> int:
    validate_config(cfg)
    if cfg.format not in (None, "json"):
        raise ConfigError("format: cycle output is JSON only; use --format json")
    proto = RampProtocol(cfg.nu_cold, cfg.nu_hot, cfg.tau, cfg.steps)
    cold = ReservoirSpec.from_population(cfg.nu_cold, cfg.p_cold)
    hot = ReservoirSpec.from_population(cfg.nu_hot, cfg.p_hot)
    xi = transition_probability(proto)
    result = closed_form_cycle(CyclePoint(cold=cold, hot=hot, xi=xi))
    payload = {
        "nu_cold_hz": cfg.nu_cold,
        "nu_hot_hz": cfg.nu_hot,
        "tau_s": cfg.tau,
        "steps": cfg.steps,
        "p_cold_plus": cfg.p_cold,
        "p_hot_plus": cfg.p_hot,
        "xi": result.xi,
        "work_h_hz": result.work,
        "q_hot_h_hz": result.q_hot,
        "q_cold_h_hz": result.q_cold,
        "efficiency": result.efficiency,
        "eta_otto": result.eta_otto,
        "work_adiabatic_h_hz": result.work_adiabatic,
        "inner_friction_h_hz": result.inner_friction,
        "regime": result.regime.value,
    }
    _write_text(cfg.out, json.dumps(payload, indent=2) + "\n")
    return 0


def _default_tau_list(kind: str) -> list[float]:
    if kind == "xi-tau":
        return [float(t) for t in np.linspace(100e-6, 400e-6, 13)]
    return [100e-6, 200e-6, 300e-6, 400e-6]


def _run_sweep(kind: str, cfg: RunConfig) -> SweepTable:
    p_hot_grid = cfg.p_hot_range or [float(p) for p in np.linspace(0.51, 0.99, 49)]
    if kind == "xi-tau":
        proto = RampProtocol(cfg.nu_cold, cfg.nu_hot, cfg.tau, cfg.steps)
        return sweep_xi_vs_tau(proto, cfg.tau_list or _default_tau_list(kind))
    if kind == "region":
        xi_grid = cfg.xi_range or [float(x) for x in np.linspace(0.0, 0.5, 26)]
        return region_map(cfg.p_cold, cfg.nu_cold, cfg.nu_hot, p_hot_grid, xi_grid)
    if kind == "eta-phot":
        return sweep_efficiency_vs_population(
            cfg.p_cold, cfg.nu_cold, cfg.nu_hot,
            cfg.tau_list or _default_tau_list(kind), p_hot_grid, steps=cfg.steps)
    if kind == "eta-ratio":
        ratios = cfg.ratio_list or [0.4, cfg.nu_cold / cfg.nu_hot, 0.7]
        return sweep_efficiency_vs_ratio(cfg.p_cold, cfg.nu_cold, ratios, cfg.tau,
                                         p_hot_grid, steps=cfg.steps)
    raise ConfigError(f"unknown sweep kind {kind!r}")


def cmd_sweep(kind: str, cfg: RunConfig) -> int:
    validate_config(cfg)
    table = _run_sweep(kind, cfg)
    text = table.to_json() if cfg.format == "json" else table.to_csv()
    _write_text(cfg.out, text)
    destination = "stdout" if cfg.out == "-" else cfg.out
    print(f"{kind}: wrote {len(table.rows)} rows to {destination}", file=sys.stderr)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    validate_config(cfg, min_steps=1)
    params = VerifyParams(nu_cold=cfg.nu_cold, nu_hot=cfg.nu_hot, tau=cfg.tau,
                          steps=cfg.steps, p_cold_plus=cfg.p_cold, p_hot_plus=cfg.p_hot)
    report = run_all(params)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--nu-cold", dest="nu_cold", type=float, metavar="HZ",
                        help="cold stroke frequency in Hz (default 2000)")
    shared.add_argument("--nu-hot", dest="nu_hot", type=float, metavar="HZ",
                        help="hot stroke frequency in Hz (default 3600)")
    shared.add_argument("--tau", type=float, metavar="S",
                        help="ramp duration in seconds (default 200e-6)")
    shared.add_argument("--steps", type=int, metavar="N",
                        help="RK4 steps per ramp (default 4096)")
    shared.add_argument("--p-cold", dest="p_cold", type=float, metavar="0..1",
                        help="cold reservoir excited-state population (default 0.261)")
    shared.add_argument("--p-hot", dest="p_hot", type=float, metavar="0..1",
                        help="hot reservoir excited-state population (default 0.813)")
    shared.add_argument("--format", choices=("csv", "json"),
                        help="output format (sweep default csv; cycle is json)")
    shared.add_argument("--out", metavar="PATH|-",
                        help="output path, or - for stdout (default)")
    shared.add_argument("--config", metavar="FILE",
                        help="optional key = value config file, overridden by flags")

    parser = argparse.ArgumentParser(
        prog="ottospin",
        description="Finite-time quantum Otto engine between a positive-temperature "
                    "and a population-inverted spin reservoir.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("cycle", parents=[shared],
                   help="evaluate a single operating point, print JSON")

    sweep = sub.add_parser("sweep", parents=[shared], help="run a parameter sweep")
    sweep.add_argument("kind", choices=SWEEP_KINDS)
    sweep.add_argument("--tau-list", dest="tau_list", metavar="S,S,...",
                       help="comma-separated drive times in seconds")
    sweep.add_argument("--p-hot-range", dest="p_hot_range", metavar="LO:HI:N",
                       help="hot population grid")
    sweep.add_argument("--xi-range", dest="xi_range", metavar="LO:HI:N",
                       help="transition probability grid (region sweep)")
    sweep.add_argument("--ratio-list", dest="ratio_list", metavar="R,R,...",
                       help="comma-separated nu_cold/nu_hot ratios (eta-ratio sweep)")

    sub.add_parser("verify", parents=[shared],
                   help="run the built-in regression suite (exit 0 iff all checks pass)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = merge_config(args)
        if args.command == "cycle":
            return cmd_cycle(cfg)
        if args.command == "sweep":
            return cmd_sweep(args.kind, cfg)
        return cmd_verify(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, AccuracyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry_point() -> None:  # pragma: no cover - thin wrapper
    raise SystemExit(main())
