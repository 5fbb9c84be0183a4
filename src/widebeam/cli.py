"""Command-line front end: design, baseline, eval, sweep, validate.

All file artifacts (codebook JSON, CSV tables) are deterministic functions
of the config and seed; stdout carries human-oriented summaries including
wall time.  main() maps every command's failures to exit codes: 0 success,
1 invalid config or file content, 2 I/O failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import MISSING, asdict, fields, replace

import numpy as np

from . import narrowband, storage
from .alm import SolverConfig
from .array_model import SystemConfig, composite_gain, steering_composite
from .codebook import build_codebook, evaluate
from .narrowband import sweep
from .zones import PartitionLimitError, divide_zones, prop3_upper_bound

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_SOLVER = 3

# flat JSON config; every key optional, defaults are the reference
# experiment settings (140 GHz carrier, 10 GHz band, 16 antennas, 32 beams),
# then SystemConfig's grid defaults (m = null means 2n) and SolverConfig's
CONFIG_DEFAULTS = {
    "f_c_hz": 140e9,
    "b_hz": 10e9,
    "n": 16,
    "l": 32,
    **{f.name.lower(): f.default for f in fields(SystemConfig) if f.default is not MISSING},
    **asdict(SolverConfig()),
}

_INT_KEYS = {"n", "l", "m", "n_freq", "n_angle", "n_ite"}


class ConfigError(Exception):
    pass


def load_config(path: str) -> tuple[SystemConfig, SolverConfig]:
    """Read the flat JSON config; unknown keys and bad values are errors."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    unknown = sorted(set(data) - set(CONFIG_DEFAULTS))
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(unknown)}")
    merged = {**CONFIG_DEFAULTS, **data}
    for key, v in merged.items():
        if key in _INT_KEYS:
            if v is not None and (isinstance(v, bool) or not isinstance(v, int)):
                raise ConfigError(f"{path}: key {key!r} must be an integer, got {v!r}")
        elif isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ConfigError(f"{path}: key {key!r} must be a number, got {v!r}")
    try:
        cfg = SystemConfig(
            f_c=float(merged["f_c_hz"]), B=float(merged["b_hz"]),
            N=merged["n"], L=merged["l"], M=merged["m"],
            n_freq=merged["n_freq"], n_angle=merged["n_angle"],
        )
        solver_cfg = SolverConfig(**{
            f.name: float(merged[f.name]) if isinstance(f.default, float) else merged[f.name]
            for f in fields(SolverConfig)})
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{path}: {e}") from e
    return cfg, solver_cfg


def _parse_range(spec: str, scale: float = 1.0) -> list[float]:
    """Accept 'start:stop:step' (inclusive) or a comma list of values."""
    try:
        if ":" in spec:
            parts = spec.split(":")
            if len(parts) != 3:
                raise ConfigError(f"range {spec!r} must be start:stop:step")
            start, stop, step = (float(p) for p in parts)
            if step <= 0:
                raise ConfigError(f"range {spec!r} needs a positive step")
            out = list(np.arange(start, stop + step / 2, step))
        else:
            out = [float(p) for p in spec.split(",") if p.strip()]
    except ValueError as e:
        raise ConfigError(f"range {spec!r}: {e}") from e
    if not out:
        raise ConfigError(f"empty range {spec!r}")
    return [v * scale for v in out]


def cmd_design(args) -> int:
    """design and baseline: build with the subcommand's builder, evaluate, write."""
    t0 = time.perf_counter()
    cfg, solver_cfg = load_config(args.config)
    book = args.build(cfg, solver_cfg)
    report = evaluate(cfg, book, mode="grid")
    storage.write_codebook(args.out, book)
    print(f"delta_omega = {book.partition.delta_omega:.12g}")
    print(f"upper_bound = {prop3_upper_bound(book.partition):.12g}")
    print(f"worst_case = {report.worst_case:.12g}")
    print(f"wall_time_s = {time.perf_counter() - t0:.3f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    book, cfg = storage.read_codebook(args.codebook)
    if args.config is not None:
        file_cfg, _ = load_config(args.config)
        cfg = replace(cfg, n_freq=file_cfg.n_freq, n_angle=file_cfg.n_angle)
    mode = "monte_carlo" if args.mode == "mc" else "grid"
    report = evaluate(cfg, book, mode=mode, seed=args.seed)
    if args.csv is not None:
        storage.write_eval_csv(args.csv, report)
    print(f"worst_case = {report.worst_case:.12g}")
    print(f"worst_aod_deg = {np.degrees(report.worst_angle):.12g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, solver_cfg = load_config(args.config)
    n_values = _parse_range(args.n_range)
    if not all(v.is_integer() for v in n_values):
        raise ConfigError(f"range {args.n_range!r}: N must be an integer")
    n_values = [int(v) for v in n_values]
    b_values = _parse_range(args.b_range, scale=1e9)  # CLI takes GHz
    try:  # check every cell before the sweep does any work
        for n in n_values:
            for b in b_values:
                replace(cfg, N=n, B=b)
    except ValueError as e:
        raise ConfigError(f"sweep cell N={n}, B={b / 1e9:g} GHz: {e}") from e
    rows = sweep(cfg, args.what, n_values, b_values, solver_cfg)
    if args.csv is not None:
        storage.write_sweep_csv(args.csv, rows)
    for n, b_ghz, worst, bound in rows:
        worst_s = "-" if worst is None else f"{worst:.6g}"
        print(f"N={n} B={b_ghz:g}GHz worst={worst_s} bound={bound:.6g}")
    return EXIT_OK


def _check_prop1(cfg: SystemConfig) -> bool:
    book = narrowband.narrowband_codebook(cfg)
    worst = evaluate(cfg, book, mode="grid").worst_case
    closed = narrowband.prop1_worst_case(cfg).worst_case_gain
    return abs(worst - closed) <= max(0.02 * closed, 1e-3)


def _check_prop2(cfg: SystemConfig) -> bool:
    (lo, hi), _ = narrowband.prop2_optimal_N(cfg.f_c, cfg.B, cfg.L)
    n_max = int(np.ceil(narrowband.prop1_zero_limit(cfg.f_c, cfg.B, cfg.L)))
    gains = [narrowband._prop1_gain(cfg.f_c, cfg.B, n, cfg.L)
             for n in range(1, n_max)]
    best_n = 1 + int(np.argmax(gains))
    return best_n in (lo, hi)


def _check_prop3(cfg: SystemConfig, solver_cfg: SolverConfig) -> bool:
    book = build_codebook(cfg, solver_cfg)
    worst = evaluate(cfg, book, mode="grid").worst_case
    return worst <= prop3_upper_bound(book.partition) * 1.02


def _check_shift(cfg: SystemConfig) -> bool:
    rng = np.random.default_rng(0)
    grid = np.linspace(-1.0, 1.0, 512)
    for _ in range(100):
        w = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.N)) / np.sqrt(cfg.N)
        t = rng.uniform(-1.0, 1.0)
        shifted = w * steering_composite(cfg.N, t)
        err = np.abs(composite_gain(shifted, grid)
                     - composite_gain(w, grid - t)).max()
        if err > 1e-10:
            return False
    return True


def _check_zero_band_zones(cfg: SystemConfig) -> bool:
    part = divide_zones(replace(cfg, B=0.0))
    exact = np.arcsin(-1.0 + 2.0 * np.arange(cfg.L + 1) / cfg.L)
    exact[0], exact[-1] = -np.pi / 2, np.pi / 2
    return bool(np.abs(part.boundaries - exact).max() <= 1e-12)


def cmd_validate(args) -> int:
    cfg, solver_cfg = load_config(args.config)
    checks = [
        ("prop1-grid-consistency", lambda: _check_prop1(cfg)),
        ("prop2-argmax", lambda: _check_prop2(cfg)),
        ("prop3-bound", lambda: _check_prop3(cfg, solver_cfg)),
        ("shift-translation", lambda: _check_shift(cfg)),
        ("zero-band-zones", lambda: _check_zero_band_zones(cfg)),
    ]
    all_ok = True
    for name, run in checks:
        ok = run()
        all_ok &= ok
        print(f"{name}: {'pass' if ok else 'fail'}")
    return EXIT_OK if all_ok else EXIT_CONFIG


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="widebeam",
        description="Wideband analog beamforming codebook design and evaluation",
    )
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_, out, build in (
        ("design", "run the full design pipeline", "codebook.json", build_codebook),
        ("baseline", "emit the narrowband codebook", "baseline.json",
         lambda cfg, _: narrowband.narrowband_codebook(cfg)),
    ):
        d = sub.add_parser(name, help=help_)
        d.add_argument("config", help="JSON config path")
        d.add_argument("--out", default=out, help="output codebook path")
        d.set_defaults(run=cmd_design, build=build)

    e = sub.add_parser("eval", help="evaluate a stored codebook")
    e.add_argument("codebook", help="codebook JSON path")
    e.add_argument("--mode", choices=("grid", "mc"), default="grid")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--csv", default=None, help="write per-angle CSV here")
    e.add_argument("--config", default=None,
                   help="optional config supplying grid sizes")
    e.set_defaults(run=cmd_eval)

    s = sub.add_parser("sweep", help="N x B worst-case table")
    s.add_argument("config", help="JSON config path")
    s.add_argument("--n-range", required=True, help="e.g. 8:32:8 or 8,16,32")
    s.add_argument("--b-range", required=True, help="GHz, e.g. 2:18:4 or 2,10")
    s.add_argument("--what", choices=("narrowband", "wideband", "bound"),
                   default="narrowband")
    s.add_argument("--csv", default=None, help="write the table here")
    s.set_defaults(run=cmd_sweep)

    v = sub.add_parser("validate", help="run the proposition self-checks")
    v.add_argument("config", help="JSON config path")
    v.set_defaults(run=cmd_validate)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, storage.CodebookFormatError, PartitionLimitError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except RuntimeError as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
