"""Command-line interface: simulate sweeps, fit power laws, plot, reproduce.

Exit codes: 0 success, 1 runtime/numerical failure, 2 usage error.  Every
run that writes files also writes a JSON manifest recording the command
line, the configuration, the base seed, the package version, and the list
of outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .blas import blas_pool, lapack
from .errors import CsvFormatError, SldlabError, UsageError
from .model import SIGMA_MAX, ModelParams
from .powerlaw import FIT_MODES, PowerLawFit, SegmentedFit, check_fit_mode, fit_powerlaw, fit_segmented
from .presets import load_preset
from .svgplot import FitOverlay, PlotSeries, render_scaling_plot
from .sweep import (
    RiskCurve,
    SweepConfig,
    default_train_grid,
    read_curve_csv,
    read_series_csv,
    run_sweep,
    write_curve_csv,
)
from .rng import derive_seed

_ENV_BASE_SEED = "SLDLAB_BASE_SEED"

_FITS_HEADER = [
    "source",
    "series",
    "mode",
    "segment",
    "alpha",
    "log_beta",
    "r_squared",
    "sse",
    "region_lo",
    "region_hi",
    "n_points",
    "n_dropped",
    "floor",
    "size_lo",
    "size_hi",
    "break_size",
    "sse_improvement",
    "breakpoint_evidence",
]


# =====================================================================
# Argument parsing helpers
# =====================================================================


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _nonneg_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"expected a finite value >= 0, got {text!r}")
    return value


def _sigma_arg(text: str) -> float:
    if (value := _nonneg_float(text)) > SIGMA_MAX:
        raise argparse.ArgumentTypeError(f"expected a noise std <= {SIGMA_MAX:g}, got {text!r}")
    return value


def _grid_arg(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"grid must be lo:hi:points_per_decade, got {text!r}"
        )
    try:
        lo, hi, ppd = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid fields must be integers, got {text!r}")
    return lo, hi, ppd


def _estimators_arg(text: str) -> tuple[str, ...]:
    names = tuple(p.strip() for p in text.split(",") if p.strip())
    if not names:
        raise argparse.ArgumentTypeError("estimator list is empty")
    return names


def _threads_arg(text: str) -> int:
    """A worker count; ``max`` is the number of CPUs this process may run on."""
    if text.strip().lower() == "max":
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    return _positive_int(text)


def _floor_arg(text: str) -> str | float:
    lowered = text.strip().lower()
    if lowered in ("auto", "none"):
        return lowered
    return _nonneg_float(text)


def _resolve_base_seed(value: int | None) -> int:
    if value is not None:
        return value
    raw = os.environ.get(_ENV_BASE_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"{_ENV_BASE_SEED} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sldlab",
        description="Subspace-denoising laboratory: simulated risk sweeps and power-law fits.",
    )
    parser.add_argument("--version", action="version", version=f"sldlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded risk sweep and write a curve CSV")
    sim.add_argument("--d", type=_positive_int, default=10, help="signal dimension (default 10)")
    sim.add_argument("--n", type=_positive_int, default=1000, help="ambient dimension (default 1000)")
    sim.add_argument("--sigma", type=_sigma_arg, default=0.1, help="noise std (default 0.1)")
    sim.add_argument(
        "--grid", type=_grid_arg, default=(1, 20000, 5), metavar="LO:HI:PPD",
        help="train-size grid as lo:hi:points_per_decade (default 1:20000:5)",
    )
    sim.add_argument("--seeds", type=_positive_int, default=5, help="seeds per cell (default 5)")
    sim.add_argument(
        "--est", type=_estimators_arg, default=("ESGD", "PCA"),
        help="comma list from opt,pca,esgd,pinv (default esgd,pca)",
    )
    sim.add_argument("--mc-test", type=int, default=0, metavar="M",
                     help="also estimate risks on M Monte-Carlo test points (default 0 = off)")
    sim.add_argument("--threads", type=_threads_arg, default=1, help="worker processes, or 'max'")
    sim.add_argument("--base-seed", type=int, default=None,
                     help=f"base seed (default: ${_ENV_BASE_SEED} or 0)")
    sim.add_argument("--out", required=True, help="output curve CSV path")
    sim.set_defaults(func=_cmd_simulate)

    fit = sub.add_parser("fit", help="fit power laws to a curve CSV column")
    fit.add_argument("--in", dest="infile", required=True, help="input curve CSV")
    fit.add_argument("--col", default=None, help="value column (default: the only one)")
    fit.add_argument("--mode", choices=FIT_MODES, default="single")
    fit.add_argument("--floor", type=_floor_arg, default="none",
                     help="'auto' (= sigma^2/(1+sigma^2), needs --sigma), 'none', or a number")
    fit.add_argument("--sigma", type=_sigma_arg, default=None,
                     help="noise std used by --floor auto")
    fit.add_argument("--min-seg", type=_positive_int, default=3,
                     help="minimum points (>= 2) per segment for --mode segmented (default 3)")
    fit.add_argument("--out", default=None, help="optional fits CSV path")
    fit.set_defaults(func=_cmd_fit)

    plot = sub.add_parser("plot", help="render a curve CSV (plus optional fits) to SVG")
    plot.add_argument("--in", dest="infile", required=True, help="input curve CSV")
    plot.add_argument("--fits", default=None, help="fits CSV to overlay (from 'sldlab fit')")
    plot.add_argument("--title", default="", help="plot title")
    plot.add_argument("--out", required=True, help="output SVG path")
    plot.set_defaults(func=_cmd_plot)

    rep = sub.add_parser("reproduce", help="run a named preset end to end into a directory")
    rep.add_argument("preset", help="preset name, e.g. fig4, fig5, fig9-d-sweep, fig9-n-sweep")
    rep.add_argument("--threads", type=_threads_arg, default=1, help="worker processes, or 'max'")
    rep.add_argument("--base-seed", type=int, default=None,
                     help=f"base seed (default: ${_ENV_BASE_SEED} or 0)")
    rep.add_argument("--out", required=True, help="output directory")
    rep.set_defaults(func=_cmd_reproduce)

    return parser


# =====================================================================
# Manifest and fits-table helpers
# =====================================================================


def _claim(out: Path, outputs: list[Path], *inputs: tuple[str, str | None],
           record: Path | None = None) -> Path:
    """Check that a run may write ``outputs``, create their directory, and return the run's record path.

    A record owns its own name and the names of the outputs it lists in its
    directory. The run's record is ``record``, by default the manifest beside
    ``out``. The run exits 2, with nothing written, when ``out`` names a
    manifest or is one of the (flag, path) ``inputs``, when an output is a
    directory, when a record in the directory is unreadable or another record
    lists an output, and when the run's own record lists a file the run
    would not write.
    """
    for flag, infile in inputs:
        if infile is not None and out.resolve() == Path(infile).resolve():
            raise UsageError(f"--out {out} is the {flag} file; choose another --out")
    if out.name.endswith(".manifest.json"):
        raise UsageError(f"--out {out} names a manifest; choose another --out")
    for path in outputs:
        if path.is_dir():
            raise UsageError(f"--out {path} is a directory; choose another --out")
    own = record or out.with_suffix(".manifest.json")
    names = {path.name for path in outputs}
    for path in sorted(own.parent.glob("*.manifest.json")):
        try:
            listed = {Path(p).name for p in json.loads(path.read_text(encoding="utf-8"))["outputs"]}
        except (ValueError, KeyError, TypeError):
            raise UsageError(f"{path} is not an sldlab manifest; choose another --out") from None
        if clash := ", ".join(sorted(listed - names if path.name == own.name else listed & names)):
            raise UsageError(f"{path} records {clash}; choose an --out other than {out.name}")
    own.parent.mkdir(parents=True, exist_ok=True)
    return own


def _write_manifest(
    path: Path, command: str, argv: list[str], config: object, base_seed: int | None,
    outputs: list[Path], started: float,
) -> None:
    pool = blas_pool()
    doc = {
        "tool": "sldlab",
        "version": __version__,
        "command": command,
        "argv": argv,
        "base_seed": base_seed,
        "config": config,
        "outputs": [str(p) for p in outputs],
        "duration_seconds": round(time.perf_counter() - started, 3),
        "numpy": np.__version__,
        "blas": {  # the pool's count as the run found it: an MC sweep restores it
            "thread_setter": pool is not None,
            "threads": None if pool is None else pool.get(),
            "in_place_lapack": lapack() is not None,
        },
    }
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _fit_row(
    source: str, series: str, mode: str, segment: str, fit: PowerLawFit,
    size_span: tuple[float, float], seg: SegmentedFit | None = None,
) -> dict[str, str]:
    fmt = lambda v: format(float(v), ".17g")  # noqa: E731
    return {
        "source": source,
        "series": series,
        "mode": mode,
        "segment": segment,
        "alpha": fmt(fit.alpha),
        "log_beta": fmt(fit.log_beta),
        "r_squared": fmt(fit.r_squared),
        "sse": fmt(fit.sse),
        "region_lo": str(fit.region[0]),
        "region_hi": str(fit.region[1]),
        "n_points": str(fit.n_points),
        "n_dropped": str(fit.n_dropped),
        "floor": "" if fit.floor is None else fmt(fit.floor),
        "size_lo": fmt(size_span[0]),
        "size_hi": fmt(size_span[1]),
        "break_size": "" if seg is None else fmt(seg.break_size),
        "sse_improvement": "" if seg is None else fmt(seg.sse_improvement),
        "breakpoint_evidence": "" if seg is None else ("true" if seg.breakpoint_evidence else "false"),
    }


def _write_fits_csv(path: Path, rows: list[dict[str, str]]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=_FITS_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _fit_rows(
    source: str, series: str, points: np.ndarray, mode: str, floor: float | None,
    min_seg: int = 3, region: tuple[int, int] | None = None,
) -> list[dict[str, str]]:
    """Fit points[region] in ``mode`` and return the fits-table rows.

    The one fit dispatch of ``fit`` and ``reproduce``, after
    :func:`check_fit_mode`: a single or excess fit is one
    :func:`fit_powerlaw` line of the values minus ``floor``, if given,
    and a segmented fit two lines.
    """
    check_fit_mode(mode, floor is not None)
    lo, hi = (0, len(points)) if region is None else region
    span = (float(points[lo, 0]), float(points[hi - 1, 0]))
    if mode != "segmented":
        return [_fit_row(source, series, mode, "all", fit_powerlaw(points, floor, region), span)]
    seg = fit_segmented(points, min_seg=min_seg, floor=floor, region=region)
    return [
        _fit_row(source, series, mode, "left", seg.left, (span[0], seg.break_size), seg),
        _fit_row(source, series, mode, "right", seg.right, (seg.break_size, span[1]), seg),
    ]


def _report_fit(source: str, column: str, n_points: int, mode: str, rows: list[dict[str, str]]) -> None:
    """Print one fit of ``fit`` or ``reproduce``: its input, a line per row, and a segmented fit's break."""
    print(f"{source}: column {column}, {n_points} points, mode {mode}")
    for row in rows:
        print(_describe_row(row))
    if mode == "segmented":
        left = rows[0]
        verdict = "yes" if left["breakpoint_evidence"] == "true" else "no"
        print(  # the left segment's points are the points before the break
            f"  break at size~{float(left['break_size']):.6g} (index {left['n_points']}), "
            f"SSE improvement {float(left['sse_improvement']):.1%}, "
            f"breakpoint evidence: {verdict}"
        )


def _describe_row(row: dict[str, str]) -> str:
    parts = [
        f"alpha={float(row['alpha']):.6g}",
        f"log_beta={float(row['log_beta']):.6g}",
        f"r2={float(row['r_squared']):.6g}",
        f"points={row['n_points']}",
    ]
    if row["n_dropped"] != "0":
        parts.append(f"dropped={row['n_dropped']}")
    if row["floor"]:
        parts.append(f"floor={float(row['floor']):.6g}")
    return f"  {row['segment']}: " + " ".join(parts)


def _fit_overlay(series: str, row: dict[str, str], floor_subtracted: bool = False) -> FitOverlay:
    """The dashed line of one fits-table row.

    The row's floor is added back, unless the plotted values already have
    it subtracted.
    """
    alpha = float(row["alpha"])
    segment = row.get("segment") or "all"
    return FitOverlay(
        label=f"{series} {'fit' if segment == 'all' else segment}: alpha={alpha:.3g}",
        alpha=alpha,
        log_beta=float(row["log_beta"]),
        size_range=(float(row["size_lo"]), float(row["size_hi"])),
        offset=float(row["floor"]) if row.get("floor") and not floor_subtracted else 0.0,
    )


# =====================================================================
# Subcommands
# =====================================================================


def _cmd_simulate(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    base_seed = _resolve_base_seed(args.base_seed)
    try:
        config = SweepConfig(
            params=ModelParams(d=args.d, n=args.n, sigma_z=args.sigma),
            train_sizes=default_train_grid(*args.grid),
            n_seeds=args.seeds,
            estimators=args.est,
            base_seed=base_seed,
            mc_test_size=args.mc_test,
        )
    except SldlabError as exc:
        # Everything here came straight from command-line flags.
        raise UsageError(str(exc)) from exc
    out = Path(args.out)
    manifest = _claim(out, [out])
    curve = run_sweep(config, workers=args.threads)
    write_curve_csv(curve, out)
    _write_manifest(
        manifest, "simulate", sys.argv[1:], dataclasses.asdict(config), base_seed,
        [out], started,
    )
    print(f"wrote {out} ({len(curve.train_sizes)} sizes x {len(config.estimators)} estimators)")
    return 0


def _resolve_floor(floor_arg: str | float, sigma: float | None) -> float | None:
    if floor_arg == "none":
        return None
    if floor_arg == "auto":
        if sigma is None:
            raise UsageError("--floor auto requires --sigma to compute sigma^2/(1+sigma^2)")
        return sigma**2 / (1.0 + sigma**2)
    return float(floor_arg)


def _cmd_fit(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    if args.min_seg < 2:
        raise UsageError(f"--min-seg must be >= 2 (a segment needs two points), got {args.min_seg}")
    out = Path(args.out) if args.out else None
    manifest = _claim(out, [out], ("--in", args.infile)) if out else None
    sizes, values, column = read_series_csv(args.infile, args.col)
    floor = _resolve_floor(args.floor, args.sigma)
    source = str(args.infile)
    rows = _fit_rows(source, column, np.column_stack([sizes, values]), args.mode, floor,
                     args.min_seg)
    _report_fit(source, column, len(sizes), args.mode, rows)
    if out:
        _write_fits_csv(out, rows)
        _write_manifest(
            manifest, "fit", sys.argv[1:],
            {"in": source, "col": column, "mode": args.mode, "floor": floor,
             "min_seg": args.min_seg},
            None, [out], started,
        )
        print(f"wrote {out}")
    return 0


def _read_fits_csv(path: str) -> list[FitOverlay]:
    """The overlays of a fits table, with every number :func:`_fit_overlay` reads checked.

    Each must be finite (``floor`` may be empty), the size range must
    satisfy 0 < size_lo <= size_hi, and the fitted line must be positive and
    finite at both ends of it, since the plot draws it on log axes.
    """
    numbers = ("alpha", "log_beta", "size_lo", "size_hi", "floor")
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = [c for c in ("series", *numbers) if c not in (reader.fieldnames or ())]
        if missing:
            raise CsvFormatError(f"{path}: not a fits table, missing columns {', '.join(missing)}")
        overlays = []
        for row in reader:
            where = f"{path}:{reader.line_num}"
            for col in numbers:
                if col == "floor" and not row[col]:
                    continue
                try:
                    value = float(row[col])
                except (TypeError, ValueError):  # TypeError: a short row holds None
                    raise CsvFormatError(f"{where}: column {col}: "
                                         f"expected a number, got {row[col]!r}") from None
                if not math.isfinite(value):
                    raise CsvFormatError(f"{where}: column {col}: "
                                         f"expected a finite number, got {row[col]!r}")
            if not float(row["size_lo"]) > 0.0:
                raise CsvFormatError(f"{where}: column size_lo: "
                                     f"expected a positive number, got {row['size_lo']!r}")
            if not float(row["size_hi"]) >= float(row["size_lo"]):
                raise CsvFormatError(f"{where}: column size_hi: "
                                     f"expected at least size_lo, got {row['size_hi']!r}")
            overlay = _fit_overlay(row["series"], row)
            try:
                drawable = all(0.0 < overlay.at(size) < math.inf for size in overlay.size_range)
            except OverflowError:
                drawable = False
            if not drawable:
                raise CsvFormatError(f"{where}: column log_beta: expected a line positive and "
                                     f"finite over the size range, got {row['log_beta']!r}")
            overlays.append(overlay)
    return overlays


def _curve_svg(
    curve: RiskCurve, overlays: list[FitOverlay], title: str, floor: float | None = None
) -> str:
    """The SVG of a curve's closed-form series; with ``floor`` given, each minus the floor."""
    series = []
    for name in curve.estimators():
        stats = curve.series[name]
        label = name if floor is None else f"{name} excess"
        values = stats.mean if floor is None else stats.mean - floor
        series.append(PlotSeries(label, curve.train_sizes, values, stats.std))
    return render_scaling_plot(
        series, overlays, title=title, ylabel="risk" if floor is None else "excess risk"
    )


def _cmd_plot(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    manifest = _claim(out, [out], ("--in", args.infile), ("--fits", args.fits))
    curve = read_curve_csv(args.infile)
    overlays = _read_fits_csv(args.fits) if args.fits else []
    svg = _curve_svg(curve, overlays, args.title)
    out.write_text(svg, encoding="utf-8")
    _write_manifest(
        manifest, "plot", sys.argv[1:],
        {"in": str(args.infile), "fits": args.fits, "title": args.title},
        None, [out], started,
    )
    print(f"wrote {out}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    preset = load_preset(args.preset)
    fit = preset.fit
    base_seed = _resolve_base_seed(args.base_seed)
    out_dir = Path(args.out)
    outputs = [out_dir / f"{preset.name}_{label}{ext}"
               for label in preset.sweeps for ext in (".csv", ".svg")]
    outputs += [out_dir / f"{preset.name}_fits.csv"] if fit is not None else []
    manifest = _claim(out_dir, outputs, record=out_dir / f"{preset.name}.manifest.json")
    fit_rows: list[dict[str, str]] = []
    for (label, config), csv_path, svg_path in zip(preset.sweeps.items(), outputs[::2], outputs[1::2]):
        config = dataclasses.replace(config, base_seed=derive_seed(base_seed, "sweep", label))
        params = config.params
        print(
            f"[{preset.name}/{label}] d={params.d} n={params.n} sigma_z={params.sigma_z} "
            f"sizes={len(config.train_sizes)} seeds={config.n_seeds} ..."
        )
        curve = run_sweep(config, workers=args.threads)
        write_curve_csv(curve, csv_path)

        # The plot shows values minus the floor exactly when the fit subtracts it.
        floor = _resolve_floor(fit.floor, params.sigma_z) if fit is not None else None
        overlays: list[FitOverlay] = []
        for name in curve.estimators() if fit is not None else ():
            points = np.column_stack([curve.train_sizes.astype(float), curve.series[name].mean])
            rows = _fit_rows(csv_path.name, f"{label}/{name}", points, fit.mode, floor,
                             region=fit.region(config.train_sizes))
            _report_fit(csv_path.name, f"{name}_M", len(points), fit.mode, rows)
            fit_rows.extend(rows)
            overlays += [_fit_overlay(name, row, floor is not None) for row in rows]
        svg_path.write_text(
            _curve_svg(curve, overlays, f"{preset.name} {label}", floor), encoding="utf-8"
        )
    if fit is not None:
        _write_fits_csv(outputs[-1], fit_rows)
    _write_manifest(
        manifest, "reproduce", sys.argv[1:],
        {"preset": preset.name, "version": preset.version,
         "description": preset.description}, base_seed, outputs, started,
    )
    print(f"wrote {len(outputs)} files + manifest under {out_dir}")
    return 0


# =====================================================================
# Entry point
# =====================================================================


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors (exit 2) and --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"sldlab: error: {exc}", file=sys.stderr)
        return 2
    except (SldlabError, OSError) as exc:
        print(f"sldlab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
