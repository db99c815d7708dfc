"""Seeded risk-vs-train-size sweeps and their CSV serialization.

A sweep evaluates the requested estimators on a grid of training budgets,
``n_seeds`` independent replicates per budget, each replicate drawing a
fresh random basis and dataset.  Every cell's seed is a pure 64-bit hash of
(base_seed, grid index, seed index), so cells are independent of execution
order and the runner may compute them in parallel worker processes without
changing a single output bit.  A cell scores ESGD at its oracle stopping time
(:func:`~sldlab.estimators.oracle_stop`) and PINV at k = INFINITY, in closed form.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, DimensionError, GridError, InvariantError, SweepCellError
from .estimators import (
    INFINITY,
    gd_estimator_closed,
    gd_risk_profile,
    oracle_stop,
    pca_estimator,
    pca_risk,
    svd_of,
)
from .model import ModelParams, optimal_estimator, optimal_risk, sample_basis, sample_dataset
from .risk import risk_monte_carlo
from .rng import derive_seed

ESTIMATOR_NAMES = ("OPT", "PCA", "ESGD", "PINV")


# =====================================================================
# Configuration and result containers
# =====================================================================


@dataclass(frozen=True)
class SweepConfig:
    """Full description of one sweep; hashable inputs only, so it pickles."""

    params: ModelParams
    train_sizes: tuple[int, ...]
    n_seeds: int = 5
    estimators: tuple[str, ...] = ("ESGD", "PCA")
    base_seed: int = 0
    mc_test_size: int = 0

    def __post_init__(self) -> None:
        sizes = tuple(int(s) for s in self.train_sizes)
        if len(sizes) == 0:
            raise GridError("train_sizes is empty")
        if any(s < 1 for s in sizes):
            raise GridError(f"train sizes must be >= 1, got {min(sizes)}")
        if any(b >= a for b, a in zip(sizes, sizes[1:])):
            raise GridError("train_sizes must be strictly ascending")
        object.__setattr__(self, "train_sizes", sizes)
        ests = tuple(str(e).upper() for e in self.estimators)
        if len(ests) == 0:
            raise DimensionError("no estimators requested")
        for e in ests:
            if e not in ESTIMATOR_NAMES:
                raise DimensionError(
                    f"unknown estimator {e!r}; choose from {', '.join(ESTIMATOR_NAMES)}"
                )
        if len(set(ests)) != len(ests):
            raise DimensionError(f"duplicate estimator in {ests}")
        object.__setattr__(self, "estimators", ests)
        if self.n_seeds < 1:
            raise DimensionError(f"n_seeds must be >= 1, got {self.n_seeds}")
        if self.mc_test_size != 0 and self.mc_test_size < 2:
            raise DimensionError(
                f"mc_test_size must be 0 (off) or >= 2, got {self.mc_test_size}"
            )


@dataclass(eq=False)
class SeriesStats:
    """Per-estimator aggregates across seeds, one entry per train size."""

    mean: np.ndarray
    std: np.ndarray
    mc_mean: np.ndarray | None = None
    mc_std: np.ndarray | None = None


@dataclass(eq=False)
class RiskCurve:
    """Aggregated sweep output: risk statistics per (train size, estimator)."""

    train_sizes: np.ndarray
    series: dict[str, SeriesStats]
    config: SweepConfig | None = None

    def estimators(self) -> tuple[str, ...]:
        return tuple(self.series.keys())


# =====================================================================
# Grids
# =====================================================================


def default_train_grid(lo: int = 1, hi: int = 20000, points_per_decade: int = 5) -> tuple[int, ...]:
    """Integer train sizes rounded from a log-uniform grid, deduplicated.

    default_train_grid(1, 100, 2) -> (1, 3, 10, 32, 100).  Endpoints are
    included only when they fall on the decade lattice, so the count is
    governed by the lattice, not by the raw bounds.
    """
    lo, hi, points_per_decade = int(lo), int(hi), int(points_per_decade)
    if lo < 1:
        raise GridError(f"grid lower bound must be >= 1, got {lo}")
    if hi < lo:
        raise GridError(f"grid is degenerate: hi={hi} < lo={lo}")
    if points_per_decade < 1:
        raise GridError(f"points_per_decade must be >= 1, got {points_per_decade}")
    k_lo = math.ceil(points_per_decade * math.log10(lo) - 1e-9)
    k_hi = math.floor(points_per_decade * math.log10(hi) + 1e-9)
    values = sorted(
        {
            v
            for k in range(k_lo, k_hi + 1)
            if lo <= (v := round(10.0 ** (k / points_per_decade))) <= hi
        }
    )
    if not values:
        raise GridError(f"no grid points land in [{lo}, {hi}] at {points_per_decade}/decade")
    return tuple(int(v) for v in values)


# =====================================================================
# Cell evaluation (top-level so it pickles into spawned workers)
# =====================================================================


def _run_cell(task: tuple[SweepConfig, int, int]) -> tuple[tuple[float, float, float], ...]:
    """Evaluate every requested estimator on one (train size, seed) cell.

    Returns, per estimator, (closed-form risk, mc mean, mc std error); the
    Monte-Carlo slots are NaN when mc_test_size == 0.
    """
    config, size_index, seed_index = task
    n_train = config.train_sizes[size_index]
    cell_seed = derive_seed(config.base_seed, "cell", size_index, seed_index)
    try:
        return _evaluate_cell(config, n_train, cell_seed)
    except Exception as exc:
        raise SweepCellError(
            f"sweep cell failed at train_size={n_train} (grid index {size_index}), "
            f"seed index {seed_index}: {type(exc).__name__}: {exc}"
        ) from exc


def _evaluate_cell(
    config: SweepConfig, n_train: int, cell_seed: int
) -> tuple[tuple[float, float, float], ...]:
    params = config.params
    basis = sample_basis(params.n, params.d, cell_seed)
    ds = sample_dataset(params, basis, n_train, cell_seed)
    wants_svd = any(e != "OPT" for e in config.estimators)
    cache = svd_of(ds, grid_only=True) if wants_svd else None
    mc = config.mc_test_size
    test_seed = derive_seed(cell_seed, "mc-test")
    test = sample_dataset(params, basis, mc, test_seed) if mc else None
    # (k, risk) of each GD estimator, scored before the first Monte-Carlo run draws
    # the test Y, so the QR of Y that PINV reads on a certified cache never runs beside it.
    gd: dict[str, tuple[int | float, float]] = {}
    if "ESGD" in config.estimators:
        gd["ESGD"] = oracle_stop(cache)
    if "PINV" in config.estimators:
        gd["PINV"] = INFINITY, float(gd_risk_profile(cache, (INFINITY,))[0])

    records: list[tuple[float, float, float]] = []
    for name in config.estimators:
        if name == "OPT":
            risk = optimal_risk(params)
            if mc:
                estimator = optimal_estimator(basis, params)
        elif name == "PCA":
            risk = pca_risk(cache)
            if mc:
                estimator = pca_estimator(cache)
        else:  # ESGD or PINV
            k, risk = gd[name]
            if mc:
                estimator = gd_estimator_closed(cache, k)
        if mc:
            report = risk_monte_carlo(estimator, test)
            records.append((risk, report.mean, report.std_err))
        else:
            records.append((risk, math.nan, math.nan))
    return tuple(records)


# =====================================================================
# Runner
# =====================================================================


def run_sweep(config: SweepConfig, workers: int = 1) -> RiskCurve:
    """Run every (train size, seed) cell and aggregate mean/std per size.

    ``workers > 1`` distributes cells over spawned processes; results are
    aggregated in fixed (train size, seed) order either way, so the output
    is byte-identical for any worker count.
    """
    if workers < 1:
        raise DimensionError(f"workers must be >= 1, got {workers}")
    tasks = [
        (config, i, j)
        for i in range(len(config.train_sizes))
        for j in range(config.n_seeds)
    ]
    if workers == 1 or len(tasks) == 1:
        results = [_run_cell(t) for t in tasks]
    else:
        # Imported only here, so that a serial command does not pay for them.
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            ctx = mp.get_context("fork")  # cheap workers, no main-module re-import
        except ValueError:
            ctx = mp.get_context("spawn")
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), mp_context=ctx) as pool:
                results = list(pool.map(_run_cell, tasks, chunksize=1))
        except BrokenProcessPool:
            # Worker startup can fail in exotic embeddings (e.g. stdin
            # scripts); cells are order-independent, so falling back to the
            # serial path yields byte-identical results, just slower.
            print("sldlab: worker pool unavailable, running cells serially", file=sys.stderr)
            results = [_run_cell(t) for t in tasks]

    n_sizes, n_seeds = len(config.train_sizes), config.n_seeds
    curve_series: dict[str, SeriesStats] = {}
    for e_idx, name in enumerate(config.estimators):
        risk = np.empty((n_sizes, n_seeds))
        mc_mean = np.empty((n_sizes, n_seeds))
        for t_idx, (i, j) in enumerate((i, j) for i in range(n_sizes) for j in range(n_seeds)):
            risk[i, j] = results[t_idx][e_idx][0]
            mc_mean[i, j] = results[t_idx][e_idx][1]
        stats = SeriesStats(mean=risk.mean(axis=1), std=_seed_std(risk))
        if config.mc_test_size:
            stats.mc_mean = mc_mean.mean(axis=1)
            stats.mc_std = _seed_std(mc_mean)
        curve_series[name] = stats

    curve = RiskCurve(
        train_sizes=np.asarray(config.train_sizes, dtype=int),
        series=curve_series,
        config=config,
    )
    _validate_curve(curve)
    return curve


def _seed_std(values: np.ndarray) -> np.ndarray:
    """Sample std over seeds (ddof=1); defined as 0 for a single seed."""
    if values.shape[1] < 2:
        return np.zeros(values.shape[0])
    return values.std(axis=1, ddof=1)


def _validate_curve(curve: RiskCurve) -> None:
    """No closed-form mean may undercut the optimal floor beyond seed noise."""
    if curve.config is None:
        return
    floor = optimal_risk(curve.config.params)
    root_seeds = math.sqrt(curve.config.n_seeds)
    for name, stats in curve.series.items():
        slack = 3.0 * stats.std / root_seeds + 1e-12
        bad = np.nonzero(stats.mean < floor - slack)[0]
        if bad.size:
            i = int(bad[0])
            raise InvariantError(
                f"{name} mean risk {stats.mean[i]:.6g} at train_size="
                f"{curve.train_sizes[i]} is below the optimal floor {floor:.6g}"
            )


# =====================================================================
# CSV serialization
# =====================================================================


def _format_value(v: float) -> str:
    return format(float(v), ".17g")


def write_curve_csv(curve: RiskCurve, path) -> None:
    """Write the canonical curve table: train_size, then <EST>_M,<EST>_S pairs.

    Values carry 17 significant digits so a write/read round trip is exact.
    """
    header = ["train_size"]
    for name, stats in curve.series.items():
        header += [f"{name}_M", f"{name}_S"]
        if stats.mc_mean is not None:
            header += [f"{name}_MC_M", f"{name}_MC_S"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, size in enumerate(curve.train_sizes):
            row = [str(int(size))]
            for stats in curve.series.values():
                row += [_format_value(stats.mean[i]), _format_value(stats.std[i])]
                if stats.mc_mean is not None:
                    row += [_format_value(stats.mc_mean[i]), _format_value(stats.mc_std[i])]
            writer.writerow(row)


def _read_table(path) -> tuple[list[str], np.ndarray]:
    """Header and float rows of a CSV whose first column is train_size."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CsvFormatError(f"{path}: file is empty")
    header = rows[0]
    if not header or header[0] != "train_size":
        raise CsvFormatError(f"{path}: first column must be 'train_size', got {header[:1]}")
    data: list[list[float]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise CsvFormatError(
                f"{path}:{line_no}: expected {len(header)} fields, found {len(row)}"
            )
        try:
            data.append([float(v) for v in row])
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{line_no}: {exc}") from None
    if not data:
        raise CsvFormatError(f"{path}: no data rows")
    return header, np.asarray(data)


def read_curve_csv(path) -> RiskCurve:
    """Read a canonical curve table back into a RiskCurve (config unknown)."""
    header, table = _read_table(path)
    groups: list[tuple[str, bool]] = []  # (estimator, has mc columns)
    cols = header[1:]
    pos = 0
    while pos < len(cols):
        name = cols[pos]
        if not name.endswith("_M"):
            raise CsvFormatError(f"{path}: expected a mean column '<EST>_M', got {name!r}")
        est = name[:-2]
        if pos + 1 >= len(cols) or cols[pos + 1] != f"{est}_S":
            raise CsvFormatError(f"{path}: missing column {est}_S after {name}")
        pos += 2
        has_mc = pos + 1 < len(cols) and cols[pos] == f"{est}_MC_M" and cols[pos + 1] == f"{est}_MC_S"
        if has_mc:
            pos += 2
        if any(est == g[0] for g in groups):
            raise CsvFormatError(f"{path}: duplicate estimator columns for {est}")
        groups.append((est, has_mc))
    if not groups:
        raise CsvFormatError(f"{path}: no estimator columns found")
    sizes = table[:, 0]
    if not np.all(np.isfinite(sizes) & (sizes == np.round(sizes))):
        raise CsvFormatError(f"{path}: train_size must hold integers")
    if np.any(np.diff(sizes) <= 0):
        raise CsvFormatError(f"{path}: train_size must be strictly ascending")

    series: dict[str, SeriesStats] = {}
    col = 1
    for est, has_mc in groups:
        stats = SeriesStats(mean=table[:, col].copy(), std=table[:, col + 1].copy())
        col += 2
        if has_mc:
            stats.mc_mean = table[:, col].copy()
            stats.mc_std = table[:, col + 1].copy()
            col += 2
        series[est] = stats
    return RiskCurve(train_sizes=sizes.astype(int), series=series, config=None)


def read_series_csv(path, column: str | None = None) -> tuple[np.ndarray, np.ndarray, str]:
    """Read (train_size, value) pairs from any curve-shaped CSV.

    Accepts both the canonical schema and bare two-column files.  When
    ``column`` is None the file must have exactly one value column.
    Returns (sizes, values, resolved column name).
    """
    header, table = _read_table(path)
    value_cols = header[1:]
    if column is None:
        if len(value_cols) != 1:
            raise CsvFormatError(
                f"{path}: has {len(value_cols)} value columns; pick one of: "
                + ", ".join(value_cols)
            )
        column = value_cols[0]
    if column not in value_cols:
        raise CsvFormatError(
            f"{path}: no column named {column!r}; available: " + ", ".join(value_cols)
        )
    return table[:, 0], table[:, 1 + value_cols.index(column)], column
