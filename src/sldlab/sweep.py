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
    """Per-series aggregates across seeds, one entry per train size."""

    mean: np.ndarray
    std: np.ndarray


@dataclass(eq=False)
class RiskCurve:
    """Risk statistics per (train size, series); an MC sweep puts <EST>_MC after <EST>."""

    train_sizes: np.ndarray
    series: dict[str, SeriesStats]

    def estimators(self) -> tuple[str, ...]:
        """The closed-form series: all but an ``X_MC`` whose ``X`` is a series too."""
        return tuple(n for n in self.series if not (n.endswith("_MC") and n[:-3] in self.series))


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
    cache = svd_of(ds) if config.estimators != ("OPT",) else None
    # Every closed-form risk comes before the Monte-Carlo block streams the test
    # noise, so the QR of Y that PINV reads on a certified cache runs first.
    risks: list[float] = []
    stop_k: dict[str, int | float] = {"PINV": INFINITY}
    for name in config.estimators:
        if name == "OPT":
            risks.append(optimal_risk(params))
        elif name == "PCA":
            risks.append(pca_risk(cache))
        elif name == "ESGD":
            stop_k[name], risk = oracle_stop(cache)
            risks.append(risk)
        else:  # PINV
            risks.append(float(gd_risk_profile(cache, (INFINITY,))[0]))
    mc = config.mc_test_size
    if not mc:
        return tuple((risk, math.nan, math.nan) for risk in risks)

    estimators = []
    for name in config.estimators:
        if name == "OPT":
            estimators.append(optimal_estimator(basis, params))
        elif name == "PCA":
            estimators.append(pca_estimator(cache))
        else:  # ESGD or PINV
            estimators.append(gd_estimator_closed(cache, stop_k[name]))
    test = sample_dataset(params, basis, mc, derive_seed(cell_seed, "mc-test"))
    reports = risk_monte_carlo(estimators, test)
    return tuple((risk, r.mean, r.std_err) for risk, r in zip(risks, reports))


# =====================================================================
# Runner
# =====================================================================


def run_sweep(config: SweepConfig, workers: int = 1) -> RiskCurve:
    """Run every (train size, seed) cell and aggregate mean/std per size.

    ``workers > 1`` distributes cells over worker processes; results are
    aggregated in fixed (train size, seed) order either way, so the output
    is byte-identical for any worker count.  A worker that dies without
    returning its cell (killed, e.g. out of memory) fails the sweep with
    :class:`~sldlab.errors.SweepCellError`; no cell is run twice.
    """
    if workers < 1:
        raise DimensionError(f"workers must be >= 1, got {workers}")
    tasks = [(config, i, j) for i in range(len(config.train_sizes)) for j in range(config.n_seeds)]
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
        except BrokenProcessPool as exc:
            raise SweepCellError("a worker process ended without returning its cell (killed, "
                                 "e.g. out of memory); rerun with fewer --threads") from exc

    # cells[i, j, e] = (risk, mc mean, mc std error) of estimator e at size i, seed j
    cells = np.asarray(results).reshape(len(config.train_sizes), config.n_seeds, -1, 3)
    curve_series: dict[str, SeriesStats] = {}
    for e_idx, name in enumerate(config.estimators):
        curve_series[name] = _seed_stats(cells[:, :, e_idx, 0])
        if config.mc_test_size:
            curve_series[f"{name}_MC"] = _seed_stats(cells[:, :, e_idx, 1])

    curve = RiskCurve(train_sizes=np.asarray(config.train_sizes, dtype=int), series=curve_series)
    _validate_curve(curve, config)
    return curve


def _seed_stats(values: np.ndarray) -> SeriesStats:
    """Mean and sample std (ddof=1) over seeds, the second axis; the std is 0 for one seed."""
    std = values.std(axis=1, ddof=1) if values.shape[1] > 1 else np.zeros(values.shape[0])
    return SeriesStats(mean=values.mean(axis=1), std=std)


def _validate_curve(curve: RiskCurve, config: SweepConfig) -> None:
    """No closed-form mean of the sweep ``config`` may undercut the floor beyond seed noise."""
    floor = optimal_risk(config.params)
    root_seeds = math.sqrt(config.n_seeds)
    for name in config.estimators:
        stats = curve.series[name]
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
    """Write the canonical curve table: train_size, then <NAME>_M,<NAME>_S pairs.

    Values carry 17 significant digits so a write/read round trip is exact.
    """
    header = ["train_size"]
    for name in curve.series:
        header += [f"{name}_M", f"{name}_S"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for i, size in enumerate(curve.train_sizes):
            row = [str(int(size))]
            for stats in curve.series.values():
                row += [_format_value(stats.mean[i]), _format_value(stats.std[i])]
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
    """Read a canonical curve table back into a RiskCurve.

    Each pair <NAME>_M,<NAME>_S is the series <NAME>, Monte-Carlo <EST>_MC included.
    """
    header, table = _read_table(path)
    cols = header[1:]
    series: dict[str, SeriesStats] = {}
    for pos in range(0, len(cols), 2):
        name = cols[pos]
        if not name.endswith("_M"):
            raise CsvFormatError(f"{path}: expected a mean column '<EST>_M', got {name!r}")
        est = name[:-2]
        if pos + 1 >= len(cols) or cols[pos + 1] != f"{est}_S":
            raise CsvFormatError(f"{path}: missing column {est}_S after {name}")
        if est in series:
            raise CsvFormatError(f"{path}: duplicate estimator columns for {est}")
        series[est] = SeriesStats(mean=table[:, pos + 1].copy(), std=table[:, pos + 2].copy())
    if not series:
        raise CsvFormatError(f"{path}: no estimator columns found")
    sizes = table[:, 0]
    if not np.all(np.isfinite(sizes) & (sizes == np.round(sizes))):
        raise CsvFormatError(f"{path}: train_size must hold integers")
    if np.any(np.diff(sizes) <= 0):
        raise CsvFormatError(f"{path}: train_size must be strictly ascending")
    return RiskCurve(train_sizes=sizes.astype(int), series=series)


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
