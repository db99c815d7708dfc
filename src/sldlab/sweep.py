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

import contextlib
import csv
import functools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .blas import BlasPool, blas_pool
from .errors import CsvFormatError, DimensionError, GridError, InvariantError, SweepCellError
from .estimators import (
    INFINITY,
    gd_estimator_closed,
    gd_risk_profile,
    oracle_stop,
    pca_estimator,
    pca_risk,
    svd_of,
    u_products,
)
from .model import (
    Dataset,
    LinearEstimator,
    ModelParams,
    optimal_estimator,
    optimal_risk,
    sample_basis,
    sample_dataset,
)
from .risk import RiskReport, risk_monte_carlo
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


def _run_cell(
    task: tuple[SweepConfig, int, int], pool: int | None = None
) -> tuple[tuple[float, float, float], ...]:
    """Evaluate every requested estimator on one (train size, seed) cell.

    Returns, per estimator, (closed-form risk, mc mean, mc std error); the
    Monte-Carlo slots are NaN when mc_test_size == 0.  With ``pool``, the
    BLAS pool's count where the sweep started, the cell runs at
    :func:`_mc_threads` of it.
    """
    with _naming(task):
        config, n_train, cell_seed = _cell_inputs(task)
        if pool is None:
            return _evaluate_cell(config, n_train, cell_seed)
        with blas_pool().threads(_mc_threads(config, n_train, pool)):
            return _evaluate_cell(config, n_train, cell_seed)


def _cell_inputs(task: tuple[SweepConfig, int, int]) -> tuple[SweepConfig, int, int]:
    """(config, train size, cell seed) of a (config, size index, seed index) task."""
    config, size_index, seed_index = task
    cell_seed = derive_seed(config.base_seed, "cell", size_index, seed_index)
    return config, config.train_sizes[size_index], cell_seed


@contextlib.contextmanager
def _naming(task: tuple[SweepConfig, int, int]) -> Iterator[None]:
    """Raise a failure of the body as a SweepCellError that names the cell of ``task``."""
    config, size_index, seed_index = task
    try:
        yield
    except Exception as exc:
        raise SweepCellError(
            f"sweep cell failed at train_size={config.train_sizes[size_index]} (grid index "
            f"{size_index}), seed index {seed_index}: {type(exc).__name__}: {exc}"
        ) from exc


def _evaluate_cell(
    config: SweepConfig, n_train: int, cell_seed: int
) -> tuple[tuple[float, float, float], ...]:
    risks, estimators, test = _cell_front(config, n_train, cell_seed)
    return _records(risks, None if test is None else risk_monte_carlo(estimators, test))


def _records(
    risks: list[float], reports: Sequence[RiskReport] | None
) -> tuple[tuple[float, float, float], ...]:
    """(risk, mc mean, mc std error) per estimator; NaN Monte-Carlo slots without ``reports``."""
    if reports is None:
        return tuple((risk, math.nan, math.nan) for risk in risks)
    return tuple((risk, r.mean, r.std_err) for risk, r in zip(risks, reports))


def _cell_front(
    config: SweepConfig, n_train: int, cell_seed: int
) -> tuple[list[float], list[LinearEstimator] | None, Dataset | None]:
    """A cell up to its Monte-Carlo pass: the closed-form risks, the estimators and the test set.

    The estimators and the test set (its d x M coefficients; the pass streams
    its noise) are None when mc_test_size == 0.
    """
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
        return risks, None, None

    # One u_products for all the builds: without a stored U_y, one pass over Z.
    gd = [name for name in config.estimators if name in stop_k]
    pca = "PCA" in config.estimators
    products = {} if cache is None else dict(
        zip(gd + ["PCA"] * pca, u_products(cache, [stop_k[name] for name in gd], pca)))
    estimators = []
    for name in config.estimators:
        if name == "OPT":
            estimators.append(optimal_estimator(basis, params))
        elif name == "PCA":
            estimators.append(pca_estimator(cache, product=products[name]))
        else:  # ESGD or PINV
            estimators.append(gd_estimator_closed(cache, stop_k[name], products[name]))
    return risks, estimators, sample_dataset(params, basis, mc, derive_seed(cell_seed, "mc-test"))


#: A Monte-Carlo cell whose front does more than this many multiply-adds per
#: entry of its n x M test noise keeps the full BLAS pool (:func:`_mc_threads`).
#: Measured on 2 cores: at n = 1000, N = 1000, M = 2000 (ratio 500) a front
#: lost 0.06 s at one BLAS thread against a 0.05 s pass, and at n = 10^4,
#: N = 1000, M = 500 (ratio 2000) it lost 0.24 s against a 0.14 s pass.
_FULL_POOL_RATIO = 1000


def _keeps_pool(config: SweepConfig, n_train: int) -> bool:
    """Whether an MC cell's front outweighs its pass: m^2 max(n, N), m = min(n, N), against n M."""
    n = config.params.n
    front = min(n, n_train) ** 2 * max(n, n_train)
    return front > _FULL_POOL_RATIO * n * config.mc_test_size


def _mc_threads(config: SweepConfig, n_train: int, pool: int) -> int:
    """BLAS threads of an MC cell from its shape and the pool: the pool if it keeps it, else one fewer."""
    return pool if _keeps_pool(config, n_train) else max(1, pool - 1)


def _run_mc_serial(
    tasks: list[tuple[SweepConfig, int, int]], blas: BlasPool
) -> list[tuple[tuple[float, float, float], ...]]:
    """The records of an MC sweep's cells, run on this thread and one helper, largest train size first.

    A cell that keeps the pool (:func:`_keeps_pool`) runs whole at the full
    pool.  The other cells run at one thread fewer, with each test set
    scored on the helper beside the next front (:func:`_run_overlapped`).
    The cells that keep the pool all run before the others start, so no
    pass is scored at a count other than its cell's.
    """
    pool = blas.get()
    results: list = [None] * len(tasks)
    overlapped = []
    for t in sorted(range(len(tasks)), key=lambda t: -tasks[t][1]):
        if _keeps_pool(*_cell_inputs(tasks[t])[:2]):
            results[t] = _run_cell(tasks[t], pool)
        else:
            overlapped.append(t)
    if overlapped:
        with blas.threads(max(1, pool - 1)):
            _run_overlapped(tasks, overlapped, results)
    return results


def _run_overlapped(tasks: list[tuple[SweepConfig, int, int]], order: list[int], results: list) -> None:
    """Fill ``results`` of the cells ``order`` names, each test set scored beside the next front.

    The calling thread runs the fronts (:func:`_cell_front`) in ``order``
    and queues each cell's Monte-Carlo pass for one helper thread.  Before
    each front it collects the finished passes, raising a failed one's
    :class:`~sldlab.errors.SweepCellError`, and takes back the newest
    waiting passes and runs them itself until at most one waits: so beside
    a front sit at most two cells' estimators and test sets, one waiting and
    one on the helper.  After the last front it runs, last queued first,
    every pass the helper has not started.
    """
    from concurrent.futures import ThreadPoolExecutor

    pending = {}  # task index -> (risks, estimators, test set) until its pass starts

    def score(t: int) -> tuple[tuple[float, float, float], ...]:
        risks, estimators, test = pending.pop(t)
        with _naming(tasks[t]):
            return _records(risks, risk_monte_carlo(estimators, test))

    queued = []  # (task index, future) of the passes not yet collected
    helper = ThreadPoolExecutor(max_workers=1)
    try:
        for t in order:
            waiting = []
            for u, future in queued:
                if future.done():
                    results[u] = future.result()
                else:
                    waiting.append((u, future))
            queued = waiting
            while len(pending) > 1 and queued[-1][1].cancel():
                u, _ = queued.pop()
                results[u] = score(u)
            with _naming(tasks[t]):
                pending[t] = _cell_front(*_cell_inputs(tasks[t]))
            queued.append((t, helper.submit(score, t)))
        for t, future in reversed(queued):
            results[t] = score(t) if future.cancel() else future.result()
    finally:
        helper.shutdown(cancel_futures=True)


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

    A sweep with ``mc_test_size`` sets numpy's OpenBLAS pool
    (:func:`~sldlab.blas.blas_pool`) per cell from the cell's shape and the
    pool's starting count (:func:`_mc_threads`): a cell whose front
    outweighs its Monte-Carlo pass keeps the pool, every other runs one
    thread below it, at least one.  That holds in this process and in each
    worker, so the bytes do not depend on the worker count, and the pool is
    restored afterwards.  Serially, such a sweep runs its cells largest
    train size first.  A cell that keeps the pool runs whole.  Every other
    splits into its closed-form front (sampling, ``svd_of``, risks,
    estimator builds) and its Monte-Carlo pass (``risk_monte_carlo``), and
    its pass is scored on one helper thread while the next front runs
    (:func:`_run_overlapped`).  A failed pass is raised before the next
    front, so the error names a cell near the first that failed, which in
    that order need not be the first in grid order.  Without a thread setter
    (a numpy on another BLAS), an MC sweep runs as any other.
    """
    if workers < 1:
        raise DimensionError(f"workers must be >= 1, got {workers}")
    tasks = [(config, i, j) for i in range(len(config.train_sizes)) for j in range(config.n_seeds)]
    blas = blas_pool() if config.mc_test_size else None
    if workers == 1 or len(tasks) == 1:
        results = [_run_cell(t) for t in tasks] if blas is None else _run_mc_serial(tasks, blas)
    else:
        # Imported only here, so that a serial command does not pay for them.
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            ctx = mp.get_context("fork")  # cheap workers, no main-module re-import
        except ValueError:
            ctx = mp.get_context("spawn")
        run = _run_cell if blas is None else functools.partial(_run_cell, pool=blas.get())
        try:
            with ProcessPoolExecutor(max_workers=min(workers, len(tasks)), mp_context=ctx) as executor:
                results = list(executor.map(run, tasks, chunksize=1))
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
