"""Sweep runner determinism, aggregation protocol, and CSV round trips."""

from __future__ import annotations

import dataclasses
import functools
import multiprocessing
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest

import sldlab.sweep as sweep_mod
from sldlab import blas as blas_mod
from sldlab import model
from sldlab.blas import BlasPool, blas_pool
from sldlab.errors import CsvFormatError, DimensionError, GridError, InvariantError, SweepCellError
from sldlab.estimators import SvdCache, _direct_svd, pca_estimator, svd_of
from sldlab.model import Dataset, ModelParams, sample_basis, sample_dataset
from sldlab.risk import risk_closed_form
from sldlab.rng import derive_seed
from sldlab.sweep import (
    RiskCurve,
    SeriesStats,
    SweepConfig,
    default_train_grid,
    read_curve_csv,
    read_series_csv,
    run_sweep,
    write_curve_csv,
)


def _small_config(**overrides):
    defaults = dict(
        params=ModelParams(d=2, n=12, sigma_z=0.3),
        train_sizes=(3, 6, 12, 24),
        n_seeds=3,
        estimators=("OPT", "PCA", "ESGD", "PINV"),
        base_seed=7,
    )
    defaults.update(overrides)
    return SweepConfig(**defaults)


# --- grids ---------------------------------------------------------------


def test_default_train_grid_examples():
    assert default_train_grid(1, 100, 2) == (1, 3, 10, 32, 100)
    grid = default_train_grid(1, 20000, 5)
    assert grid[0] == 1 and grid[-1] == 15849
    assert len(grid) == 22
    assert all(b < a for b, a in zip(grid, grid[1:]))
    # Ten points per decade over one decade, inclusive of both ends.
    assert len(default_train_grid(10, 100, 10)) == 11


def test_default_train_grid_endpoints_and_errors():
    # Endpoints off the lattice are not forced in.
    assert default_train_grid(2, 40, 1) == (10,)
    with pytest.raises(GridError):
        default_train_grid(0, 10, 5)
    with pytest.raises(GridError):
        default_train_grid(10, 5, 5)
    with pytest.raises(GridError):
        default_train_grid(1, 10, 0)
    with pytest.raises(GridError):
        default_train_grid(11, 12, 1)  # no lattice point lands inside


# --- configuration -------------------------------------------------------


def test_sweep_config_validation():
    with pytest.raises(GridError):
        _small_config(train_sizes=())
    with pytest.raises(GridError):
        _small_config(train_sizes=(5, 5))
    with pytest.raises(GridError):
        _small_config(train_sizes=(10, 5))
    with pytest.raises(GridError):
        _small_config(train_sizes=(0, 5))
    with pytest.raises(DimensionError):
        _small_config(estimators=())
    with pytest.raises(DimensionError):
        _small_config(estimators=("PCA", "PCA"))
    with pytest.raises(DimensionError):
        _small_config(estimators=("RIDGE",))
    with pytest.raises(DimensionError):
        _small_config(n_seeds=0)
    with pytest.raises(DimensionError):
        _small_config(mc_test_size=1)


def test_sweep_config_normalizes_names():
    cfg = _small_config(estimators=("pca", "esgd"))
    assert cfg.estimators == ("PCA", "ESGD")


# --- runner semantics -----------------------------------------------------


def test_opt_series_is_exact_floor():
    cfg = _small_config(estimators=("OPT",))
    curve = run_sweep(cfg)
    floor = 0.3**2 / (1 + 0.3**2)
    assert np.allclose(curve.series["OPT"].mean, floor, atol=1e-15)
    assert np.allclose(curve.series["OPT"].std, 0.0, atol=1e-15)


def test_noiseless_sweep_hits_zero_risk():
    # With sigma_z = 0 and N >= d both estimators recover the subspace.
    cfg = _small_config(
        params=ModelParams(d=2, n=12, sigma_z=0.0),
        train_sizes=(2, 4, 8),
        estimators=("PCA", "ESGD"),
    )
    curve = run_sweep(cfg)
    assert np.all(curve.series["PCA"].mean <= 1e-10)
    assert np.all(curve.series["ESGD"].mean <= 1e-10)


def test_aggregation_protocol_is_reproducible_from_parts():
    # The documented seeding contract: cell (i, j) uses
    # derive_seed(base_seed, "cell", i, j) for basis and data alike.
    cfg = _small_config(estimators=("PCA",), train_sizes=(4, 9), n_seeds=4)
    curve = run_sweep(cfg)
    for i, n_train in enumerate(cfg.train_sizes):
        risks = []
        for j in range(cfg.n_seeds):
            cell_seed = derive_seed(cfg.base_seed, "cell", i, j)
            basis = sample_basis(cfg.params.n, cfg.params.d, cell_seed)
            ds = sample_dataset(cfg.params, basis, n_train, cell_seed)
            est = pca_estimator(svd_of(ds))
            risks.append(risk_closed_form(est, basis, cfg.params))
        assert curve.series["PCA"].mean[i] == pytest.approx(np.mean(risks), abs=1e-15)
        assert curve.series["PCA"].std[i] == pytest.approx(np.std(risks, ddof=1), abs=1e-15)


def test_single_seed_std_is_zero():
    cfg = _small_config(estimators=("PCA",), n_seeds=1)
    curve = run_sweep(cfg)
    assert np.array_equal(curve.series["PCA"].std, np.zeros(len(cfg.train_sizes)))


def test_parallel_matches_serial_bitwise(tmp_path):
    cfg = _small_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_curve_csv(run_sweep(cfg, workers=1), serial)
    write_curve_csv(run_sweep(cfg, workers=4), parallel)
    assert serial.read_bytes() == parallel.read_bytes()


def _mc_config(train_sizes=(20, 50, 100, 250, 1000)):
    """An MC sweep on both sides of n = 100, two seeds and all four estimators.

    Its N = 1000 cells keep the BLAS pool (front 10^7 > 1000 n M = 6 * 10^6
    multiply-adds), the others run one thread below it.
    """
    return _small_config(params=ModelParams(d=5, n=100, sigma_z=0.1), train_sizes=train_sizes,
                         n_seeds=2, mc_test_size=60)


def _fixed_pool(threads=2):
    """A stand-in for numpy's BLAS pool that records the counts it is set to and changes nothing."""
    counts = [threads]
    return BlasPool(get=lambda: counts[-1], set=counts.append), counts


def test_sweep_bytes_do_not_depend_on_the_in_place_drivers(monkeypatch, tmp_path):
    # With numpy's dsyevd and dgeqrf found, every Gram and PINV's QR is
    # decomposed in place; without them (the lookup patched to None) numpy's
    # eigh and qr run as they are.  A four-estimator Monte-Carlo sweep over
    # both Gram routes and the certified N = n cells writes the same bytes.
    routes = []

    def spy(dataset):
        cache = svd_of(dataset)
        routes.append(cache.route)
        return cache

    monkeypatch.setattr(sweep_mod, "svd_of", spy)
    cfg = _small_config(params=ModelParams(d=10, n=100, sigma_z=0.01),
                        train_sizes=default_train_grid(10, 1000, 5), mc_test_size=200)
    found, missing = tmp_path / "found.csv", tmp_path / "missing.csv"
    write_curve_csv(run_sweep(cfg, workers=1), found)
    monkeypatch.setattr(blas_mod, "lapack", lambda: None)
    write_curve_csv(run_sweep(cfg, workers=1), missing)
    assert found.read_bytes() == missing.read_bytes()
    assert {"gram", "gram-certified"} <= set(routes)


def test_monte_carlo_sweep_matches_across_worker_counts(tmp_path):
    # Serially an MC sweep runs its cells largest train size first, scoring
    # the test sets of the cells below the pool on a helper thread; in
    # workers each cell runs whole.  A cell's BLAS threads follow from its
    # shape either way, so the bytes are the same.
    cfg = _mc_config()
    serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
    write_curve_csv(run_sweep(cfg, workers=1), serial)
    write_curve_csv(run_sweep(cfg, workers=2), parallel)
    assert serial.read_bytes() == parallel.read_bytes()


@pytest.mark.skipif(blas_pool() is None, reason="numpy exports no OpenBLAS thread setter")
def test_monte_carlo_sweep_restores_the_blas_pool(monkeypatch):
    # The N = 1000 cells keep the pool and the others run one BLAS thread
    # below it; the pool reads back its starting count afterwards, also when
    # a Monte-Carlo pass raises.
    blas, cfg = blas_pool(), _mc_config()
    seen, front = [], sweep_mod._cell_front
    monkeypatch.setattr(sweep_mod, "_cell_front", lambda *args: seen.append(blas.get()) or front(*args))
    bad = derive_seed(derive_seed(cfg.base_seed, "cell", 1, 1), "mc-test")
    score = sweep_mod.risk_monte_carlo

    def fail_at_one_cell(estimators, test):
        if test.seed == bad:
            raise FloatingPointError("synthetic Monte-Carlo failure")
        return score(estimators, test)

    with blas.threads(max(2, blas.get())):
        start = blas.get()
        run_sweep(cfg)
        assert blas.get() == start
        assert seen == [start] * 2 + [start - 1] * 8
        monkeypatch.setattr(sweep_mod, "risk_monte_carlo", fail_at_one_cell)
        with pytest.raises(SweepCellError, match=r"train_size=50 \(grid index 1\), seed index 1: Floating"):
            run_sweep(cfg)
        assert blas.get() == start


def test_monte_carlo_fronts_run_largest_train_size_first(monkeypatch):
    # The calling thread runs the cells from the largest train size down.  A
    # cell that keeps the pool scores its test set itself, right after its
    # front; the others queue theirs for the helper after the front, so no
    # pass runs beside the first front.
    monkeypatch.setattr(sweep_mod, "blas_pool", lambda: _fixed_pool()[0])
    events, front, score = [], sweep_mod._cell_front, sweep_mod.risk_monte_carlo

    def spy_front(config, n_train, cell_seed):
        events.append(("front", n_train))
        out = front(config, n_train, cell_seed)
        events.append(("front done", n_train))
        return out

    monkeypatch.setattr(sweep_mod, "_cell_front", spy_front)
    monkeypatch.setattr(sweep_mod, "risk_monte_carlo",
                        lambda estimators, test: events.append(("pass", None)) or score(estimators, test))
    cfg = _mc_config()
    run_sweep(cfg)
    assert [n for kind, n in events if kind == "front"] == [1000, 1000, 250, 250, 100, 100, 50, 50, 20, 20]
    assert events[:7] == [("front", 1000), ("front done", 1000), ("pass", None),
                          ("front", 1000), ("front done", 1000), ("pass", None), ("front", 250)]
    assert events[7] == ("front done", 250)
    assert events.count(("pass", None)) == 10


def test_monte_carlo_fronts_run_at_most_two_passes_ahead(monkeypatch):
    # Cheap fronts beside slow passes: before each front the calling thread
    # takes back waiting passes until at most one waits, so at most two cells
    # (one waiting, one on the helper) hold their estimators and test sets.
    monkeypatch.setattr(sweep_mod, "blas_pool", lambda: _fixed_pool()[0])
    lock, ahead, seen = threading.Lock(), [0], []
    front, score = sweep_mod._cell_front, sweep_mod.risk_monte_carlo

    def spy_front(*args):
        with lock:
            seen.append(ahead[0])
        out = front(*args)
        with lock:
            ahead[0] += 1
        return out

    def slow_pass(estimators, test):
        time.sleep(0.02)
        reports = score(estimators, test)
        with lock:
            ahead[0] -= 1
        return reports

    monkeypatch.setattr(sweep_mod, "_cell_front", spy_front)
    monkeypatch.setattr(sweep_mod, "risk_monte_carlo", slow_pass)
    cfg = _mc_config(train_sizes=(2, 3, 4, 5, 6, 8, 10, 12))
    run_sweep(cfg)
    assert len(seen) == 16 and max(seen) <= 2 and ahead == [0]


def test_monte_carlo_pass_failure_is_raised_before_the_next_front(monkeypatch):
    # The largest cell's pass fails on the helper; the sweep raises it,
    # naming that cell, before the third front (before the second, when the
    # helper has finished it by then).
    monkeypatch.setattr(sweep_mod, "blas_pool", lambda: _fixed_pool()[0])
    failed, fronts, front = threading.Event(), [], sweep_mod._cell_front

    def spy_front(config, n_train, cell_seed):
        fronts.append(n_train)
        if len(fronts) == 2:
            assert failed.wait(timeout=30)
            time.sleep(0.1)  # let the helper finish the failed future
        return front(config, n_train, cell_seed)

    def fail(estimators, test):
        failed.set()
        raise FloatingPointError("synthetic Monte-Carlo failure")

    monkeypatch.setattr(sweep_mod, "_cell_front", spy_front)
    monkeypatch.setattr(sweep_mod, "risk_monte_carlo", fail)
    with pytest.raises(SweepCellError, match=r"train_size=250 \(grid index 3\), seed index 0: Floating"):
        run_sweep(_mc_config(train_sizes=(20, 50, 100, 250)))
    assert fronts in ([250], [250, 250])


def test_monte_carlo_sweep_without_a_thread_setter_starts_no_thread(monkeypatch):
    # Without a BLAS thread setter an MC sweep runs its cells in grid order on
    # the calling thread, as _evaluate_cell gives them.  With one (here a
    # stand-in that leaves the threads alone) the N = 1000 cells run whole at
    # the pool, the others below it with one helper thread, and the curve is
    # the same bit for bit.
    starts, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: starts.append(thread) or start(thread))
    cfg = _mc_config()
    monkeypatch.setattr(sweep_mod, "blas_pool", lambda: None)
    plain = run_sweep(cfg)
    assert starts == []
    records = np.array([[sweep_mod._evaluate_cell(cfg, n, derive_seed(cfg.base_seed, "cell", i, j))
                         for j in range(cfg.n_seeds)] for i, n in enumerate(cfg.train_sizes)])
    for e, name in enumerate(cfg.estimators):
        for series, column in ((name, 0), (f"{name}_MC", 1)):
            assert np.array_equal(plain.series[series].mean, records[:, :, e, column].mean(axis=1))
            assert np.array_equal(plain.series[series].std, records[:, :, e, column].std(axis=1, ddof=1))
    pool, counts = _fixed_pool(threads=3)
    monkeypatch.setattr(sweep_mod, "blas_pool", lambda: pool)
    overlapped = run_sweep(cfg)
    assert len(starts) == 1 and counts == [3, 3, 3, 3, 3, 2, 3]
    for name, stats in plain.series.items():
        assert np.array_equal(overlapped.series[name].mean, stats.mean)
        assert np.array_equal(overlapped.series[name].std, stats.std)


def test_cell_failures_carry_cell_identity(monkeypatch):
    def explode(config, n_train, cell_seed):
        raise FloatingPointError("synthetic numerical failure")

    monkeypatch.setattr(sweep_mod, "_evaluate_cell", explode)
    with pytest.raises(SweepCellError, match=r"train_size=3 .*seed index 0"):
        run_sweep(_small_config())


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the patched cell reaches the workers only through fork")
def test_dead_worker_fails_the_sweep(monkeypatch):
    # A worker killed mid-cell (here it exits at once; in practice, e.g. the
    # out-of-memory killer) fails the sweep: no cell is rerun serially.  The
    # guard on the parent's pid lets a serial rerun in this process succeed,
    # so a fallback would return a curve instead of raising.
    parent, evaluate = os.getpid(), sweep_mod._evaluate_cell

    def die_in_worker(config, n_train, cell_seed):
        if os.getpid() != parent:
            os._exit(1)
        return evaluate(config, n_train, cell_seed)

    monkeypatch.setattr(sweep_mod, "_evaluate_cell", die_in_worker)
    with pytest.raises(SweepCellError, match=r"worker process ended .*fewer --threads"):
        run_sweep(_small_config(), workers=2)


def test_monte_carlo_cell_memory_at_large_n(spy_draws):
    # One n = 10^4, N = 1000 cell scored on 500 test columns: Y takes 80 MB.
    # The estimators are built from Y V_y, streamed over row blocks of Z, and
    # the test noise is streamed too, so neither Y is formed: the cell peaks
    # at 33.4 MB in its 2048-row statistics pass (110.6 MB when it drew the
    # training Y for its builds, 180 MB when it also formed the 40 MB test
    # Y).  The ESGD and PINV maps are n x d factors, so the cell holds no
    # n x r factor (with r = N = 1000 a pair of them, and the U_y they came
    # from, took the peak to 371 MB).
    config = _small_config(params=ModelParams(d=10, n=10_000, sigma_z=0.1),
                           train_sizes=(1000,), n_seeds=1, mc_test_size=500)
    draws = spy_draws()  # a Y drawn into its own mapping escapes tracemalloc
    tracemalloc.start()
    try:
        records = sweep_mod._evaluate_cell(config, 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == []
    assert peak <= 45e6
    for risk, mc_mean, mc_err in records:
        assert abs(mc_mean - risk) <= 5 * mc_err


def test_streamed_cell_never_forms_y(monkeypatch):
    # One ESGD + PCA cell at n = 10^4, N = 1000 keeps C, Z^T Z, U^T Z and the
    # Gram side of its decomposition (8 MB each at most) and reads Z in 16 MB
    # blocks, never Y (80 MB): it peaked at 104 MB when it held Y.
    reads = []
    draw = Dataset.noisy.fget
    monkeypatch.setattr(Dataset, "noisy", property(lambda ds: reads.append(ds) or draw(ds)))
    config = _small_config(params=ModelParams(d=10, n=10_000, sigma_z=0.1),
                           train_sizes=(1000,), n_seeds=1, estimators=("ESGD", "PCA"))
    tracemalloc.start()
    try:
        records = sweep_mod._evaluate_cell(config, 1000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert reads == []
    assert peak <= 45e6
    assert all(0.0 < risk < 1.0 for risk, _, _ in records)


@pytest.mark.parametrize("mc", [0, 50])
@pytest.mark.parametrize("n_train,cell_seed,route", [(600, 1, "gram"), (300, 600, "gram-certified")],
                         ids=["wide", "square-certified"])
def test_wide_cell_does_not_keep_y(monkeypatch, spy_draws, n_train, cell_seed, route, mc):
    # An ESGD + PCA cell with N >= n draws Y once, for Y Y^T and C Y^T, and
    # its dataset never keeps it: the decomposition, the certificate, the
    # risks and the estimator builds read the stored U_y and C Y^T.
    datasets, draws = [], spy_draws()

    def spy(dataset):
        datasets.append(dataset)
        return svd_of(dataset)

    monkeypatch.setattr(sweep_mod, "svd_of", spy)
    config = _small_config(params=ModelParams(d=10, n=300, sigma_z=0.05), train_sizes=(n_train,),
                           n_seeds=1, estimators=("ESGD", "PCA"), mc_test_size=mc)
    sweep_mod._evaluate_cell(config, n_train, cell_seed)
    (dataset,) = datasets
    assert draws == [(10, n_train)]
    assert svd_of(dataset).route == route


def _cell_rss_rise(rss_rise, n, n_train, estimators):
    """Peak RSS rise of one sigma = 0.1 ``_evaluate_cell`` (cell seed 0) in a fresh interpreter."""
    setup = f"""
from sldlab import sweep
from sldlab.model import ModelParams
config = sweep.SweepConfig(params=ModelParams(d=10, n={n}, sigma_z=0.1), train_sizes=({n_train},),
                           n_seeds=1, estimators={estimators!r})
"""
    return rss_rise(setup, f"sweep._evaluate_cell(config, {n_train}, 0)")


def test_wide_cell_drops_y_before_the_eigh(rss_rise):
    # One ESGD + PCA cell at n = 1000, N = 4000: Y is 32 MB and Y Y^T 8 MB.
    # Y is dropped before the Gram is decomposed in place beside its 16 MB
    # workspace, so the peak is Y, the Gram and a noise block while the Gram
    # forms: the RSS rose by 47.8 MB, and would pass 60 MB with Y kept
    # through the eigh.
    n, n_train = 1000, 4000
    rise = _cell_rss_rise(rss_rise, n, n_train, ("ESGD", "PCA"))
    assert rise <= 8 * n * n_train + 2 * 8 * n * n + model._STREAM_BYTES


def test_square_cell_memory_follows_the_in_place_rule(rss_rise):
    # One ESGD + PCA + PINV cell at n = N = 1500 (m = 1500), certified, so
    # PINV takes its QR of Y: the Gram is decomposed in place beside LAPACK's
    # 2 m^2 workspace, and the QR factors the one buffer Y is drawn into.
    # The RSS rose by 3.60-3.68 times 8 m^2 at one to four BLAS threads;
    # numpy's eigh and qr, which copy their input, rose by 5.54-5.62 times.
    m = 1500
    assert _cell_rss_rise(rss_rise, m, m, ("ESGD", "PCA", "PINV")) <= 4 * 8 * m * m


def _spy_on_routes(monkeypatch):
    """The route of every decomposition the sweep asks for, in call order."""
    routes = []

    def spy(dataset):
        cache = svd_of(dataset)
        routes.append(cache.route)
        return cache

    monkeypatch.setattr(sweep_mod, "svd_of", spy)
    return routes


def test_tall_monte_carlo_cell_never_draws_y(monkeypatch, spy_draws):
    # A tall cell on the plain Gram route builds PCA, ESGD and PINV from
    # Y V_y through Dataset.noisy_matmul, which streams Z, and scores them on
    # a streamed test set: no Y, training or test, is ever drawn.
    draws = spy_draws()
    routes = _spy_on_routes(monkeypatch)
    config = _small_config(params=ModelParams(d=10, n=300, sigma_z=0.1), train_sizes=(100,),
                           n_seeds=1, mc_test_size=50)
    records = sweep_mod._evaluate_cell(config, 100, 0)
    assert routes == ["gram"]
    assert draws == []
    for risk, mc_mean, mc_err in records:
        assert abs(mc_mean - risk) <= 5 * mc_err


def test_tall_monte_carlo_cell_builds_from_one_pass(monkeypatch):
    # A tall cell on the Gram route streams its training noise twice: once
    # for Z^T Z and U^T Z, once for the Y V_y products of its PCA, ESGD and
    # PINV builds together (once per build before), then its test noise once.
    passes, blocks = [], model._noise_blocks
    monkeypatch.setattr(model, "_noise_blocks",
                        lambda n, n_cols, seed, *rest: passes.append(n_cols) or blocks(n, n_cols, seed, *rest))
    routes = _spy_on_routes(monkeypatch)
    config = _small_config(params=ModelParams(d=10, n=300, sigma_z=0.1), train_sizes=(100,),
                           n_seeds=1, mc_test_size=50)
    sweep_mod._evaluate_cell(config, 100, 0)
    assert routes == ["gram"]
    assert passes == [100, 100, 50]


@pytest.mark.parametrize("estimators", [("ESGD", "PCA"), ("ESGD", "PCA", "PINV")],
                         ids=["esgd-pca", "esgd-pca-pinv"])
def test_near_square_cell_keeps_certified_gram(monkeypatch, estimators):
    # n = N = 300 at this seed fails the conditioning check; the certificate
    # keeps the Gram whether or not the cell reports PINV, and every risk
    # matches the same cell decomposed by the direct SVD.
    routes = _spy_on_routes(monkeypatch)
    config = _small_config(params=ModelParams(d=10, n=300, sigma_z=0.05), train_sizes=(300,),
                           n_seeds=1, estimators=estimators)
    records = sweep_mod._evaluate_cell(config, 300, 600)
    assert routes == ["gram-certified"]
    monkeypatch.setattr(sweep_mod, "svd_of", lambda dataset: _direct_svd(dataset))
    reference = sweep_mod._evaluate_cell(config, 300, 600)
    assert len(records) == len(reference) == len(estimators)
    for (risk, _, _), (expected, _, _) in zip(records, reference):
        assert risk == pytest.approx(expected, rel=1e-8)


def test_certified_cell_without_pinv_never_forms_the_qr(monkeypatch):
    # fig5's N = n cells: a "gram-certified" ESGD + PCA cell takes its ESGD
    # argmin over the finite k, which the certificate allows, so neither its
    # profile nor its ESGD build reads the QR of Y that PINV is scored by.
    reads = []
    factor = SvdCache.pinv_factor.func
    monkeypatch.setattr(SvdCache, "pinv_factor", property(lambda c: reads.append(c) or factor(c)))
    routes = _spy_on_routes(monkeypatch)
    for estimators in (("ESGD", "PCA"), ("ESGD", "PINV")):
        config = _small_config(params=ModelParams(d=10, n=300, sigma_z=0.05), train_sizes=(300,),
                               n_seeds=1, estimators=estimators, mc_test_size=50)
        sweep_mod._evaluate_cell(config, 300, 600)
        assert routes[-1] == "gram-certified"
        assert bool(reads) == ("PINV" in estimators)  # the spy sees PINV's reads


@pytest.mark.parametrize("mc", [0, 50])
@pytest.mark.parametrize("n,n_train,sigma,cell_seed,route",
                         [(100, 100, 0.05, 200, "gram-certified"), (300, 100, 0.1, 1, "gram")],
                         ids=["square-certified", "tall"])
def test_gd_risks_do_not_depend_on_the_other_estimators(monkeypatch, n, n_train, sigma, cell_seed,
                                                         route, mc):
    # ESGD and PINV are scored on their own: a cell that reports one of them
    # alone gives bitwise the records of a cell that reports all four.
    routes = _spy_on_routes(monkeypatch)
    full = ("OPT", "PCA", "ESGD", "PINV")
    config = _small_config(params=ModelParams(d=10, n=n, sigma_z=sigma), train_sizes=(n_train,),
                           n_seeds=1, estimators=full, mc_test_size=mc)
    records = dict(zip(full, sweep_mod._evaluate_cell(config, n_train, cell_seed)))
    assert routes == [route]
    for name in ("ESGD", "PINV"):
        alone = dataclasses.replace(config, estimators=(name,))
        (record,) = sweep_mod._evaluate_cell(alone, n_train, cell_seed)
        assert np.array_equal(record, records[name], equal_nan=True), name
    assert routes == [route] * 3


def test_certified_cell_reads_the_qr_before_the_test_draw(monkeypatch):
    # PINV's QR of Y is formed while only the training draw is held: the
    # pinv_factor computation comes before the test noise is streamed (the
    # PINV build reads the cached factor later), and the test Y is never read.
    events = []
    factor, draw, blocks = SvdCache.pinv_factor.func, Dataset.noisy.fget, model._noise_blocks
    spy = functools.cached_property(lambda c: events.append("qr") or factor(c))
    spy.__set_name__(SvdCache, "pinv_factor")
    monkeypatch.setattr(SvdCache, "pinv_factor", spy)
    monkeypatch.setattr(Dataset, "noisy", property(
        lambda ds: events.append("test Y" if ds.n_train == 50 else "train") or draw(ds)))
    monkeypatch.setattr(model, "_noise_blocks", lambda n, n_cols, seed: events.append(
        "test" if n_cols == 50 else "train") or blocks(n, n_cols, seed))
    routes = _spy_on_routes(monkeypatch)
    config = _small_config(params=ModelParams(d=10, n=300, sigma_z=0.05), train_sizes=(300,),
                           n_seeds=1, estimators=("ESGD", "PINV"), mc_test_size=50)
    sweep_mod._evaluate_cell(config, 300, 600)
    assert routes == ["gram-certified"]
    assert events.count("qr") == 1 and events.index("qr") < events.index("test")
    assert events.count("test") == 1 and "test Y" not in events


def test_curve_below_floor_is_rejected():
    cfg = _small_config(estimators=("OPT",), train_sizes=(3,), n_seeds=2)
    curve = run_sweep(cfg)
    doctored = RiskCurve(
        train_sizes=curve.train_sizes,
        series={"OPT": SeriesStats(mean=curve.series["OPT"].mean * 0.5,
                                   std=curve.series["OPT"].std)},
    )
    with pytest.raises(InvariantError):
        sweep_mod._validate_curve(doctored, cfg)


def test_monte_carlo_series_is_not_held_to_the_floor():
    # An MC mean carries the sampling noise of its test draw, so it may sit
    # below the floor; the same values as a closed-form series may not.
    cfg = _small_config(estimators=("OPT",), train_sizes=(3,), n_seeds=2, mc_test_size=8)
    curve = run_sweep(cfg)
    opt = curve.series["OPT"]
    low = SeriesStats(mean=opt.mean * 0.5, std=opt.std)
    sweep_mod._validate_curve(RiskCurve(curve.train_sizes, {"OPT": opt, "OPT_MC": low}), cfg)
    with pytest.raises(InvariantError, match="OPT mean risk"):
        sweep_mod._validate_curve(RiskCurve(curve.train_sizes, {"OPT": low, "OPT_MC": opt}), cfg)


def test_workers_must_be_positive():
    with pytest.raises(DimensionError):
        run_sweep(_small_config(), workers=0)


# --- CSV round trip -------------------------------------------------------


def test_csv_round_trip_is_exact(tmp_path):
    cfg = _small_config()
    curve = run_sweep(cfg)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    back = read_curve_csv(path)
    assert np.array_equal(back.train_sizes, curve.train_sizes)
    assert back.estimators() == curve.estimators()
    for name in curve.estimators():
        assert np.array_equal(back.series[name].mean, curve.series[name].mean)
        assert np.array_equal(back.series[name].std, curve.series[name].std)


def test_csv_is_lf_terminated_utf8(tmp_path):
    curve = run_sweep(_small_config(estimators=("OPT",), train_sizes=(3,)))
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert raw.decode("utf-8").splitlines()[0] == "train_size,OPT_M,OPT_S"


def test_csv_round_trip_with_monte_carlo_columns(tmp_path):
    cfg = _small_config(estimators=("OPT", "PCA"), train_sizes=(4, 8),
                        n_seeds=2, mc_test_size=32)
    curve = run_sweep(cfg)
    path = tmp_path / "mc.csv"
    write_curve_csv(curve, path)
    header = path.read_text().splitlines()[0].split(",")
    assert header == [
        "train_size",
        "OPT_M", "OPT_S", "OPT_MC_M", "OPT_MC_S",
        "PCA_M", "PCA_S", "PCA_MC_M", "PCA_MC_S",
    ]
    back = read_curve_csv(path)
    assert tuple(back.series) == ("OPT", "OPT_MC", "PCA", "PCA_MC")
    assert back.estimators() == ("OPT", "PCA")
    for name in ("OPT_MC", "PCA_MC"):
        assert np.array_equal(back.series[name].mean, curve.series[name].mean)
        assert np.array_equal(back.series[name].std, curve.series[name].std)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("size,PCA_M,PCA_S\n3,1,0\n", "train_size"),
        ("train_size,PCA_M\n3,1\n", "PCA_S"),
        ("train_size,PCA_X,PCA_S\n3,1,0\n", "_M"),
        ("train_size,PCA_M,PCA_S,PCA_M,PCA_S\n3,1,0,1,0\n", "duplicate"),
        ("train_size,PCA_M,PCA_S\n", "no data rows"),
        ("train_size,PCA_M,PCA_S\n3,1\n", "expected 3 fields"),
        ("train_size,PCA_M,PCA_S\n3,one,0\n", ":2:"),
        ("train_size,PCA_M,PCA_S\n9,1,0\n3,1,0\n", "ascending"),
        ("train_size,PCA_M,PCA_S\n3.5,1,0\n", "integers"),
        ("train_size,PCA_M,PCA_S,PCA_MC_M\n3,1,0,1\n", "PCA_MC_S"),
    ],
)
def test_csv_reader_rejects_malformed(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=fragment):
        read_curve_csv(path)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty"),
        ("size,risk\n3,1\n", "train_size"),
        ("train_size,risk\n", "no data rows"),
        ("train_size,risk\n3\n", "expected 2 fields"),
        ("train_size,risk\n3,1\n10,one\n", ":3:"),
    ],
)
def test_series_reader_shares_the_row_checks(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(CsvFormatError, match=fragment):
        read_series_csv(path)


def test_read_series_single_column(tmp_path):
    path = tmp_path / "bare.csv"
    path.write_text("train_size,risk\n10,0.5\n100,0.05\n")
    sizes, values, name = read_series_csv(path)
    assert np.array_equal(sizes, [10.0, 100.0])
    assert np.array_equal(values, [0.5, 0.05])
    assert name == "risk"


def test_read_series_requires_column_choice(tmp_path):
    curve = run_sweep(_small_config(estimators=("OPT", "PCA"), train_sizes=(4, 8)))
    path = tmp_path / "two.csv"
    write_curve_csv(curve, path)
    with pytest.raises(CsvFormatError, match="pick one"):
        read_series_csv(path)
    sizes, values, name = read_series_csv(path, column="PCA_M")
    assert name == "PCA_M"
    assert np.array_equal(values, curve.series["PCA"].mean)
    with pytest.raises(CsvFormatError, match="no column named"):
        read_series_csv(path, column="RIDGE_M")
