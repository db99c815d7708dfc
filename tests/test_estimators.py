"""SVD cache, PCA and gradient-descent estimators, and oracle stopping."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import sldlab.sweep as sweep_mod
from sldlab.blas import blas_pool, eigh, lapack, mapped_empty, qr_raw
from sldlab.errors import DimensionError, InvariantError
from sldlab.estimators import (
    INFINITY,
    K_GRID,
    SvdCache,
    gd_estimator_closed,
    gd_estimator_iterative,
    gd_risk_profile,
    oracle_stop,
    pca_estimator,
    pca_risk,
    svd_of,
    _direct_svd,
    _gram_certified,
    _tall_gram,
    _triangular_solve,
    _wide_gram,
)
from sldlab.model import (
    SIGMA_MAX, Dataset, LinearEstimator, ModelParams, sample_basis, sample_dataset,
)
from sldlab.risk import risk_closed_form
from sldlab.sweep import SweepConfig


def _instance(n=20, d=3, sigma=0.2, n_train=15, seed=0):
    params = ModelParams(d=d, n=n, sigma_z=sigma)
    basis = sample_basis(n, d, seed=seed)
    ds = sample_dataset(params, basis, n_train, seed=seed)
    return params, basis, ds


# --- SVD cache ----------------------------------------------------------


def _factors(cache):
    """(U_y, V_y) of ``cache``: the factor it stores, and the other one formed through Y."""
    if cache._u_y is not None:
        return cache._u_y, (cache.dataset.noisy.T @ cache._u_y) / cache.s_y
    return cache.u_matmul(np.eye(cache.rank)), cache._v_y


def test_svd_cache_reconstructs_input():
    _, _, ds = _instance(n=12, d=2, sigma=0.3, n_train=8, seed=1)
    cache = svd_of(ds)
    u, v = _factors(cache)
    approx = (u * cache.s_y) @ v.T
    assert np.allclose(approx, ds.noisy, atol=1e-10)
    assert cache.rank == 8  # noisy matrix has full column rank
    assert np.all(np.diff(cache.s_y) <= 0)  # descending


def test_svd_cache_gram_path_matches_direct():
    # Wide + noisy takes the n x n Gram route; compare its singular values
    # and subspace against numpy's direct SVD.
    _, _, ds = _instance(n=15, d=3, sigma=0.4, n_train=40, seed=2)
    cache = svd_of(ds)
    assert cache.route == "gram"
    s_ref = np.linalg.svd(ds.noisy, compute_uv=False)
    assert cache.s_y == pytest.approx(s_ref, rel=1e-9)
    # Same column space: projectors agree even if individual signs differ.
    u, v = _factors(cache)
    u_ref = np.linalg.svd(ds.noisy, full_matrices=False)[0]
    assert np.allclose(u @ u.T, u_ref @ u_ref.T, atol=1e-8)
    # And the V factor formed from Y still reconstructs the data.
    assert np.allclose((u * cache.s_y) @ v.T, ds.noisy, atol=1e-8)


def test_svd_cache_truncates_exact_rank():
    # Noiseless data from a d-dim subspace has numerical rank exactly d.
    _, _, ds = _instance(n=20, d=3, sigma=0.0, n_train=10, seed=3)
    cache = svd_of(ds)
    assert cache.rank == 3


def test_svd_cache_coeff_v_and_ut_basis_agree_with_materialized():
    # g = C V_y and M = U_y^T U, formed by each route from what it holds,
    # match the products with the materialized factors on the tall Gram,
    # wide Gram and direct routes.  Each cache stores exactly one factor:
    # V_y on the tall Gram route, U_y on the other two.
    for n, n_train, sigma, route, stores_u in [
        (200, 50, 0.1, "gram", False), (10, 30, 0.2, "gram", True), (60, 40, 0.0, "svd", True),
    ]:
        _, basis, ds = _instance(n=n, d=2, sigma=sigma, n_train=n_train, seed=4)
        cache = svd_of(ds)
        assert cache.route == route and (cache._u_y is not None) == stores_u
        assert (cache._v_y is None) == stores_u
        u, v = _factors(cache)
        assert np.allclose(cache.coeff_v, ds.coeff @ v, atol=1e-10)
        assert np.allclose(cache.ut_basis, u.T @ basis.matrix, atol=1e-10)
    # A cache with both factors, or with neither, is refused.
    fields = dict(s_y=cache.s_y, route=cache.route, dataset=ds, coeff_v=cache.coeff_v,
                  ut_basis=cache.ut_basis)
    for stored in ({"_u_y": u, "_v_y": v}, {}):
        with pytest.raises(InvariantError, match="exactly one"):
            SvdCache(**fields, **stored)


def _route_risks(cache):
    ds = cache.dataset
    profile = gd_risk_profile(cache, K_GRID)
    pca = risk_closed_form(pca_estimator(cache), ds.basis, ds.params)
    return np.append(profile, pca)


@pytest.mark.parametrize("sigma", [0.0, 1e-7, 1e-5, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize(
    "n,n_train", [(100, 50), (100, 99), (100, 100), (100, 200), (1000, 400), (2000, 300)]
)
def test_svd_routes_agree_on_risks(n, n_train, sigma):
    # Whatever route svd_of picks, the GD risk profile and the PCA risk it
    # feeds must match a direct SVD run through the same risk code.
    params, basis, ds = _instance(n=n, d=10, sigma=sigma, n_train=n_train, seed=n + n_train)
    routed = _route_risks(svd_of(ds))
    direct = _route_risks(_direct_svd(ds))
    np.testing.assert_allclose(routed, direct, rtol=1e-8, atol=0.0)


@pytest.mark.parametrize("sigma", [0.0, 1e-7, 1e-5, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize(
    "n,n_train",
    [(100, 5), (100, 50), (100, 99), (100, 100), (100, 200), (1000, 400), (2000, 300)],
)
def test_pca_risk_matches_the_estimator_it_scores(spy_draws, n, n_train, sigma):
    # pca_risk scores the PCA map in the coordinates of span(U, U_hat) and
    # never draws Y; on a tall Gram cell the decomposition does not either,
    # so the cell reads only the streamed statistics.  With N = 5 < d the
    # projector has rank 5.
    params, basis, ds = _instance(n=n, d=10, sigma=sigma, n_train=n_train, seed=n + n_train)
    draws = spy_draws()
    cache = svd_of(ds)
    drawn_by_svd = len(draws)
    risk = pca_risk(cache)
    assert len(draws) == drawn_by_svd
    if cache.route == "gram" and n_train < n:
        assert draws == []
    expected = risk_closed_form(pca_estimator(cache), basis, params)
    if sigma == 0.0 and n_train >= params.d:  # the exact risk is 0; both are rounding noise
        assert max(risk, expected) <= 1e-25
    else:
        assert risk == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_svd_of_small_sigma_wide_falls_back_to_direct():
    # Regression: at sigma = 1e-7 the n x n Gram of this 100 x 200 matrix has
    # eps * kappa = 0.28, and decomposing it put a 3e-2 relative error on the
    # GD risk.  The conditioning check must send it to the direct SVD.
    params, basis, ds = _instance(n=100, d=10, sigma=1e-7, n_train=200, seed=300)
    cache = svd_of(ds)
    assert cache.route == "svd"
    routed = _route_risks(cache)
    direct = _route_risks(_direct_svd(ds))
    np.testing.assert_allclose(routed, direct, rtol=1e-8, atol=0.0)


# Near-square cells that fail eps * kappa <= 1e-8 (3.5e-8, 8.0e-8, 2.0e-8,
# 1.6e-8, 3.1e-8 and 1.6e-7 on these draws), so svd_of keeps their n x n
# Gram only through the certificate: square and wide (N = n + 2).  At
# sigma = 0.01 the certificate settles k = 2^19 and 2^20 only by its running
# noise bound.
_NEAR_SQUARE = [(100, 100, 0.05, 200), (300, 300, 0.05, 600),
                (1000, 1000, 0.1, 2000), (1000, 1000, 0.2, 1),
                (1000, 1002, 0.1, 7), (1000, 1000, 0.01, 0)]


@pytest.mark.parametrize("n,n_train,sigma,seed", _NEAR_SQUARE)
def test_certified_gram_matches_direct_on_near_square_cells(n, n_train, sigma, seed):
    # The Gram decomposition is certified, and everything a sweep reads from
    # it matches the direct SVD: the oracle stop from the spectrum, without
    # forming the QR of Y, and the k = INFINITY (PINV) entry from that QR.
    # The certificate proves nothing of the other finite k, yet on these
    # cells the whole profile matches too.
    params, basis, ds = _instance(n=n, d=10, sigma=sigma, n_train=n_train, seed=seed)
    cache = svd_of(ds)
    assert cache.route == "gram-certified"
    ref = _direct_svd(ds)
    k_opt, risk = oracle_stop(cache)
    assert "pinv_factor" not in vars(cache)  # a cached_property, stored once read
    k_ref, risk_ref = oracle_stop(ref)
    assert k_opt == k_ref and risk == pytest.approx(risk_ref, rel=1e-8)
    routed, direct = _route_risks(cache), _route_risks(ref)
    assert "pinv_factor" in vars(cache)
    np.testing.assert_allclose(routed[:-1], direct[:-1], rtol=1e-8, atol=0.0)
    best = int(np.argmin(routed[:-1]))  # the ESGD argmin over the grid, INFINITY included
    assert best == int(np.argmin(direct[:-1])) and best < len(K_GRID) - 1
    for i in (best, -2, -1):  # ESGD, PINV and PCA
        assert routed[i] == pytest.approx(direct[i], rel=1e-8)
    assert pca_risk(cache) == pytest.approx(pca_risk(ref), rel=1e-8)  # the sweep's PCA risk
    for k in (K_GRID[best], INFINITY):
        w_gram, w_ref = (gd_estimator_closed(c, k).as_matrix() for c in (cache, ref))
        assert np.linalg.norm(w_gram - w_ref) <= 1e-8 * np.linalg.norm(w_ref)
    # The certificate's lower bound on the PINV risk really is one.
    certified, risk_inf_floor = _gram_certified(cache)
    assert certified and 0.0 < risk_inf_floor <= direct[-2]
    # At full rank the certificate's norm, read from g, is that of C Y^T.
    assert np.linalg.norm(cache.coeff_v * cache.s_y, 2) == pytest.approx(
        np.linalg.norm(ds.coeff @ ds.noisy.T, 2), rel=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_certificate_runs_clean_at_the_sigma_bound():
    # The certificate sums lambda^2 ~ sigma^4 N^2 and squares eta = 1 / lambda_max;
    # at SIGMA_MAX neither over- nor underflows, and what it proves -- the
    # oracle stop, PINV and PCA -- matches the direct SVD.  It proves nothing
    # of the other entries: here k = 2^20, which cannot be the argmin, is off
    # by 2.6e-8.
    params, basis, ds = _instance(n=100, d=10, sigma=SIGMA_MAX, n_train=100, seed=5)
    cache, ref = svd_of(ds), _direct_svd(ds)
    assert cache.route == "gram-certified"
    (k_opt, risk), (k_ref, risk_ref) = oracle_stop(cache), oracle_stop(ref)
    assert k_opt == k_ref and risk == pytest.approx(risk_ref, rel=1e-8)
    np.testing.assert_allclose(_route_risks(cache)[-2:], _route_risks(ref)[-2:],
                               rtol=1e-8, atol=0.0)  # PINV and PCA


def test_ill_conditioned_tall_gram_takes_the_direct_svd(monkeypatch):
    # Only the n x n Gram is certified.  The tall N = n - 1 cell fails the
    # conditioning check, so it takes the direct SVD, and a sweep cell scores
    # it exactly as the direct SVD does.
    params, basis, ds = _instance(n=1000, d=10, sigma=0.1, n_train=999, seed=1)
    cache = svd_of(ds)
    assert cache.route == "svd" and cache.rank == 999
    assert np.finfo(float).eps * (cache.s_y[0] / cache.s_y[-1]) ** 2 > 1e-8
    config = SweepConfig(params=params, train_sizes=(999,), n_seeds=1,
                         estimators=("ESGD", "PCA", "PINV"))
    records = sweep_mod._evaluate_cell(config, 999, 1)
    monkeypatch.setattr(sweep_mod, "svd_of", lambda dataset: _direct_svd(dataset))
    assert np.array_equal(records, sweep_mod._evaluate_cell(config, 999, 1), equal_nan=True)


def test_certificate_keeps_the_direct_svd_at_sigma_1e_3():
    # At n = N = 1000 and sigma = 1e-3 the bound at the argmin itself is
    # 6.8e-8 of the risk, so no settling rule saves the Gram.
    params, basis, ds = _instance(n=1000, d=10, sigma=1e-3, n_train=1000, seed=0)
    assert svd_of(ds).route == "svd"


def test_certified_risks_do_not_depend_on_an_earlier_read_of_y():
    # A read of Y leaves the dataset as it was: the wide Gram route and
    # PINV's QR each draw Y afresh, so every risk a sweep reads is the same
    # bits whether or not Y was read first.
    risks = []
    for read_first in (False, True):
        params, basis, ds = _instance(n=100, d=10, sigma=0.05, n_train=100, seed=200)
        if read_first:
            ds.noisy
        cache = svd_of(ds)
        assert cache.route == "gram-certified"
        risks.append((*oracle_stop(cache), pca_risk(cache), *gd_risk_profile(cache, (INFINITY,))))
    assert risks[0] == risks[1]


@pytest.mark.parametrize("n,n_train", [(1000, 1000), (1000, 1002), (40, 150)])
def test_pinv_factor_matches_least_squares(n, n_train):
    # B = (C Y^+)^T solves Y^T B = C^T in the least-squares, minimum-norm
    # sense.  The reflector QR of Y^T agrees with LAPACK's SVD-based solver,
    # to 3e-15 to 5e-14 here, on square and wide near-square cells, whose R
    # spans several substitution blocks, and on a cell whose R is one
    # partial block.
    params, basis, ds = _instance(n=n, d=10, sigma=0.1, n_train=n_train, seed=n + n_train)
    b = svd_of(ds).pinv_factor
    expected = np.linalg.lstsq(ds.noisy.T, ds.coeff.T, rcond=None)[0]
    assert np.linalg.norm(b - expected) <= 1e-12 * np.linalg.norm(expected)


def test_pinv_factor_memory_is_one_stacked_matrix(rss_rise):
    # At n = N = 1000 the QR of [Y^T | C^T] factors the C-order (n + d) x N
    # buffer that Y and C are drawn into, in place: the peak RSS rises by
    # that buffer and the draw's 4 MB noise block, 1.49 times 8 N (n + d)
    # bytes (3.8 times when numpy's QR copied the stacked matrix twice).  The
    # cache is built by hand, since the QR reads only its dataset, so that
    # the decomposition's own peak does not hide the QR's.
    n, d = 1000, 10
    setup = f"""
import numpy as np
from sldlab.estimators import SvdCache
from sldlab.model import ModelParams, sample_basis, sample_dataset
ds = sample_dataset(ModelParams(d={d}, n={n}, sigma_z=0.1), sample_basis({n}, {d}, seed=2000), {n}, seed=2000)
cache = SvdCache(s_y=np.ones(1), route="gram-certified", dataset=ds, coeff_v=np.zeros(({d}, 1)),
                 ut_basis=np.zeros((1, {d})), _v_y=np.ones((1, 1)))
"""
    assert rss_rise(setup, "cache.pinv_factor") <= 1.6 * 8 * n * (n + d)


@pytest.mark.skipif(lapack() is None, reason="numpy exports no 64-bit LAPACK")
@pytest.mark.parametrize("n,n_train", [(1000, 1000), (40, 150)])
def test_in_place_qr_matches_numpy_bit_for_bit(n, n_train):
    # dgeqrf on the C-order buffer, read as Fortran, is numpy's raw QR of
    # [Y^T | C^T], and pinv_factor solves the same R as it would from numpy's.
    params, basis, ds = _instance(n=n, d=10, sigma=0.1, n_train=n_train, seed=n + n_train)
    expected = np.linalg.qr(np.hstack([ds.noisy.T, ds.coeff.T]), mode="raw")[0]
    h = mapped_empty((n + params.d, n_train))  # laid out as pinv_factor lays it out
    ds.noisy_into(h[:n])
    h[n:] = ds.coeff
    assert qr_raw(h) is h
    assert np.array_equal(h, expected)
    b = _triangular_solve(expected[:n, :n].T, expected[n:, :n].T)
    assert np.array_equal(svd_of(ds).pinv_factor, b)


@pytest.mark.skipif(lapack() is None or blas_pool() is None,
                    reason="numpy exports no 64-bit LAPACK or no OpenBLAS thread setter")
@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("n_train", [1, 100, 464, 1000, 3981])
def test_in_place_eigh_matches_numpy_bit_for_bit(n_train, threads):
    # The N x N Gram of a tall cell (N < n = 1000) and the n x n Gram of a
    # wide one, decomposed in place by dsyevd: eigenvalues and eigenvectors
    # equal np.linalg.eigh's bit for bit, at one and two BLAS threads, and
    # the eigenvectors overwrite the Gram.  The tall Gram is summed in
    # parts, so it is not bit-symmetric and its lower triangle must be the
    # one LAPACK reads.
    n = 1000
    params, basis, ds = _instance(n=n, d=10, sigma=0.1, n_train=n_train, seed=n_train)
    gram = _tall_gram(ds) if n_train < n else _wide_gram(ds)[0]
    if n_train == 464:
        assert not np.array_equal(gram, gram.T)
    with blas_pool().threads(threads):
        expected = np.linalg.eigh(gram)
        overwritten = gram.copy()
        evals, evecs = eigh(overwritten)
    assert np.array_equal(evals, expected[0])
    assert np.array_equal(evecs, expected[1])
    assert np.shares_memory(evecs, overwritten)


@pytest.mark.parametrize("n,n_train", [(1000, 999), (150, 40)])
def test_pinv_factor_refuses_a_tall_cache(spy_draws, n, n_train):
    # A "gram-certified" cache always has N >= n, so the QR of Y^T is the only
    # orientation: a cache with N < n (here the direct SVD and the N x N Gram)
    # is refused before Y is drawn.
    params, basis, ds = _instance(n=n, d=10, sigma=0.1, n_train=n_train, seed=n + n_train)
    cache = svd_of(ds)
    draws = spy_draws()
    with pytest.raises(InvariantError, match="N >= n"):
        cache.pinv_factor
    assert draws == []


def test_certificate_rejects_small_sigma_wide_cell():
    # The regression cell of test_svd_of_small_sigma_wide_falls_back_to_direct:
    # a forced Gram route is off by 1e-2 at k = INFINITY, and its optimal k
    # sits at 2^16 to 2^20, where the bound exceeds the risk many times over.
    params, basis, ds = _instance(n=100, d=10, sigma=1e-7, n_train=200, seed=300)
    assert svd_of(ds).route == "svd"


@pytest.mark.parametrize("n_train", [5, 10])
def test_certificate_needs_a_top_d_gap(n_train):
    # With N <= d there is no lambda_{d+1}, so Davis-Kahan cannot bound PCA;
    # the certificate refuses such a cache, as it refuses every cache whose
    # rank is not n.
    params, basis, ds = _instance(n=100, d=10, sigma=0.1, n_train=n_train, seed=n_train)
    cache = svd_of(ds)
    assert cache.rank == n_train
    assert _gram_certified(cache) == (False, 0.0)


@pytest.mark.parametrize("k", [2, 8, 2**10, 2**20])
def test_certificate_lipschitz_constants(k):
    # At eta = 1, p_k(x) = (1 - (1 - x)^k) / x and h_k(x) = x p_k(x)^2 are
    # Lipschitz on [0, 2] with constants k (k - 1) / 2 and k^2.  The grid is
    # refined near 0, where both slopes are steepest.
    x = np.unique(np.concatenate([np.linspace(0.0, 2.0, 200_001),
                                  np.linspace(0.0, min(2.0, 50.0 / k), 100_001)]))
    with np.errstate(divide="ignore"):  # log1p(-1) at x = 1
        rest = np.where(x <= 1.0, -np.expm1(k * np.log1p(-np.minimum(x, 1.0))), 1.0 - (1.0 - x) ** k)
    p = np.divide(rest, x, out=np.full_like(x, float(k)), where=x > 0)
    h = x * p * p
    dx = np.diff(x)
    assert np.max(np.abs(np.diff(p)) / dx) <= k * (k - 1) / 2 * (1 + 1e-9)
    assert np.max(np.abs(np.diff(h)) / dx) <= k * k * (1 + 1e-9)


def test_svd_of_tall_noisy_takes_small_gram_and_defers_u():
    params, basis, ds = _instance(n=2000, d=10, sigma=0.1, n_train=300, seed=7)
    cache = svd_of(ds)
    assert cache.route == "gram"
    assert cache.rank == 300
    gd_risk_profile(cache, K_GRID)
    pca_estimator(cache)
    for k in (64, INFINITY):  # an ESGD and the PINV estimator
        gd_estimator_closed(cache, k)
    assert cache._u_y is None  # no consumer materialized n x r U_y
    u, v = _factors(cache)
    assert np.allclose(cache.ut_basis, u.T @ basis.matrix, atol=1e-10)
    b = np.random.default_rng(1).standard_normal((300, 3))
    assert np.allclose(cache.u_matmul(b), u @ b, atol=1e-10)
    assert np.allclose(cache.leading_u(cache.u_matmul(np.eye(300, 10))), u[:, :10], atol=1e-12)
    assert np.allclose((u * cache.s_y) @ v.T, ds.noisy, atol=1e-10)
    assert cache._u_y is None  # forming U_y stored nothing


def test_gram_route_pca_basis_orthonormal_when_d_covers_spectrum():
    # With N = d every column of U_y enters the PCA projector, including the
    # one for lambda_min, where Y V / S drifts from orthonormal by ~eps * kappa
    # (5e-10 on this draw, above the projector's 1e-10 check).
    params = ModelParams(d=30, n=1000, sigma_z=1e-4)
    basis = sample_basis(1000, 30, seed=5)
    ds = sample_dataset(params, basis, 30, seed=6)
    cache = svd_of(ds)
    assert cache.route == "gram"
    u = pca_estimator(cache).basis
    assert np.max(np.abs(u.T @ u - np.eye(30))) <= 1e-12
    u_y = _factors(cache)[0]
    assert np.allclose(u @ u.T, u_y @ u_y.T, atol=1e-8)


def test_svd_of_zero_matrix_raises():
    params = ModelParams(d=2, n=6, sigma_z=0.0)
    ds = Dataset(coeff=np.zeros((2, 4)), params=params, basis=sample_basis(6, 2, seed=0), seed=0)
    with pytest.raises(InvariantError):
        svd_of(ds)


# --- PCA ----------------------------------------------------------------


def test_pca_estimator_rank_and_shrinkage():
    params, basis, ds = _instance(n=25, d=4, sigma=0.5, n_train=30, seed=5)
    est = pca_estimator(svd_of(ds))
    assert est.rank == 4
    assert np.allclose(est.left, est.basis / 1.25, rtol=0, atol=1e-15)


def test_pca_estimator_rank_deficient_when_starved():
    # One training column can only ever give a rank-1 projector.
    params, basis, ds = _instance(n=25, d=4, sigma=0.5, n_train=1, seed=6)
    est = pca_estimator(svd_of(ds))
    assert est.rank == 1
    assert risk_closed_form(est, basis, params) > 0.5  # most signal missed


def test_pca_estimator_noiseless_recovery():
    # With sigma_z = 0 and n_train >= d, PCA recovers the subspace exactly
    # and the shrinkage factor is 1, so the risk vanishes.
    params, basis, ds = _instance(n=30, d=3, sigma=0.0, n_train=6, seed=7)
    est = pca_estimator(svd_of(ds))
    assert risk_closed_form(est, basis, params) <= 1e-10


@pytest.mark.parametrize(
    "n,n_train,sigma,seed,route",
    [(200, 50, 0.1, 1, "gram"), (200, 10, 1e-6, 2, "gram"), (200, 5, 1e-7, 3, "gram"),
     (2000, 10, 1e-6, 4, "gram"), (50, 200, 0.3, 6, "gram"), (60, 40, 0.0, 7, "svd"),
     (200, 50, 1e-6, 5, "svd"), (100, 100, 0.05, 200, "gram-certified")],
)
def test_leading_u_in_frame_is_leading_u_in_the_frame(n, n_train, sigma, seed, route):
    # The frame coordinates of U_hat, the leading k columns of U_y, are
    # [U^T U_hat; T]: the columns stay orthonormal and the top d rows are the
    # overlap with U, on the tall Gram route (down to sigma = 1e-7, where N <= d), the wide
    # Gram, the direct SVD and a certified n = N Gram.
    params, basis, ds = _instance(n=n, d=10, sigma=sigma, n_train=n_train, seed=seed)
    cache = svd_of(ds)
    assert cache.route == route
    for k in sorted({1, min(params.d, cache.rank)}):
        frame = cache.leading_u_in_frame(k)
        assert frame.shape == (params.d + k, k)
        assert np.max(np.abs(frame.T @ frame - np.eye(k))) <= 1e-12
        u_hat = cache.leading_u(cache.u_matmul(np.eye(cache.rank, k)))
        assert np.max(np.abs(frame[:params.d] - basis.matrix.T @ u_hat)) <= 1e-12


# --- gradient descent: filter and closed form ---------------------------


def test_gd_filter_limits_via_closed_form():
    params, basis, ds = _instance(seed=8)
    cache = svd_of(ds)
    w0 = gd_estimator_closed(cache, 0)
    assert np.array_equal(w0.as_matrix(), np.zeros((20, 20)))
    w_inf = gd_estimator_closed(cache, INFINITY)
    # k = INFINITY is the pseudoinverse estimator X Y^+, checked against numpy's pinv.
    assert np.allclose(w_inf.as_matrix(), ds.clean @ np.linalg.pinv(ds.noisy), atol=1e-10)


@pytest.mark.parametrize(
    "n,n_train,sigma,route,stores_u",
    [(200, 50, 0.1, "gram", False), (50, 200, 0.3, "gram", True), (60, 40, 0.0, "svd", True)],
)
def test_gd_closed_matches_dense_reference_on_every_route(n, n_train, sigma, route, stores_u):
    # The n x d factors (U R^T, Q) form the same map as X V_y D_k U_y^T built
    # densely from the direct SVD, at every k of the default grid, on the tall
    # Gram, wide Gram and direct routes.
    params, basis, ds = _instance(n=n, d=4, sigma=sigma, n_train=n_train, seed=n + n_train)
    cache = svd_of(ds)
    assert cache.route == route and (cache._u_y is not None) == stores_u
    ref = _direct_svd(ds)
    u_ref, v_ref = _factors(ref)
    for k in K_GRID:
        est = gd_estimator_closed(cache, k)
        assert est.left.shape == est.basis.shape == (n, params.d)
        s, eta = ref.s_y, 1.0 / float(ref.s_y[0]) ** 2
        d_k = 1.0 / s if k == INFINITY else (1.0 - (1.0 - eta * s * s) ** k) / s
        dense = (ds.clean @ (v_ref * d_k)) @ u_ref.T
        gap = np.linalg.norm(est.as_matrix() - dense)
        assert gap <= 1e-8 * np.linalg.norm(dense), (k, gap)


def test_gd_risk_decreases_then_increases_along_path():
    # The profile is smooth in k: large-k overfit raises the risk again when
    # the noise is strong enough, so min over the grid is interior.
    params, basis, ds = _instance(n=40, d=3, sigma=0.5, n_train=35, seed=9)
    cache = svd_of(ds)
    grid = K_GRID
    risks = gd_risk_profile(cache, grid)
    best = int(np.argmin(risks))
    assert 0 < best < len(grid) - 1
    assert risks[best] < risks[0] and risks[best] < risks[-1]


def test_gd_closed_matches_iterative():
    rng = np.random.default_rng(10)
    for trial in range(5):
        n = int(rng.integers(8, 30))
        d = int(rng.integers(1, 5))
        n_train = int(rng.integers(d, 25))
        sigma = float(rng.uniform(0.05, 0.6))
        k = int(rng.integers(1, 200))
        params = ModelParams(d=d, n=n, sigma_z=sigma)
        basis = sample_basis(n, d, seed=100 + trial)
        ds = sample_dataset(params, basis, n_train, seed=200 + trial)
        cache = svd_of(ds)
        w_closed = gd_estimator_closed(cache, k).as_matrix()
        w_iter = gd_estimator_iterative(ds, cache.eta, k).as_matrix()
        denom = max(np.linalg.norm(w_iter), 1e-300)
        assert np.linalg.norm(w_closed - w_iter) / denom <= 1e-8


def test_gd_iterative_guards():
    _, _, ds = _instance(seed=11)
    with pytest.raises(DimensionError):
        gd_estimator_iterative(ds, 1e-3, 501)
    with pytest.raises(DimensionError):
        gd_estimator_iterative(ds, 1e-3, INFINITY)


def test_gd_stepsize_bound_enforced():
    # The closed form takes no stepsize: it runs at cache.eta = 1 / S_y[0]^2,
    # which saturates the stability bound, so every filter base 1 - eta S_y^2
    # has magnitude below 1, and the build equals the reference run at it.
    params, basis, ds = _instance(seed=12)
    cache = svd_of(ds)
    top = float(cache.s_y[0])
    assert cache.eta == 1.0 / top**2
    assert np.all(np.abs(1.0 - cache.eta * cache.s_y**2) < 1.0)
    w_closed = gd_estimator_closed(cache, 4).as_matrix()
    w_iter = gd_estimator_iterative(ds, cache.eta, 4).as_matrix()
    assert np.linalg.norm(w_closed - w_iter) / np.linalg.norm(w_iter) <= 1e-8


def test_normalize_k_grid():
    # An iteration count is a nonnegative int or INFINITY wherever the filter
    # is formed: the build, the profile and the reference, whose k = -1
    # would otherwise run no steps and return W = 0.
    params, basis, ds = _instance(seed=12)
    cache = svd_of(ds)
    for k in (-1, 2.5, -math.inf, math.nan):
        with pytest.raises(DimensionError):
            gd_estimator_closed(cache, k)
        with pytest.raises(DimensionError):
            gd_risk_profile(cache, (0, k, INFINITY))
        with pytest.raises(DimensionError):
            gd_estimator_iterative(ds, cache.eta, k)
    # The profile takes its grid as given, unsorted and with repeats.
    ordered = gd_risk_profile(cache, (0, 2, 4, INFINITY))
    given = gd_risk_profile(cache, (4, 0, 4, INFINITY, 2))
    assert given.tolist() == ordered[[2, 0, 2, 3, 1]].tolist()


def test_gd_iterative_divergence_detected():
    # A stepsize far above the stability bound makes the iterates blow up;
    # the reference loop must notice rather than return NaNs.
    from sldlab.errors import DivergenceError

    _, _, ds = _instance(n=10, d=2, sigma=0.3, n_train=8, seed=13)
    cache = svd_of(ds)
    eta = 50.0 / float(cache.s_y[0]) ** 2
    with pytest.raises(DivergenceError):
        gd_estimator_iterative(ds, eta, 400)


# --- risk profile -------------------------------------------------------


def test_profile_matches_materialized_risks():
    params, basis, ds = _instance(n=30, d=4, sigma=0.3, n_train=20, seed=14)
    cache = svd_of(ds)
    grid = (0, 1, 2, 8, 64, 1024, INFINITY)
    profile = gd_risk_profile(cache, grid)
    for k, expected in zip(grid, profile):
        w = gd_estimator_closed(cache, k).as_matrix()
        dense = LinearEstimator.from_dense(w)
        assert risk_closed_form(dense, basis, params) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("sigma", [1e-7, 1e-6])
@pytest.mark.parametrize("n, n_train", [(100, 50), (100, 200)])
def test_profile_accurate_near_noise_floor(n, n_train, sigma):
    # Regression: expanding the misfit as fit - 2 cross + d cancelled when the
    # risk sits near the sigma^2 floor (about 1e-2 relative error at
    # sigma = 1e-7).  The profile must match the risk of the formed
    # estimator over the whole grid.
    params, basis, ds = _instance(n=n, d=10, sigma=sigma, n_train=n_train, seed=21)
    cache = svd_of(ds)
    grid = K_GRID
    profile = gd_risk_profile(cache, grid)
    formed = []
    for k in grid:
        est = gd_estimator_closed(cache, k)
        formed.append(risk_closed_form(est, basis, params))
    np.testing.assert_allclose(profile, formed, rtol=1e-8, atol=0.0)


def test_gd_estimators_stay_low_rank_at_large_n(spy_draws):
    # At n = 10^4 a dense W would take 800 MB; the estimators keep n x d
    # factors, and building and scoring them allocates a few n x d arrays and
    # one block of the noise stream (here all of Z, 4 MB), never Y (a Y
    # drawn into its own mapping would escape tracemalloc; the spy sees it).
    n, n_train = 10_000, 50
    params, basis, ds = _instance(n=n, d=5, sigma=0.1, n_train=n_train, seed=22)
    cache = svd_of(ds)
    profile = gd_risk_profile(cache, (8, INFINITY))
    draws = spy_draws()
    tracemalloc.start()
    try:
        ests = (gd_estimator_closed(cache, 8), gd_estimator_closed(cache, INFINITY))
        for est, expected in zip(ests, profile):
            assert est.left.shape == est.basis.shape == (n, params.d)
            assert risk_closed_form(est, basis, params) == pytest.approx(expected, rel=1e-8, abs=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == []
    assert peak < 8 * n * (n_train + 10 * params.d)  # 8 MB, against 800 MB for one dense W


def test_profile_memory_does_not_grow_with_n_train(spy_draws):
    # The profile works on the d x N coefficients: quadrupling N must not add
    # an n x N array (8 n * 1500 bytes = 36 MB here) to its peak, nor draw Y.
    n = 3000
    peaks = []
    for n_train in (500, 2000):
        params, basis, ds = _instance(n=n, d=10, sigma=0.1, n_train=n_train, seed=25)
        cache = svd_of(ds)
        draws = spy_draws()
        tracemalloc.start()
        try:
            gd_risk_profile(cache, K_GRID)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert draws == []
    assert peaks[1] - peaks[0] < 0.05 * 8 * n * 1500


# --- oracle early stopping ----------------------------------------------


def test_early_stopping_is_grid_argmin():
    params, basis, ds = _instance(n=35, d=3, sigma=0.4, n_train=30, seed=17)
    cache = svd_of(ds)
    k_opt, risk = oracle_stop(cache)
    grid = K_GRID
    profile = gd_risk_profile(cache, grid)
    assert k_opt == grid[int(np.argmin(profile))]
    assert risk == float(np.min(profile))
    risk_opt = risk_closed_form(gd_estimator_closed(cache, k_opt), basis, params)
    assert risk_opt == pytest.approx(risk, abs=1e-12)
    # Oracle dominance: no grid iterate, including the converged one, wins.
    assert np.all(profile >= risk_opt - 1e-12)


def _noiseless_cell():
    return _instance(n=25, d=3, sigma=0.0, n_train=12, seed=18)


def test_early_stopping_noiseless_reaches_zero_risk():
    # Without noise there is no overfitting penalty: the profile decreases
    # all the way to the pseudoinverse, and once the filter saturates the
    # remaining grid entries (including k = INFINITY) tie at zero risk.
    params, basis, ds = _noiseless_cell()
    cache = svd_of(ds)
    k_opt, _ = oracle_stop(cache)
    assert risk_closed_form(gd_estimator_closed(cache, k_opt), basis, params) <= 1e-12
    grid = K_GRID
    profile = gd_risk_profile(cache, grid)
    assert profile[-1] <= 1e-12  # the converged endpoint is (numerically) exact
    assert np.all(np.diff(profile) <= 1e-12)  # and the path only improves


def test_early_stopping_breaks_ties_toward_smaller_k():
    # On the noiseless cell the filter has saturated from k = 128 on: every
    # entry from there through 2^20 and INFINITY is bitwise equal, and the
    # oracle stops at the smallest of them.
    params, basis, ds = _noiseless_cell()
    cache = svd_of(ds)
    profile = gd_risk_profile(cache, K_GRID)
    tied = K_GRID.index(128)
    assert np.all(profile[tied:] == profile[tied]) and profile[tied - 1] > profile[tied]
    assert oracle_stop(cache) == (128, float(profile[tied]))


def test_default_k_grid_shape():
    grid = K_GRID
    assert grid[0] == 0
    assert grid[-1] == INFINITY
    assert grid[1:-1] == tuple(2**j for j in range(21))
    assert len(grid) == 23
