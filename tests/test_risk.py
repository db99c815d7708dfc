"""Closed-form risk, Monte-Carlo agreement, and the specialized PCA formula."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from sldlab import model
from sldlab.errors import DimensionError, InsufficientDataError
from sldlab.model import (
    LinearEstimator,
    ModelParams,
    SubspaceBasis,
    optimal_estimator,
    optimal_risk,
    sample_basis,
    sample_dataset,
)
from sldlab.risk import (
    pca_risk_specialized,
    risk_closed_form,
    risk_monte_carlo,
    theory_diagnostics,
)
from sldlab.estimators import INFINITY, gd_estimator_closed, oracle_stop, pca_estimator, svd_of
from sldlab.rng import derive_seed, stream


def test_closed_form_matches_hand_computation():
    # U = e1 in R^3, W = diag(a, b, c):
    #   (W - I)U = (a-1) e1, so R = (a-1)^2 + sigma^2 (a^2+b^2+c^2).
    params = ModelParams(d=1, n=3, sigma_z=0.5)
    u = np.zeros((3, 1))
    u[0, 0] = 1.0
    basis = SubspaceBasis(matrix=u)
    a, b, c = 0.7, -0.2, 0.4
    w = LinearEstimator.from_dense(np.diag([a, b, c]))
    expected = (a - 1.0) ** 2 + 0.25 * (a * a + b * b + c * c)
    assert risk_closed_form(w, basis, params) == pytest.approx(expected, abs=1e-15)


def test_closed_form_factored_equals_dense():
    rng = np.random.default_rng(7)
    for trial in range(100):
        n = int(rng.integers(4, 40))
        d = int(rng.integers(1, min(6, n)))
        r = int(rng.integers(1, n + 1))
        sigma = float(rng.uniform(0, 1.2))
        params = ModelParams(d=d, n=n, sigma_z=sigma)
        basis = sample_basis(n, d, seed=trial)
        b, _ = np.linalg.qr(rng.standard_normal((n, r)))
        s = float(rng.uniform(-0.5, 1.5))
        factored = LinearEstimator.scaled_projection(s, b)
        dense = LinearEstimator.from_dense(factored.as_matrix())
        rf = risk_closed_form(factored, basis, params)
        rd = risk_closed_form(dense, basis, params)
        assert rf == pytest.approx(rd, abs=1e-12)


def test_closed_form_rejects_dimension_mismatch():
    params = ModelParams(d=2, n=8, sigma_z=0.1)
    basis = sample_basis(8, 2, seed=0)
    with pytest.raises(DimensionError):
        risk_closed_form(LinearEstimator.from_dense(np.eye(5)), basis, params)


def test_optimal_floor_and_excess():
    for sigma in (0.0, 0.05, 0.1, 0.2, 1.0):
        params = ModelParams(d=3, n=12, sigma_z=sigma)
        basis = sample_basis(12, 3, seed=1)
        w_star = optimal_estimator(basis, params)
        floor = sigma**2 / (1.0 + sigma**2)
        assert risk_closed_form(w_star, basis, params) == pytest.approx(floor, abs=1e-12)


def test_monte_carlo_matches_closed_form_within_3_se():
    # The 3-standard-error band should cover the exact value in ~99.7% of
    # draws; demand at least 95 of 100 independent repetitions.
    params = ModelParams(d=3, n=20, sigma_z=0.3)
    basis = sample_basis(20, 3, seed=5)
    ds = sample_dataset(params, basis, n_train=30, seed=5)
    est = pca_estimator(svd_of(ds))
    exact = risk_closed_form(est, basis, params)
    hits = 0
    for rep in range(100):
        (report,) = risk_monte_carlo([est], sample_dataset(params, basis, 400, derive_seed(999, rep)))
        if abs(report.mean - exact) <= 3.0 * report.std_err:
            hits += 1
    assert hits >= 95


def test_monte_carlo_zero_noise_is_near_exact(monkeypatch):
    # With sigma_z = 0 the optimal estimator reconstructs test points exactly
    # up to floating-point roundoff, and no noise is drawn at all.
    def no_noise(*args):
        raise AssertionError("a noiseless test set drew noise")

    monkeypatch.setattr(model, "_noise_blocks", no_noise)
    params = ModelParams(d=2, n=10, sigma_z=0.0)
    basis = sample_basis(10, 2, seed=2)
    test = sample_dataset(params, basis, 500, 3)
    (report,) = risk_monte_carlo([optimal_estimator(basis, params)], test)
    assert report.mean < 1e-28


def _cell_estimators(params, basis, seed=8, n_train=60):
    """OPT, PCA, ESGD at k_opt, ESGD at k = 0 and PINV of one training draw."""
    cache = svd_of(sample_dataset(params, basis, n_train, seed))
    return [
        optimal_estimator(basis, params),
        pca_estimator(cache),
        gd_estimator_closed(cache, oracle_stop(cache)[0]),
        gd_estimator_closed(cache, 0),
        gd_estimator_closed(cache, INFINITY),
    ]


def _whole_losses(est, test):
    """Per-column losses scored against the whole test Y and the dense clean X."""
    err = est.as_matrix() @ test.noisy - test.clean
    return np.sum(err * err, axis=0) / test.params.d


@pytest.mark.parametrize("n_test", [2, 255, 256, 2000])
def test_monte_carlo_blocks_match_unblocked(spy_draws, n_test):
    # One streamed call scores all five estimators of a cell without drawing
    # the test Y; each report must give the mean and standard error of
    # scoring the whole test Y against the dense clean matrix X.
    params = ModelParams(d=3, n=40, sigma_z=0.3)
    basis = sample_basis(40, 3, seed=8)
    estimators = _cell_estimators(params, basis)
    test = sample_dataset(params, basis, n_test, seed=9)
    draws = spy_draws()
    reports = risk_monte_carlo(estimators, test)
    assert draws == []
    assert len(reports) == len(estimators)
    for est, report in zip(estimators, reports):
        losses = _whole_losses(est, test)
        assert report.n_test == n_test
        expected_se = float(np.std(losses, ddof=1)) / math.sqrt(n_test)
        assert report.mean == pytest.approx(float(np.mean(losses)), rel=1e-12, abs=0)
        assert report.std_err == pytest.approx(expected_se, rel=1e-12, abs=0)


@pytest.mark.parametrize("block_rows,heights", [(7, [7] * 5 + [5]), (1, [1] * 40)],
                         ids=["ragged", "one-row"])
def test_monte_carlo_row_blocks_match_unblocked(monkeypatch, spy_blocks, block_rows, heights):
    # Shrinking the stream's blocks to 7 rows (a ragged last block of 5) or to
    # one row changes only the order of the B^T Z sums.
    params = ModelParams(d=3, n=40, sigma_z=0.3)
    basis = sample_basis(40, 3, seed=8)
    estimators = _cell_estimators(params, basis)
    n_test = 256
    monkeypatch.setattr(model, "_STREAM_BYTES", 8 * n_test * block_rows)
    drawn = spy_blocks()
    test = sample_dataset(params, basis, n_test, seed=9)
    reports = risk_monte_carlo(estimators, test)
    assert drawn == heights  # one pass over the noise for all five estimators
    for est, report in zip(estimators, reports):
        losses = _whole_losses(est, test)
        expected_se = float(np.std(losses, ddof=1)) / math.sqrt(n_test)
        assert report.mean == pytest.approx(float(np.mean(losses)), rel=1e-12, abs=0)
        assert report.std_err == pytest.approx(expected_se, rel=1e-12, abs=0)


def test_monte_carlo_small_noise_matches_extended_precision():
    # At sigma = 1e-6 each loss is ~1e-12 while y and x are ~1, so both the
    # streamed and the whole-Y scorer lose digits to cancellation; the
    # streamed reports must stay within 1e-10 relative of the losses taken in
    # np.longdouble from the same C, Z and estimator factors.
    params = ModelParams(d=3, n=40, sigma_z=1e-6)
    basis = sample_basis(40, 3, seed=8)
    estimators = _cell_estimators(params, basis)
    test = sample_dataset(params, basis, 2000, seed=9)
    reports = risk_monte_carlo(estimators, test)
    wide = np.longdouble
    u, coeff = basis.matrix.astype(wide), test.coeff.astype(wide)
    z = stream(test.seed, "noise").standard_normal((params.n, test.n_train)).astype(wide)
    x = u @ coeff
    y = x + wide(params.sigma_z) * z
    for est, report in zip(estimators, reports):
        err = est.left.astype(wide) @ (est.basis.astype(wide).T @ y) - x
        losses = np.sum(err * err, axis=0) / params.d
        mean = losses.mean()
        std_err = np.sqrt(np.sum((losses - mean) ** 2) / (losses.size - 1) / losses.size)
        assert abs(report.mean - mean) <= 1e-10 * mean
        assert abs(report.std_err - std_err) <= 1e-10 * std_err


def test_monte_carlo_memory_does_not_grow_with_the_test_draw(spy_draws):
    # Four estimators on an n = 10^4, M = 500 test set: the test Y would take
    # 40 MB.  The scorer holds the stacked bases (3.2 MB), one 4 MB block of
    # Z and one QR of [L, U] at a time, and never reads Y; measured peak 7.9 MB.
    params = ModelParams(d=10, n=10_000, sigma_z=0.1)
    basis = sample_basis(params.n, params.d, seed=4)
    cache = svd_of(sample_dataset(params, basis, 40, seed=4))
    estimators = [
        optimal_estimator(basis, params),
        pca_estimator(cache),
        gd_estimator_closed(cache, oracle_stop(cache)[0]),
        gd_estimator_closed(cache, INFINITY),
    ]
    test = sample_dataset(params, basis, 500, seed=5)
    draws = spy_draws()
    tracemalloc.start()
    try:
        reports = risk_monte_carlo(estimators, test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == []
    assert peak <= 15e6
    assert all(0.0 < report.mean < 2.0 for report in reports)


def test_monte_carlo_requires_two_test_points():
    params = ModelParams(d=2, n=10, sigma_z=0.1)
    basis = sample_basis(10, 2, seed=2)
    with pytest.raises(InsufficientDataError):
        risk_monte_carlo([optimal_estimator(basis, params)], sample_dataset(params, basis, 1, 0))


def test_monte_carlo_rejects_no_estimators_and_wrong_dimension():
    params = ModelParams(d=2, n=10, sigma_z=0.1)
    basis = sample_basis(10, 2, seed=2)
    test = sample_dataset(params, basis, 20, 0)
    with pytest.raises(DimensionError):
        risk_monte_carlo([], test)
    wrong = LinearEstimator.from_dense(np.eye(9))
    with pytest.raises(DimensionError):
        risk_monte_carlo([optimal_estimator(basis, params), wrong], test)


def test_pca_specialized_equals_generic():
    # Includes rank-deficient cases (n_train < d) where the term for the
    # missing projector directions matters, and one projector of rank above d.
    rng = np.random.default_rng(11)
    for trial in range(60):
        n = int(rng.integers(6, 40))
        d = int(rng.integers(2, min(8, n)))
        n_train = int(rng.integers(1, 30))
        sigma = float(rng.uniform(0, 0.8))
        params = ModelParams(d=d, n=n, sigma_z=sigma)
        basis = sample_basis(n, d, seed=1000 + trial)
        ds = sample_dataset(params, basis, n_train, seed=2000 + trial)
        cache = svd_of(ds)
        est = pca_estimator(cache)
        generic = risk_closed_form(est, basis, params)
        special = pca_risk_specialized(est.basis, basis, params)
        assert special == pytest.approx(generic, abs=1e-10)
    # A projector of rank r = 6 > d = 3: the noise term counts all r directions.
    params = ModelParams(d=3, n=20, sigma_z=0.5)
    basis = sample_basis(20, 3, seed=1)
    u_hat = np.linalg.qr(rng.standard_normal((20, 6)))[0]
    est = LinearEstimator.scaled_projection(1.0 / (1.0 + 0.5**2), u_hat)
    generic = risk_closed_form(est, basis, params)
    assert pca_risk_specialized(u_hat, basis, params) == pytest.approx(generic, abs=1e-10)


def test_pca_specialized_rejects_bad_shape():
    params = ModelParams(d=2, n=8, sigma_z=0.1)
    basis = sample_basis(8, 2, seed=0)
    with pytest.raises(DimensionError):
        pca_risk_specialized(np.eye(5)[:, :2], basis, params)


def test_theory_diagnostics_hand_values():
    params = ModelParams(d=10, n=1000, sigma_z=0.1)
    diag = theory_diagnostics(params, n_train=100)
    log_n = np.log(1000.0)
    assert diag.gamma == pytest.approx((10 + 1000 * 0.01) * log_n / 100, rel=1e-12)
    assert diag.psi == pytest.approx(1000 * 0.01 * log_n / 100, rel=1e-12)
    assert diag.floor == pytest.approx(0.01 / 1.01, rel=1e-12)
    with pytest.raises(InsufficientDataError):
        theory_diagnostics(params, n_train=0)
