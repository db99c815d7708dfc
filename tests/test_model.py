"""Model containers, samplers, and the optimal denoiser."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from sldlab import model
from sldlab.errors import DimensionError, EmptyDataError, InvariantError
from sldlab.model import (
    Dataset,
    LinearEstimator,
    ModelParams,
    SubspaceBasis,
    optimal_estimator,
    optimal_risk,
    sample_basis,
    sample_dataset,
)
from sldlab.risk import risk_closed_form
from sldlab.rng import stream


# --- parameters ---------------------------------------------------------


def test_params_accept_valid():
    p = ModelParams(d=3, n=10, sigma_z=0.1)
    assert (p.d, p.n, p.sigma_z) == (3, 10, 0.1)


@pytest.mark.parametrize(
    "d,n,sigma",
    [
        (0, 10, 0.1),   # d below 1
        (10, 10, 0.1),  # d not strictly below n
        (11, 10, 0.1),
        (3, 10, -0.5),
        (3, 10, float("nan")),
        (3, 10, float("inf")),
        (3, 10, 1e51),  # above SIGMA_MAX
        (2.5, 10, 0.1),
    ],
)
def test_params_reject_invalid(d, n, sigma):
    with pytest.raises(DimensionError):
        ModelParams(d=d, n=n, sigma_z=sigma)


# --- basis sampling -----------------------------------------------------


def test_sample_basis_is_orthonormal():
    u = sample_basis(50, 7, seed=3).matrix
    gram = u.T @ u
    assert np.max(np.abs(gram - np.eye(7))) < 1e-12


def test_sample_basis_deterministic_and_seed_sensitive():
    a = sample_basis(30, 4, seed=11).matrix
    b = sample_basis(30, 4, seed=11).matrix
    c = sample_basis(30, 4, seed=12).matrix
    assert np.array_equal(a, b)
    assert not np.allclose(a, c)


def test_sample_basis_sign_convention_is_fixed():
    # QR sign ambiguity is resolved, so the basis is a pure function of the
    # seed; re-deriving it from the same Gaussian draw must match exactly.
    g = stream(5, "basis").standard_normal((20, 3))
    q, r = np.linalg.qr(g, mode="reduced")
    q = q * np.where(np.diag(r) >= 0, 1.0, -1.0)
    assert np.array_equal(sample_basis(20, 3, seed=5).matrix, q)


def test_sample_basis_rejects_bad_dims():
    with pytest.raises(DimensionError):
        sample_basis(5, 5, seed=0)
    with pytest.raises(DimensionError):
        sample_basis(5, 0, seed=0)


def test_subspace_basis_rejects_non_orthonormal():
    with pytest.raises(InvariantError):
        SubspaceBasis(matrix=np.ones((6, 2)))


# --- dataset sampling ---------------------------------------------------


def test_sample_dataset_shapes_and_span():
    params = ModelParams(d=4, n=25, sigma_z=0.3)
    basis = sample_basis(25, 4, seed=1)
    ds = sample_dataset(params, basis, n_train=40, seed=9)
    assert ds.coeff.shape == (4, 40)
    assert ds.clean.shape == ds.noisy.shape == (25, 40)
    assert ds.n_train == 40
    assert ds.basis is basis
    # X = U C lies in span(U) by construction.
    u = basis.matrix
    assert np.linalg.norm(ds.clean - u @ (u.T @ ds.clean)) <= 1e-13 * np.linalg.norm(ds.clean)


def test_sample_dataset_noise_statistics():
    # ||Z||_F^2 / sigma^2 is chi-squared with n*N degrees of freedom.
    params = ModelParams(d=2, n=40, sigma_z=0.7)
    basis = sample_basis(40, 2, seed=2)
    ds = sample_dataset(params, basis, n_train=500, seed=3)
    dof = 40 * 500
    stat = float(np.sum((ds.noisy - ds.clean) ** 2)) / params.sigma_z**2
    assert abs(stat - dof) < 6.0 * np.sqrt(2.0 * dof)


def test_sample_dataset_noise_rescales_with_sigma():
    # The same seed draws the same underlying noise; sigma only scales it.
    basis = sample_basis(15, 3, seed=4)
    ds_a = sample_dataset(ModelParams(3, 15, 0.1), basis, 20, seed=8)
    ds_b = sample_dataset(ModelParams(3, 15, 0.4), basis, 20, seed=8)
    assert np.array_equal(ds_a.clean, ds_b.clean)
    za = (ds_a.noisy - ds_a.clean) / 0.1
    zb = (ds_b.noisy - ds_b.clean) / 0.4
    assert np.allclose(za, zb, atol=1e-12)


@pytest.mark.parametrize("sigma", [1e-7, 0.3, 2.5])
@pytest.mark.parametrize(
    "n, d, n_train", [(25, 4, 40), (100, 10, 7), (8, 3, 1), (300, 5, 300), (10_000, 10, 500)]
)
def test_sample_dataset_is_basis_coeff_plus_scaled_noise(n, d, n_train, sigma):
    # C is the "coeff" stream bit for bit and X is U C.  Y is filled over row
    # blocks of the noise draw with U[rows] C added to each, which can round
    # differently from one whole product U C.
    basis = sample_basis(n, d, seed=n)
    ds = sample_dataset(ModelParams(d, n, sigma), basis, n_train, seed=11)
    coeff = stream(11, "coeff").standard_normal((d, n_train))
    noise = stream(11, "noise").standard_normal((n, n_train))
    assert np.array_equal(ds.coeff, coeff)
    assert np.array_equal(ds.clean, basis.matrix @ ds.coeff)
    expected = sigma * noise + basis.matrix @ coeff
    assert np.linalg.norm(ds.noisy - expected) <= 1e-15 * np.linalg.norm(expected)


@pytest.mark.parametrize("n, n_train", [(10_000, 500), (1000, 2000)])
def test_sample_dataset_draws_only_the_coefficients(spy_draws, n, n_train):
    # A draw is its coefficients C (d x N) and its seed: Y and the noise
    # statistics are drawn on first read, so sampling a tall or a wide
    # dataset allocates little more than C (40 KB and 160 KB here).
    d = 10
    basis = sample_basis(n, d, seed=3)
    draws = spy_draws()
    tracemalloc.start()
    try:
        ds = sample_dataset(ModelParams(d, n, 0.1), basis, n_train, seed=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws == [] and "noise_stats" not in vars(ds)
    assert peak <= 1.2 * 8 * d * n_train + 16_384


@pytest.mark.parametrize("n, d, n_train", [(10_000, 10, 500), (100, 3, 7), (50, 2, 1)])
def test_streamed_draw_matches_one_whole_draw(n, d, n_train):
    # noise_stats sums Z^T Z and W = U^T Z over row blocks of Z (ten blocks,
    # the last one short, at n = 10^4, N = 500).  They match the products of
    # one whole draw.  noisy fills Y over the same blocks, bit for bit
    # sigma Z[rows] + U[rows] C, on each read and without keeping it, so
    # reading the statistics first or Y first gives the same arrays.
    sigma = 0.3
    params, basis = ModelParams(d, n, sigma), sample_basis(n, d, seed=n)
    stats_first = sample_dataset(params, basis, n_train, seed=5)
    noisy_first = sample_dataset(params, basis, n_train, seed=5)
    z = stream(5, "noise").standard_normal((n, n_train))
    gram, proj = stats_first.noise_stats
    for kept, product in [(gram, z.T @ z), (proj, basis.matrix.T @ z)]:
        assert np.linalg.norm(kept - product) <= 1e-14 * np.linalg.norm(product)
    height = model._STREAM_BYTES // (8 * n_train)
    expected = np.empty((n, n_train))
    for lo in range(0, n, height):
        rows = slice(lo, lo + height)
        expected[rows] = sigma * z[rows] + basis.matrix[rows] @ noisy_first.coeff
    y = noisy_first.noisy
    assert np.array_equal(y, expected)
    assert "noise_stats" not in vars(noisy_first)
    assert np.array_equal(stats_first.noisy, expected)
    for a, b in zip(stats_first.noise_stats, noisy_first.noise_stats):
        assert np.array_equal(a, b)
    assert noisy_first.noise_stats is noisy_first.noise_stats  # kept once read
    assert noisy_first.noisy is not y and "noisy" not in vars(noisy_first)  # drawn on each read


def test_sample_dataset_zero_noise_copies():
    basis = sample_basis(12, 2, seed=0)
    ds = sample_dataset(ModelParams(2, 12, 0.0), basis, 6, seed=1)
    y = ds.noisy
    assert np.array_equal(ds.clean, y)
    y[0, 0] += 1.0  # a read of Y must alias neither the clean matrix nor the next read
    assert ds.clean[0, 0] != y[0, 0]
    assert np.array_equal(ds.clean, ds.noisy)


def test_sample_dataset_rejects_empty():
    basis = sample_basis(12, 2, seed=0)
    with pytest.raises(EmptyDataError):
        sample_dataset(ModelParams(2, 12, 0.1), basis, 0, seed=1)


def test_sample_dataset_rejects_mismatched_basis():
    basis = sample_basis(12, 2, seed=0)
    with pytest.raises(DimensionError):
        sample_dataset(ModelParams(3, 12, 0.1), basis, 5, seed=1)


def test_dataset_rejects_shape_mismatch():
    params = ModelParams(2, 6, 0.1)
    basis = sample_basis(6, 2, seed=0)
    with pytest.raises(DimensionError):  # basis of another dimension
        Dataset(coeff=np.zeros((2, 4)), params=params, basis=sample_basis(6, 3, seed=0), seed=0)
    with pytest.raises(DimensionError):  # basis of another ambient dimension
        Dataset(coeff=np.zeros((2, 4)), params=params, basis=sample_basis(7, 2, seed=0), seed=0)
    with pytest.raises(EmptyDataError):
        Dataset(coeff=np.zeros((2, 0)), params=params, basis=basis, seed=0)


def test_dataset_rejects_wrong_coeff_shape():
    # A clean matrix passed where the d x N coefficients belong must not be
    # taken for them, nor may any other shape but d x N.
    params = ModelParams(2, 10, 0.0)
    basis = sample_basis(10, 2, seed=1)
    for shape in [(10, 3), (3, 3), (1, 3), (3,)]:
        with pytest.raises(DimensionError):
            Dataset(coeff=np.ones(shape), params=params, basis=basis, seed=0)


# --- linear estimators --------------------------------------------------


def test_estimator_factored_matches_dense():
    rng = np.random.default_rng(0)
    b, _ = np.linalg.qr(rng.standard_normal((9, 3)))
    est = LinearEstimator.scaled_projection(0.8, b)
    y = rng.standard_normal((9, 5))
    assert np.allclose(est.as_matrix() @ y, 0.8 * b @ (b.T @ y), atol=1e-13)
    assert np.array_equal(est.basis, b) and np.array_equal(est.left, 0.8 * b)
    assert est.rank == 3 and est.ambient_dim == 9


def test_estimator_dense_roundtrip():
    w = np.arange(16.0).reshape(4, 4)
    est = LinearEstimator.from_dense(w)
    assert np.array_equal(est.left, w) and np.array_equal(est.basis, np.eye(4))
    assert est.rank == 4 and est.ambient_dim == 4
    assert np.array_equal(est.as_matrix(), w)


def test_estimator_construction_errors():
    with pytest.raises(DimensionError):
        LinearEstimator.from_dense(np.zeros((3, 4)))
    with pytest.raises(DimensionError):
        LinearEstimator.scaled_projection(1.0, np.zeros((3, 4)))  # r > n
    with pytest.raises(DimensionError):
        LinearEstimator.scaled_projection(float("inf"), np.eye(3)[:, :1])
    with pytest.raises(InvariantError):
        LinearEstimator.scaled_projection(1.0, np.ones((4, 2)))
    with pytest.raises(DimensionError):
        LinearEstimator(left=np.zeros((4, 2)), basis=np.eye(4)[:, :3])  # factors disagree


# --- the optimal denoiser ----------------------------------------------


def test_optimal_risk_hand_values():
    assert optimal_risk(ModelParams(2, 8, 0.0)) == 0.0
    assert optimal_risk(ModelParams(2, 8, 1.0)) == pytest.approx(0.5, abs=1e-15)
    assert optimal_risk(ModelParams(2, 8, 0.2)) == pytest.approx(0.04 / 1.04, abs=1e-15)


def test_optimal_estimator_form():
    params = ModelParams(3, 20, 0.5)
    basis = sample_basis(20, 3, seed=6)
    w = optimal_estimator(basis, params)
    assert np.array_equal(w.basis, basis.matrix)
    assert np.allclose(w.left, basis.matrix / 1.25, rtol=0, atol=1e-15)
    proj = basis.matrix @ basis.matrix.T
    assert np.allclose(w.as_matrix(), proj / 1.25, atol=1e-13)


def test_optimal_estimator_is_a_risk_minimum():
    # Random perturbations of W*, at several magnitudes, never do better.
    params = ModelParams(4, 30, 0.3)
    basis = sample_basis(30, 4, seed=7)
    w_star = optimal_estimator(basis, params).as_matrix()
    base = risk_closed_form(LinearEstimator.from_dense(w_star), basis, params)
    assert base == pytest.approx(optimal_risk(params), abs=1e-14)
    rng = np.random.default_rng(123)
    for _ in range(250):
        eps = 10.0 ** rng.uniform(-4, 0)
        g = rng.standard_normal((30, 30))
        perturbed = LinearEstimator.from_dense(w_star + eps * g / np.linalg.norm(g))
        assert risk_closed_form(perturbed, basis, params) >= base
