"""Data-driven denoisers: PCA projection and gradient-descent regression.

Both families are functions of the thin SVD of the noisy training matrix
Y = U_y diag(S_y) V_y^T, so the decomposition is computed once per dataset
and shared through :class:`SvdCache`.

Gradient descent on the regression loss L(W) = ||W Y - X||_F^2 from W = 0
admits a closed form after k steps:

    W^k = X V_y D_k U_y^T,   D_k[i] = (1 - (1 - eta S_y[i]^2)^k) / S_y[i],

valid for stepsizes with eta * S_y[0]^2 <= 1.  As k -> infinity the filter
tends to 1 / S_y[i] and W^k converges to the least-squares solution
X Y^+ (the pseudoinverse estimator); early stopping keeps the filter from
inverting the small, noise-dominated singular values.  The model's clean
signal is X = U C, so X V_y = U (C V_y): the estimators take the d x N
coefficients C with the true basis U and never form X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionError, DivergenceError, InvariantError, StepsizeError
from .model import Dataset, LinearEstimator, ModelParams, SubspaceBasis

#: Distinguished iteration count meaning "run gradient descent to convergence".
INFINITY: float = math.inf

_STEPSIZE_SLACK = 1e-12  # fp slack so the default eta = 1/S[0]^2 passes its own check
_MAX_ITERATIVE_K = 500


# =====================================================================
# SVD cache
# =====================================================================


@dataclass(eq=False)
class SvdCache:
    """Thin SVD Y = U_y diag(S_y) V_y^T of a noisy training matrix.

    A decomposition route produces one singular factor and the other is
    formed from Y on first access: the direct SVD and the n x n Gram route
    store u_y, the N x N Gram route stores v_y.  Consumers that need only a
    product with the missing factor (:meth:`matmul_v`, :meth:`ut_matmul`,
    :meth:`u_matmul`, :meth:`leading_u`) get it through Y without
    materializing that factor, so nothing n x r is built unless a caller
    reads ``u_y`` itself.

    s_y      -- r retained singular values, descending, all >= rank_tol
    rank_tol -- truncation threshold max(n, N) * eps * S_y[0]
    route    -- "svd" (direct), "gram" (eigendecomposition of the small Gram,
                passing the conditioning check) or "gram-certified" (a Gram
                decomposition whose reported risks passed :func:`_gram_certified`)
    """

    s_y: np.ndarray
    rank_tol: float
    route: str
    _noisy: np.ndarray = field(repr=False)
    _u_y: np.ndarray | None = field(default=None, repr=False)
    _v_y: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._u_y is None and self._v_y is None:
            raise InvariantError("SvdCache needs at least one singular factor")

    @property
    def rank(self) -> int:
        return int(self.s_y.size)

    @property
    def shape(self) -> tuple[int, int]:
        return self._noisy.shape

    @property
    def u_y(self) -> np.ndarray:
        """n x r left singular vectors (Y V_y / S_y on first access if not stored)."""
        if self._u_y is None:
            self._u_y = (self._noisy @ self._v_y) / self.s_y
        return self._u_y

    @property
    def v_y(self) -> np.ndarray:
        """N x r right singular vectors (Y^T U_y / S_y on first access if not stored)."""
        if self._v_y is None:
            self._v_y = (self._noisy.T @ self._u_y) / self.s_y
        return self._v_y

    def matmul_v(self, a: np.ndarray) -> np.ndarray:
        """Return ``a @ v_y`` without forcing v_y to materialize.

        Uses a @ Y^T @ U_y / S_y, which for a short-and-wide Y is much
        cheaper than building the N x r factor first.
        """
        if self._v_y is not None:
            return a @ self._v_y
        return ((a @ self._noisy.T) @ self._u_y) / self.s_y

    def ut_matmul(self, a: np.ndarray) -> np.ndarray:
        """Return ``u_y.T @ a`` without forcing u_y to materialize.

        Uses diag(1/S_y) V_y^T (Y^T a), O(N n k) for an n x k ``a``.
        """
        if self._u_y is not None:
            return self._u_y.T @ a
        return (self._v_y.T @ (self._noisy.T @ a)) / self.s_y[:, None]

    def u_matmul(self, a: np.ndarray) -> np.ndarray:
        """Return ``u_y @ a`` without forcing u_y to materialize.

        Uses Y V_y diag(1/S_y) a, O(n N k) for an r x k ``a``.
        """
        if self._u_y is not None:
            return self._u_y @ a
        return self._noisy @ (self._v_y @ (a / self.s_y[:, None]))

    def leading_u(self, k: int) -> np.ndarray:
        """The first ``k`` columns of u_y, orthonormal to working precision.

        Without a stored u_y they are formed as Y V_y[:, :k] / S_y[:k], whose
        columns drift from orthonormal by up to eps * lambda_max / lambda_k
        (<= _GRAM_TOL on the "gram" route, reached when k covers the whole
        spectrum, as for N <= d; a "gram-certified" route has rank > d, so
        PCA's k = d stops above its smallest eigenvalues).  One QR
        pass, signed so that R has a positive diagonal, removes that drift
        while moving each column by no more than it.
        """
        if self._u_y is not None:
            return self._u_y[:, :k]
        q, r = np.linalg.qr((self._noisy @ self._v_y[:, :k]) / self.s_y[:k])
        return q * np.sign(np.diagonal(r))


#: Largest eps * lambda_max / lambda_min a Gram eigendecomposition may have
#: without further checks.  Eigenvalues of the Gram matrix carry absolute error
#: ~ eps * lambda_max, so each one -- and every spectral filter of it, which is
#: all the estimators and risks use -- is accurate to relative error
#: eps * kappa <= _GRAM_TOL.  1e-8 equals the relative tolerance of the
#: closed-form gates and of the route-agreement tests, and is 100x inside the
#: 1e-6 the benchmark's reference curves are checked at.  At sigma = 0.1 it
#: rejects only cells near N = n, where the smallest singular value of a
#: near-square Y collapses.  It is far stricter than the error a finite-k risk
#: sees, so a caller that reports no k = INFINITY risk may keep a rejected
#: decomposition whose reported risks :func:`_gram_certified` bounds to the
#: same relative _GRAM_TOL.
_GRAM_TOL = 1e-8


def svd_of(dataset: Dataset, finite_k_only: bool = False) -> SvdCache:
    """Thin SVD of the noisy matrix, truncated at numerical rank.

    Noisy data (sigma_z > 0) is first decomposed through the Gram matrix of
    Y's small side: the N x N Y^T Y when N < n (storing V_y, so U_y is
    formed only if a caller asks for it), the n x n Y Y^T otherwise
    (storing U_y).  Squaring Y squares its condition number, so the route
    ("gram") is kept when the run-time check eps * lambda_max / lambda_min <=
    _GRAM_TOL passes.  Noiseless data (sigma_z = 0) is exactly rank-deficient
    whenever N > d and always takes the direct LAPACK SVD ("svd").

    ``finite_k_only=True`` declares that the caller reports only the PCA risk
    and gradient-descent risks at finite k -- the oracle-stopped ESGD risk
    over :func:`default_k_grid` -- and never the k = INFINITY (PINV) risk.
    A full-rank Gram decomposition that fails the check is then kept
    ("gram-certified") when :func:`_gram_certified` bounds every one of those
    risks to relative _GRAM_TOL; this is what saves the direct SVD of
    near-square cells.  Otherwise -- near-square Y with PINV reported, tiny
    sigma_z, or any rank deficiency -- the matrix goes to the direct SVD.
    """
    y = dataset.noisy
    cache = _gram_svd(dataset, finite_k_only) if dataset.params.sigma_z > 0 else None
    return cache if cache is not None else _direct_svd(y)


def _gram_svd(dataset: Dataset, finite_k_only: bool) -> SvdCache | None:
    """Singular triples from the Gram matrix of Y's small side, or None if not trusted."""
    y = dataset.noisy
    n, n_train = y.shape
    tall = n_train < n
    gram = y.T @ y if tall else y @ y.T
    evals, evecs = np.linalg.eigh(gram)
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    ill_conditioned = np.finfo(y.dtype).eps * lam_max > _GRAM_TOL * lam_min
    if not lam_min > 0.0 or (ill_conditioned and not finite_k_only):
        return None
    s = np.sqrt(evals[::-1])
    factor = np.ascontiguousarray(evecs[:, ::-1])
    route = "gram-certified" if ill_conditioned else "gram"
    cache = _truncated(y, s, route, v=factor) if tall else _truncated(y, s, route, u=factor)
    if ill_conditioned and not _gram_certified(cache, dataset)[0]:
        return None
    return cache


def _gram_certified(cache: SvdCache, dataset: Dataset) -> tuple[bool, float]:
    """Whether a Gram decomposition gets every risk a finite-k sweep reports right.

    Returns (certified, lower bound on the k = INFINITY risk).  ``cache`` is
    the full-rank eigendecomposition G_hat = V diag(S^2) V^T of the m x m
    Gram G of Y's small side (m = min(n, N)), and the risks are those of
    :func:`gd_risk_profile` at eta = 1 / S[0]^2 over the finite k of
    :func:`default_k_grid`, and of :func:`pca_estimator`.

    Error model.  Rounding in forming G and LAPACK's backward-stable ``eigh``
    make G_hat the exact eigendecomposition of G + E with
    ||E||_F <= epsilon = c * eps * ||G_hat||_F, c = m.  This is a model, not
    a proof: a priori bounds on the Gram product grow with the inner dimension
    and ||Y||_F^2, and eigh states none with a constant.  The tests check the
    resulting bounds against the direct SVD.

    Perturbation bounds.  With eta = 1 / lambda_max(G_hat) and x = eta lambda,
    both spectra lie in [0, 2 / eta] (x in [0, 2]) as long as epsilon <=
    lambda_max, and there
      p_k(lambda) = (1 - (1 - eta lambda)^k) / lambda has Lipschitz constant
        Lp_k = eta^2 k (k - 1) / 2, and
      h_k(lambda) = lambda p_k(lambda)^2 has Lipschitz constant
        Lh_k = eta^2 k^2.
    For symmetric arguments ||f(A) - f(B)||_F <= Lip(f) ||A - B||_F.  The
    computed misfit is C p_k(G_hat) Y^T U - I on the tall route (N < n,
    G = Y^T Y) and C Y^T p_k(G_hat) U - I on the wide one (G = Y Y^T), so it
    moves by at most delta_k = ||C||_2 ||Y^T U||_2 Lp_k epsilon (tall) or
    ||C Y^T||_2 Lp_k epsilon (wide).  The computed ||W^k||_F^2 is
    tr(C h_k(G_hat) C^T) on the tall route, so it moves by at most
    nu_k = ||C||_F^2 Lh_k epsilon; on the wide route it is
    ||C Y^T p_k(G_hat)||_F^2, not a spectral function of G_hat, and
    ||W^k||_F moves by at most delta_k, so nu_k = 2 ||W^k||_F delta_k +
    delta_k^2.  Every finite-k risk is then within
      b_k = (2 ||misfit_k||_F delta_k + delta_k^2 + sigma^2 nu_k) / d
    of its exact value.  h_k rises with k to 1 / lambda, and the misfit term
    is nonnegative, so
      risk_inf >= max over finite k of (sigma^2 ||W^k||_F^2 - sigma^2 nu_k) / d.

    Rule.  With k* the argmin of the computed finite-k risks, the
    decomposition is certified when
      - b_k* <= _GRAM_TOL risk_k*;
      - every other finite k has b_k <= _GRAM_TOL risk_k, or
        risk_k - b_k > risk_k* + b_k*, so it cannot be the true argmin;
      - the k = INFINITY lower bound above exceeds risk_k* + b_k*, so the
        oracle argmin is finite and the computed risk_inf >= the computed
        risk_k* (its noise term alone exceeds the bound);
      - rank > d and Davis-Kahan certifies PCA's top-d subspace:
        epsilon / (lambda_d - lambda_{d+1} - epsilon) <= _GRAM_TOL, where
        the - epsilon covers the shift of G's own lambda_{d+1} (Weyl).  On
        the tall route Y V_d spans the PCA directions; mapping through Y
        scales the angle by s_{d+1} / s_d < 1.
    Then the reported ESGD risk (the computed minimum) and the PCA subspace
    are accurate to relative _GRAM_TOL, while the k = INFINITY risk itself is
    not certified: that is left to the conditioning check.
    """
    y, coeff, basis = dataset.noisy, dataset.coeff, dataset.basis
    d, sig2 = dataset.params.d, dataset.params.sigma_z**2
    m = min(y.shape)
    if cache.rank != m or m <= d:
        return False, 0.0
    lam = cache.s_y**2
    epsilon = m * float(np.finfo(y.dtype).eps) * float(np.sqrt(np.sum(lam * lam)))
    eta = 1.0 / float(cache.s_y[0]) ** 2  # the sweep's stepsize, to the bit
    grid = default_k_grid()[:-1]  # every k but INFINITY
    misfit2, w_norm2 = _profile_terms(cache, coeff, basis, eta, grid)
    risk = (misfit2 + sig2 * w_norm2) / d

    k = np.asarray(grid, dtype=float)
    if y.shape[1] < y.shape[0]:  # tall: G = Y^T Y
        scale = np.linalg.norm(coeff, 2) * np.linalg.norm(y.T @ basis.matrix, 2)
        delta = scale * eta**2 * k * (k - 1) / 2 * epsilon
        nu = float(np.sum(coeff * coeff)) * eta**2 * k * k * epsilon
    else:  # wide: G = Y Y^T
        delta = np.linalg.norm(coeff @ y.T, 2) * eta**2 * k * (k - 1) / 2 * epsilon
        nu = 2.0 * np.sqrt(w_norm2) * delta + delta * delta
    bound = (2.0 * np.sqrt(misfit2) * delta + delta * delta + sig2 * nu) / d
    risk_inf_floor = float(np.max(sig2 * (w_norm2 - nu))) / d

    best = int(np.argmin(risk))
    top = risk[best] + bound[best]
    settled = (bound <= _GRAM_TOL * risk) | (risk - bound > top)
    gap = float(lam[d - 1] - lam[d])
    certified = bool(
        bound[best] <= _GRAM_TOL * risk[best]
        and np.all(settled)
        and risk_inf_floor > top
        and epsilon <= _GRAM_TOL * (gap - epsilon)
    )
    return certified, risk_inf_floor


def _direct_svd(y: np.ndarray) -> SvdCache:
    """Direct LAPACK SVD; the reference route, used whenever the Gram check fails."""
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    return _truncated(y, s, "svd", u=u, v=vt.T)


def _truncated(
    y: np.ndarray, s: np.ndarray, route: str,
    u: np.ndarray | None = None, v: np.ndarray | None = None,
) -> SvdCache:
    """Keep the singular triples at or above the numerical-rank threshold."""
    if s.size == 0 or s[0] <= 0.0:
        raise InvariantError("training matrix is identically zero; no singular directions")
    rank_tol = max(y.shape) * float(np.finfo(y.dtype).eps) * float(s[0])
    r = int(np.count_nonzero(s >= rank_tol))
    return SvdCache(
        s_y=s[:r].copy(),
        rank_tol=rank_tol,
        route=route,
        _noisy=y,
        _u_y=None if u is None else np.ascontiguousarray(u[:, :r]),
        _v_y=None if v is None else np.ascontiguousarray(v[:, :r]),
    )


# =====================================================================
# PCA estimator
# =====================================================================


def pca_estimator(cache: SvdCache, params: ModelParams) -> LinearEstimator:
    """Shrunken projector onto the top-d empirical singular directions.

    Uses min(d, rank) directions, so with fewer than d training columns the
    projector is simply rank-deficient rather than an error.
    """
    r_use = min(params.d, cache.rank)
    shrink = 1.0 / (1.0 + params.sigma_z**2)
    return LinearEstimator.scaled_projection(shrink, cache.leading_u(r_use))


# =====================================================================
# Gradient descent family
# =====================================================================


@dataclass(frozen=True)
class GdConfig:
    """Stepsize and iteration count for gradient descent.

    k may be a nonnegative integer or INFINITY (run to convergence).
    """

    eta: float
    k: int | float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.eta) and self.eta > 0):
            raise StepsizeError(f"eta must be finite and > 0, got {self.eta}")
        k = self.k
        k_ok = (isinstance(k, (int, np.integer)) and k >= 0) or (
            isinstance(k, float) and math.isinf(k) and k > 0
        )
        if not k_ok:
            raise DimensionError(f"k must be a nonnegative integer or INFINITY, got {k!r}")


def default_k_grid() -> tuple[int | float, ...]:
    """Iteration grid {0, 1, 2, 4, ..., 2^20, INFINITY}.

    Geometric spacing brackets any optimal stopping time within a factor of
    two at 23 risk evaluations.
    """
    return (0, *(2**j for j in range(21)), INFINITY)


def _check_stepsize(eta: float, s_y: np.ndarray) -> None:
    top = float(s_y[0]) if s_y.size else 0.0
    if eta * top * top > 1.0 + _STEPSIZE_SLACK:
        raise StepsizeError(
            f"eta * S_y[0]^2 = {eta * top * top:.6g} exceeds the stability bound 1"
        )


def _gd_filter(s_y: np.ndarray, eta: float, k: int | float) -> np.ndarray:
    """Spectral filter D_k applied to each retained singular value."""
    if isinstance(k, float) and math.isinf(k):
        return 1.0 / s_y
    if k == 0:
        return np.zeros_like(s_y)
    base = 1.0 - eta * s_y * s_y
    return (1.0 - base ** int(k)) / s_y


def _coeff_factor(cache: SvdCache, coeff: np.ndarray, basis: SubspaceBasis) -> np.ndarray:
    """g = C V_y (d x r), after checking C is d x N for the basis and decomposition."""
    coeff = np.asarray(coeff, dtype=float)
    n, n_train = cache.shape
    if basis.matrix.shape[0] != n:
        raise DimensionError(f"basis has {basis.matrix.shape[0]} rows, expected {n}")
    if coeff.shape != (basis.d, n_train):
        raise DimensionError(
            f"coeff must be d x N = {(basis.d, n_train)}, got shape {coeff.shape}"
        )
    return cache.matmul_v(coeff)


def gd_estimator_closed(
    cache: SvdCache, coeff: np.ndarray, basis: SubspaceBasis, cfg: GdConfig
) -> LinearEstimator:
    """W^k = U C V_y D_k U_y^T, stored by its rank as the n x d pair (U R^T, Q).

    ``coeff`` is the d x N coefficient matrix C of the training signal
    X = U C the regression targets, and ``basis`` is U.  With g = C V_y,
    W^k = U B^T for the n x d matrix B = U_y D_k g^T, and its thin QR
    B = Q R gives W^k = (U R^T) Q^T.  So the factors are n x d whatever the
    rank r of Y, applying W^k costs O(n d) per column, and B is formed
    through Y without the n x r factor U_y.  k = 0 gives the zero map
    (R = 0) and k = INFINITY the pseudoinverse estimator.
    """
    g = _coeff_factor(cache, coeff, basis)
    _check_stepsize(cfg.eta, cache.s_y)
    d_k = _gd_filter(cache.s_y, cfg.eta, cfg.k)
    q, r = np.linalg.qr(cache.u_matmul(d_k[:, None] * g.T))
    return LinearEstimator(left=basis.matrix @ r.T, basis=q)


def gd_estimator_iterative(dataset: Dataset, cfg: GdConfig) -> LinearEstimator:
    """Reference implementation: k explicit gradient steps from W = 0.

    One step is W <- W + eta (X - W Y) Y^T.  Kept deliberately naive (dense
    n x n iterate, k <= 500) as the ground truth the closed form is checked
    against.
    """
    if not isinstance(cfg.k, (int, np.integer)):
        raise DimensionError("iterative reference requires a finite integer k")
    if cfg.k > _MAX_ITERATIVE_K:
        raise DimensionError(
            f"iterative reference is limited to k <= {_MAX_ITERATIVE_K}, got {cfg.k}"
        )
    x, y = dataset.clean, dataset.noisy
    n = x.shape[0]
    w = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for step in range(int(cfg.k)):
            w = w + cfg.eta * (x - w @ y) @ y.T
            if not np.all(np.isfinite(w)):
                raise DivergenceError(f"gradient descent diverged at step {step + 1}")
    return LinearEstimator.from_dense(w)


# =====================================================================
# Risk along the gradient-descent path, and oracle early stopping
# =====================================================================


def gd_risk_profile(
    cache: SvdCache,
    coeff: np.ndarray,
    basis: SubspaceBasis,
    params: ModelParams,
    eta: float,
    k_grid: Sequence[int | float],
) -> np.ndarray:
    """Exact risk of W^k for every k in ``k_grid``, without forming W^k.

    With g = C V_y (d x r) and M = U_y^T U (r x d), W^k U = U g D_k M, so the
    risk is (||g D_k M - I_d||_F^2 + sigma_z^2 sum_i D_k[i]^2 ||g e_i||^2) / d:
    every k costs O(r d^2) and no n x r intermediate is formed.  The misfit
    is summed directly rather than expanded into Gram terms, so it keeps its
    relative accuracy when the risk sits near the sigma_z^2 floor.
    """
    misfit2, w_norm2 = _profile_terms(cache, coeff, basis, eta, k_grid)
    return (misfit2 + params.sigma_z**2 * w_norm2) / params.d


def _profile_terms(
    cache: SvdCache,
    coeff: np.ndarray,
    basis: SubspaceBasis,
    eta: float,
    k_grid: Sequence[int | float],
) -> tuple[np.ndarray, np.ndarray]:
    """||g D_k M - I_d||_F^2 and ||W^k||_F^2 = sum_i D_k[i]^2 ||g e_i||^2 per k."""
    g = _coeff_factor(cache, coeff, basis)
    _check_stepsize(eta, cache.s_y)

    m = cache.ut_matmul(basis.matrix)  # U_y^T U, r x d
    col_norm2 = np.einsum("ij,ij->j", g, g)  # ||U g e_i||^2
    misfit2 = np.empty(len(k_grid))
    w_norm2 = np.empty(len(k_grid))
    for i, k in enumerate(k_grid):
        d_k = _gd_filter(cache.s_y, eta, k)
        misfit = g @ (m * d_k[:, None])
        misfit -= np.eye(basis.d)
        misfit2[i] = np.sum(misfit * misfit)
        w_norm2[i] = np.dot(d_k * d_k, col_norm2)
    return misfit2, w_norm2


def normalize_k_grid(k_grid: Sequence[int | float]) -> tuple[int | float, ...]:
    """Validate, sort ascending, and deduplicate an iteration grid."""
    cleaned: list[int | float] = []
    for k in k_grid:
        if isinstance(k, float) and math.isinf(k) and k > 0:
            cleaned.append(INFINITY)
        elif isinstance(k, (int, np.integer)) and k >= 0:
            cleaned.append(int(k))
        else:
            raise DimensionError(f"iteration counts must be nonnegative ints or INFINITY, got {k!r}")
    if not cleaned:
        raise DimensionError("iteration grid is empty")
    return tuple(sorted(set(cleaned)))


def early_stopped_estimator(
    cache: SvdCache,
    coeff: np.ndarray,
    basis: SubspaceBasis,
    params: ModelParams,
    k_grid: Sequence[int | float] | None = None,
    eta: float | None = None,
) -> tuple[LinearEstimator, int | float]:
    """Pick the risk-minimizing stopping time on the grid (oracle stopping).

    The exact closed-form risk under the true basis is evaluated at every k
    and the argmin is returned, ties resolved toward the smaller k.  The
    default stepsize eta = 1 / S_y[0]^2 saturates the stability bound.
    """
    grid = normalize_k_grid(default_k_grid() if k_grid is None else k_grid)
    if eta is None:
        eta = 1.0 / float(cache.s_y[0]) ** 2
    risks = gd_risk_profile(cache, coeff, basis, params, eta, grid)
    k_opt = grid[int(np.argmin(risks))]
    return gd_estimator_closed(cache, coeff, basis, GdConfig(eta=eta, k=k_opt)), k_opt
