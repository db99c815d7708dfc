"""Data-driven denoisers: PCA projection and gradient-descent regression.

Both families are functions of the thin SVD of the noisy training matrix
Y = U_y diag(S_y) V_y^T, so the decomposition is computed once per dataset
and shared through :class:`SvdCache`, which holds the dataset it decomposed.

Gradient descent on the regression loss L(W) = ||W Y - X||_F^2 from W = 0
runs at the cache's stepsize eta = 1 / S_y[0]^2 (:attr:`SvdCache.eta`), which
saturates the stability bound, and admits a closed form after k steps:

    W^k = X V_y D_k U_y^T,   D_k[i] = (1 - (1 - eta S_y[i]^2)^k) / S_y[i].

As k -> infinity the filter tends to 1 / S_y[i] and W^k converges to the
least-squares solution X Y^+ (the pseudoinverse estimator); early stopping
keeps the filter from inverting the small, noise-dominated singular values,
and :func:`oracle_stop` picks the risk-minimizing k on :data:`K_GRID`.  The
model's clean signal is X = U C, so X V_y = U (C V_y): the estimators read
the d x N coefficients C and the true basis U from the cache's dataset and
never form X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .blas import eigh, mapped_empty, qr_raw
from .errors import DimensionError, DivergenceError, InvariantError
from .model import Dataset, LinearEstimator, SubspaceBasis
from .risk import risk_closed_form

#: Distinguished iteration count meaning "run gradient descent to convergence".
INFINITY: float = math.inf

#: Iteration grid of oracle early stopping, {0, 1, 2, 4, ..., 2^20, INFINITY}:
#: geometric spacing brackets any optimal stopping time within a factor of two
#: at 23 risk evaluations.
K_GRID: tuple[int | float, ...] = (0, *(2**j for j in range(21)), INFINITY)

_EPS = float(np.finfo(float).eps)
_MAX_ITERATIVE_K = 500


# =====================================================================
# SVD cache
# =====================================================================


@dataclass(eq=False)
class SvdCache:
    """Thin SVD Y = U_y diag(S_y) V_y^T of a dataset's noisy training matrix.

    The cache holds the :class:`Dataset` it decomposed, and the estimator
    functions take the coefficients C, the true basis U and the model
    parameters from it.  It stores one singular factor: U_y on the direct
    SVD and n x n Gram routes, V_y on the N x N Gram route.  Every route
    also hands over g = C V_y and M = U_y^T U, formed by :func:`_truncated`
    from what the route holds.  The N x N route reads the dataset's
    :attr:`~sldlab.model.Dataset.noise_stats`, Z^T Z and W = U^T Z, in
    place of Y: so do its M and :meth:`leading_u_in_frame`, and
    its :meth:`u_matmuls` reads Y only through
    :meth:`~sldlab.model.Dataset.noisy_matmul`.  The n x n route forms Y Y^T
    and the d x n product C Y^T from one draw of Y, dropped before the
    ``eigh``; g is (C Y^T) U_y / S_y, and C Y^T is not kept.
    So no sweep builds anything n x r, and no tall Gram cell forms Y.  Either
    Gram is decomposed in place (:func:`~sldlab.blas.eigh`), so the
    decomposition holds the Gram and LAPACK's workspace, 3 m^2 floats for
    m = min(n, N), and no copy of either.

    s_y      -- r retained singular values, descending, all >= max(n, N) * eps * S_y[0]
    route    -- "svd" (direct), "gram" (eigendecomposition of the small Gram,
                passing the conditioning check) or "gram-certified" (an n x n
                Gram decomposition of an N >= n cell whose oracle stop and PCA
                passed :func:`_gram_certified`; its k = INFINITY entries come
                from :attr:`pinv_factor`)
    dataset  -- the Dataset whose noisy matrix Y was decomposed
    coeff_v  -- g = C V_y (d x r), read by the GD profile and every GD estimator
    ut_basis -- M = U_y^T U (r x d), read by the GD profile and the PCA frame
    """

    s_y: np.ndarray
    route: str
    dataset: Dataset = field(repr=False)
    coeff_v: np.ndarray = field(repr=False)
    ut_basis: np.ndarray = field(repr=False)
    _u_y: np.ndarray | None = field(default=None, repr=False)
    _v_y: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if (self._u_y is None) == (self._v_y is None):
            raise InvariantError("SvdCache holds exactly one of U_y and V_y")

    @property
    def rank(self) -> int:
        return int(self.s_y.size)

    @property
    def eta(self) -> float:
        """The gradient-descent stepsize 1 / S_y[0]^2, which saturates the stability bound."""
        return 1.0 / float(self.s_y[0]) ** 2

    @cached_property
    def pinv_factor(self) -> np.ndarray:
        """B = (C Y^+)^T (n x d), so that the PINV map is W^INFINITY = U B^T = U C Y^+.

        Formed from a Householder QR Y^T = Q R, not from the spectrum, as
        B = R^-1 (Q^T C^T), without Q: in one raw QR of [Y^T | C^T] the
        reflectors past column n touch only rows past n, so R's last d columns
        begin with (Q^T C^T)[:n].  Y is drawn straight into the first n rows
        of one C-order (n + d) x N buffer and C fills the rest; read as
        Fortran that is [Y^T | C^T], and :func:`~sldlab.blas.qr_raw` factors
        it in place, so the QR holds that one buffer and its workspace.  R is
        solved by :func:`_triangular_solve`, O(n^2 d).  B is then accurate to
        eps * kappa(Y), where the filter 1 / S_y of a Gram decomposition
        carries eps * kappa(Y)^2.  Read for the k = INFINITY entries of a
        "gram-certified" cache, which always has N >= n; a cache with N < n
        raises InvariantError.
        """
        dataset = self.dataset
        n = dataset.params.n
        if dataset.n_train < n:
            raise InvariantError(f"pinv_factor needs N >= n, got N = {dataset.n_train} < n = {n}")
        h = mapped_empty((n + dataset.params.d, dataset.n_train))
        dataset.noisy_into(h[:n])
        h[n:] = dataset.coeff
        h = qr_raw(h)
        return _triangular_solve(h[:n, :n].T, h[n:, :n].T)

    def u_matmul(self, a: np.ndarray) -> np.ndarray:
        """Return ``U_y @ a`` without forming U_y: :meth:`u_matmuls` of ``[a]``."""
        return self.u_matmuls([a])[0]

    def u_matmuls(self, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Return ``U_y @ a`` for each ``a`` of ``factors``, without forming U_y.

        Uses Y V_y diag(1/S_y) a, O(n N k) for an r x k ``a``, through one
        :meth:`~sldlab.model.Dataset.noisy_matmul` pass over the training
        noise for all the factors, so Y is not formed.
        """
        if self._u_y is not None:
            return [self._u_y @ a for a in factors]
        return self.dataset.noisy_matmul([self._v_y @ (a / self.s_y[:, None]) for a in factors])

    def leading_u(self, product: np.ndarray) -> np.ndarray:
        """The first k columns of U_y, orthonormal to working precision, from their ``product``.

        ``product`` is :meth:`u_matmul` of I[:, :k] (r x k).  With U_y stored
        it is those columns exactly.  Otherwise it is Y V_y[:, :k] / S_y[:k],
        whose columns drift from orthonormal by up to eps * lambda_max /
        lambda_k (<= _GRAM_TOL: only the N x N "gram" route, which passed the
        conditioning check, stores no U_y; reached when k covers the whole
        spectrum, as for N <= d).  One QR pass, signed so that R has a
        positive diagonal, removes that drift while moving each column by no
        more than it.
        """
        if self._u_y is not None:
            return product
        q, r = np.linalg.qr(product)
        return q * np.sign(np.diagonal(r))

    def leading_u_in_frame(self, k: int) -> np.ndarray:
        """:meth:`leading_u` in coordinates of span(U) + span(U_hat), a (d + k) x k array.

        With U_hat = U A + P the leading k columns of U_y (:meth:`leading_u`),
        P orthogonal to U, the frame is [U, F] with P = F T, so U_hat has
        coordinates [A; T] and U has [I_d; 0].  Inner products among the
        columns of U and U_hat -- all a risk reads -- are the same in these
        coordinates, and only the d x k overlap A = U^T U_hat and the k x k
        Gram P^T P are needed; T is the square root of P^T P.  Both come from
        M_k = U_y[:, :k]^T U, the first k rows of the cache's M: with U_y
        stored, A = M_k^T and P = U_hat - U A.
        Otherwise U_hat = Y B R^-1 (the QR of :meth:`leading_u`), B = V_y[:, :k]
        / S_y[:k], so M_k = B^T (C + sigma W)^T, and with E = B^T (Z^T Z - W^T W) B
        from the noise statistics (no Y),
            R^T R = B^T Y^T Y B = M_k M_k^T + sigma^2 E,   A = M_k^T R^-1,
            P^T P = sigma^2 R^-T E R^-1.
        The subspace error tr(P^T P) is thus never formed as k - ||A||_F^2,
        and keeps its relative accuracy when it is small.
        """
        m_k = self.ut_basis[:k]
        if self._u_y is not None:
            overlap = m_k.T
            perp = self._u_y[:, :k] - self.dataset.basis.matrix @ overlap
            perp_gram = perp.T @ perp
        else:
            zz, w = self.dataset.noise_stats
            sigma = self.dataset.params.sigma_z
            b = self._v_y[:, :k] / self.s_y[:k]
            wb = w @ b
            e = b.T @ (zz @ b) - wb.T @ wb
            chol = np.linalg.cholesky(m_k @ m_k.T + sigma**2 * e)
            overlap = np.linalg.solve(chol, m_k).T
            perp_gram = sigma**2 * np.linalg.solve(chol, np.linalg.solve(chol, e).T)
        lam, vec = np.linalg.eigh(perp_gram)
        return np.vstack([overlap, np.sqrt(np.clip(lam, 0.0, None))[:, None] * vec.T])


#: Rows per block of :func:`_triangular_solve`: each diagonal block is a small
#: LAPACK solve, and the rows above or below it enter by one matrix product.
_SOLVE_BLOCK = 64


def _triangular_solve(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with R x = b, for R the upper triangle of the m x m ``r``.

    Back substitution over _SOLVE_BLOCK-row blocks: each diagonal block is
    solved by LAPACK, and the rows solved before it enter by one matrix
    product, so k right-hand sides cost O(m^2 k).
    """
    m = r.shape[0]
    x = b.copy()
    for lo in reversed(range(0, m, _SOLVE_BLOCK)):
        hi = min(lo + _SOLVE_BLOCK, m)
        x[lo:hi] -= r[lo:hi, hi:] @ x[hi:]
        x[lo:hi] = np.linalg.solve(np.triu(r[lo:hi, lo:hi]), x[lo:hi])
    return x


#: Largest eps * lambda_max / lambda_min a Gram eigendecomposition may have
#: without further checks.  Eigenvalues of the Gram matrix carry absolute error
#: ~ eps * lambda_max, so each one, and every spectral filter of it, is
#: accurate to relative error eps * kappa <= _GRAM_TOL.  The check does not
#: bound the cancellation in a risk's misfit g D_k M - I when N <= d: Y^+ Y = I
#: there, so the misfit is of size sigma beside g D_k M ~ I and a risk loses
#: ~eps / sigma relative (1.4e-8 off a 50-digit PINV risk at n = 200,
#: N = d = 10, sigma = 1e-7, on a route that passed).  1e-8 equals the
#: relative tolerance of the closed-form gates and of the route-agreement
#: tests, and is 100x inside the 1e-6 the benchmark's reference curves are
#: checked at.  At sigma = 0.1 it rejects only cells near N = n, where the
#: smallest singular value of a near-square Y collapses.  It is far stricter
#: than the error a finite-k risk sees, which is why :func:`svd_of` lets
#: :func:`_gram_certified` keep a rejected n x n Gram; the log grids of the
#: sweeps put no N close enough below n for a rejected N x N Gram to matter.
_GRAM_TOL = 1e-8


def svd_of(dataset: Dataset) -> SvdCache:
    """Thin SVD of the noisy matrix, truncated at numerical rank.

    Noisy data (sigma_z > 0) is first decomposed through the Gram matrix of
    Y's small side: Y^T Y (N x N, from the noise statistics) when N < n and
    Y Y^T (n x n) otherwise; :class:`SvdCache` says what each route reads.
    Squaring Y squares its condition number, so the route ("gram") is kept
    when eps * lambda_max / lambda_min <= _GRAM_TOL.  A full-rank n x n Gram
    (N >= n) that fails that check is still kept ("gram-certified") when
    :func:`_gram_certified` bounds the risk at the finite-k argmin of
    :data:`K_GRID` and PCA's subspace to relative _GRAM_TOL, and shows that
    no other k, INFINITY included, can be the argmin.  Such a cache takes
    its k = INFINITY (PINV) risk and estimator from a QR of Y
    (:attr:`SvdCache.pinv_factor`), accurate to eps * kappa.  The
    certificate proves nothing of the other finite-k entries, though on 33
    certified near-square cells they matched the direct SVD within 4.9e-10.
    Everything else -- an N x N Gram that fails the check, a failed
    certificate, rank deficiency, sigma_z = 0 -- takes the direct SVD ("svd").
    """
    cache = _gram_svd(dataset) if dataset.params.sigma_z > 0 else None
    return cache if cache is not None else _direct_svd(dataset)


def _gram_svd(dataset: Dataset) -> SvdCache | None:
    """The Gram route of :func:`svd_of`, or None where the direct SVD must run.

    For N < n the Gram is Y^T Y = C^T C + sigma (C^T W + W^T C) + sigma^2 Z^T Z
    (Y = U C + sigma Z, W = U^T Z), so Y is not drawn.  The Gram is
    decomposed in place by :func:`~sldlab.blas.eigh`, so the eigenvectors
    overwrite it and the decomposition holds it and LAPACK's 2 m^2 workspace
    (m = min(n, N)); :func:`_truncated` copies the kept factor out of it.
    Returning None frees the eigenvectors before the direct SVD allocates
    its own.
    """
    tall = dataset.n_train < dataset.params.n
    gram, coeff_yt = (_tall_gram(dataset), None) if tall else _wide_gram(dataset)
    evals, evecs = eigh(gram)  # in place, evecs is gram's buffer; numpy's would be a copy
    del gram
    lam_min, lam_max = float(evals[0]), float(evals[-1])
    ill_conditioned = _EPS * lam_max > _GRAM_TOL * lam_min
    if not lam_min > 0.0 or (ill_conditioned and tall):
        return None
    s, factor = np.sqrt(evals[::-1]), evecs[:, ::-1]  # _truncated copies the factor
    route = "gram-certified" if ill_conditioned else "gram"
    u, v = (None, factor) if tall else (factor, None)
    cache = _truncated(dataset, s, route, u=u, v=v, coeff_yt=coeff_yt)
    if ill_conditioned and not _gram_certified(cache)[0]:
        return None
    return cache


def _tall_gram(dataset: Dataset) -> np.ndarray:
    """Y^T Y from C, W = U^T Z and Z^T Z; one N x N scratch array."""
    coeff, sigma = dataset.coeff, dataset.params.sigma_z
    zz, w = dataset.noise_stats
    gram = coeff.T @ coeff
    scratch = coeff.T @ w
    scratch *= sigma
    gram += scratch
    gram += scratch.T
    np.multiply(zz, sigma * sigma, out=scratch)
    gram += scratch
    return gram


def _wide_gram(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Y Y^T (n x n) and C Y^T (d x n) from one draw of Y."""
    y = dataset.noisy
    return y @ y.T, dataset.coeff @ y.T


def _gram_certified(cache: SvdCache) -> tuple[bool, float]:
    """Whether an n x n Gram decomposition gets the oracle stop of the grid, and PCA, right.

    Returns (certified, lower bound on the k = INFINITY risk).  ``cache`` is
    the full-rank eigendecomposition G_hat = U_y diag(S^2) U_y^T of the
    n x n Gram G = Y Y^T of its dataset's Y (N >= n), and the risks are
    those of :func:`gd_risk_profile` at ``cache.eta`` = 1 / S[0]^2 over the
    finite k of :data:`K_GRID`, and of :func:`pca_estimator`.  The profile
    terms read g = C V_y and M = U_y^T U from the cache, so a kept
    decomposition hands them on to the sweep.  So does the operator norm
    below: g S = (C Y^T) U_y, so ||g S||_2 = ||C Y^T||_2 when U_y is square
    and orthogonal, that is at rank = n, which the rule requires (a cache of
    lower rank, and so any cache with N < n, is never certified).

    Error model.  Rounding in forming G and LAPACK's backward-stable ``eigh``
    make G_hat the exact eigendecomposition of G + E with
    ||E||_F <= epsilon = c * eps * ||G_hat||_F, c = n.  This is a model, not
    a proof: a priori bounds on the Gram product grow with the inner dimension
    and ||Y||_F^2, and eigh states none with a constant.  The tests check the
    resulting bounds against the direct SVD.

    Perturbation bounds.  With eta = 1 / lambda_max(G_hat) and x = eta lambda,
    both spectra lie in [0, 2 / eta] (x in [0, 2]) as long as epsilon <=
    lambda_max, and there
      p_k(lambda) = (1 - (1 - eta lambda)^k) / lambda has Lipschitz constant
        Lp_k = eta^2 k (k - 1) / 2.
    For symmetric arguments ||f(A) - f(B)||_F <= Lip(f) ||A - B||_F.  The
    computed misfit is C Y^T p_k(G_hat) U - I, so it moves by at most
    delta_k = ||C Y^T||_2 Lp_k epsilon.  The computed ||W^k||_F^2 is
    ||C Y^T p_k(G_hat)||_F^2, and ||W^k||_F moves by at most delta_k, so
    ||W^k||_F^2 moves by at most nu_k = 2 ||W^k||_F delta_k + delta_k^2.
    Every finite-k risk is then within
      b_k = (2 ||misfit_k||_F delta_k + delta_k^2 + sigma^2 nu_k) / d
    of its exact value.  The exact noise term sigma^2 ||W^k||_F^2 / d is
    sigma^2 tr(C h_k(Y^T Y) C^T) / d with h_k(lambda) = lambda p_k(lambda)^2,
    which rises with k to 1 / lambda, and the misfit term is nonnegative, so
    every k, finite or INFINITY, has the running noise bound
      risk_k >= floor_k = max over finite k' <= k of
                          (sigma^2 ||W^k'||_F^2 - sigma^2 nu_k') / d,
    and risk_inf >= floor at the largest finite k.

    Rule.  With k* the argmin of the computed finite-k risks, the
    decomposition is certified when
      - b_k* <= _GRAM_TOL risk_k*;
      - every other finite k has b_k <= _GRAM_TOL risk_k, or
        risk_k - b_k > risk_k* + b_k*, or floor_k > risk_k* + b_k*, so it
        cannot be the true argmin (the last settles the large k, whose b_k
        grows as k^2 while the noise term has levelled off);
      - the k = INFINITY lower bound above exceeds risk_k* + b_k*, so the
        oracle argmin is finite and the computed risk_inf >= the computed
        risk_k* (its noise term alone exceeds the bound);
      - Davis-Kahan certifies PCA's top-d subspace (rank n > d, so
        lambda_{d+1} exists): epsilon / (lambda_d - lambda_{d+1} - epsilon)
        <= _GRAM_TOL, where the - epsilon covers the shift of G's own
        lambda_{d+1} (Weyl).
    Then the reported ESGD risk (the computed minimum) and the PCA subspace
    are accurate to relative _GRAM_TOL; any other finite-k entry is either as
    accurate or cannot be the argmin, which is all the certificate says of
    it.  The spectral k = INFINITY risk is not certified: a kept cache takes
    that entry from a QR of Y (:attr:`SvdCache.pinv_factor`), and
    :func:`oracle_stop` searches the finite k alone, since the lower bound
    shows that INFINITY is not the argmin.
    """
    params = cache.dataset.params
    d, n, sig2 = params.d, params.n, params.sigma_z**2
    if cache.rank != n:
        return False, 0.0
    lam = cache.s_y**2
    epsilon = n * _EPS * float(np.sqrt(np.sum(lam * lam)))
    eta = cache.eta
    grid = K_GRID[:-1]  # every k but INFINITY
    misfit2, w_norm2 = _profile_terms(cache, grid)
    risk = (misfit2 + sig2 * w_norm2) / d

    k = np.asarray(grid, dtype=float)
    delta = np.linalg.norm(cache.coeff_v * cache.s_y, 2) * eta**2 * k * (k - 1) / 2 * epsilon
    nu = 2.0 * np.sqrt(w_norm2) * delta + delta * delta
    bound = (2.0 * np.sqrt(misfit2) * delta + delta * delta + sig2 * nu) / d
    noise_floor = np.maximum.accumulate(sig2 * (w_norm2 - nu)) / d
    risk_inf_floor = float(noise_floor[-1])

    best = int(np.argmin(risk))
    top = risk[best] + bound[best]
    settled = (bound <= _GRAM_TOL * risk) | (risk - bound > top) | (noise_floor > top)
    gap = float(lam[d - 1] - lam[d])
    certified = bool(
        bound[best] <= _GRAM_TOL * risk[best]
        and np.all(settled)
        and risk_inf_floor > top
        and epsilon <= _GRAM_TOL * (gap - epsilon)
    )
    return certified, risk_inf_floor


def _direct_svd(dataset: Dataset) -> SvdCache:
    """Direct LAPACK SVD of Y; the reference route, used whenever the Gram check fails."""
    u, s, vt = np.linalg.svd(dataset.noisy, full_matrices=False)
    return _truncated(dataset, s, "svd", u=u, v=vt.T)


def _truncated(
    dataset: Dataset, s: np.ndarray, route: str,
    u: np.ndarray | None = None, v: np.ndarray | None = None, coeff_yt: np.ndarray | None = None,
) -> SvdCache:
    """Keep the singular triples at or above the numerical-rank threshold, with g and M.

    g = C V_y and M = U_y^T U come from what the route holds: V_y, or the
    n x n route's ``coeff_yt`` = C Y^T as (C Y^T) U_y / S_y; U_y, or the noise
    statistics as S_y^-1 V_y^T (Y^T U), so the N x N route draws no Y.  The
    direct SVD's V_y is dropped once it has given g: nothing else reads it.
    """
    if s.size == 0 or s[0] <= 0.0:
        raise InvariantError("training matrix is identically zero; no singular directions")
    tol = max(dataset.params.n, dataset.n_train) * _EPS * float(s[0])
    r = int(np.count_nonzero(s >= tol))
    s, coeff = s[:r].copy(), dataset.coeff
    u = None if u is None else np.ascontiguousarray(u[:, :r])
    v = None if v is None else np.ascontiguousarray(v[:, :r])
    g = coeff @ v if v is not None else (coeff_yt @ u) / s
    if u is not None:
        m, v = u.T @ dataset.basis.matrix, None
    else:  # Y^T U = C^T + sigma W^T
        m = (v.T @ (coeff.T + dataset.params.sigma_z * dataset.noise_stats[1].T)) / s[:, None]
    return SvdCache(s_y=s, route=route, dataset=dataset, coeff_v=g, ut_basis=m, _u_y=u, _v_y=v)


# =====================================================================
# PCA estimator
# =====================================================================


def u_products(
    cache: SvdCache, ks: Sequence[int | float], pca: bool = False
) -> list[np.ndarray | None]:
    """The U_y products the GD maps at ``ks`` and, with ``pca``, the PCA map read.

    One per k, B = U_y D_k g^T for :func:`gd_estimator_closed` (None for a k
    whose B is :attr:`SvdCache.pinv_factor`), then U_y I[:, :k] for the
    k = min(d, rank) leading directions of :func:`pca_estimator`.  All come
    from one :meth:`SvdCache.u_matmuls`: without a stored U_y that streams
    the training noise once, so a cell's ESGD, PINV and PCA maps are built
    from one pass over Z, not three.  Each product multiplies its own
    factor, so none depends on the others formed with it.
    """
    rights = [None if _pinv_by_qr(cache, k) else _gd_filter(cache, k)[:, None] * cache.coeff_v.T
              for k in ks]
    if pca:
        rights.append(np.eye(cache.rank, min(cache.dataset.params.d, cache.rank)))
    products = iter(cache.u_matmuls([a for a in rights if a is not None]))
    return [None if a is None else next(products) for a in rights]


def pca_estimator(
    cache: SvdCache, frame: bool = False, product: np.ndarray | None = None
) -> LinearEstimator:
    """Shrunken projector onto the top-d empirical singular directions.

    Uses min(d, rank) directions, so with fewer than d training columns the
    projector is simply rank-deficient rather than an error.  Their
    ``product`` U_y I[:, :k] is formed by :func:`u_products`, here when the
    caller has not.  ``frame=True`` gives the same map in the coordinates of
    :meth:`SvdCache.leading_u_in_frame`, where U is [I_d; 0]: what
    :func:`pca_risk` scores.
    """
    params = cache.dataset.params
    shrink = 1.0 / (1.0 + params.sigma_z**2)
    if frame:
        u_hat = cache.leading_u_in_frame(min(params.d, cache.rank))
    else:
        if product is None:
            (product,) = u_products(cache, (), pca=True)
        u_hat = cache.leading_u(product)
    return LinearEstimator.scaled_projection(shrink, u_hat)


def pca_risk(cache: SvdCache) -> float:
    """Exact risk of :func:`pca_estimator`, scored without reading Y.

    The risk (||(W - I) U||_F^2 + sigma^2 ||W||_F^2) / d of W = s U_hat U_hat^T
    depends only on inner products among the columns of U and U_hat, so
    :func:`~sldlab.risk.risk_closed_form` gives it in the (d + r)-dimensional
    coordinates of :meth:`SvdCache.leading_u_in_frame`.  In terms of the
    subspace error e of U_hat it is the closed form of
    :func:`~sldlab.risk.pca_risk_specialized`.
    """
    params = cache.dataset.params
    estimator = pca_estimator(cache, frame=True)
    frame_basis = SubspaceBasis(np.eye(estimator.ambient_dim, params.d))
    return risk_closed_form(estimator, frame_basis, params)


# =====================================================================
# Gradient descent family
# =====================================================================


def _check_k(k: int | float) -> None:
    """Accept an iteration count: a nonnegative int or INFINITY."""
    if not (k == INFINITY or (isinstance(k, (int, np.integer)) and k >= 0)):
        raise DimensionError(f"iteration counts must be nonnegative ints or INFINITY, got {k!r}")


def _gd_filter(cache: SvdCache, k: int | float) -> np.ndarray:
    """Spectral filter D_k at ``cache.eta``, applied to each retained singular value."""
    _check_k(k)
    s_y = cache.s_y
    if k == INFINITY:
        return 1.0 / s_y
    base = 1.0 - cache.eta * s_y * s_y
    return (1.0 - base ** int(k)) / s_y


def gd_estimator_closed(
    cache: SvdCache, k: int | float, b: np.ndarray | None = None
) -> LinearEstimator:
    """W^k = U C V_y D_k U_y^T, stored by its rank as the n x d pair (U R^T, Q).

    The regression targets the cache's clean signal X = U C, with C the
    d x N coefficients and U the true basis.  With g = C V_y,
    W^k = U B^T for the n x d matrix B = U_y D_k g^T, and its thin QR
    B = Q R gives W^k = (U R^T) Q^T.  So the factors are n x d whatever the
    rank r of Y, applying W^k costs O(n d) per column, and B is formed
    through Y without the n x r factor U_y, by :func:`u_products` (here
    when the caller passes no ``b``).  k = 0 gives the zero map (R = 0) and
    k = INFINITY the pseudoinverse estimator, whose B on a "gram-certified"
    cache is :attr:`SvdCache.pinv_factor`.
    """
    _check_k(k)
    if _pinv_by_qr(cache, k):
        b = cache.pinv_factor
    elif b is None:
        (b,) = u_products(cache, (k,))
    q, r = np.linalg.qr(b)
    return LinearEstimator(left=cache.dataset.basis.matrix @ r.T, basis=q)


def _pinv_by_qr(cache: SvdCache, k: int | float) -> bool:
    """Whether the k = INFINITY entry of ``cache`` comes from :attr:`SvdCache.pinv_factor`."""
    return k == INFINITY and cache.route == "gram-certified"


def gd_estimator_iterative(dataset: Dataset, eta: float, k: int) -> LinearEstimator:
    """Reference implementation: k explicit gradient steps from W = 0.

    One step is W <- W + eta (X - W Y) Y^T.  Kept deliberately naive (dense
    n x n iterate, finite k <= 500) as the ground truth the closed form is
    checked against, so it takes any stepsize: one beyond the stability
    bound diverges, and that is detected.
    """
    _check_k(k)
    if k > _MAX_ITERATIVE_K:
        raise DimensionError(f"iterative reference is limited to finite k <= {_MAX_ITERATIVE_K}, got {k}")
    x, y = dataset.clean, dataset.noisy
    n = x.shape[0]
    w = np.zeros((n, n))
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is caught below
        for step in range(int(k)):
            w = w + eta * (x - w @ y) @ y.T
            if not np.all(np.isfinite(w)):
                raise DivergenceError(f"gradient descent diverged at step {step + 1}")
    return LinearEstimator.from_dense(w)


# =====================================================================
# Risk along the gradient-descent path, and oracle early stopping
# =====================================================================


def gd_risk_profile(cache: SvdCache, k_grid: Sequence[int | float]) -> np.ndarray:
    """Exact risk of W^k for every k in ``k_grid``, without forming W^k.

    With g = C V_y (d x r) and M = U_y^T U (r x d), W^k U = U g D_k M, so the
    risk is (||g D_k M - I_d||_F^2 + sigma_z^2 sum_i D_k[i]^2 ||g e_i||^2) / d:
    every k costs O(r d^2) and no n x r intermediate is formed.  The misfit
    is summed directly rather than expanded into Gram terms, so it keeps its
    relative accuracy when the risk sits near the sigma_z^2 floor.  On a
    "gram-certified" cache the k = INFINITY entry is
    (||B^T U - I_d||_F^2 + sigma_z^2 ||B||_F^2) / d with B =
    :attr:`SvdCache.pinv_factor`.  The certificate covers only that entry and
    the finite-k argmin: k = 2^20 was 2.6e-8 off at sigma = 1e50, n = N = 100.
    """
    params = cache.dataset.params
    misfit2, w_norm2 = _profile_terms(cache, k_grid)
    return (misfit2 + params.sigma_z**2 * w_norm2) / params.d


def _profile_terms(cache: SvdCache, k_grid: Sequence[int | float]) -> tuple[np.ndarray, np.ndarray]:
    """||W^k U - U||_F^2 and ||W^k||_F^2 per k, as :func:`gd_risk_profile` describes."""
    g, m = cache.coeff_v, cache.ut_basis
    col_norm2 = np.einsum("ij,ij->j", g, g)  # ||U g e_i||^2
    misfit2 = np.empty(len(k_grid))
    w_norm2 = np.empty(len(k_grid))
    for i, k in enumerate(k_grid):
        if _pinv_by_qr(cache, k):
            b = cache.pinv_factor
            misfit = b.T @ cache.dataset.basis.matrix
            w_norm2[i] = np.sum(b * b)
        else:
            d_k = _gd_filter(cache, k)
            misfit = g @ (m * d_k[:, None])
            w_norm2[i] = np.dot(d_k * d_k, col_norm2)
        misfit -= np.eye(g.shape[0])
        misfit2[i] = np.sum(misfit * misfit)
    return misfit2, w_norm2


def oracle_stop(cache: SvdCache) -> tuple[int | float, float]:
    """The oracle stopping time k_opt on :data:`K_GRID` and its exact risk.

    The argmin of :func:`gd_risk_profile` over the grid, ties going to the
    smaller k.  A "gram-certified" cache leaves INFINITY out: its
    certificate has shown that INFINITY is not the argmin, so the search
    never reads :attr:`SvdCache.pinv_factor`.  The estimator is
    ``gd_estimator_closed(cache, k_opt)``.
    """
    grid = K_GRID[:-1] if cache.route == "gram-certified" else K_GRID
    risks = gd_risk_profile(cache, grid)
    best = int(np.argmin(risks))
    return grid[best], float(risks[best])
