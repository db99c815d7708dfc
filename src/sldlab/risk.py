"""Exact and Monte-Carlo risk evaluation for linear denoisers.

For the subspace model the per-coordinate prediction risk of a linear map W
has the closed form

    R(W) = (1/d) ||(W - I) U||_F^2  +  (sigma_z^2 / d) ||W||_F^2,

an exact average over both the coefficient and the noise distribution -- no
test sampling required.  Every estimator is stored as W = L B^T with B
orthonormal (n x r), so ||W||_F = ||L||_F and the same quantity is

    R = (1/d) ||L (B^T U) - U||_F^2  +  (sigma_z^2 / d) ||L||_F^2,

which this module evaluates in O(n r d) without ever materializing W.

:func:`risk_monte_carlo` checks it on a held-out test draw: one streamed pass
over the test noise scores all the estimators of a cell, and the test Y is
never formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionError, InsufficientDataError
from .model import Dataset, LinearEstimator, ModelParams, SubspaceBasis, optimal_risk

@dataclass(frozen=True)
class RiskReport:
    """Monte-Carlo risk estimate: sample mean, its standard error, test size."""

    mean: float
    std_err: float
    n_test: int


@dataclass(frozen=True)
class TheoryDiagnostics:
    """Sample-complexity diagnostics for a training budget N.

    gamma -- (d + n sigma_z^2) * log(n) / N, the rate that controls how fast
             excess risk decays (log is natural)
    psi   -- n sigma_z^2 * log(n) / N, the noise-dominated part of gamma
    floor -- sigma_z^2 / (1 + sigma_z^2), risk of the optimal estimator
    """

    gamma: float
    psi: float
    floor: float


def risk_closed_form(
    estimator: LinearEstimator, basis: SubspaceBasis, params: ModelParams
) -> float:
    """Exact risk of ``estimator`` under the model (basis, params)."""
    u = basis.matrix
    if estimator.ambient_dim != u.shape[0]:
        raise DimensionError(
            f"estimator acts on R^{estimator.ambient_dim} but basis has {u.shape[0]} rows"
        )
    left = estimator.left
    misfit = left @ (estimator.basis.T @ u)
    misfit -= u
    noise = params.sigma_z**2 * float(np.sum(left * left))  # ||W||_F = ||left||_F
    return (float(np.sum(misfit * misfit)) + noise) / params.d


def risk_monte_carlo(
    estimators: Sequence[LinearEstimator], test: Dataset
) -> tuple[RiskReport, ...]:
    """Risk estimates of ``estimators`` on one test set drawn from the model, in order.

    ``test`` shares the estimators' basis and params.  Per-example loss is
    ||W y - x||^2 / d; a report holds its mean, standard error and n_test.
    For W = L B^T the error L a - U c needs only a = B^T U c + sigma_z B^T z:
    one streamed :meth:`~sldlab.model.Dataset.noise_projection` of the
    stacked bases gives B^T Z for all estimators (none at sigma_z = 0), and
    the thin QR [U, L] = Q R gives the error's norm as that of R [-c; a].
    """
    n_test = test.n_train
    if n_test < 2:
        raise InsufficientDataError(f"n_test must be >= 2 for a standard error, got {n_test}")
    u, coeff = test.basis.matrix, test.coeff
    dims = [estimator.ambient_dim for estimator in estimators]
    if not dims or set(dims) != {u.shape[0]}:
        raise DimensionError(f"need estimators acting on R^{u.shape[0]}, got ambient dims {dims}")
    stacked = np.hstack([estimator.basis for estimator in estimators])
    coords = (stacked.T @ u) @ coeff
    if test.params.sigma_z > 0:
        coords += test.params.sigma_z * test.noise_projection(stacked)
    ends = np.cumsum([estimator.rank for estimator in estimators])
    reports = []
    for estimator, a in zip(estimators, np.split(coords, ends[:-1])):
        r = np.linalg.qr(np.hstack([u, estimator.left]), mode="r")
        err = r @ np.vstack([-coeff, a])
        losses = np.sum(err * err, axis=0) / test.params.d
        mean = float(np.mean(losses))
        std_err = float(np.std(losses, ddof=1) / math.sqrt(n_test))
        reports.append(RiskReport(mean=mean, std_err=std_err, n_test=n_test))
    return tuple(reports)


def pca_risk_specialized(
    u_hat: np.ndarray, basis: SubspaceBasis, params: ModelParams
) -> float:
    """Risk of the shrunken projector U_hat U_hat^T / (1 + sigma_z^2), from its subspace error.

    For an orthonormal n x r ``u_hat``, with e = ||U_hat - U (U^T U_hat)||_F^2
    the squared distance of its columns from span(U) and s2 = sigma_z^2,

        R = s2 / (1 + s2) + (d - r) / (d (1 + s2)) + (1 + 2 s2) / (1 + s2)^2 * e / d:

    the floor of the optimal estimator, a term for the r != d directions of
    the projector (d - r < 0 when it has more than d), and the excess that
    learning the subspace leaves.  This is :func:`risk_closed_form` of that
    map, for any r; the orthogonal complement of U is never formed.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    u = basis.matrix
    if u_hat.ndim != 2 or u_hat.shape[0] != u.shape[0]:
        raise DimensionError(
            f"u_hat must be n x r with n={u.shape[0]}, got shape {u_hat.shape}"
        )
    perp = u_hat - u @ (u.T @ u_hat)
    d, r, s2 = params.d, u_hat.shape[1], params.sigma_z**2
    excess = (1.0 + 2.0 * s2) / (1.0 + s2) ** 2 * float(np.sum(perp * perp)) / d
    return s2 / (1.0 + s2) + (d - r) / (d * (1.0 + s2)) + excess


def theory_diagnostics(params: ModelParams, n_train: int) -> TheoryDiagnostics:
    """Diagnostics (gamma, psi, floor) for training budget ``n_train``."""
    if n_train < 1:
        raise InsufficientDataError(f"n_train must be >= 1, got {n_train}")
    s2 = params.sigma_z**2
    log_n = math.log(params.n)
    gamma = (params.d + params.n * s2) * log_n / n_train
    psi = params.n * s2 * log_n / n_train
    return TheoryDiagnostics(gamma=gamma, psi=psi, floor=optimal_risk(params))
