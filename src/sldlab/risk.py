"""Exact and Monte-Carlo risk evaluation for linear denoisers.

For the subspace model the per-coordinate prediction risk of a linear map W
has the closed form

    R(W) = (1/d) ||(W - I) U||_F^2  +  (sigma_z^2 / d) ||W||_F^2,

an exact average over both the coefficient and the noise distribution -- no
test sampling required.  Every estimator is stored as W = L B^T with B
orthonormal (n x r), so ||W||_F = ||L||_F and the same quantity is

    R = (1/d) ||L (B^T U) - U||_F^2  +  (sigma_z^2 / d) ||L||_F^2,

which this module evaluates in O(n r d) without ever materializing W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InsufficientDataError
from .model import Dataset, LinearEstimator, ModelParams, SubspaceBasis, optimal_risk

#: Test columns scored per block by :func:`risk_monte_carlo`.  The temporaries
#: of ``apply`` and of the clean block U C are then r x 256 and n x 256
#: (20 MB each at n = 10^4) whatever n_test is; the losses match unblocked
#: scoring up to rounding.
_MC_BLOCK = 256


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


def excess_risk(
    estimator: LinearEstimator, basis: SubspaceBasis, params: ModelParams
) -> float:
    """Risk above the optimal floor; >= 0 up to roundoff."""
    return risk_closed_form(estimator, basis, params) - optimal_risk(params)


def risk_monte_carlo(estimator: LinearEstimator, test: Dataset) -> RiskReport:
    """Estimate the risk on a test set of pairs drawn from the model.

    ``test`` comes from :func:`~sldlab.model.sample_dataset` with the same
    basis and params as the estimator's training data, so one draw can be
    shared by every estimator of a cell.  Per-example loss is
    ||W y - x||^2 / d; the report carries the sample mean and its standard
    error (sample std / sqrt(n_test)).
    """
    n_test = test.n_train
    if n_test < 2:
        raise InsufficientDataError(f"n_test must be >= 2 for a standard error, got {n_test}")
    u = test.basis.matrix
    losses = np.empty(n_test)
    for lo in range(0, n_test, _MC_BLOCK):
        block = slice(lo, lo + _MC_BLOCK)
        err = estimator.apply(test.noisy[:, block])
        err -= u @ test.coeff[:, block]
        losses[block] = np.sum(err * err, axis=0)
    losses /= test.params.d
    mean = float(np.mean(losses))
    std_err = float(np.std(losses, ddof=1) / math.sqrt(n_test))
    return RiskReport(mean=mean, std_err=std_err, n_test=n_test)


def pca_risk_specialized(
    u_hat: np.ndarray, basis: SubspaceBasis, params: ModelParams
) -> float:
    """Risk of the shrunken projector onto span(u_hat), via subspace error only.

    For an orthonormal n x r estimate u_hat with shrinkage 1/(1 + sigma_z^2),

        R = (1 + 2 s2) / (1 + s2)^2 * e / d + s2 / (1 + s2),
        e = ||U_perp^T U||_F^2 = d - ||u_hat^T U||_F^2,

    computed without materializing the orthogonal complement.  When the
    projector is rank-deficient (r < d, which happens for N < d training
    columns) the smaller ||W||_F^2 buys back s2 (d - r) / (d (1+s2)^2) of
    risk, restoring exact agreement with the generic formula.
    """
    u_hat = np.asarray(u_hat, dtype=float)
    u = basis.matrix
    if u_hat.ndim != 2 or u_hat.shape[0] != u.shape[0]:
        raise DimensionError(
            f"u_hat must be n x r with n={u.shape[0]}, got shape {u_hat.shape}"
        )
    d = params.d
    r = u_hat.shape[1]
    s2 = params.sigma_z**2
    overlap = float(np.sum((u_hat.T @ u) ** 2))  # ||u_hat^T U||_F^2
    subspace_err = d - overlap
    risk = (1.0 + 2.0 * s2) / (1.0 + s2) ** 2 * subspace_err / d + s2 / (1.0 + s2)
    if r < d:
        risk -= s2 / (1.0 + s2) ** 2 * (d - r) / d
    return risk


def theory_diagnostics(params: ModelParams, n_train: int) -> TheoryDiagnostics:
    """Diagnostics (gamma, psi, floor) for training budget ``n_train``."""
    if n_train < 1:
        raise InsufficientDataError(f"n_train must be >= 1, got {n_train}")
    s2 = params.sigma_z**2
    log_n = math.log(params.n)
    gamma = (params.d + params.n * s2) * log_n / n_train
    psi = params.n * s2 * log_n / n_train
    return TheoryDiagnostics(gamma=gamma, psi=psi, floor=optimal_risk(params))
