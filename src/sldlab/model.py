"""Linear subspace signal model and its core data types.

Signals live on an unknown d-dimensional subspace of R^n: a clean sample is
x = U c with U an n x d orthonormal basis and c ~ N(0, I_d); the observation
is y = x + z with isotropic Gaussian noise z ~ N(0, sigma_z^2 I_n).  This
module owns the parameter/data containers, the samplers, and the
risk-optimal linear denoiser for that model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, EmptyDataError, InvariantError
from .rng import stream

_ORTHO_TOL = 1e-10

#: Columns of U C added to Y per block in :func:`sample_dataset`.  The
#: temporary is then n x 64 (5 MB at n = 10^4) whatever N is, so the draw
#: holds Y as its only n x N array; at this width the blocked sum ran as fast
#: as forming U C whole.
_BLOCK = 64


@dataclass(frozen=True)
class ModelParams:
    """Problem dimensions and noise level.

    d        -- subspace (signal) dimension, 1 <= d < n
    n        -- ambient dimension
    sigma_z  -- noise standard deviation, >= 0
    """

    d: int
    n: int
    sigma_z: float

    def __post_init__(self) -> None:
        if not (isinstance(self.d, (int, np.integer)) and isinstance(self.n, (int, np.integer))):
            raise DimensionError(f"d and n must be integers, got d={self.d!r}, n={self.n!r}")
        if not 1 <= self.d < self.n:
            raise DimensionError(f"d must satisfy 1 <= d < n, got d={self.d}, n={self.n}")
        if not np.isfinite(self.sigma_z) or self.sigma_z < 0:
            raise DimensionError(f"sigma_z must be finite and >= 0, got sigma_z={self.sigma_z}")


@dataclass(eq=False)
class SubspaceBasis:
    """Orthonormal basis U (n x d, d < n) of the signal subspace."""

    matrix: np.ndarray
    basis_id: str = ""

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError(f"basis matrix must be 2-D, got shape {m.shape}")
        n, d = m.shape
        if not 1 <= d < n:
            raise DimensionError(f"basis must be n x d with 1 <= d < n, got shape {m.shape}")
        _check_orthonormal(m, "basis")
        self.matrix = m
        if not self.basis_id:
            self.basis_id = f"basis-sha1-{_content_digest(m)}"

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]


@dataclass(eq=False)
class Dataset:
    """A model draw: the coefficients of the clean signal and the noisy matrix.

    coeff  -- d x N coefficients C; the clean matrix is X = U C
    noisy  -- n x N matrix Y = X + Z, columns are samples
    params -- the ModelParams the data was drawn under
    basis  -- the SubspaceBasis U the data was drawn with
    seed   -- seed the dataset was drawn from

    X lies in span(U) by construction and is formed only by :attr:`clean`.
    """

    coeff: np.ndarray
    noisy: np.ndarray
    params: ModelParams
    basis: SubspaceBasis
    seed: int = 0

    def __post_init__(self) -> None:
        c = np.asarray(self.coeff, dtype=float)
        y = np.asarray(self.noisy, dtype=float)
        n, d = self.params.n, self.params.d
        if self.basis.matrix.shape != (n, d):
            raise DimensionError(
                f"basis shape {self.basis.matrix.shape} does not match params (n={n}, d={d})"
            )
        if y.ndim != 2 or y.shape[0] != n or c.shape != (d, y.shape[1]):
            raise DimensionError(
                f"coeff must be d x N and noisy n x N with d={d}, n={n}, "
                f"got {c.shape} and {y.shape}"
            )
        if y.shape[1] == 0:
            raise EmptyDataError("dataset has zero columns (N = 0)")
        self.coeff = c
        self.noisy = y

    @property
    def n_train(self) -> int:
        return self.noisy.shape[1]

    @property
    def basis_id(self) -> str:
        return self.basis.basis_id

    @property
    def clean(self) -> np.ndarray:
        """The clean matrix X = U C (n x N), formed on each access."""
        return self.basis.matrix @ self.coeff

    def validate(self) -> None:
        """Check the drawn arrays are finite."""
        if not (np.all(np.isfinite(self.noisy)) and np.all(np.isfinite(self.coeff))):
            raise InvariantError("dataset contains non-finite entries")


@dataclass(eq=False)
class LinearEstimator:
    """A linear map W = left @ basis^T of rank at most r.

    left  -- n x r matrix
    basis -- n x r matrix with orthonormal columns

    Every denoiser here has this form: a scaled projection s B B^T is
    (s B, B), a gradient-descent iterate is (X V_y D_k, U_y).  Applying W and
    evaluating its risk then cost O(n r) per sample, and W itself is formed
    only by :meth:`as_matrix`.
    """

    left: np.ndarray
    basis: np.ndarray

    # --- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, w: np.ndarray) -> "LinearEstimator":
        """Wrap an explicit n x n matrix as (w, I_n); for reference maps."""
        w = np.asarray(w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise DimensionError(f"dense estimator must be square, got shape {w.shape}")
        return cls(left=w, basis=np.eye(w.shape[0]))

    @classmethod
    def scaled_projection(cls, scale: float, basis: np.ndarray) -> "LinearEstimator":
        b = np.asarray(basis, dtype=float)
        if b.ndim != 2 or b.shape[1] > b.shape[0]:
            raise DimensionError(f"projection basis must be n x r with r <= n, got {b.shape}")
        if b.shape[1] == 0:
            raise DimensionError("projection basis has zero columns")
        if not np.isfinite(scale):
            raise DimensionError(f"scale must be finite, got {scale}")
        _check_orthonormal(b, "projection basis")
        return cls(left=float(scale) * b, basis=b)

    def __post_init__(self) -> None:
        if self.left.ndim != 2 or self.left.shape != self.basis.shape:
            raise DimensionError(
                f"left and basis must both be n x r, got {self.left.shape} and {self.basis.shape}"
            )

    # --- queries ------------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        """Number of columns r of the factors, an upper bound on rank(W)."""
        return self.basis.shape[1]

    def as_matrix(self) -> np.ndarray:
        """Materialize W as a dense n x n array."""
        return self.left @ self.basis.T

    def apply(self, y: np.ndarray) -> np.ndarray:
        """Compute W @ y as left @ (basis^T y), never forming W."""
        y = np.asarray(y, dtype=float)
        rows = y.shape[0]
        if rows != self.ambient_dim:
            raise DimensionError(
                f"estimator acts on R^{self.ambient_dim}, got input with {rows} rows"
            )
        return self.left @ (self.basis.T @ y)


# --- samplers ----------------------------------------------------------


def sample_basis(n: int, d: int, seed: int) -> SubspaceBasis:
    """Draw a uniformly random orthonormal n x d basis, deterministically.

    QR of a standard Gaussian matrix with the sign ambiguity removed by
    forcing the diagonal of R positive, which makes the decomposition (and
    hence the returned basis) unique and repeat-call identical.
    """
    if not 1 <= d < n:
        raise DimensionError(f"need 1 <= d < n, got d={d}, n={n}")
    g = stream(seed, "basis").standard_normal((n, d))
    q, r = np.linalg.qr(g, mode="reduced")
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    q = q * signs
    return SubspaceBasis(matrix=q, basis_id=f"qr-gauss:n={n}:d={d}:seed={seed}")


def sample_dataset(
    params: ModelParams, basis: SubspaceBasis, n_train: int, seed: int
) -> Dataset:
    """Draw N columns from the model: coefficients C and Y = U C + sigma_z Z.

    Coefficients and noise come from independent named streams of the same
    seed, so changing sigma_z rescales the identical noise draw rather than
    producing an unrelated dataset.  The noise is drawn into the array that
    becomes Y and U C is added _BLOCK columns at a time, so Y is the only
    n x N array the draw holds.
    """
    if basis.matrix.shape != (params.n, params.d):
        raise DimensionError(
            f"basis shape {basis.matrix.shape} does not match params (n={params.n}, d={params.d})"
        )
    if n_train < 1:
        raise EmptyDataError(f"n_train must be >= 1, got {n_train}")
    coeff = stream(seed, "coeff").standard_normal((params.d, n_train))
    if params.sigma_z > 0:
        noisy = stream(seed, "noise").standard_normal((params.n, n_train))
        noisy *= params.sigma_z
    else:
        noisy = np.zeros((params.n, n_train))
    u = basis.matrix
    for lo in range(0, n_train, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        noisy[:, block] += u @ coeff[:, block]
    return Dataset(coeff=coeff, noisy=noisy, params=params, basis=basis, seed=seed)


# --- the optimal linear denoiser ----------------------------------------


def optimal_estimator(basis: SubspaceBasis, params: ModelParams) -> LinearEstimator:
    """Risk-minimizing linear map: shrunken projection U U^T / (1 + sigma_z^2)."""
    if basis.matrix.shape != (params.n, params.d):
        raise DimensionError(
            f"basis shape {basis.matrix.shape} does not match params (n={params.n}, d={params.d})"
        )
    s = 1.0 / (1.0 + params.sigma_z**2)
    return LinearEstimator.scaled_projection(s, basis.matrix)


def optimal_risk(params: ModelParams) -> float:
    """Risk of the optimal estimator: sigma_z^2 / (1 + sigma_z^2).

    This is the noise floor no linear map can beat; it is independent of
    both dimensions.
    """
    s2 = params.sigma_z**2
    return s2 / (1.0 + s2)


# --- helpers ------------------------------------------------------------


def _check_orthonormal(m: np.ndarray, what: str) -> None:
    gram = m.T @ m
    err = float(np.max(np.abs(gram - np.eye(m.shape[1]))))
    if err > _ORTHO_TOL:
        raise InvariantError(f"{what} is not orthonormal: max |B^T B - I| = {err:.3e}")


def _content_digest(m: np.ndarray) -> str:
    import hashlib

    return hashlib.sha1(np.ascontiguousarray(m).tobytes()).hexdigest()[:12]
