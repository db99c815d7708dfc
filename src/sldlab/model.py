"""Linear subspace signal model and its core data types.

Signals live on an unknown d-dimensional subspace of R^n: a clean sample is
x = U c with U an n x d orthonormal basis and c ~ N(0, I_d); the observation
is y = x + z with isotropic Gaussian noise z ~ N(0, sigma_z^2 I_n).  This
module owns the parameter/data containers, the samplers, and the
risk-optimal linear denoiser for that model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .errors import DimensionError, EmptyDataError, InvariantError
from .rng import stream

_ORTHO_TOL = 1e-10

#: Columns of U C added to Y per block in :func:`_draw_noisy`.  The
#: temporary is then n x 64 (5 MB at n = 10^4) whatever N is, so the draw
#: holds Y as its only n x N array; at this width the blocked sum ran as fast
#: as forming U C whole.
_BLOCK = 64

#: Bytes of Z per row block in :func:`_noise_blocks` (524 rows at N = 1000).
#: The n = 10^4, N = 1000 draw took 1.13-1.42 s with 64-row blocks, 0.55-0.60 s
#: with 524 and 0.48-0.70 s with 2048 (2 cores, numpy 2.4.6 with OpenBLAS
#: 0.3.31): thinner blocks starve the Z^T Z product, while a 4 MB block stays
#: a fixed cost, half the Z^T Z of an N = 1000 cell.
_STREAM_BYTES = 4 * 2**20


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

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise DimensionError(f"basis matrix must be 2-D, got shape {m.shape}")
        n, d = m.shape
        if not 1 <= d < n:
            raise DimensionError(f"basis must be n x d with 1 <= d < n, got shape {m.shape}")
        _check_orthonormal(m, "basis")
        self.matrix = m


@dataclass(eq=False)
class Dataset:
    """A model draw Y = U C + sigma_z Z, held as its coefficients and its seed.

    coeff  -- d x N coefficients C; the clean matrix is X = U C
    params -- the ModelParams the data was drawn under
    basis  -- the SubspaceBasis U the data was drawn with
    seed   -- the draw's seed; Z (n x N) is its "noise" stream

    C and the seed fix the draw, so the views of it are drawn on first read
    and kept: :attr:`noisy` draws Y whole, :attr:`noise_stats` streams Z^T Z
    and U^T Z over row blocks of Z without holding Y.  Both read the same
    noise stream, so either order gives the same bits.  A reader that needs
    Y once calls :meth:`draw_noisy`, which draws the same Y without keeping
    it.  A Monte-Carlo test set reads only :meth:`noise_projection`, B^T Z
    over the same blocks, which is streamed on each call.  X lies in span(U) by construction and is
    formed only by :attr:`clean`.
    """

    coeff: np.ndarray
    params: ModelParams
    basis: SubspaceBasis
    seed: int

    def __post_init__(self) -> None:
        n, d = self.params.n, self.params.d
        if self.basis.matrix.shape != (n, d):
            raise DimensionError(
                f"basis shape {self.basis.matrix.shape} does not match params (n={n}, d={d})"
            )
        self.coeff = np.asarray(self.coeff, dtype=float)
        if self.coeff.ndim != 2 or self.coeff.shape[0] != d:
            raise DimensionError(f"coeff must be d x N with d={d}, got {self.coeff.shape}")
        if self.coeff.shape[1] == 0:
            raise EmptyDataError("dataset has zero columns (N = 0)")

    @property
    def n_train(self) -> int:
        return self.coeff.shape[1]

    @cached_property
    def noisy(self) -> np.ndarray:
        """Y (n x N), drawn whole on the first read and kept."""
        return self.draw_noisy()

    def draw_noisy(self) -> np.ndarray:
        """Y (n x N), drawn whole on each call and not kept: :attr:`noisy` bit for bit."""
        return _draw_noisy(self.params, self.basis, self.coeff, self.seed)

    @cached_property
    def noise_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(Z^T Z, U^T Z), N x N and d x N, summed over :func:`_noise_blocks` on the first read."""
        u = self.basis.matrix
        gram = np.zeros((self.n_train, self.n_train))
        proj = np.zeros((u.shape[1], self.n_train))
        for rows, z in _noise_blocks(self.params.n, self.n_train, self.seed):
            gram += z.T @ z
            proj += u[rows].T @ z
        return gram, proj

    def noise_projection(self, b: np.ndarray) -> np.ndarray:
        """B^T Z (k x N) for an n x k matrix B, summed over :func:`_noise_blocks`; not kept."""
        proj = np.zeros((b.shape[1], self.n_train))
        for rows, z in _noise_blocks(self.params.n, self.n_train, self.seed):
            proj += b[rows].T @ z
        return proj

    @property
    def clean(self) -> np.ndarray:
        """The clean matrix X = U C (n x N), formed on each access."""
        return self.basis.matrix @ self.coeff


@dataclass(eq=False)
class LinearEstimator:
    """A linear map W = left @ basis^T of rank at most r.

    left  -- n x r matrix
    basis -- n x r matrix with orthonormal columns

    Every denoiser here has this form: a scaled projection s B B^T is
    (s B, B), and a gradient-descent iterate U G^T, with the n x d matrix
    G = U_y D_k (C V_y)^T, is (U R^T, Q) from the thin QR G = Q R, so r = d.
    Applying W and evaluating its risk then cost O(n r) per sample, and W
    itself is formed only by :meth:`as_matrix`.
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
    return SubspaceBasis(matrix=q)


def sample_dataset(params: ModelParams, basis: SubspaceBasis, n_train: int, seed: int) -> Dataset:
    """Draw the N coefficients C of a model draw; Y = U C + sigma_z Z is read from it later.

    Coefficients and noise come from independent named streams of the same
    seed, so changing sigma_z rescales the identical noise draw rather than
    producing an unrelated dataset.  Only C (d x N) is drawn here: the
    :class:`Dataset` draws Y or the noise statistics on first read, so the
    caller's reads decide which n x N work a draw costs.
    """
    if n_train < 1:
        raise EmptyDataError(f"n_train must be >= 1, got {n_train}")
    coeff = stream(seed, "coeff").standard_normal((params.d, n_train))
    return Dataset(coeff, params, basis, seed)


def _noise_blocks(n: int, n_cols: int, seed: int) -> Iterator[tuple[slice, np.ndarray]]:
    """The n x n_cols noise Z of ``seed``'s "noise" stream, as (rows, Z[rows]) row blocks.

    Z is drawn in C order, so consecutive row blocks from one generator are
    bit for bit the rows of one whole draw.  The block height depends only
    on n_cols, so sums over the blocks, and every result built on them, are
    the same for any worker count.  Every block is drawn into one buffer,
    valid until the next block is drawn.
    """
    height = max(1, _STREAM_BYTES // (8 * n_cols))
    gen = stream(seed, "noise")
    buf = np.empty((min(height, n), n_cols))
    for lo in range(0, n, height):
        z = buf[: min(height, n - lo)]
        gen.standard_normal(out=z)
        yield slice(lo, lo + z.shape[0]), z


def _draw_noisy(
    params: ModelParams, basis: SubspaceBasis, coeff: np.ndarray, seed: int
) -> np.ndarray:
    """Y = U C + sigma_z Z, with Z the whole "noise" stream of ``seed``.

    The noise is drawn into the array that becomes Y and U C is added
    _BLOCK columns at a time, so Y is the only n x N array the draw holds.
    """
    n_train = coeff.shape[1]
    if params.sigma_z > 0:
        noisy = stream(seed, "noise").standard_normal((params.n, n_train))
        noisy *= params.sigma_z
    else:
        noisy = np.zeros((params.n, n_train))
    u = basis.matrix
    for lo in range(0, n_train, _BLOCK):
        block = slice(lo, lo + _BLOCK)
        noisy[:, block] += u @ coeff[:, block]
    return noisy


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
