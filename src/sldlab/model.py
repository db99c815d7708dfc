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
from typing import Iterator, Sequence

import numpy as np

from .blas import mapped_empty
from .errors import DimensionError, EmptyDataError, InvariantError
from .rng import stream

_ORTHO_TOL = 1e-10

#: Bytes of Z per row block in :func:`_noise_blocks` (524 rows at N = 1000).
#: The n = 10^4, N = 1000 draw took 1.13-1.42 s with 64-row blocks, 0.55-0.60 s
#: with 524 and 0.48-0.70 s with 2048 (2 cores, numpy 2.4.6 with OpenBLAS
#: 0.3.31): thinner blocks starve the Z^T Z product.  Y is filled over the
#: same blocks, so U[rows] C is the one other block-sized temporary of a draw.
_STREAM_BYTES = 4 * 2**20

#: Fewest rows per block of the Z^T Z sum in :attr:`Dataset.noise_stats`.
#: Each block adds an N x N product to the sum, O(N^2) on top of its h N^2
#: flops, and a 4 MB block is only 131 rows at N = 3981, so that cost grew
#: as N^3 (_STREAM_BYTES was timed at N = 1000 only).  The n = 10^4 pass took
#: 2.78, 9.29 and 33.0 s at N = 2512, 3981 and 6310 with 4 MB blocks, and
#: 1.28, 2.44 and 5.38 s with 2048-row blocks (same host and build).  Such a
#: block is at most 16 MB below N = 1024 and under two N x N arrays above it,
#: fewer than the three (the Gram, W and LAPACK's N^2 workspace) that the
#: in-place decomposition after the pass holds.
_GRAM_ROWS = 2048

#: Largest sigma_z a model accepts.  An n x n Gram's certificate sums lambda^2 ~
#: sigma^4 N^2 and squares eta = 1 / lambda_max, which over- and underflow near
#: sigma^4 n N^2 = 1e308: an n = N = 1000 sweep failed at sigma = 1e75 and ran
#: clean at 1e70.  Past sigma = 1e8 the optimal risk already rounds to 1, the zero map's.
SIGMA_MAX = 1e50


@dataclass(frozen=True)
class ModelParams:
    """Problem dimensions and noise level.

    d        -- subspace (signal) dimension, 1 <= d < n
    n        -- ambient dimension
    sigma_z  -- noise standard deviation, 0 <= sigma_z <= SIGMA_MAX
    """

    d: int
    n: int
    sigma_z: float

    def __post_init__(self) -> None:
        if not (isinstance(self.d, (int, np.integer)) and isinstance(self.n, (int, np.integer))):
            raise DimensionError(f"d and n must be integers, got d={self.d!r}, n={self.n!r}")
        if not 1 <= self.d < self.n:
            raise DimensionError(f"d must satisfy 1 <= d < n, got d={self.d}, n={self.n}")
        if not 0 <= self.sigma_z <= SIGMA_MAX:
            raise DimensionError(f"sigma_z must be in [0, {SIGMA_MAX:g}], got {self.sigma_z}")


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

    C and the seed fix the draw, so every view of it is read from the row
    blocks of Z in :func:`_noise_blocks`: :attr:`noisy` draws Y on each read,
    :meth:`noisy_matmul` gives Y A for several A in one pass without forming
    Y, :attr:`noise_stats` (kept once read) sums Z^T Z and U^T Z, and
    :meth:`noise_projection` sums B^T Z.  Y is never kept, so no read
    depends on an earlier one.  X lies in span(U) by construction and is
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

    @property
    def noisy(self) -> np.ndarray:
        """Y (n x N), drawn on each read into its own mapping and not kept."""
        return _draw_noisy(self.params, self.basis, self.coeff, self.seed)

    def noisy_into(self, out: np.ndarray) -> np.ndarray:
        """Y drawn into ``out`` (n x N, C-order rows), as :attr:`noisy` draws it; returns ``out``."""
        return _draw_noisy(self.params, self.basis, self.coeff, self.seed, out)

    @cached_property
    def noise_stats(self) -> tuple[np.ndarray, np.ndarray]:
        """(Z^T Z, U^T Z), N x N and d x N, summed over :func:`_noise_blocks` on the first read.

        The blocks here are at least _GRAM_ROWS high, and each adds its Z^T Z
        into the sum through one N x N product array, so the pass holds one
        block and two N x N arrays.
        """
        u = self.basis.matrix
        gram = np.zeros((self.n_train, self.n_train))
        product = np.empty_like(gram)
        proj = np.zeros((u.shape[1], self.n_train))
        for rows, z in _noise_blocks(self.params.n, self.n_train, self.seed, _GRAM_ROWS):
            np.matmul(z.T, z, out=product)
            gram += product
            proj += u[rows].T @ z
        return gram, proj

    def noise_projection(self, b: np.ndarray) -> np.ndarray:
        """B^T Z (k x N) for an n x k matrix B, summed over :func:`_noise_blocks`; not kept."""
        proj = np.zeros((b.shape[1], self.n_train))
        for rows, z in _noise_blocks(self.params.n, self.n_train, self.seed):
            proj += b[rows].T @ z
        return proj

    def noisy_matmul(self, factors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Y A = U (C A) + sigma_z Z A (n x k) for each N x k A of ``factors``.

        One pass over :func:`_noise_blocks` serves every factor.  Each block
        multiplies each A on its own, so a product does not depend on which
        other factors share the pass.
        """
        outs = [self.basis.matrix @ (self.coeff @ a) for a in factors]
        if self.params.sigma_z > 0 and outs:
            for rows, z in _noise_blocks(self.params.n, self.n_train, self.seed):
                for out, a in zip(outs, factors):
                    out[rows] += self.params.sigma_z * (z @ a)
        return outs

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
    :class:`Dataset` reads the noise stream when a caller asks for Y, a
    product with it or the noise statistics.
    """
    if n_train < 1:
        raise EmptyDataError(f"n_train must be >= 1, got {n_train}")
    coeff = stream(seed, "coeff").standard_normal((params.d, n_train))
    return Dataset(coeff, params, basis, seed)


def _noise_blocks(
    n: int, n_cols: int, seed: int, min_rows: int = 1
) -> Iterator[tuple[slice, np.ndarray]]:
    """The n x n_cols noise Z of ``seed``'s "noise" stream, as (rows, Z[rows]) row blocks.

    Blocks hold _STREAM_BYTES of Z but at least ``min_rows`` rows (and at
    most n); :attr:`Dataset.noise_stats` asks for _GRAM_ROWS, every other
    view for the default.  Z is drawn in C order, so consecutive row blocks
    from one generator are bit for bit the rows of one whole draw.  The block
    height depends only on n_cols and the view, so sums over the blocks, and
    every result built on them, are the same for any worker count.  Every
    block is drawn into one buffer, valid until the next block is drawn.
    """
    height = max(min_rows, _STREAM_BYTES // (8 * n_cols))
    gen = stream(seed, "noise")
    buf = np.empty((min(height, n), n_cols))
    for lo in range(0, n, height):
        z = buf[: min(height, n - lo)]
        gen.standard_normal(out=z)
        yield slice(lo, lo + z.shape[0]), z


def _draw_noisy(
    params: ModelParams, basis: SubspaceBasis, coeff: np.ndarray, seed: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Y = U C + sigma_z Z into ``out`` (n x N), or into a :func:`~sldlab.blas.mapped_empty` array.

    Filled over :func:`_noise_blocks` as U[rows] C + sigma_z Z[rows], each
    block's product written straight into Y and the scaled noise added in
    place, so a draw holds Y and one noise block.
    """
    u = basis.matrix
    noisy = mapped_empty((params.n, coeff.shape[1])) if out is None else out
    if params.sigma_z == 0:
        return np.matmul(u, coeff, out=noisy)
    for rows, z in _noise_blocks(params.n, coeff.shape[1], seed):
        np.matmul(u[rows], coeff, out=noisy[rows])
        z *= params.sigma_z
        noisy[rows] += z
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
