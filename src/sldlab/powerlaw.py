"""Power-law fitting in log-log space: one line with an optional floor, or two.

A power law value = beta * size^alpha is a line in (log size, log value),
so fitting is ordinary least squares on the logs (natural log throughout).
Given a known risk floor, the fit subtracts it before taking logs, which
turns floor-plus-power-law curves back into straight lines; the segmented
fit searches every admissible breakpoint for the best two-line fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FitDomainError, InsufficientDataError, UsageError

#: The fit modes: one line of the raw values, one line of value - floor, two lines.
FIT_MODES = ("single", "excess", "segmented")


@dataclass(frozen=True)
class PowerLawFit:
    """OLS fit of log(value) = log_beta + alpha * log(size).

    region is the half-open index range of the input that was fit;
    n_points counts the points actually used (after any floor drops) and
    n_dropped the points discarded as at-or-below the floor.  floor is the
    subtracted offset (None for plain fits).
    """

    alpha: float
    log_beta: float
    r_squared: float
    sse: float
    region: tuple[int, int]
    n_points: int
    n_dropped: int = 0
    floor: float | None = None


@dataclass(frozen=True)
class SegmentedFit:
    """Two power laws split at one breakpoint.

    break_index is the number of points in the left segment (indices are
    relative to the points the search ran on, i.e. after floor drops);
    break_size is the geometric mean of the sizes adjacent to the split.
    Each segment's region and n_dropped count input points, as in
    :func:`fit_powerlaw`; the left region ends at the right one's start.
    sse_improvement is 1 - total_sse / single_sse, or 0 when the single
    line is exact up to rounding (see :func:`fit_segmented`), and
    breakpoint_evidence is False when it is below 5%.
    """

    left: PowerLawFit
    right: PowerLawFit
    break_index: int
    break_size: float
    total_sse: float
    single_sse: float
    sse_improvement: float
    breakpoint_evidence: bool


def check_fit_mode(mode: str, has_floor: bool, where: str = "") -> None:
    """Refuse a fit mode that is unknown, or that cannot run with (or without) a floor.

    A single fit is of the raw values, so it takes no floor; an excess fit
    subtracts one, so it needs one; a segmented fit subtracts it when given.
    ``where`` prefixes the message, e.g. with the preset that asked.
    """
    if mode not in FIT_MODES:
        raise UsageError(f"{where}unknown fit mode {mode!r} ({', '.join(FIT_MODES)})")
    if mode == "single" and has_floor:
        raise UsageError(f"{where}fit mode 'single' fits the raw values; use --floor none")
    if mode == "excess" and not has_floor:
        raise UsageError(f"{where}fit mode 'excess' subtracts a floor; use --floor auto or a number")


# =====================================================================
# Input preparation
# =====================================================================


def _prepare(
    points, floor: float | None, region: tuple[int, int] | None, ascending: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple[int, int]]:
    """The sizes and log values (minus any floor) of the points of points[region] that are fit.

    Also returns the input index of each point kept, and the region.  Sizes
    must be positive, finite and distinct (strictly ascending if
    ``ascending``), and values finite, and positive without a floor;
    offending points are reported by input index.  With a floor, points
    whose excess is within 1e-12 * max(value) of zero carry no usable
    log-scale information and are dropped.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FitDomainError(f"points must be an (m, 2) array of (size, value), got shape {pts.shape}")
    lo, hi = (0, pts.shape[0]) if region is None else (int(region[0]), int(region[1]))
    if not (0 <= lo < hi <= pts.shape[0]):
        raise FitDomainError(f"region {region} out of bounds for {pts.shape[0]} points")
    sizes, values = pts[lo:hi, 0], pts[lo:hi, 1]
    if sizes.size < 2:
        raise InsufficientDataError(f"need at least 2 points to fit, got {sizes.size}")
    if floor is not None and not (np.isfinite(floor) and floor >= 0.0):
        raise FitDomainError(f"floor must be finite and >= 0, got {floor}")

    bad = (sizes <= 0) | ~np.isfinite(sizes) | ~np.isfinite(values)
    bad = np.nonzero(bad if floor is not None else bad | (values <= 0))[0]
    if bad.size:
        idx = ", ".join(str(int(b) + lo) for b in bad[:8])
        more = "" if bad.size <= 8 else f" (+{bad.size - 8} more)"
        raise FitDomainError(
            f"log-log fit needs positive finite sizes and values; offending indices: {idx}{more}"
        )
    if ascending and np.any(np.diff(sizes) <= 0):
        raise FitDomainError("points must be sorted by strictly ascending size")
    if np.unique(sizes).size != sizes.size:
        raise FitDomainError("duplicate sizes in fit input")

    index = np.arange(lo, hi)
    if floor is not None:
        keep = values - floor > 1e-12 * float(np.max(values))
        sizes, values, index = sizes[keep], values[keep] - floor, index[keep]
        if index.size < 2:
            raise InsufficientDataError(f"only {index.size} points remain above the floor {floor:g}")
    return sizes, np.log(values), index, (lo, hi)


def _ols(lx: np.ndarray, lv: np.ndarray, region: tuple[int, int], floor: float | None) -> PowerLawFit:
    """The least-squares line through (lx, lv), the kept points of ``region``."""
    x_bar = float(np.mean(lx))
    v_bar = float(np.mean(lv))
    sxx = float(np.sum((lx - x_bar) ** 2))
    if sxx <= 0.0:
        raise FitDomainError("sizes are not distinct after log transform")
    alpha = float(np.sum((lx - x_bar) * (lv - v_bar))) / sxx
    log_beta = v_bar - alpha * x_bar
    resid = lv - (log_beta + alpha * lx)
    sse = float(np.sum(resid**2))
    sst = float(np.sum((lv - v_bar) ** 2))
    r_squared = 1.0 if sst <= 0.0 else max(0.0, min(1.0, 1.0 - sse / sst))
    return PowerLawFit(
        alpha=alpha,
        log_beta=log_beta,
        r_squared=r_squared,
        sse=sse,
        region=region,
        n_points=int(lx.size),
        n_dropped=region[1] - region[0] - int(lx.size),
        floor=None if floor is None else float(floor),
    )


# =====================================================================
# Fits
# =====================================================================


def fit_powerlaw(
    points, floor: float | None = None, region: tuple[int, int] | None = None
) -> PowerLawFit:
    """Unweighted OLS power-law fit over points[region]; with a floor, of value - floor.

    With a floor, points at or below it are dropped as in :func:`_prepare`;
    the count is recorded on the returned fit.
    """
    sizes, lv, _, region = _prepare(points, floor, region)
    return _ols(np.log(sizes), lv, region, floor)


def fit_segmented(
    points,
    min_seg: int = 3,
    floor: float | None = None,
    region: tuple[int, int] | None = None,
) -> SegmentedFit:
    """Exhaustive best two-segment power-law fit over points[region] with >= min_seg points a side.

    Points must be sorted by size.  The breakpoint minimizing total SSE
    wins; ties go to the earliest break.  With a floor given, sub-floor
    points are dropped before the search exactly as in :func:`fit_powerlaw`.
    The single line is exact, and shows no breakpoint, when its SSE is at
    most 64 * sum(r^2), with r = eps * (1 + |log size| + |log excess| +
    floor / excess) the rounding of each log excess (exact power laws, with
    and without a floor, reached 6.1 * sum(r^2) over 59,914 random ones).
    """
    if min_seg < 2:
        raise InsufficientDataError(f"min_seg must be >= 2, got {min_seg}")
    sizes, lv, index, (lo, hi) = _prepare(points, floor, region, ascending=True)
    lx, m = np.log(sizes), sizes.size
    if m < 2 * min_seg:
        raise InsufficientDataError(
            f"need at least 2*min_seg = {2 * min_seg} usable points, got {m}"
        )

    single = _ols(lx, lv, (lo, hi), floor)

    def split_at(b: int) -> tuple[float, int, PowerLawFit, PowerLawFit]:
        at = int(index[b])  # the input index of the right segment's first point
        left, right = _ols(lx[:b], lv[:b], (lo, at), floor), _ols(lx[b:], lv[b:], (at, hi), floor)
        return left.sse + right.sse, b, left, right

    # The tuples compare by total SSE, then by b: ties go to the earliest break.
    best_sse, best_b, left, right = min(map(split_at, range(min_seg, m - min_seg + 1)))
    rounding = np.finfo(float).eps * (1.0 + np.abs(lx) + np.abs(lv) + (floor or 0.0) * np.exp(-lv))
    exact = single.sse <= 64.0 * float(np.sum(rounding**2))
    improvement = 0.0 if exact else 1.0 - best_sse / single.sse
    return SegmentedFit(
        left=left,
        right=right,
        break_index=best_b,
        break_size=float(math.sqrt(sizes[best_b - 1] * sizes[best_b])),
        total_sse=best_sse,
        single_sse=single.sse,
        sse_improvement=improvement,
        breakpoint_evidence=improvement >= 0.05,
    )
