"""Power-law fitting in log-log space: single, floor-subtracted, segmented.

A power law value = beta * size^alpha is a line in (log size, log value),
so fitting is ordinary least squares on the logs (natural log throughout).
The excess variant subtracts a known risk floor before taking logs, which
turns floor-plus-power-law curves back into straight lines; the segmented
variant searches every admissible breakpoint for the best two-line fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import FitDomainError, InsufficientDataError


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
    :func:`fit_excess_powerlaw`; the left region ends at the right one's start.
    sse_improvement is 1 - total_sse / single_sse, and breakpoint_evidence is
    False when it is below 5%.
    """

    left: PowerLawFit
    right: PowerLawFit
    break_index: int
    break_size: float
    total_sse: float
    single_sse: float
    sse_improvement: float
    breakpoint_evidence: bool


# =====================================================================
# Input preparation
# =====================================================================


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise FitDomainError(f"points must be an (m, 2) array of (size, value), got shape {pts.shape}")
    return pts


def _check_region(region: tuple[int, int] | None, m: int) -> tuple[int, int]:
    if region is None:
        return (0, m)
    lo, hi = int(region[0]), int(region[1])
    if not (0 <= lo < hi <= m):
        raise FitDomainError(f"region {region} out of bounds for {m} points")
    return (lo, hi)


def _check_positive(sizes: np.ndarray, values: np.ndarray, offset: int) -> None:
    bad = np.nonzero((sizes <= 0) | ~np.isfinite(sizes) | (values <= 0) | ~np.isfinite(values))[0]
    if bad.size:
        idx = ", ".join(str(int(b) + offset) for b in bad[:8])
        more = "" if bad.size <= 8 else f" (+{bad.size - 8} more)"
        raise FitDomainError(
            f"log-log fit needs positive finite sizes and values; offending indices: {idx}{more}"
        )
    if np.unique(sizes).size != sizes.size:
        raise FitDomainError("duplicate sizes in fit input")


def _above_floor(pts: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Points (size, value - floor) that lie above the floor, and the keep mask.

    Points whose excess is within 1e-12 * max(value) of zero carry no usable
    log-scale information and are dropped.
    """
    if not (np.isfinite(floor) and floor >= 0.0):
        raise FitDomainError(f"floor must be finite and >= 0, got {floor}")
    excess = pts[:, 1] - floor
    keep = excess > 1e-12 * float(np.max(pts[:, 1]))
    return np.column_stack([pts[keep, 0], excess[keep]]), keep


# =====================================================================
# Fits
# =====================================================================


def fit_powerlaw(points, region: tuple[int, int] | None = None) -> PowerLawFit:
    """Unweighted OLS power-law fit over points[region]."""
    pts = _as_points(points)
    lo, hi = _check_region(region, pts.shape[0])
    sizes, values = pts[lo:hi, 0], pts[lo:hi, 1]
    if sizes.size < 2:
        raise InsufficientDataError(f"need at least 2 points to fit, got {sizes.size}")
    _check_positive(sizes, values, offset=lo)

    lx, lv = np.log(sizes), np.log(values)
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
        region=(lo, hi),
        n_points=int(sizes.size),
    )


def fit_excess_powerlaw(
    points, floor: float, region: tuple[int, int] | None = None
) -> PowerLawFit:
    """Fit value - floor against size, dropping points at or below the floor.

    Points are dropped as in :func:`_above_floor`; the count is recorded on
    the returned fit.
    """
    pts = _as_points(points)
    lo, hi = _check_region(region, pts.shape[0])
    if hi - lo < 2:
        raise InsufficientDataError(f"need at least 2 points to fit, got {hi - lo}")
    kept, keep = _above_floor(pts[lo:hi], floor)
    if kept.shape[0] < 2:
        raise InsufficientDataError(
            f"only {kept.shape[0]} points remain above the floor {floor:g}"
        )
    base = fit_powerlaw(kept)
    return replace(base, region=(lo, hi), n_dropped=keep.size - kept.shape[0], floor=float(floor))


def fit_segmented(
    points,
    min_seg: int = 3,
    floor: float | None = None,
    region: tuple[int, int] | None = None,
) -> SegmentedFit:
    """Exhaustive best two-segment power-law fit over points[region] with >= min_seg points a side.

    Points must be sorted by size.  The breakpoint minimizing total SSE
    wins; ties go to the earliest break.  With a floor given, sub-floor
    points are dropped before the search exactly as in
    :func:`fit_excess_powerlaw`.
    """
    if min_seg < 2:
        raise InsufficientDataError(f"min_seg must be >= 2, got {min_seg}")
    pts = _as_points(points)
    lo, hi = _check_region(region, pts.shape[0])
    pts, kept = pts[lo:hi], np.arange(lo, hi)  # kept: the input index of each point searched
    if np.any(np.diff(pts[:, 0]) <= 0):
        raise FitDomainError("points must be sorted by strictly ascending size")
    if floor is not None:
        pts, keep = _above_floor(pts, floor)
        kept = kept[keep]
    m = pts.shape[0]
    if m < 2 * min_seg:
        raise InsufficientDataError(
            f"need at least 2*min_seg = {2 * min_seg} usable points, got {m}"
        )

    single = fit_powerlaw(pts)
    best_b = -1
    best_sse = math.inf
    best_pair: tuple[PowerLawFit, PowerLawFit] | None = None
    for b in range(min_seg, m - min_seg + 1):
        left = fit_powerlaw(pts, region=(0, b))
        right = fit_powerlaw(pts, region=(b, m))
        total = left.sse + right.sse
        if total < best_sse:
            best_sse = total
            best_b = b
            best_pair = (left, right)
    assert best_pair is not None
    split = int(kept[best_b])  # the input index of the right segment's first point
    floor = None if floor is None else float(floor)
    left = replace(best_pair[0], region=(lo, split), n_dropped=split - lo - best_b, floor=floor)
    right = replace(best_pair[1], region=(split, hi), n_dropped=hi - split - (m - best_b), floor=floor)
    improvement = 0.0 if single.sse <= 1e-300 else 1.0 - best_sse / single.sse
    return SegmentedFit(
        left=left,
        right=right,
        break_index=best_b,
        break_size=float(math.sqrt(pts[best_b - 1, 0] * pts[best_b, 0])),
        total_sse=best_sse,
        single_sse=single.sse,
        sse_improvement=improvement,
        breakpoint_evidence=improvement >= 0.05,
    )
