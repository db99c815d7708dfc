"""Power-law fitting: exact recovery, floor handling, breakpoint search."""

from __future__ import annotations

import math

import numpy as np
import pytest

from sldlab.errors import FitDomainError, InsufficientDataError
from sldlab.powerlaw import (
    fit_powerlaw,
    fit_segmented,
)


def _curve(alpha, beta, sizes):
    sizes = np.asarray(sizes, dtype=float)
    return np.column_stack([sizes, beta * sizes**alpha])


GRID = np.geomspace(10, 10000, 16)


# --- single fits ---------------------------------------------------------


def test_exact_recovery_noiseless():
    fit = fit_powerlaw(_curve(-1.17, 3.4, GRID))
    assert fit.alpha == pytest.approx(-1.17, abs=1e-12)
    assert fit.log_beta == pytest.approx(math.log(3.4), abs=1e-12)
    assert fit.r_squared == 1.0
    assert fit.sse == pytest.approx(0.0, abs=1e-20)
    assert fit.region == (0, 16)
    assert fit.n_points == 16


def test_fit_is_scale_equivariant():
    base = fit_powerlaw(_curve(-0.8, 2.0, GRID))
    # Scaling values multiplies beta only.
    scaled_v = fit_powerlaw(_curve(-0.8, 2.0 * 7.5, GRID))
    assert scaled_v.alpha == pytest.approx(base.alpha, abs=1e-12)
    assert scaled_v.log_beta == pytest.approx(base.log_beta + math.log(7.5), abs=1e-12)
    # Scaling sizes leaves alpha alone and shifts the intercept.
    pts = _curve(-0.8, 2.0, GRID)
    pts[:, 0] *= 3.0
    scaled_s = fit_powerlaw(pts)
    assert scaled_s.alpha == pytest.approx(base.alpha, abs=1e-12)
    assert scaled_s.log_beta == pytest.approx(base.log_beta + 0.8 * math.log(3.0), abs=1e-12)


def test_constant_series_has_zero_slope():
    fit = fit_powerlaw(np.column_stack([GRID, np.full(GRID.size, 4.2)]))
    assert fit.alpha == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0  # no variance to explain


def test_region_restricts_the_fit():
    pts = _curve(-1.0, 5.0, GRID)
    pts[:4, 1] *= 10.0  # corrupt the head; fit the tail only
    fit = fit_powerlaw(pts, region=(4, 16))
    assert fit.alpha == pytest.approx(-1.0, abs=1e-12)
    assert fit.region == (4, 16)
    assert fit.n_points == 12
    with pytest.raises(FitDomainError):
        fit_powerlaw(pts, region=(4, 99))
    with pytest.raises(FitDomainError):
        fit_powerlaw(pts, region=(9, 9))


def test_rejects_nonpositive_values_listing_indices():
    pts = _curve(-1.0, 5.0, GRID)
    pts[3, 1] = 0.0
    pts[7, 1] = -2.0
    with pytest.raises(FitDomainError, match=r"indices: 3, 7"):
        fit_powerlaw(pts)


@pytest.mark.parametrize("column,value", [(1, math.nan), (1, math.inf), (1, -math.inf),
                                          (0, math.nan), (0, -5.0)])
@pytest.mark.parametrize("mode", ["single", "excess", "segmented"])
def test_bad_point_is_named_by_its_input_index(mode, column, value):
    # Index 3 sits at the floor and is dropped by the floor fits, and the
    # region starts at 2; the bad point is still reported as input index 6.
    floor = None if mode == "single" else 0.01
    pts = _curve(-0.5, 2.0, GRID)
    pts[:, 1] += floor or 0.0
    pts[3, 1] = floor or pts[3, 1]
    pts[6, column] = value
    fit = fit_segmented if mode == "segmented" else fit_powerlaw
    with pytest.raises(FitDomainError, match=r"offending indices: 6$"):
        fit(pts, floor=floor, region=(2, 14))


def test_rejects_duplicate_sizes_and_tiny_input():
    with pytest.raises(FitDomainError, match="duplicate"):
        fit_powerlaw([(10.0, 1.0), (10.0, 2.0), (20.0, 3.0)])
    with pytest.raises(InsufficientDataError):
        fit_powerlaw([(10.0, 1.0)])
    with pytest.raises(FitDomainError):
        fit_powerlaw(np.zeros((3, 3)))


# --- excess fits ----------------------------------------------------------


def test_excess_fit_recovers_after_floor_subtraction():
    floor = 0.0099
    pts = _curve(-1.05, 0.8, GRID)
    pts[:, 1] += floor
    plain = fit_powerlaw(pts)
    excess = fit_powerlaw(pts, floor=floor)
    assert excess.alpha == pytest.approx(-1.05, abs=1e-10)
    assert excess.log_beta == pytest.approx(math.log(0.8), abs=1e-10)
    assert excess.floor == floor
    # The floor visibly flattens the raw curve; subtracting it matters.
    assert plain.alpha > excess.alpha + 0.1


def test_excess_fit_drops_points_at_the_floor():
    floor = 0.5
    pts = _curve(-1.0, 10.0, GRID)
    pts[:, 1] += floor
    pts[-2:, 1] = floor  # saturated measurements carry no information
    fit = fit_powerlaw(pts, floor=floor)
    assert fit.n_dropped == 2
    assert fit.n_points == GRID.size - 2
    assert fit.alpha == pytest.approx(-1.0, abs=1e-10)


def test_excess_fit_floor_validation():
    pts = _curve(-1.0, 1.0, GRID)
    with pytest.raises(FitDomainError):
        fit_powerlaw(pts, floor=-0.1)
    with pytest.raises(FitDomainError):
        fit_powerlaw(pts, floor=float("nan"))
    with pytest.raises(InsufficientDataError):
        # Floor above every value leaves nothing to fit.
        fit_powerlaw(pts, floor=1e6)


def test_excess_fit_zero_floor_equals_plain_fit():
    pts = _curve(-0.9, 1.7, GRID)
    a = fit_powerlaw(pts)
    b = fit_powerlaw(pts, floor=0.0)
    assert b.alpha == pytest.approx(a.alpha, abs=1e-14)
    assert b.log_beta == pytest.approx(a.log_beta, abs=1e-14)


# --- noisy recovery calibration -------------------------------------------


def test_fit_tolerates_lognormal_noise():
    # sigma_log = 0.05 over 3 decades with 20 points keeps the slope
    # estimate within 0.02 almost always; spot-check a moderate batch here
    # (the full 1000-trial calibration runs in the acceptance suite).
    sizes = np.geomspace(10, 10000, 20)
    rng = np.random.default_rng(42)
    bad = 0
    for _ in range(100):
        values = 2.0 * sizes**-1.0 * np.exp(rng.normal(0.0, 0.05, sizes.size))
        fit = fit_powerlaw(np.column_stack([sizes, values]))
        if abs(fit.alpha + 1.0) > 0.02:
            bad += 1
    assert bad <= 5


# --- segmented fits ---------------------------------------------------------


def _two_regime(sizes, a_left, a_right, break_size, beta_right):
    """Continuous two-segment power law hinged at break_size."""
    sizes = np.asarray(sizes, dtype=float)
    right = beta_right * sizes**a_right
    beta_left = beta_right * break_size ** (a_right - a_left)
    left = beta_left * sizes**a_left
    return np.column_stack([sizes, np.where(sizes < break_size, left, right)])


def test_segmented_recovers_constructed_break():
    sizes = np.geomspace(100, 600000, 20)
    true_break = float(np.sqrt(sizes[10] * sizes[11]))  # between two grid points
    pts = _two_regime(sizes, 0.0075, 0.0029, true_break, 32.05)
    seg = fit_segmented(pts, min_seg=3)
    assert seg.left.alpha == pytest.approx(0.0075, abs=1e-10)
    assert seg.right.alpha == pytest.approx(0.0029, abs=1e-10)
    assert seg.breakpoint_evidence
    # Break lands within one grid position of the constructed hinge.
    positions = np.searchsorted(sizes, [seg.break_size, true_break])
    assert abs(int(positions[0]) - int(positions[1])) <= 1
    assert seg.total_sse <= seg.single_sse


def test_segmented_respects_min_seg():
    sizes = np.geomspace(10, 1000, 8)
    pts = _two_regime(sizes, -0.5, -2.0, 100.0, 5.0)
    seg = fit_segmented(pts, min_seg=4)
    assert seg.break_index == 4
    assert seg.left.n_points == 4 and seg.right.n_points == 4
    with pytest.raises(InsufficientDataError):
        fit_segmented(pts, min_seg=5)  # 8 points cannot give 5 a side
    with pytest.raises(InsufficientDataError):
        fit_segmented(pts, min_seg=1)


def test_segmented_requires_sorted_sizes():
    pts = _two_regime(np.geomspace(10, 1000, 8), -0.5, -2.0, 100.0, 5.0)
    with pytest.raises(FitDomainError, match="ascending"):
        fit_segmented(pts[::-1], min_seg=3)


def test_segmented_single_regime_lacks_evidence():
    pts = _curve(-1.0, 3.0, np.geomspace(10, 10000, 14))
    seg = fit_segmented(pts, min_seg=3)
    # A pure power law is explained by one line; the split may not claim
    # evidence from SSEs that are rounding noise.
    assert not seg.breakpoint_evidence
    # The same over exact curves 2 * N^alpha (+ floor), fit with that floor:
    # m = 8-24 points spanning 2 to 5 decades from N = 10.
    claimed = []
    for m in range(8, 25):
        for top in (3, 4, 5, 6):
            for floor in (None, 0.0, 1e-3, 1e-2, 5e-2):
                for alpha in (-0.3, -0.5, -1.0, -1.7):
                    pts = _curve(alpha, 2.0, np.geomspace(10, 10.0**top, m))
                    pts[:, 1] += floor or 0.0
                    if fit_segmented(pts, min_seg=3, floor=floor).breakpoint_evidence:
                        claimed.append((m, top, floor, alpha))
    assert claimed == []


def test_segmented_with_floor_drops_then_splits():
    sizes = np.geomspace(10, 100000, 18)
    floor = 0.05
    pts = _two_regime(sizes, -0.4, -1.6, 1000.0, 200.0)
    pts[:, 1] += floor
    pts[-2:, 1] = floor
    seg = fit_segmented(pts, min_seg=3, floor=floor)
    # The two dropped points are the last two: both in the right segment.
    assert seg.left.n_dropped == 0 and seg.right.n_dropped == 2
    assert seg.left.region == (0, seg.break_index) and seg.right.region == (seg.break_index, 18)
    assert seg.left.alpha == pytest.approx(-0.4, abs=1e-8)
    assert seg.right.alpha == pytest.approx(-1.6, abs=1e-8)
    assert seg.left.floor == floor and seg.right.floor == floor
