"""Acceptance gate: eight end-to-end checks with pinned tolerances.

Each test prints exactly one PASS/FAIL line (shown with ``pytest -s`` and in
failure output) and covers one numbered criterion:

1. closed-form optimal risk is exact and Monte Carlo agrees within 3 SE
2. excess-risk scaling exponents of the d=10, n=1000 sweeps hit their targets
3. early stopping dominates full convergence at d=10, n=100
4. closed-form gradient descent matches the explicit iteration
5. specialized PCA risk equals the generic evaluation
6. PCA excess risk tracks the (d + n sigma^2) log(n) / N rate
7. the power-law fitter recovers noiseless, noisy, and two-regime curves
8. worker count never changes output bytes

The slope targets in criterion 2 come from published fits of the same
simulation; everything else is self-contained.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

from sldlab.cli import main as cli_main
from sldlab.estimators import (
    GdConfig,
    gd_estimator_closed,
    gd_estimator_iterative,
    pca_estimator,
    svd_of,
)
from sldlab.model import ModelParams, optimal_estimator, sample_basis, sample_dataset
from sldlab.powerlaw import fit_excess_powerlaw, fit_powerlaw, fit_segmented
from sldlab.presets import load_preset
from sldlab.risk import (
    pca_risk_specialized,
    risk_closed_form,
    risk_monte_carlo,
    theory_diagnostics,
)
from sldlab.rng import derive_seed
from sldlab.sweep import run_sweep


def _gate(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def fig5_curves():
    """The three d=10, n=1000 sweeps, shared by criteria 2 and 6."""
    preset = load_preset("fig5")
    return {
        spec.label: (spec.sigma_z, run_sweep(spec.to_config(base_seed=0)))
        for spec in preset.sweeps
    }


# --- 1: optimal risk ------------------------------------------------------


def test_criterion_1_optimal_risk_exact_and_monte_carlo():
    t0 = time.monotonic()
    worst_exact = 0.0
    mc_ok = True
    for i, sigma in enumerate((0.0, 0.05, 0.1, 0.2, 1.0)):
        params = ModelParams(d=6, n=40, sigma_z=sigma)
        basis = sample_basis(40, 6, seed=derive_seed(101, "basis", i))
        star = optimal_estimator(basis, params)
        floor = sigma**2 / (1.0 + sigma**2)
        worst_exact = max(worst_exact, abs(risk_closed_form(star, basis, params) - floor))
        test = sample_dataset(params, basis, 20000, derive_seed(101, "mc-test", i))
        report = risk_monte_carlo(star, test)
        gap = abs(report.mean - floor)
        # At sigma = 0 every loss is roundoff, so the 3-SE band degenerates;
        # absolute agreement far below the exactness tolerance still counts.
        mc_ok = mc_ok and (gap <= 3.0 * report.std_err or gap <= 1e-12)
    elapsed = time.monotonic() - t0
    _gate(
        1,
        worst_exact <= 1e-12 and mc_ok and elapsed < 10.0,
        f"closed form off floor by {worst_exact:.2e} (<= 1e-12), Monte Carlo "
        f"within 3 SE at all five noise levels, {elapsed:.1f}s (< 10s)",
    )


# --- 2: scaling exponents -------------------------------------------------

_SLOPE_TARGETS = {
    ("ESGD", 0.05): -0.99,
    ("ESGD", 0.1): -1.10,
    ("ESGD", 0.2): -1.02,
    ("PCA", 0.05): -1.00,
    ("PCA", 0.1): -1.00,
    ("PCA", 0.2): -0.99,
}


def _fit_region_slope(curve, name: str, sigma: float) -> float:
    """Scaling exponent of the excess risk over train sizes >= 100.

    The small-size end of a mean curve sits above its asymptotic power law
    (the estimators are still rank-starved there), so when the data support
    a breakpoint the right segment carries the exponent; otherwise a single
    excess fit does.
    """
    floor = sigma * sigma / (1.0 + sigma * sigma)
    mask = curve.train_sizes >= 100
    pts = np.column_stack(
        [curve.train_sizes[mask].astype(float), curve.series[name].mean[mask]]
    )
    seg = fit_segmented(pts, min_seg=3, floor=floor)
    if seg.breakpoint_evidence:
        return seg.right.alpha
    return fit_excess_powerlaw(pts, floor=floor).alpha


def test_criterion_2_scaling_exponents(fig5_curves):
    worst = 0.0
    parts = []
    for sigma, curve in fig5_curves.values():
        for name in ("ESGD", "PCA"):
            alpha = _fit_region_slope(curve, name, sigma)
            target = _SLOPE_TARGETS[(name, sigma)]
            worst = max(worst, abs(alpha - target))
            parts.append(f"{name}@{sigma:g}: {alpha:+.3f} vs {target:+.2f}")
    _gate(2, worst <= 0.15, "; ".join(parts) + f" — worst gap {worst:.3f} (<= 0.15)")


# --- 3: early stopping ----------------------------------------------------


def test_criterion_3_early_stopping_dominates_convergence():
    spec = load_preset("fig4").sweeps[0]
    curve = run_sweep(spec.to_config(base_seed=0))
    sizes = curve.train_sizes
    early = curve.series["ESGD"].mean
    converged = curve.series["PINV"].mean
    floor = spec.sigma_z**2 / (1.0 + spec.sigma_z**2)
    dominated = bool(np.all(early <= converged + 1e-15))
    ratio = float(converged[sizes == 100][0] / early[sizes == 100][0])
    big = sizes == 10000
    early_x = float(early[big][0] / floor)
    conv_x = float(converged[big][0] / floor)
    _gate(
        3,
        dominated and ratio >= 1.5 and early_x <= 2.0 and conv_x <= 2.0,
        f"early stopping dominates at all {sizes.size} sizes, gain x{ratio:.1f} "
        f"at train size 100 (>= 1.5), at 10000 both near floor "
        f"(x{early_x:.3f}, x{conv_x:.3f} <= 2)",
    )


# --- 4: gradient-descent closed form --------------------------------------


def test_criterion_4_closed_form_matches_iteration():
    t0 = time.monotonic()
    rng = np.random.default_rng(424242)
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 6))
        n = int(rng.integers(d + 1, 51))
        n_train = int(rng.integers(1, 51))
        k = int(rng.integers(1, 501))
        sigma = float(rng.choice((0.0, 0.05, 0.2, 1.0)))
        params = ModelParams(d=d, n=n, sigma_z=sigma)
        basis = sample_basis(n, d, seed=int(rng.integers(2**63)))
        data = sample_dataset(params, basis, n_train, seed=int(rng.integers(2**63)))
        cache = svd_of(data)
        cfg = GdConfig(eta=1.0 / float(cache.s_y[0]) ** 2, k=k)
        closed = gd_estimator_closed(cache, data.coeff, basis, cfg).as_matrix()
        stepped = gd_estimator_iterative(data, cfg).as_matrix()
        scale = float(np.linalg.norm(closed))
        dist = float(np.linalg.norm(closed - stepped))
        worst = max(worst, dist / scale if scale > 0.0 else dist)
    elapsed = time.monotonic() - t0
    _gate(
        4,
        worst <= 1e-8 and elapsed < 30.0,
        f"worst relative Frobenius distance {worst:.2e} (<= 1e-8) over 20 "
        f"instances in {elapsed:.1f}s (< 30s)",
    )


# --- 5: specialized PCA risk ----------------------------------------------


def test_criterion_5_pca_specialized_equals_generic():
    rng = np.random.default_rng(777)
    worst = 0.0
    undersampled = 0
    for trial in range(100):
        d = int(rng.integers(1, 9))
        n = int(rng.integers(d + 1, 41))
        if trial % 3 == 0:
            n_train = int(rng.integers(1, d + 1))  # force tiny training sets
        else:
            n_train = int(rng.integers(1, 31))
        undersampled += n_train < d
        sigma = float(rng.choice((0.0, 0.05, 0.1, 0.2, 1.0)))
        params = ModelParams(d=d, n=n, sigma_z=sigma)
        basis = sample_basis(n, d, seed=int(rng.integers(2**63)))
        data = sample_dataset(params, basis, n_train, seed=int(rng.integers(2**63)))
        est = pca_estimator(svd_of(data), params)
        generic = risk_closed_form(est, basis, params)
        special = pca_risk_specialized(est.basis, basis, params)
        worst = max(worst, abs(generic - special))
    _gate(
        5,
        worst <= 1e-10 and undersampled >= 10,
        f"max |specialized - generic| = {worst:.2e} (<= 1e-10) over 100 "
        f"instances, {undersampled} of them with fewer samples than d",
    )


# --- 6: rate boundedness ----------------------------------------------------


def test_criterion_6_pca_excess_tracks_rate(fig5_curves):
    sigma, curve = fig5_curves["sigma010"]
    params = ModelParams(d=10, n=1000, sigma_z=sigma)
    floor = sigma**2 / (1.0 + sigma**2)
    mask = (curve.train_sizes >= 100) & (curve.train_sizes <= 20000)
    ratios = [
        (curve.series["PCA"].mean[i] - floor) / theory_diagnostics(params, int(size)).gamma
        for i, size in zip(np.flatnonzero(mask), curve.train_sizes[mask])
    ]
    spread = max(ratios) / min(ratios)
    _gate(
        6,
        spread <= 5.0,
        f"excess/rate ratio spans x{spread:.2f} (<= 5) across train sizes "
        f"{curve.train_sizes[mask][0]}..{curve.train_sizes[mask][-1]}",
    )


# --- 7: fitter recovery -----------------------------------------------------


def test_criterion_7_fitter_recovery():
    # Noiseless single power law: exact recovery.
    sizes = np.geomspace(10.0, 10000.0, 12)
    fit = fit_powerlaw(np.column_stack([sizes, 2.2 * sizes**-1.37]))
    noiseless_ok = fit.r_squared == 1.0 and abs(fit.alpha + 1.37) <= 1e-10

    # Lognormal multiplicative noise, 20 points over 3 decades.
    rng = np.random.default_rng(20260826)
    sizes20 = np.geomspace(10.0, 10000.0, 20)
    clean = 0.7 * sizes20**-1.1
    hits = 0
    for _ in range(1000):
        noisy = clean * np.exp(rng.normal(0.0, 0.05, sizes20.size))
        hits += abs(fit_powerlaw(np.column_stack([sizes20, noisy])).alpha + 1.1) <= 0.02
    noisy_ok = hits >= 950

    # Two shallow regimes joined continuously between grid points 10 and 11.
    grid = np.geomspace(100.0, 600000.0, 20)
    hinge = math.sqrt(grid[9] * grid[10])
    left_alpha, right_alpha = 0.0075, 0.0029
    right_values = 32.05 * grid**right_alpha
    hinge_value = 32.05 * hinge**right_alpha
    values = np.where(grid < hinge, hinge_value * (grid / hinge) ** left_alpha, right_values)
    seg = fit_segmented(np.column_stack([grid, values]), min_seg=3)
    seg_ok = (
        abs(seg.break_index - 10) <= 1
        and seg.breakpoint_evidence
        and abs(seg.left.alpha - left_alpha) <= 1e-6
        and abs(seg.right.alpha - right_alpha) <= 1e-6
    )

    _gate(
        7,
        noiseless_ok and noisy_ok and seg_ok,
        f"noiseless exact (r2={fit.r_squared}), noisy slope within 0.02 in "
        f"{hits}/1000 trials (>= 950), two-regime break at index "
        f"{seg.break_index} (true 10) with slopes {seg.left.alpha:+.5f}/"
        f"{seg.right.alpha:+.5f}",
    )


# --- 8: scheduling determinism ----------------------------------------------


def test_criterion_8_worker_count_never_changes_bytes(tmp_path, capsys):
    threads_max = max(4, os.cpu_count() or 1)
    base = [
        "simulate", "--d", "10", "--n", "1000", "--sigma", "0.1",
        "--grid", "1:20000:5", "--seeds", "5", "--est", "esgd,pca",
    ]
    serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    rc1 = cli_main(base + ["--threads", "1", "--out", str(serial)])
    rc2 = cli_main(base + ["--threads", str(threads_max), "--out", str(pooled)])
    capsys.readouterr()
    same = serial.read_bytes() == pooled.read_bytes()
    _gate(
        8,
        rc1 == 0 and rc2 == 0 and same,
        f"--threads 1 vs --threads {threads_max}: identical "
        f"{serial.stat().st_size}-byte CSVs",
    )
