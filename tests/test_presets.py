"""Shipped experiment presets: presence, structure, and conversion."""

from __future__ import annotations

import dataclasses

import pytest

from sldlab.errors import UsageError
from sldlab.presets import FitSpec, Preset, SweepSpec, list_presets, load_preset
from sldlab.rng import derive_seed


def test_all_expected_presets_ship():
    assert list_presets() == ("fig4", "fig5", "fig9-d-sweep", "fig9-n-sweep")


def test_fig5_preset_structure():
    p = load_preset("fig5")
    assert p.name == "fig5" and p.version >= 1
    assert tuple(s.label for s in p.sweeps) == ("sigma005", "sigma010", "sigma020")
    assert tuple(s.sigma_z for s in p.sweeps) == (0.05, 0.1, 0.2)
    for s in p.sweeps:
        assert (s.d, s.n, s.n_seeds) == (10, 1000, 5)
        assert s.grid == (1, 20000, 5)
        assert s.estimators == ("ESGD", "PCA")
    assert p.fit is not None
    assert (p.fit.mode, p.fit.floor, p.fit.min_train_size) == ("excess", "auto", 100)


def test_fig4_preset_structure():
    p = load_preset("fig4")
    (s,) = p.sweeps
    assert (s.d, s.n, s.sigma_z) == (10, 100, 0.05)
    assert s.estimators == ("ESGD", "PINV")
    assert p.fit is None


def test_fig9_presets_vary_one_dimension():
    n_sweep = load_preset("fig9-n-sweep")
    assert tuple(s.n for s in n_sweep.sweeps) == (100, 1000, 10000)
    assert all(s.d == 10 and s.sigma_z == 0.1 for s in n_sweep.sweeps)
    d_sweep = load_preset("fig9-d-sweep")
    assert tuple(s.d for s in d_sweep.sweeps) == (10, 50, 100)
    assert all(s.n == 1000 and s.sigma_z == 0.1 for s in d_sweep.sweeps)


def test_preset_sweep_converts_to_config():
    p = load_preset("fig5")
    seed = derive_seed(0, "sweep", "sigma010")
    cfg = p.sweeps[1].to_config(base_seed=seed)
    assert cfg.base_seed == seed
    assert cfg.train_sizes[0] == 1 and cfg.train_sizes[-1] == 15849
    assert cfg.params.sigma_z == 0.1
    assert cfg.estimators == ("ESGD", "PCA")


def test_unknown_preset_is_a_usage_error():
    with pytest.raises(UsageError, match="available"):
        load_preset("fig99")


_SWEEP = SweepSpec(label="a", d=2, n=10, sigma_z=0.2, grid=(2, 40, 2), n_seeds=1,
                   estimators=("PCA",))


def _preset(sweeps=(_SWEEP,), fit=None):
    return Preset(name="p", version=1, description="", sweeps=sweeps, fit=fit)


def test_excess_fit_without_floor_is_rejected():
    # An excess fit subtracts the floor; "none" would be silently overridden.
    with pytest.raises(UsageError, match="excess"):
        _preset(fit=FitSpec(mode="excess", floor="none"))


def test_single_fit_with_floor_is_rejected():
    # A single fit is of the raw values; "auto" would be silently ignored.
    with pytest.raises(UsageError, match="'single' takes floor 'none'"):
        _preset(fit=FitSpec(mode="single", floor="auto"))


def test_unknown_fit_floor_is_rejected():
    with pytest.raises(UsageError, match="'Auto'"):
        _preset(fit=FitSpec(mode="segmented", floor="Auto"))


@pytest.mark.parametrize(
    "sweep,fragment",
    [
        (dataclasses.replace(_SWEEP, d=10), "d < n"),
        (dataclasses.replace(_SWEEP, grid=(40, 2, 2)), "degenerate"),
        (dataclasses.replace(_SWEEP, n_seeds=0), "n_seeds"),
        (dataclasses.replace(_SWEEP, estimators=("PCA", "RIDGE")), "RIDGE"),
    ],
)
def test_every_sweep_is_checked_when_the_preset_is_built(sweep, fragment):
    with pytest.raises(UsageError, match=fragment):
        _preset(sweeps=(_SWEEP, dataclasses.replace(sweep, label="b")))


def test_fit_region_needs_two_grid_points():
    # grid (2, 40, 2) is (3, 10, 32): min_train_size 10 leaves two points, 11 leaves one.
    fit = _preset(fit=FitSpec("single", "none", min_train_size=10)).fit
    assert fit.region((3, 10, 32)) == (1, 3)
    with pytest.raises(UsageError, match="min_train_size=11"):
        _preset(fit=FitSpec("single", "none", min_train_size=11))
