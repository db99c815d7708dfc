"""Shipped experiment presets: presence, structure, and conversion."""

from __future__ import annotations

import dataclasses

import pytest

from sldlab.errors import UsageError
from sldlab.model import ModelParams
from sldlab.presets import FitSpec, Preset, _parse_preset, list_presets, load_preset
from sldlab.rng import derive_seed
from sldlab.sweep import SweepConfig, default_train_grid


def test_all_expected_presets_ship():
    assert list_presets() == ("fig4", "fig5", "fig9-d-sweep", "fig9-n-sweep")


def test_fig5_preset_structure():
    p = load_preset("fig5")
    assert p.name == "fig5" and p.version >= 1
    assert tuple(p.sweeps) == ("sigma005", "sigma010", "sigma020")
    assert tuple(s.params.sigma_z for s in p.sweeps.values()) == (0.05, 0.1, 0.2)
    for s in p.sweeps.values():
        assert (s.params.d, s.params.n, s.n_seeds, s.base_seed) == (10, 1000, 5, 0)
        assert s.train_sizes == default_train_grid(1, 20000, 5)
        assert s.estimators == ("ESGD", "PCA") and s.mc_test_size == 0
    assert p.fit is not None
    assert (p.fit.mode, p.fit.floor, p.fit.min_train_size) == ("excess", "auto", 100)


def test_fig4_preset_structure():
    p = load_preset("fig4")
    (s,) = p.sweeps.values()
    assert s.params == ModelParams(d=10, n=100, sigma_z=0.05)
    assert s.estimators == ("ESGD", "PINV")
    assert p.fit is None


def test_fig9_presets_vary_one_dimension():
    n_sweep = load_preset("fig9-n-sweep")
    n_params = [s.params for s in n_sweep.sweeps.values()]
    assert tuple(p.n for p in n_params) == (100, 1000, 10000)
    assert all(p.d == 10 and p.sigma_z == 0.1 for p in n_params)
    d_params = [s.params for s in load_preset("fig9-d-sweep").sweeps.values()]
    assert tuple(p.d for p in d_params) == (10, 50, 100)
    assert all(p.n == 1000 and p.sigma_z == 0.1 for p in d_params)


def test_preset_sweep_converts_to_config():
    p = load_preset("fig5")
    seed = derive_seed(0, "sweep", "sigma010")
    cfg = dataclasses.replace(p.sweeps["sigma010"], base_seed=seed)
    assert cfg.base_seed == seed
    assert cfg.train_sizes[0] == 1 and cfg.train_sizes[-1] == 15849
    assert cfg.params.sigma_z == 0.1
    assert cfg.estimators == ("ESGD", "PCA")


def test_unknown_preset_is_a_usage_error():
    with pytest.raises(UsageError, match="available"):
        load_preset("fig99")


_SWEEP = SweepConfig(params=ModelParams(d=2, n=10, sigma_z=0.2),
                     train_sizes=default_train_grid(2, 40, 2), n_seeds=1, estimators=("PCA",))
_RAW_SWEEP = {"label": "a", "d": 2, "n": 10, "sigma_z": 0.2, "grid": [2, 40, 2], "n_seeds": 1,
              "estimators": ["PCA"]}


def _preset(sweeps=None, fit=None):
    return Preset(name="p", version=1, description="", sweeps=sweeps or {"a": _SWEEP}, fit=fit)


def _parse(*sweeps):
    return _parse_preset("p", {"name": "p", "version": 1, "sweeps": list(sweeps)})


def test_excess_fit_without_floor_is_rejected():
    # An excess fit subtracts the floor; "none" would be silently overridden.
    with pytest.raises(UsageError, match="excess"):
        _preset(fit=FitSpec(mode="excess", floor="none"))


def test_single_fit_with_floor_is_rejected():
    # A single fit is of the raw values; "auto" would be silently ignored.
    with pytest.raises(UsageError, match="preset 'p': fit mode 'single' fits the raw values"):
        _preset(fit=FitSpec(mode="single", floor="auto"))


def test_unknown_fit_floor_is_rejected():
    with pytest.raises(UsageError, match="'Auto'"):
        _preset(fit=FitSpec(mode="segmented", floor="Auto"))


@pytest.mark.parametrize(
    "sweep,fragment",
    [
        ({**_RAW_SWEEP, "d": 10}, "d < n"),
        ({**_RAW_SWEEP, "grid": [40, 2, 2]}, "degenerate"),
        ({**_RAW_SWEEP, "n_seeds": 0}, "n_seeds"),
        ({**_RAW_SWEEP, "estimators": ["PCA", "RIDGE"]}, "RIDGE"),
    ],
)
def test_every_sweep_is_checked_when_the_preset_is_built(sweep, fragment):
    with pytest.raises(UsageError, match=f"preset 'p', sweep 'b': .*{fragment}"):
        _parse(_RAW_SWEEP, {**sweep, "label": "b"})


def test_repeated_sweep_label_is_rejected():
    # Two sweeps with one label would share a seed and one set of output files.
    with pytest.raises(UsageError, match="repeats sweep label 'a'"):
        _parse(_RAW_SWEEP, {**_RAW_SWEEP, "n_seeds": 2})


@pytest.mark.parametrize("mode", ["excess", "segmented"])
def test_opt_under_auto_floor_is_rejected(mode):
    # OPT's risk is the floor itself: no point is left above it to fit.
    opt = dataclasses.replace(_SWEEP, estimators=("PCA", "OPT"))
    with pytest.raises(UsageError, match="sweep 'b': OPT"):
        _preset(sweeps={"a": _SWEEP, "b": opt}, fit=FitSpec(mode, "auto"))
    _preset(sweeps={"a": _SWEEP, "b": opt}, fit=FitSpec("segmented", "none"))


def test_fit_region_needs_two_grid_points():
    # grid (2, 40, 2) is (3, 10, 32): min_train_size 10 leaves two points, 11 leaves one.
    fit = _preset(fit=FitSpec("single", "none", min_train_size=10)).fit
    assert fit.region((3, 10, 32)) == (1, 3)
    with pytest.raises(UsageError, match="min_train_size=11"):
        _preset(fit=FitSpec("single", "none", min_train_size=11))
