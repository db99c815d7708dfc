"""Named, versioned experiment presets shipped as JSON data files.

Presets pin every knob of a sweep (dimensions, noise level, grid, seeds,
estimators) plus how to fit the resulting curves, so `sldlab reproduce
<name>` regenerates the same tables from nothing but a base seed.  Keeping
them as data rather than code means a preset revision is an explicit,
reviewable file change.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from importlib import resources

from ..errors import SldlabError, UsageError
from ..model import ModelParams
from ..sweep import SweepConfig, default_train_grid


@dataclass(frozen=True)
class FitSpec:
    """How reproduce fits each curve.

    It is ``sldlab fit --mode M --floor F`` over the train sizes >=
    min_train_size; floor "auto" is sigma_z^2 / (1 + sigma_z^2).  An
    excess fit needs floor "auto" and a single fit takes "none".
    """

    mode: str  # "single" | "excess" | "segmented"
    floor: str  # "auto" | "none"
    min_train_size: int = 1

    def region(self, sizes) -> tuple[int, int]:
        """Half-open index range of the ascending ``sizes`` that are >= min_train_size."""
        return bisect.bisect_left(sizes, self.min_train_size), len(sizes)


@dataclass(frozen=True)
class SweepSpec:
    """One sweep of a preset; converts to a SweepConfig given a base seed."""

    label: str
    d: int
    n: int
    sigma_z: float
    grid: tuple[int, int, int]
    n_seeds: int
    estimators: tuple[str, ...]

    def to_config(self, base_seed: int) -> SweepConfig:
        return SweepConfig(
            params=ModelParams(d=self.d, n=self.n, sigma_z=self.sigma_z),
            train_sizes=default_train_grid(*self.grid),
            n_seeds=self.n_seeds,
            estimators=self.estimators,
            base_seed=base_seed,
        )


@dataclass(frozen=True)
class Preset:
    name: str
    version: int
    description: str
    sweeps: tuple[SweepSpec, ...]
    fit: FitSpec | None

    def __post_init__(self) -> None:
        """Check every sweep and the fit spec, so a bad preset fails before any sweep runs."""
        where = f"preset {self.name!r}"
        if not self.sweeps:
            raise UsageError(f"{where} declares no sweeps")
        fit = self.fit
        if fit is not None:
            if fit.mode not in ("single", "excess", "segmented"):
                raise UsageError(f"{where} has unknown fit mode {fit.mode!r}")
            if fit.floor not in ("auto", "none"):
                raise UsageError(f"{where} has unknown fit floor {fit.floor!r} (auto or none)")
            if fit.mode == "excess" and fit.floor == "none":
                raise UsageError(f"{where}: fit mode 'excess' needs floor 'auto'")
            if fit.mode == "single" and fit.floor == "auto":
                raise UsageError(f"{where}: fit mode 'single' takes floor 'none'")
        for spec in self.sweeps:
            try:
                sizes = spec.to_config(base_seed=0).train_sizes
            except SldlabError as exc:
                raise UsageError(f"{where}, sweep {spec.label!r}: {exc}") from exc
            if fit is None:
                continue
            lo, hi = fit.region(sizes)
            if hi - lo < 2:
                raise UsageError(
                    f"{where}, sweep {spec.label!r}: fewer than 2 grid points at or "
                    f"above min_train_size={fit.min_train_size}"
                )


def list_presets() -> tuple[str, ...]:
    files = resources.files(__name__)
    return tuple(sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json")))


def load_preset(name: str) -> Preset:
    available = list_presets()
    if name not in available:
        raise UsageError(f"unknown preset {name!r}; available: {', '.join(available)}")
    raw = json.loads(resources.files(__name__).joinpath(f"{name}.json").read_text("utf-8"))
    try:
        sweeps = tuple(
            SweepSpec(
                label=str(s["label"]),
                d=int(s["d"]),
                n=int(s["n"]),
                sigma_z=float(s["sigma_z"]),
                grid=tuple(int(g) for g in s["grid"]),
                n_seeds=int(s["n_seeds"]),
                estimators=tuple(str(e).upper() for e in s["estimators"]),
            )
            for s in raw["sweeps"]
        )
        fit = None
        if raw.get("fit") is not None:
            fit = FitSpec(
                mode=str(raw["fit"]["mode"]),
                floor=str(raw["fit"].get("floor", "none")),
                min_train_size=int(raw["fit"].get("min_train_size", 1)),
            )
        preset = Preset(
            name=str(raw["name"]),
            version=int(raw["version"]),
            description=str(raw.get("description", "")),
            sweeps=sweeps,
            fit=fit,
        )
    except UsageError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"preset {name!r} is malformed: {exc}") from exc
    return preset
