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
from ..powerlaw import check_fit_mode
from ..sweep import SweepConfig, default_train_grid


@dataclass(frozen=True)
class FitSpec:
    """How reproduce fits each curve.

    It is ``sldlab fit --mode M --floor F`` over the train sizes >=
    min_train_size; floor "auto" is sigma_z^2 / (1 + sigma_z^2).  The
    mode and floor obey :func:`sldlab.powerlaw.check_fit_mode`, as in
    ``fit``: an excess fit needs floor "auto" and a single fit takes "none".
    """

    mode: str  # "single" | "excess" | "segmented"
    floor: str  # "auto" | "none"
    min_train_size: int = 1

    def region(self, sizes) -> tuple[int, int]:
        """Half-open index range of the ascending ``sizes`` that are >= min_train_size."""
        return bisect.bisect_left(sizes, self.min_train_size), len(sizes)


@dataclass(frozen=True)
class Preset:
    """A preset's sweeps, by label, each at base seed 0, and how to fit their curves."""

    name: str
    version: int
    description: str
    sweeps: dict[str, SweepConfig]
    fit: FitSpec | None

    def __post_init__(self) -> None:
        """Check the fit spec against every sweep, so a bad preset fails before any sweep runs."""
        where = f"preset {self.name!r}"
        if not self.sweeps:
            raise UsageError(f"{where} declares no sweeps")
        fit = self.fit
        if fit is None:
            return
        if fit.floor not in ("auto", "none"):
            raise UsageError(f"{where} has unknown fit floor {fit.floor!r} (auto or none)")
        check_fit_mode(fit.mode, fit.floor == "auto", f"{where}: ")
        for label, config in self.sweeps.items():
            lo, hi = fit.region(config.train_sizes)
            if hi - lo < 2:
                raise UsageError(
                    f"{where}, sweep {label!r}: fewer than 2 grid points at or "
                    f"above min_train_size={fit.min_train_size}"
                )
            if fit.floor == "auto" and "OPT" in config.estimators:
                # OPT's risk is the floor itself, so no point is left above it.
                raise UsageError(f"{where}, sweep {label!r}: OPT cannot be fit above floor 'auto'")


def list_presets() -> tuple[str, ...]:
    files = resources.files(__name__)
    return tuple(sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json")))


def load_preset(name: str) -> Preset:
    available = list_presets()
    if name not in available:
        raise UsageError(f"unknown preset {name!r}; available: {', '.join(available)}")
    raw = json.loads(resources.files(__name__).joinpath(f"{name}.json").read_text("utf-8"))
    return _parse_preset(name, raw)


def _parse_preset(name: str, raw: dict) -> Preset:
    """The preset ``name`` from its decoded JSON; any bad value is a UsageError."""
    try:
        sweeps: dict[str, SweepConfig] = {}
        for s in raw["sweeps"]:
            label = str(s["label"])
            if label in sweeps:
                raise UsageError(f"preset {name!r} repeats sweep label {label!r}")
            try:
                sweeps[label] = SweepConfig(
                    params=ModelParams(d=int(s["d"]), n=int(s["n"]), sigma_z=float(s["sigma_z"])),
                    train_sizes=default_train_grid(*(int(g) for g in s["grid"])),
                    n_seeds=int(s["n_seeds"]),
                    estimators=tuple(str(e) for e in s["estimators"]),
                )
            except SldlabError as exc:
                raise UsageError(f"preset {name!r}, sweep {label!r}: {exc}") from exc
        fit = None
        if raw.get("fit") is not None:
            fit = FitSpec(
                mode=str(raw["fit"]["mode"]),
                floor=str(raw["fit"].get("floor", "none")),
                min_train_size=int(raw["fit"].get("min_train_size", 1)),
            )
        return Preset(
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
