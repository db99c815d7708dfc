"""Spans around the public functions of the sldlab layer modules.

The tracer lives in the benchmark, not in the package.  ``Tracer.install``
wraps every public function defined in a layer module and rebinds the name in
every loaded ``sldlab`` module that holds it: ``from .estimators import
svd_of`` copies the function into the importing module's namespace, so a
patch of the defining module alone would miss most calls.  Spans are kept in
memory and summarised into named per-layer metrics by ``summarize``.

Spans recorded inside pool worker processes stay in those processes and are
not seen here.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("model", "estimators", "risk", "sweep", "powerlaw", "svgplot", "cli")

#: Metric stem -> the spans it sums.  Only the outermost span of a stem is
#: counted, so a function that calls another of the same stem is not counted
#: twice.
GROUPS: dict[str, tuple[str, ...]] = {
    "model.sample_dataset": ("model.sample_dataset",),
    "model.sample_basis": ("model.sample_basis",),
    "estimators.svd_of": ("estimators.svd_of",),
    "estimators.gd_risk_profile": ("estimators.gd_risk_profile",),
    "estimators.dense_build": ("estimators.gd_estimator_closed", "estimators.pinv_estimator"),
    "estimators.pca_estimator": ("estimators.pca_estimator",),
    "risk.closed_form": ("risk.risk_closed_form",),
    "risk.monte_carlo": ("risk.risk_monte_carlo",),
    "sweep.run_sweep": ("sweep.run_sweep",),
    "sweep.csv_write": ("sweep.write_curve_csv",),
    "sweep.csv_read": ("sweep.read_curve_csv", "sweep.read_series_csv"),
    "powerlaw.fit": ("powerlaw.fit_powerlaw", "powerlaw.fit_excess_powerlaw", "powerlaw.fit_segmented"),
    "svgplot.render": ("svgplot.render_scaling_plot",),
    "cli.main": ("cli.main",),
}

#: svd_of split by the shape of the training matrix: tall (N < n), wide (N >= n).
SVD_ROUTES = ("estimators.svd_of_tall", "estimators.svd_of_wide")

STEMS = (*GROUPS, *SVD_ROUTES)


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    parent: int | None  # index of the enclosing span, None at top level
    tag: object = None  # small facts about the arguments, see _tag
    seconds: float = 0.0


def _tag(name: str, bound: inspect.BoundArguments) -> object:
    """Record what the metrics need from the arguments, never the arrays themselves."""
    a = bound.arguments
    if name == "estimators.svd_of":
        n, n_train = a["dataset"].noisy.shape
        return "tall" if n_train < n else "wide"
    if name == "model.sample_dataset":
        return (a["params"].n, int(a["n_train"]), int(a["seed"]))
    if name == "model.sample_basis":
        return (int(a["n"]), int(a["d"]))
    return None


_TAGGED = ("estimators.svd_of", "model.sample_dataset", "model.sample_basis")


class Tracer:
    """Records one span per call of a wrapped sldlab function while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "sldlab" or name.startswith("sldlab."))]
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"sldlab.{layer}"]
            for fname, fn in vars(module).items():
                if fname.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{fname}", fn))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in _TAGGED else None
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = None
            if signature is not None:
                try:
                    tag = _tag(name, signature.bind(*args, **kwargs))
                except (TypeError, KeyError, AttributeError, ValueError):
                    tag = None  # the call itself reports bad arguments
            index = len(spans)
            spans.append(Span(name, stack[-1] if stack else None, tag))
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[index].seconds = time.perf_counter() - start
                stack.pop()

        return traced


def summarize(spans: list[Span]) -> dict[str, float]:
    """Per-layer seconds and call counts, plus the derived sampling metrics.

    Keys: ``<stem>_s`` and ``<stem>_calls`` for every stem in STEMS, and
    ``sweep.self_s``, ``model.sampled_mb``, ``model.sample_dataset_unique_frac``.
    """
    stem_of = {name: stem for stem, names in GROUPS.items() for name in names}
    seconds = dict.fromkeys(STEMS, 0.0)
    calls = dict.fromkeys(STEMS, 0)
    child_seconds = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_seconds[span.parent] += span.seconds

    def nested_in_own_stem(span: Span, stem: str) -> bool:
        parent = span.parent
        while parent is not None:
            if stem_of.get(spans[parent].name) == stem:
                return True
            parent = spans[parent].parent
        return False

    sweep_self = 0.0
    sampled_bytes = 0
    draws: list[object] = []
    for i, span in enumerate(spans):
        stem = stem_of.get(span.name)
        if stem is None or nested_in_own_stem(span, stem):
            continue
        seconds[stem] += span.seconds
        calls[stem] += 1
        if stem == "estimators.svd_of" and span.tag is not None:
            route = f"estimators.svd_of_{span.tag}"
            seconds[route] += span.seconds
            calls[route] += 1
        elif stem == "sweep.run_sweep":
            sweep_self += span.seconds - child_seconds[i]
        elif stem == "model.sample_dataset" and span.tag is not None:
            n, n_train, _ = span.tag
            sampled_bytes += 8 * n * n_train  # one n x N matrix per draw
            draws.append(span.tag[1:])
        elif stem == "model.sample_basis" and span.tag is not None:
            n, d = span.tag
            sampled_bytes += 8 * n * d

    out: dict[str, float] = {}
    for stem in STEMS:
        out[f"{stem}_s"] = seconds[stem]
        out[f"{stem}_calls"] = calls[stem]
    out["sweep.self_s"] = sweep_self
    out["model.sampled_mb"] = sampled_bytes / 1e6
    # distinct (seed, N) draws per call; below 1 when a draw is repeated
    out["model.sample_dataset_unique_frac"] = len(set(draws)) / len(draws) if draws else 0.0
    return out
