"""Minimal deterministic SVG 1.1 log-log charts; no plotting dependency.

Output is a pure function of the inputs: fixed layout, fixed palette,
fixed number formatting, no timestamps -- identical calls produce identical
bytes, which the artifact tests rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

import math

import numpy as np

from .errors import EmptyDataError

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 64.0, 16.0, 34.0, 46.0


def _escape(text: str) -> str:
    """xml.sax.saxutils.escape, whose import pulls in urllib, http and email."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


@dataclass(eq=False)
class PlotSeries:
    """One curve: values (and optional symmetric error bars) vs sizes."""

    label: str
    sizes: np.ndarray
    values: np.ndarray
    err: np.ndarray | None = None


@dataclass(frozen=True)
class FitOverlay:
    """A fitted power law drawn as a dashed line across ``size_range``."""

    label: str
    alpha: float
    log_beta: float
    size_range: tuple[float, float]
    offset: float = 0.0  # additive floor when drawing on the raw-value scale

    def at(self, size: float) -> float:
        """The line's value exp(log_beta) * size^alpha + offset at ``size``."""
        return math.exp(self.log_beta + self.alpha * math.log(size)) + self.offset


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _drawable(sizes: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Which points a log-log plot can place: finite and positive on both axes."""
    return (0 < sizes) & (sizes < np.inf) & (0 < values) & (values < np.inf)


def _tick_label(k: int) -> str:
    return str(10**k) if 0 <= k <= 5 else f"1e{k}"


def render_scaling_plot(
    series: list[PlotSeries],
    overlays: tuple[FitOverlay, ...] | list[FitOverlay] = (),
    *,
    title: str = "",
    xlabel: str = "train size",
    ylabel: str = "risk",
    width: int = 760,
    height: int = 540,
) -> str:
    """Render series and overlays to an SVG document string."""
    xs, ys = [], []
    for s in series:
        sizes, values = np.asarray(s.sizes, dtype=float), np.asarray(s.values, dtype=float)
        keep = _drawable(sizes, values)
        xs.extend(sizes[keep])
        ys.extend(values[keep])
    for o in overlays:
        for bound in o.size_range:
            y = o.at(bound)
            if bound > 0 and y > 0:
                xs.append(float(bound))
                ys.append(float(y))
    if not xs:
        raise EmptyDataError("nothing to plot: no positive (size, value) points")

    x0 = math.floor(math.log10(min(xs)) + 1e-12)
    x1 = math.ceil(math.log10(max(xs)) - 1e-12)
    y0 = math.floor(math.log10(min(ys)) + 1e-12)
    y1 = math.ceil(math.log10(max(ys)) - 1e-12)
    if x1 == x0:
        x1 += 1
    if y1 == y0:
        y1 += 1

    plot_w = width - _MARGIN_L - _MARGIN_R
    plot_h = height - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (math.log10(x) - x0) / (x1 - x0) * plot_w

    def py(y: float) -> float:
        return height - _MARGIN_B - (math.log10(y) - y0) / (y1 - y0) * plot_h

    out: list[str] = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')
    if title:
        out.append(
            f'<text x="{_fmt(width / 2)}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    # gridlines and tick labels at decades
    for k in range(x0, x1 + 1):
        gx = _fmt(px(10.0**k))
        out.append(
            f'<line x1="{gx}" y1="{_fmt(_MARGIN_T)}" x2="{gx}" '
            f'y2="{_fmt(height - _MARGIN_B)}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{gx}" y="{_fmt(height - _MARGIN_B + 16)}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{_tick_label(k)}</text>'
        )
    for k in range(y0, y1 + 1):
        gy = _fmt(py(10.0**k))
        out.append(
            f'<line x1="{_fmt(_MARGIN_L)}" y1="{gy}" x2="{_fmt(width - _MARGIN_R)}" '
            f'y2="{gy}" stroke="#dddddd" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_L - 6)}" y="{_fmt(float(gy) + 4)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{_tick_label(k)}</text>'
        )
    out.append(
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#444444" stroke-width="1"/>'
    )
    out.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(height - 8)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="14" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 14 {_fmt(_MARGIN_T + plot_h / 2)})">{_escape(ylabel)}</text>'
    )

    y_floor = 10.0**y0  # clip for error bars that would leave the log plot
    legend: list[tuple[str, str, bool]] = []  # (color, label, dashed)
    for i, s in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        sizes = np.asarray(s.sizes, dtype=float)
        values = np.asarray(s.values, dtype=float)
        keep = _drawable(sizes, values)
        sizes, values = sizes[keep], values[keep]
        err = None if s.err is None else np.asarray(s.err, dtype=float)[keep]
        if sizes.size == 0:
            continue
        if err is not None:
            for x, v, e in zip(sizes, values, err):
                if not np.isfinite(e):
                    continue
                lo = max(v - e, y_floor)
                hi = v + e
                bx = _fmt(px(x))
                out.append(
                    f'<line x1="{bx}" y1="{_fmt(py(lo))}" x2="{bx}" y2="{_fmt(py(hi))}" '
                    f'stroke="{color}" stroke-width="1"/>'
                )
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(v))}" for x, v in zip(sizes, values))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        for x, v in zip(sizes, values):
            out.append(
                f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(v))}" r="2.5" fill="{color}"/>'
            )
        legend.append((color, s.label, False))

    for i, o in enumerate(overlays):
        color = PALETTE[(len(series) + i) % len(PALETTE)]
        lo_x, hi_x = o.size_range
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(o.at(x)))}" for x in (lo_x, hi_x))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.2" stroke-dasharray="6 4"/>'
        )
        legend.append((color, o.label, True))

    lx = width - _MARGIN_R - 190
    ly = _MARGIN_T + 10
    for color, label, dashed in legend:
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly)}" x2="{_fmt(lx + 22)}" y2="{_fmt(ly)}" '
            f'stroke="{color}" stroke-width="2"{dash}/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 28)}" y="{_fmt(ly + 4)}" font-family="sans-serif" '
            f'font-size="11">{_escape(label)}</text>'
        )
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"
