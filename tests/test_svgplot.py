"""SVG rendering: well-formedness, determinism, and log-scale safety."""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import numpy as np
import pytest

from sldlab.errors import EmptyDataError
from sldlab.svgplot import FitOverlay, PlotSeries, render_scaling_plot


def _series(label="pca", n=6):
    sizes = np.geomspace(10, 10000, n)
    return PlotSeries(
        label=label,
        sizes=sizes,
        values=2.0 * sizes**-1.0,
        err=0.3 * sizes**-1.0,
    )


def test_output_is_valid_svg():
    doc = render_scaling_plot([_series()], title="risk vs N")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    assert root.attrib["version"] == "1.1"
    assert root.attrib["width"] == "760"
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "risk vs N" in texts
    assert "pca" in texts


def test_rendering_is_deterministic():
    series = [_series("a"), _series("b")]
    overlays = (FitOverlay(label="fit", alpha=-1.0, log_beta=0.7, size_range=(10, 10000)),)
    one = render_scaling_plot(series, overlays, title="t")
    two = render_scaling_plot(series, overlays, title="t")
    assert one == two


def test_overlays_are_dashed_and_in_legend():
    overlay = FitOverlay(label="slope -1.00", alpha=-1.0, log_beta=0.0, size_range=(10, 1000))
    doc = render_scaling_plot([_series()], (overlay,))
    root = ET.fromstring(doc)
    dashed = [
        el for el in root.iter()
        if el.tag.endswith("polyline") and "stroke-dasharray" in el.attrib
    ]
    assert len(dashed) == 1
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "slope -1.00" in texts


def test_a_fit_with_a_floor_is_drawn_as_a_curve():
    # A floor bends a power law on log axes, so the dashed line passes through
    # the fit's value at the geometric middle of its range, not through the
    # chord between its ends.  Decades 1..10^4 across and 10^-2..10^1 up.
    overlay = FitOverlay(label="excess fit", alpha=-1.0, log_beta=0.0,
                         size_range=(1.0, 1e4), offset=0.01)
    root = ET.fromstring(render_scaling_plot([], (overlay,)))
    (line,) = [el for el in root.iter() if el.tag.endswith("polyline")]
    vertices = [tuple(map(float, p.split(","))) for p in line.attrib["points"].split()]
    middle = (64.0 + 2 / 4 * 680.0, 494.0 - (math.log10(overlay.at(100.0)) + 2) / 3 * 460.0)
    assert min(math.dist(v, middle) for v in vertices) <= 0.01


def test_error_bars_clip_at_plot_floor():
    # Error bars larger than the value would go nonpositive on a log axis;
    # the renderer must clip them instead of emitting NaN/inf coordinates.
    sizes = np.array([10.0, 100.0, 1000.0])
    s = PlotSeries(
        label="wild",
        sizes=sizes,
        values=np.array([1.0, 0.1, 0.01]),
        err=np.array([5.0, 5.0, 5.0]),
    )
    doc = render_scaling_plot([s])
    assert "nan" not in doc.lower()
    assert "inf" not in doc.lower()
    ET.fromstring(doc)  # still well-formed


def test_nonpositive_points_are_skipped():
    s = PlotSeries(
        label="mixed",
        sizes=np.array([10.0, 100.0, 1000.0]),
        values=np.array([1.0, -0.5, 0.0]),
    )
    doc = render_scaling_plot([s])
    root = ET.fromstring(doc)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 1  # only the positive point survives


def test_empty_input_raises():
    with pytest.raises(EmptyDataError):
        render_scaling_plot([])
    with pytest.raises(EmptyDataError):
        render_scaling_plot(
            [PlotSeries(label="none", sizes=np.array([1.0]), values=np.array([-1.0]))]
        )


def test_axis_labels_and_dimensions_are_configurable():
    doc = render_scaling_plot(
        [_series()], title="", xlabel="N", ylabel="R", width=400, height=300
    )
    root = ET.fromstring(doc)
    assert root.attrib["width"] == "400" and root.attrib["height"] == "300"
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "N" in texts and "R" in texts


def test_markup_characters_are_escaped_as_before():
    # Title, axis labels and legend entries escape &, < and > exactly as
    # xml.sax.saxutils.escape does, and parse back to the original text.
    title, xlabel, ylabel, label = "R & N < 10 > 1", "N <train>", "risk && floor", "a&b<c>"
    doc = render_scaling_plot([_series(label)], title=title, xlabel=xlabel, ylabel=ylabel)
    for text in (title, xlabel, ylabel, label):
        assert f">{escape(text)}</text>" in doc
    texts = [el.text for el in ET.fromstring(doc).iter() if el.tag.endswith("text")]
    assert {title, xlabel, ylabel, label} <= set(texts)


def test_tick_labels_cover_the_data_decades():
    doc = render_scaling_plot([_series(n=4)])
    root = ET.fromstring(doc)
    texts = {el.text for el in root.iter() if el.tag.endswith("text")}
    # Data spans sizes 10..10000, so those decade ticks must be present.
    assert {"10", "100", "1000", "10000"} <= texts
