"""End-to-end CLI behaviour: exit codes, artifacts, manifests, seeding."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import sldlab.cli as cli
from sldlab.blas import blas_pool, lapack
from sldlab.cli import main
from sldlab.errors import UsageError
from sldlab.model import SIGMA_MAX, ModelParams
from sldlab.presets import FitSpec, Preset, _parse_preset
from sldlab.sweep import SweepConfig, default_train_grid


def _simulate_args(out, **kw):
    args = [
        "simulate",
        "--d", kw.pop("d", "2"),
        "--n", kw.pop("n", "12"),
        "--sigma", kw.pop("sigma", "0.2"),
        "--grid", kw.pop("grid", "3:30:2"),
        "--seeds", kw.pop("seeds", "2"),
        "--est", kw.pop("est", "opt,pca"),
        "--out", str(out),
    ]
    for flag, value in kw.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


# --- import cost ----------------------------------------------------------


def test_import_leaves_unused_stdlib_packages_unloaded():
    # Every command is its own process and pays the import of sldlab.cli.
    # xml.sax (which pulls in urllib.request, http.client and email) and
    # concurrent.futures are not needed by a serial command.
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = (
        "import sys, sldlab.cli; "
        "print(sorted(m for m in ('xml.sax', 'concurrent.futures') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


# --- exit codes -----------------------------------------------------------


def test_no_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_version_exits_zero(capsys):
    assert main(["--version"]) == 0
    assert "sldlab" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],  # missing --out
        ["simulate", "--d", "0", "--out", "x.csv"],
        ["simulate", "--grid", "banana", "--out", "x.csv"],
        ["simulate", "--grid", "1:2", "--out", "x.csv"],
        ["fit"],  # missing --in
        ["plot", "--in", "x.csv"],  # missing --out
        ["bogus-command"],
    ],
)
def test_flag_misuse_exits_2(argv, capsys):
    assert main(argv) == 2
    capsys.readouterr()


def test_semantic_flag_misuse_exits_2(tmp_path, capsys):
    out = tmp_path / "c.csv"
    # d >= n
    assert main(_simulate_args(out, d="12", n="12")) == 2
    # inverted grid bounds
    assert main(_simulate_args(out, grid="100:10:5")) == 2
    # unknown estimator name
    assert main(_simulate_args(out, est="pca,ridge")) == 2
    # --mc-test of 1 cannot produce a standard error
    assert main(_simulate_args(out, mc_test="1")) == 2
    capsys.readouterr()


def test_missing_input_file_exits_1(tmp_path, capsys):
    assert main(["fit", "--in", str(tmp_path / "nope.csv")]) == 1
    assert main(["plot", "--in", str(tmp_path / "nope.csv"),
                 "--out", str(tmp_path / "p.svg")]) == 1
    capsys.readouterr()


def test_malformed_csv_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("train_size,R\n10,not-a-number\n")
    assert main(["fit", "--in", str(bad)]) == 1
    capsys.readouterr()


def test_fit_excess_without_floor_exits_2(tmp_path, capsys):
    ok = tmp_path / "ok.csv"
    ok.write_text("train_size,R\n10,1.0\n100,0.1\n")
    assert main(["fit", "--in", str(ok), "--mode", "excess"]) == 2
    assert main(["fit", "--in", str(ok), "--mode", "excess", "--floor", "auto"]) == 2
    capsys.readouterr()


# --- simulate -------------------------------------------------------------


def test_simulate_writes_curve_and_manifest(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(_simulate_args(out)) == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0]
    assert header == "train_size,OPT_M,OPT_S,PCA_M,PCA_S"
    manifest = json.loads((tmp_path / "curve.manifest.json").read_text())
    assert manifest["tool"] == "sldlab"
    assert manifest["command"] == "simulate"
    assert manifest["base_seed"] == 0
    assert manifest["outputs"] == [str(out)]
    assert manifest["config"]["params"] == {"d": 2, "n": 12, "sigma_z": 0.2}
    assert manifest["numpy"] == np.__version__
    pool = blas_pool()
    assert manifest["blas"] == {
        "thread_setter": pool is not None,
        "threads": None if pool is None else pool.get(),
        "in_place_lapack": lapack() is not None,
    }
    assert out.exists()


def test_simulate_threads_do_not_change_bytes(tmp_path, capsys):
    one, four = tmp_path / "one.csv", tmp_path / "four.csv"
    assert main(_simulate_args(one, threads="1")) == 0
    assert main(_simulate_args(four, threads="4")) == 0
    capsys.readouterr()
    assert one.read_bytes() == four.read_bytes()


def test_threads_max_counts_the_cpus_this_process_may_use(monkeypatch):
    # A process pinned to 2 of 8 CPUs gets 2 workers, not 8.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5}, raising=False)
    assert cli._threads_arg("max") == 2
    assert cli._threads_arg("3") == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without affinity
    assert cli._threads_arg("max") == 8


def test_simulate_base_seed_changes_results(tmp_path, capsys):
    a, b, c = (tmp_path / f"{k}.csv" for k in "abc")
    assert main(_simulate_args(a, base_seed="1")) == 0
    assert main(_simulate_args(b, base_seed="2")) == 0
    assert main(_simulate_args(c, base_seed="1")) == 0
    capsys.readouterr()
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_env_var_supplies_base_seed(tmp_path, capsys, monkeypatch):
    via_env, via_flag = tmp_path / "env.csv", tmp_path / "flag.csv"
    monkeypatch.setenv("SLDLAB_BASE_SEED", "77")
    assert main(_simulate_args(via_env)) == 0
    manifest = json.loads((tmp_path / "env.manifest.json").read_text())
    assert manifest["base_seed"] == 77
    # An explicit flag beats the environment.
    assert main(_simulate_args(via_flag, base_seed="5")) == 0
    manifest = json.loads((tmp_path / "flag.manifest.json").read_text())
    assert manifest["base_seed"] == 5
    # And a garbage value in the environment is a usage error.
    monkeypatch.setenv("SLDLAB_BASE_SEED", "seven")
    assert main(_simulate_args(tmp_path / "z.csv")) == 2
    capsys.readouterr()


def test_simulate_with_monte_carlo_columns(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert main(_simulate_args(out, mc_test="16")) == 0
    capsys.readouterr()
    header = out.read_text().splitlines()[0].split(",")
    assert "OPT_MC_M" in header and "PCA_MC_S" in header


# --- fit ------------------------------------------------------------------


def _write_powerlaw_csv(path, alpha=-1.0, beta=2.0, floor=0.0):
    lines = ["train_size,R"]
    for size in (10, 32, 100, 316, 1000, 3162, 10000):
        lines.append(f"{size},{beta * size**alpha + floor!r}")
    path.write_text("\n".join(lines) + "\n")


def test_fit_single_reports_and_writes_csv(tmp_path, capsys):
    data, fits = tmp_path / "data.csv", tmp_path / "fits.csv"
    _write_powerlaw_csv(data, alpha=-1.25, beta=3.0)
    assert main(["fit", "--in", str(data), "--out", str(fits)]) == 0
    printed = capsys.readouterr().out
    assert "alpha=-1.25" in printed
    rows = fits.read_text().splitlines()
    assert rows[0].split(",") == cli._FITS_HEADER
    record = dict(zip(cli._FITS_HEADER, rows[1].split(",")))
    assert float(record["alpha"]) == pytest.approx(-1.25, abs=1e-12)
    assert record["mode"] == "single" and record["segment"] == "all"
    assert (tmp_path / "fits.manifest.json").exists()


def test_fit_creates_a_missing_output_directory(tmp_path, capsys):
    data, fits = tmp_path / "data.csv", tmp_path / "new" / "dir" / "fits.csv"
    _write_powerlaw_csv(data, alpha=-1.25, beta=3.0)
    assert main(["fit", "--in", str(data), "--out", str(fits)]) == 0
    capsys.readouterr()
    assert fits.read_text().splitlines()[0].split(",") == cli._FITS_HEADER
    assert (fits.parent / "fits.manifest.json").exists()


@pytest.mark.parametrize("floor", ["auto", "0.01"])
def test_fit_single_rejects_a_floor(tmp_path, capsys, floor):
    # A single fit is of the raw values; a floor it would ignore is an error.
    data, fits = tmp_path / "data.csv", tmp_path / "fits.csv"
    _write_powerlaw_csv(data, alpha=-1.0, beta=0.5)
    assert main(["fit", "--in", str(data), "--floor", floor, "--sigma", "0.1",
                 "--out", str(fits)]) == 2
    assert "fit mode 'single' fits the raw values; use --floor none" in capsys.readouterr().err
    assert not fits.exists()


def test_fit_excess_with_auto_floor(tmp_path, capsys):
    data = tmp_path / "data.csv"
    floor = 0.1**2 / (1 + 0.1**2)
    _write_powerlaw_csv(data, alpha=-1.0, beta=0.5, floor=floor)
    assert main(["fit", "--in", str(data), "--mode", "excess",
                 "--floor", "auto", "--sigma", "0.1"]) == 0
    printed = capsys.readouterr().out
    assert "alpha=-1" in printed


@pytest.mark.parametrize("floor", ["none", "auto", "0.01"])
@pytest.mark.parametrize("mode", ["single", "excess", "segmented"])
def test_fit_and_preset_refuse_the_same_mode_floor_pairs(tmp_path, capsys, mode, floor):
    # One rule for both: a single fit takes no floor and an excess fit needs
    # one.  A preset's floor is "auto" or "none"; a number stands for "auto".
    data = tmp_path / "data.csv"
    _write_powerlaw_csv(data, alpha=-1.0, beta=2.0, floor=0.0099)
    code = main(["fit", "--in", str(data), "--mode", mode, "--floor", floor, "--sigma", "0.1"])
    raw_fit = {"mode": mode, "floor": "none" if floor == "none" else "auto"}
    try:
        _parse_preset("p", {"name": "p", "version": 1, "sweeps": [_TINY_RAW_SWEEP], "fit": raw_fit})
        preset_refused = False
    except UsageError:
        preset_refused = True
    refused = (mode, floor) in {("single", "auto"), ("single", "0.01"), ("excess", "none")}
    assert code == (2 if refused else 0) and preset_refused == refused
    assert ("--floor" in capsys.readouterr().err) == refused


def test_fit_segmented_reports_break(tmp_path, capsys):
    data, fits = tmp_path / "seg.csv", tmp_path / "segfits.csv"
    lines = ["train_size,R"]
    sizes = [10, 32, 100, 316, 1000, 3162, 10000, 31623]
    for size in sizes:
        value = 5.0 * size**-0.3 if size < 1000 else 5.0 * 1000**-0.3 * (size / 1000) ** -1.7
        lines.append(f"{size},{value!r}")
    data.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--in", str(data), "--mode", "segmented",
                 "--min-seg", "3", "--out", str(fits)]) == 0
    printed = capsys.readouterr().out
    assert "break at size~" in printed
    rows = fits.read_text().splitlines()
    assert len(rows) == 3  # header + left + right
    left = dict(zip(cli._FITS_HEADER, rows[1].split(",")))
    right = dict(zip(cli._FITS_HEADER, rows[2].split(",")))
    assert float(left["alpha"]) == pytest.approx(-0.3, abs=1e-9)
    assert float(right["alpha"]) == pytest.approx(-1.7, abs=1e-9)
    assert left["breakpoint_evidence"] == "true"


def test_segmented_rows_index_the_curve_like_the_other_modes():
    # Over a region of the curve with one point at the floor, each segment's
    # region indexes the curve, as the excess fit's does: the two tile the
    # fit region, and each n_dropped counts the drops of its own region.
    sizes = np.geomspace(10, 100000, 12)
    floor = 0.01
    points = np.column_stack([sizes, floor + 2.0 * sizes**-0.5])
    points[5, 1] = floor
    (excess,) = cli._fit_rows("c.csv", "R", points, "excess", floor, region=(1, 10))
    left, right = cli._fit_rows("c.csv", "R", points, "segmented", floor, region=(1, 10))
    assert (excess["region_lo"], excess["region_hi"], excess["n_dropped"]) == ("1", "10", "1")
    assert (left["region_lo"], left["region_hi"], right["region_hi"]) == ("1", right["region_lo"], "10")
    assert int(left["n_dropped"]) + int(right["n_dropped"]) == 1
    for row in (left, right):
        assert int(row["region_hi"]) - int(row["region_lo"]) == int(row["n_points"]) + int(row["n_dropped"])


def test_fit_min_seg_below_two_exits_2_before_reading(tmp_path, capsys):
    # A segment needs two points, so --min-seg 1 is a usage error, refused
    # before the input is read or anything is reported.
    data = tmp_path / "c.csv"
    data.write_text("train_size,R\n" + "".join(f"{s},{1.0 / s!r}\n" for s in (10, 20, 40, 80, 160)))
    assert main(["fit", "--in", str(data), "--mode", "segmented", "--min-seg", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--min-seg" in captured.err


def test_fit_multi_column_requires_col(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(_simulate_args(out)) == 0
    assert main(["fit", "--in", str(out)]) == 1  # ambiguous without --col
    assert main(["fit", "--in", str(out), "--col", "PCA_M"]) == 0
    capsys.readouterr()


# --- plot -----------------------------------------------------------------


def test_plot_renders_svg_with_overlays(tmp_path, capsys):
    curve, fits, svg = tmp_path / "c.csv", tmp_path / "f.csv", tmp_path / "p.svg"
    assert main(_simulate_args(curve)) == 0
    assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(fits)]) == 0
    assert main(["plot", "--in", str(curve), "--fits", str(fits),
                 "--title", "tiny sweep", "--out", str(svg)]) == 0
    capsys.readouterr()
    root = ET.fromstring(svg.read_text())
    assert root.tag.endswith("svg")
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "tiny sweep" in texts
    assert any(t and t.startswith("PCA_M fit:") for t in texts)
    assert (tmp_path / "p.manifest.json").exists()


def test_plot_creates_a_missing_output_directory(tmp_path, capsys):
    curve, svg = tmp_path / "c.csv", tmp_path / "new" / "dir" / "p.svg"
    assert main(_simulate_args(curve)) == 0
    assert main(["plot", "--in", str(curve), "--out", str(svg)]) == 0
    capsys.readouterr()
    assert ET.fromstring(svg.read_text()).tag.endswith("svg")
    assert (svg.parent / "p.manifest.json").exists()


def test_plot_draws_the_closed_form_series_only(tmp_path, capsys):
    # The <EST>_MC columns of an --mc-test curve are not drawn: the plot is
    # the plot of the same curve without them.
    mc, closed = tmp_path / "mc.csv", tmp_path / "closed.csv"
    assert main(_simulate_args(mc, mc_test="20")) == 0
    with open(mc, newline="") as fh:
        rows = list(csv.reader(fh))
    keep = [i for i, name in enumerate(rows[0]) if "_MC_" not in name]
    assert len(keep) == 5 < len(rows[0])
    closed.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in rows))
    svgs = [tmp_path / "mc-plot.svg", tmp_path / "closed-plot.svg"]
    for curve, svg in zip((mc, closed), svgs):
        assert main(["plot", "--in", str(curve), "--out", str(svg)]) == 0
    capsys.readouterr()
    assert svgs[0].read_bytes() == svgs[1].read_bytes()


def test_a_command_does_not_overwrite_another_outputs_manifest(tmp_path, capsys):
    # curve.csv and curve.svg would share curve.manifest.json: the plot exits 2
    # before writing anything, and the manifest keeps the record of the sweep.
    curve, svg = tmp_path / "curve.csv", tmp_path / "curve.svg"
    manifest = tmp_path / "curve.manifest.json"
    assert main(_simulate_args(curve)) == 0
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--out", str(svg)]) == 2
    assert "curve.csv" in capsys.readouterr().err
    assert not svg.exists()
    assert json.loads(manifest.read_text())["command"] == "simulate"
    assert main(["fit", "--in", str(curve), "--col", "PCA_M",
                 "--out", str(tmp_path / "curve.txt")]) == 2
    # Rerunning a command to its own output is fine, from any directory spelling.
    assert main(_simulate_args(tmp_path / "." / "curve.csv")) == 0
    doc = json.loads(manifest.read_text())
    assert doc["command"] == "simulate"
    assert doc["config"]["estimators"] == ["OPT", "PCA"]  # as SweepConfig normalizes them
    manifest.write_text("not json")
    assert main(_simulate_args(curve)) == 2
    assert manifest.read_text() == "not json"
    capsys.readouterr()


def test_plot_and_fit_refuse_to_overwrite_their_input(tmp_path, capsys):
    # c.csv's manifest lists c.csv, so only the --in check stops these: each
    # exits 2 with one line, before any read or write, from any spelling.
    curve, manifest = tmp_path / "c.csv", tmp_path / "c.manifest.json"
    assert main(_simulate_args(curve)) == 0
    before = curve.read_bytes()
    capsys.readouterr()
    for out in (curve, tmp_path / "sub" / ".." / "c.csv"):
        assert main(["plot", "--in", str(curve), "--out", str(out)]) == 2
        assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("sldlab: ") for line in err)
        assert "is the --in file" in err[0]
    assert not (tmp_path / "sub").exists()
    assert curve.read_bytes() == before
    assert json.loads(manifest.read_text())["command"] == "simulate"
    # A plot's --fits table is an input too; its manifest lists only itself.
    fits = tmp_path / "f.csv"
    assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(fits)]) == 0
    table = fits.read_bytes()
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--fits", str(fits), "--out", str(fits)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "is the --fits file" in err[0]
    assert fits.read_bytes() == table
    assert json.loads((tmp_path / "f.manifest.json").read_text())["command"] == "fit"


def test_no_command_writes_over_a_manifest(tmp_path, capsys):
    # An --out named like a manifest would replace the record of another
    # run: plot, fit and simulate each exit 2 and leave the file as it was.
    curve, manifest = tmp_path / "curve.csv", tmp_path / "curve.manifest.json"
    assert main(_simulate_args(curve)) == 0
    record = manifest.read_bytes()
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--out", str(manifest)]) == 2
    assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(manifest)]) == 2
    assert main(_simulate_args(manifest)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("names a manifest" in line for line in err)
    assert manifest.read_bytes() == record
    assert not (tmp_path / "curve.manifest.manifest.json").exists()


def test_an_out_that_is_a_directory_exits_2_before_any_work(tmp_path, capsys, monkeypatch):
    curve, taken = tmp_path / "curve.csv", tmp_path / "taken"
    assert main(_simulate_args(curve)) == 0
    taken.mkdir()
    capsys.readouterr()

    def no_sweep(*args, **kwargs):
        raise AssertionError("run_sweep reached")

    monkeypatch.setattr(cli, "run_sweep", no_sweep)
    assert main(_simulate_args(taken)) == 2
    assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(taken)]) == 2
    assert main(["plot", "--in", str(curve), "--out", str(taken)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("is a directory" in line for line in err)
    assert not any(taken.iterdir()) and not (tmp_path / "taken.manifest.json").exists()


def test_manifest_duration_ignores_a_wall_clock_step(tmp_path, capsys, monkeypatch):
    # time.time steps back an hour on every call: the recorded duration
    # comes from a monotonic clock and stays >= 0.
    clock = iter(range(10**9, 0, -3600))
    monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
    assert main(_simulate_args(tmp_path / "curve.csv")) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "curve.manifest.json").read_text())["duration_seconds"] >= 0


def test_sigma_above_the_bound_is_a_usage_error(tmp_path, capsys):
    # sigma^2 would overflow in the fit's floor, and the Gram of a sweep:
    # both commands refuse such a --sigma as they parse it.
    data = tmp_path / "data.csv"
    _write_powerlaw_csv(data, alpha=-1.0, beta=2.0, floor=0.0099)
    for sigma in ("1e154", "1e200", "inf"):
        assert main(["fit", "--in", str(data), "--mode", "excess", "--floor", "auto",
                     "--sigma", sigma]) == 2
        assert main(_simulate_args(tmp_path / "c.csv", sigma=sigma)) == 2
        err = capsys.readouterr().err
        assert err.count("argument --sigma") == 2
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_simulate_runs_clean_at_the_sigma_bound(tmp_path, capsys):
    # At SIGMA_MAX nothing over- or underflows on tall, square or wide cells,
    # nor in the Monte-Carlo block.
    curve = tmp_path / "c.csv"
    assert main(_simulate_args(curve, sigma=repr(SIGMA_MAX), grid="3:100:2",
                               est="opt,pca,esgd,pinv", mc_test=20)) == 0
    capsys.readouterr()
    with open(curve, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == ["3", "10", "32", "100"]
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)


@pytest.mark.parametrize("bad", ["curve-table", "alpha"])
def test_plot_rejects_a_bad_fits_table(tmp_path, capsys, bad):
    # A fits table without the overlay columns, or with a value that is not
    # a number, exits 1 with one error line naming the file, not a traceback.
    curve, fits, svg = tmp_path / "c.csv", tmp_path / "f.csv", tmp_path / "p.svg"
    assert main(_simulate_args(curve)) == 0
    if bad == "curve-table":
        missing = "series, alpha, log_beta, size_lo, size_hi, floor"
        fits, expected = curve, f"{curve}: not a fits table, missing columns {missing}"
    else:
        assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(fits)]) == 0
        header, row = fits.read_text().splitlines()
        fields = dict(zip(header.split(","), row.split(",")), alpha="abc")
        fits.write_text(header + "\n" + ",".join(fields.values()) + "\n")
        expected = f"{fits}:2: column alpha: expected a number, got 'abc'"
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--fits", str(fits), "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err == f"sldlab: CsvFormatError: {expected}\n"
    assert not svg.exists()


@pytest.mark.parametrize("column, value, problem", [
    ("size_lo", "0", "expected a positive number"),
    ("size_lo", "-5", "expected a positive number"),
    ("size_hi", "inf", "expected a finite number"),
    ("alpha", "nan", "expected a finite number"),
    ("log_beta", "800", "expected a line positive and finite over the size range"),
    ("log_beta", "-800", "expected a line positive and finite over the size range"),
])
def test_plot_rejects_a_fits_value_outside_the_plot_domain(tmp_path, capsys, column, value, problem):
    # Numbers that parse but cannot be drawn on log axes exit 1 with one
    # error line naming file, line and column, not a traceback or an SVG.
    curve, fits, svg = tmp_path / "c.csv", tmp_path / "f.csv", tmp_path / "p.svg"
    assert main(_simulate_args(curve)) == 0
    assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(fits)]) == 0
    header, row = fits.read_text().splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    fields[column] = value
    fits.write_text(header + "\n" + ",".join(fields.values()) + "\n")
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--fits", str(fits), "--out", str(svg)]) == 1
    err = capsys.readouterr().err
    assert err == f"sldlab: CsvFormatError: {fits}:2: column {column}: {problem}, got {value!r}\n"
    assert not svg.exists()


def test_plot_skips_non_finite_curve_values(tmp_path, capsys):
    # A mean of inf is left out like a non-positive one, and a std of inf or
    # nan draws no error bar, so every SVG coordinate is finite.
    curve, svg = tmp_path / "c.csv", tmp_path / "p.svg"
    curve.write_text("train_size,PCA_M,PCA_S\n"
                     "3,0.5,inf\n10,inf,0.1\n30,0.05,nan\n100,0.02,0.001\n")
    assert main(["plot", "--in", str(curve), "--out", str(svg)]) == 0
    assert capsys.readouterr().err == ""
    root = ET.fromstring(svg.read_text())
    coords = [float(value) for el in root.iter() for key, value in el.attrib.items()
              if key in ("x1", "y1", "x2", "y2", "cx", "cy")]
    coords += [float(v) for el in root.iter() if "points" in el.attrib
               for v in el.attrib["points"].replace(",", " ").split()]
    assert coords and all(math.isfinite(v) for v in coords)
    circles = [el for el in root.iter() if el.tag.endswith("circle")]
    assert len(circles) == 3  # the point with mean inf is left out
    bars = [el for el in root.iter() if el.tag.endswith("}line") and el.get("stroke") == "#1f77b4"]
    assert len(bars) == 2  # error bars only where the std is finite, legend line included


# --- reproduce -------------------------------------------------------------


_TINY_PRESET = Preset(
    name="tiny",
    version=1,
    description="miniature preset for wiring tests",
    sweeps={
        "main": SweepConfig(params=ModelParams(d=2, n=10, sigma_z=0.2),
                            train_sizes=default_train_grid(2, 40, 2), n_seeds=2,
                            estimators=("ESGD", "PCA")),
    },
    fit=FitSpec(mode="excess", floor="auto", min_train_size=2),
)
_TINY_RAW_SWEEP = {"label": "main", "d": 2, "n": 10, "sigma_z": 0.2, "grid": [2, 40, 2],
                   "n_seeds": 2, "estimators": ["ESGD", "PCA"]}


def test_reproduce_writes_full_artifact_set(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "tiny", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    manifest = json.loads((out_dir / "tiny.manifest.json").read_text())
    outputs = [out_dir / "tiny_main.csv", out_dir / "tiny_main.svg", out_dir / "tiny_fits.csv"]
    assert manifest["outputs"] == [str(p) for p in outputs]
    for p in outputs:
        assert p.exists(), p
    ET.fromstring((out_dir / "tiny_main.svg").read_text())
    fits_rows = (out_dir / "tiny_fits.csv").read_text().splitlines()
    assert fits_rows[0].split(",") == cli._FITS_HEADER
    assert len(fits_rows) == 3  # ESGD + PCA rows


def test_no_command_writes_over_the_reproduce_manifest(tmp_path, capsys, monkeypatch):
    # reproduce names its record <preset>.manifest.json, so the rule that
    # refuses an --out named like a manifest keeps every command off it.
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    assert main(["reproduce", "tiny", "--out", str(tmp_path)]) == 0
    curve, manifest = tmp_path / "tiny_main.csv", tmp_path / "tiny.manifest.json"
    record = manifest.read_bytes()
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--out", str(manifest)]) == 2
    assert main(["fit", "--in", str(curve), "--col", "PCA_M", "--out", str(manifest)]) == 2
    assert main(_simulate_args(manifest)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("names a manifest" in line for line in err)
    assert manifest.read_bytes() == record
    assert json.loads(record)["command"] == "reproduce"


def _files(directory: Path) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def test_reproduce_refuses_to_replace_a_sweep_record(tmp_path, capsys, monkeypatch):
    # tiny.manifest.json is the record of a sweep into tiny.csv, and the
    # name reproduce gives its own: it exits 2 before the first sweep.
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    assert main(_simulate_args(tmp_path / "tiny.csv")) == 0
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(["reproduce", "tiny", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "tiny.manifest.json records tiny.csv" in err
    assert _files(tmp_path) == before


def test_no_command_writes_over_an_output_of_the_reproduce_record(tmp_path, capsys, monkeypatch):
    # tiny.manifest.json lists tiny_main.csv, tiny_main.svg and tiny_fits.csv:
    # plot, fit and simulate each exit 2 onto them and leave every file as it was.
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    assert main(["reproduce", "tiny", "--out", str(tmp_path)]) == 0
    curve, svg = tmp_path / "tiny_main.csv", tmp_path / "tiny_main.svg"
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(["plot", "--in", str(curve), "--out", str(svg)]) == 2
    assert main(["fit", "--in", str(curve), "--col", "PCA_M",
                 "--out", str(tmp_path / "tiny_fits.csv")]) == 2
    assert main(_simulate_args(curve)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 3 and all("tiny.manifest.json records tiny_" in line for line in err)
    assert _files(tmp_path) == before


def test_reproduce_refuses_a_directory_named_like_a_manifest(tmp_path, capsys, monkeypatch):
    # Every record in a directory is read before a write into it, so such a
    # directory would stop every later command there.
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    out_dir = tmp_path / "r.manifest.json"
    assert main(["reproduce", "tiny", "--out", str(out_dir)]) == 2
    assert "names a manifest" in capsys.readouterr().err
    assert not out_dir.exists()


def test_a_rerun_into_the_same_place_is_allowed(tmp_path, capsys, monkeypatch):
    # Beside the preset's record, a sweep into an unlisted name is fine too.
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    for _ in range(2):
        assert main(["reproduce", "tiny", "--out", str(tmp_path)]) == 0
        assert main(_simulate_args(tmp_path / "curve.csv")) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "tiny.manifest.json").read_text())["command"] == "reproduce"
    assert json.loads((tmp_path / "curve.manifest.json").read_text())["command"] == "simulate"


def test_the_benchmark_layout_runs_clean_twice(tmp_path, capsys):
    # One sweep, two fits and a plot into one directory, as perfbench/run.py
    # lays them out: each record lists only its own output.
    curve = tmp_path / "curve.csv"
    fits = {col: tmp_path / f"fits_{col}.csv" for col in ("ESGD_M", "PCA_M")}
    for _ in range(2):
        assert main(_simulate_args(curve, grid="3:300:3", est="esgd,pca")) == 0
        for col, out in fits.items():
            assert main(["fit", "--in", str(curve), "--col", col, "--mode", "excess",
                         "--floor", "auto", "--sigma", "0.2", "--out", str(out)]) == 0
        assert main(["plot", "--in", str(curve), "--fits", str(fits["PCA_M"]),
                     "--out", str(tmp_path / "plot.svg")]) == 0
    capsys.readouterr()
    for name in ("curve.csv", "fits_ESGD_M.csv", "fits_PCA_M.csv", "plot.svg"):
        record = json.loads((tmp_path / name).with_suffix(".manifest.json").read_text())
        assert record["outputs"] == [str(tmp_path / name)]


def test_reproduce_is_deterministic_per_seed(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "load_preset", lambda name: _TINY_PRESET)
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert main(["reproduce", "tiny", "--out", str(a)]) == 0
    assert main(["reproduce", "tiny", "--out", str(b)]) == 0
    assert main(["reproduce", "tiny", "--base-seed", "3", "--out", str(c)]) == 0
    capsys.readouterr()
    assert (a / "tiny_main.csv").read_bytes() == (b / "tiny_main.csv").read_bytes()
    assert (a / "tiny_main.csv").read_bytes() != (c / "tiny_main.csv").read_bytes()


def test_reproduce_without_fit_plots_like_the_plot_command(tmp_path, capsys, monkeypatch):
    preset = dataclasses.replace(_TINY_PRESET, fit=None)
    monkeypatch.setattr(cli, "load_preset", lambda name: preset)
    out_dir, svg = tmp_path / "repro", tmp_path / "plot.svg"
    assert main(["reproduce", "tiny", "--out", str(out_dir)]) == 0
    assert main(["plot", "--in", str(out_dir / "tiny_main.csv"), "--title", "tiny main",
                 "--out", str(svg)]) == 0
    capsys.readouterr()
    assert (out_dir / "tiny_main.svg").read_bytes() == svg.read_bytes()


def test_reproduce_unknown_preset_exits_2(tmp_path, capsys):
    assert main(["reproduce", "fig99", "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "second,fit",
    [
        # the second sweep has d >= n: nothing may run before it is rejected
        ({"d": 10}, {"mode": "excess", "floor": "auto", "min_train_size": 2}),
        # min_train_size above the grid leaves no fit region
        ({}, {"mode": "excess", "floor": "auto", "min_train_size": 1000}),
        # OPT's risk is the floor itself, so no point of it is left above the floor
        ({"estimators": ["PCA", "OPT"]}, {"mode": "segmented", "floor": "auto"}),
    ],
    ids=["second-sweep-d-ge-n", "min-train-size-above-grid", "second-sweep-opt-above-floor"],
)
def test_reproduce_rejects_bad_preset_before_any_sweep(tmp_path, capsys, monkeypatch, second, fit):
    sweeps = [_TINY_RAW_SWEEP, {**_TINY_RAW_SWEEP, "label": "b", **second}]
    raw = {"name": "tiny", "version": 1, "sweeps": sweeps, "fit": fit}
    monkeypatch.setattr(cli, "load_preset", lambda name: _parse_preset(name, raw))
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "tiny", "--out", str(out_dir)]) == 2
    assert "sldlab: error: preset 'tiny'" in capsys.readouterr().err
    assert not out_dir.exists() or not any(out_dir.iterdir())


# sizes (3, 6, 10, 18, 32, 56, 100, 178, 316): enough points for a segmented fit
_FIT_SWEEP = dataclasses.replace(_TINY_PRESET.sweeps["main"],
                                 train_sizes=default_train_grid(2, 400, 4))


@pytest.mark.parametrize(
    "mode,floor", [("single", "none"), ("excess", "auto"), ("segmented", "auto"),
                   ("segmented", "none")],
)
def test_reproduce_fits_equal_fit_command_rows(tmp_path, capsys, monkeypatch, mode, floor):
    preset = dataclasses.replace(_TINY_PRESET, sweeps={"main": _FIT_SWEEP},
                                 fit=FitSpec(mode=mode, floor=floor, min_train_size=3))
    monkeypatch.setattr(cli, "load_preset", lambda name: preset)
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "tiny", "--out", str(out_dir)]) == 0
    with open(out_dir / "tiny_fits.csv", newline="") as fh:
        reproduced = list(csv.DictReader(fh))
    fitted = []
    for name in _FIT_SWEEP.estimators:
        fits = tmp_path / f"{name}.csv"
        assert main(["fit", "--in", str(out_dir / "tiny_main.csv"), "--col", f"{name}_M",
                     "--mode", mode, "--floor", floor, "--sigma", str(_FIT_SWEEP.params.sigma_z),
                     "--out", str(fits)]) == 0
        with open(fits, newline="") as fh:
            fitted += list(csv.DictReader(fh))
    capsys.readouterr()
    assert len(reproduced) == len(fitted) == (4 if mode == "segmented" else 2)
    for ours, theirs in zip(reproduced, fitted):
        assert ours.pop("source") == "tiny_main.csv"
        assert ours.pop("series") == f"main/{theirs.pop('series')[:-2]}"
        theirs.pop("source")
        assert ours == theirs


@pytest.mark.parametrize(
    "mode,floor,ylabel", [("single", "none", "risk"), ("excess", "auto", "excess risk"),
                          ("segmented", "auto", "excess risk"), ("segmented", "none", "risk")],
)
def test_reproduce_plot_matches_its_fits(tmp_path, capsys, monkeypatch, mode, floor, ylabel):
    # The plot subtracts the floor exactly when the fit does, and draws every fit row.
    preset = dataclasses.replace(_TINY_PRESET, sweeps={"main": _FIT_SWEEP},
                                 fit=FitSpec(mode=mode, floor=floor, min_train_size=3))
    monkeypatch.setattr(cli, "load_preset", lambda name: preset)
    out_dir = tmp_path / "repro"
    assert main(["reproduce", "tiny", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    root = ET.fromstring((out_dir / "tiny_main.svg").read_text())
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert ylabel in texts and ("excess risk" in texts) == (ylabel == "excess risk")
    segments = ("left", "right") if mode == "segmented" else ("fit",)
    for name in _FIT_SWEEP.estimators:
        assert (f"{name} excess" in texts) == (ylabel == "excess risk")
        for segment in segments:
            assert any(t and t.startswith(f"{name} {segment}: alpha=") for t in texts)
