"""Benchmark for sldlab: seeded sweep workloads run through the ``sldlab`` CLI.

    python3 perfbench/run.py --workload fig5-serial --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports ``sldlab`` from
``src/`` and exits non-zero without a result when that is missing.

``--trace 0`` runs the workload's commands (``simulate``, then ``fit`` and
``plot`` where listed) as fresh ``python -m sldlab.cli`` processes, again and
again until ``--seconds`` would be exceeded, and reports the end-to-end
metrics as medians over those repetitions.  ``--trace 1`` runs the same
commands in-process through ``sldlab.cli.main``, alternating an untraced and
a traced repetition, and reports the per-layer metrics of ``tracer.py``.

``--seed`` picks the base seed ``seed % reference.SEEDS``, which is passed
to every ``simulate`` as ``--base-seed``, so all repetitions of a run do
identical work.  Each repetition is checked: every command exits 0, the
curve CSV matches the curve committed in ``reference.json`` for that sweep
and base seed (``fig5-pool2`` shares ``fig5-serial``'s), every fitted
exponent is finite, and a traced repetition calls every layer the workload
is expected to reach.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it hold the environment record and a readable table.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import reference
from tracer import STEMS, Tracer, summarize

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space of runs, under the checkout.
WORK = ".perfbench-work"
#: A run must end within this many seconds whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0
#: Interpreter start-ups timed before each repetition; setup_s is their median.
SETUP_SAMPLES = 3

# Layers every serial sweep calls in the main process.
_SERIAL = frozenset({
    "model.sample_dataset", "model.sample_basis", "estimators.svd_of",
    "estimators.gd_risk_profile", "estimators.pca_estimator", "risk.closed_form",
    "sweep.run_sweep", "sweep.csv_write", "cli.main",
})


@dataclass(frozen=True)
class Workload:
    """One sweep and the commands that consume its curve."""

    sweep: str  # name of the committed reference curve in reference.json
    simulate: tuple[str, ...]  # simulate flags, without --base-seed and --out
    fit_columns: tuple[str, ...] = ()  # each fitted with --mode excess --floor auto
    plot: bool = False
    layers: frozenset[str] = _SERIAL  # stems a traced run must see

    def flag(self, name: str) -> str:
        return self.simulate[self.simulate.index(name) + 1]

    def commands(self, seed: int, workdir: Path) -> list[list[str]]:
        curve = str(workdir / "curve.csv")
        cmds = [["simulate", *self.simulate, "--base-seed", str(seed), "--out", curve]]
        for col in self.fit_columns:
            cmds.append(["fit", "--in", curve, "--col", col, "--mode", "excess",
                         "--floor", "auto", "--sigma", self.flag("--sigma"),
                         "--out", str(workdir / f"fits_{col}.csv")])
        if self.plot:
            cmds.append(["plot", "--in", curve, "--fits", str(workdir / f"fits_{self.fit_columns[0]}.csv"),
                         "--title", "perfbench", "--out", str(workdir / "plot.svg")])
        return cmds


# The paper's headline sweep (d=10, n=1000, sigma=0.1, ESGD vs PCA).  The grid
# stops at 5000 so one repetition takes seconds; it still crosses both svd_of
# routes (direct SVD below N = 2n, Gram + eigh from 2512 up).
_FIG5 = ("--d", "10", "--n", "1000", "--sigma", "0.1", "--grid", "1:5000:5",
         "--est", "esgd,pca", "--seeds", "1")

WORKLOADS: dict[str, Workload] = {
    # Serial baseline; the only workload with CSV read, fits and SVG.
    "fig5-serial": Workload(
        sweep="fig5", simulate=(*_FIG5, "--threads", "1"), fit_columns=("ESGD_M", "PCA_M"), plot=True,
        layers=_SERIAL | {"estimators.svd_of_tall", "estimators.svd_of_wide",
                          "sweep.csv_read", "powerlaw.fit", "svgplot.render"},
    ),
    # The process pool in run_sweep; cells run in workers, so a traced run sees
    # only the main-process layers.  Not in BENCHMARK.json: its repetition time
    # is bimodal (BLAS threads of two workers oversubscribe two cores).
    "fig5-pool2": Workload(
        sweep="fig5", simulate=(*_FIG5, "--threads", "2"),
        layers=frozenset({"sweep.run_sweep", "sweep.csv_write", "cli.main"}),
    ),
    # The fig9 n=10^4 regime: every cell has N << n, so svd_of dominates.
    "wide-n10000": Workload(
        sweep="wide-n10000",
        simulate=("--d", "10", "--n", "10000", "--sigma", "0.1", "--grid", "100:1000:5",
                  "--est", "esgd,pca", "--seeds", "1", "--threads", "1"),
        layers=_SERIAL | {"estimators.svd_of_tall"},
    ),
    # The only workload with Monte-Carlo risk and dense n x n ESGD/PINV maps.
    "mc-n1000": Workload(
        sweep="mc-n1000",
        simulate=("--d", "10", "--n", "1000", "--sigma", "0.1", "--grid", "10:1000:3",
                  "--est", "opt,pca,esgd,pinv", "--mc-test", "2000", "--seeds", "1",
                  "--threads", "1"),
        layers=_SERIAL | {"estimators.svd_of_tall", "estimators.svd_of_wide",
                          "estimators.dense_build", "risk.monte_carlo"},
    ),
}


@dataclass
class Rep:
    """One repetition of a workload's commands."""

    wall_s: float
    setup_s: list[float] = field(default_factory=list)  # interpreter start + import, just before
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    sweep_s: float | None = None  # the simulate manifest's duration_seconds
    problems: list[str] = field(default_factory=list)


# =====================================================================
# Environment and set-up
# =====================================================================


def child_env() -> dict[str, str]:
    """The caller's environment with src/ first on PYTHONPATH; BLAS settings untouched."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def environment(seed: int) -> dict[str, object]:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "threads_env": {k: os.environ.get(k) for k in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "base_seed": seed % reference.SEEDS,
    }


def measure_setup(env: dict[str, str], workdir: Path) -> float:
    """Seconds from a fresh interpreter to ``sldlab.cli`` imported."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import sldlab.cli"], cwd=workdir, env=env, check=True, timeout=60)
    return time.perf_counter() - start


# =====================================================================
# Repetitions
# =====================================================================


def _run_cli(argv: list[str], workdir: Path, env: dict[str, str], deadline: float) -> tuple[int, float, float, float]:
    """Run ``python -m sldlab.cli *argv``; return (exit code, wall s, cpu s, peak RSS MB).

    cpu and RSS come from wait4, so they cover the command and the pool
    workers it waited for.
    """
    with open(workdir / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "sldlab.cli", *argv],
                                cwd=workdir, env=env, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                os.kill, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024 / 1e6


def _check_outputs(workload: Workload, workdir: Path, expected: dict, rep: Rep) -> None:
    curve = workdir / "curve.csv"
    text = curve.read_text(encoding="utf-8") if curve.exists() else ""
    mismatch = reference.compare(text, expected)
    if mismatch:
        rep.problems.append(f"curve CSV differs from the reference: {mismatch}")
    for col in workload.fit_columns:
        path = workdir / f"fits_{col}.csv"
        rows = list(csv.DictReader(path.open(encoding="utf-8"))) if path.exists() else []
        try:
            finite = bool(rows) and all(math.isfinite(float(r["alpha"])) for r in rows)
        except (KeyError, ValueError):
            finite = False
        if not finite:
            rep.problems.append(f"fit of {col} has no finite alpha")
    if workload.plot:
        svg = workdir / "plot.svg"
        if not svg.exists() or not svg.read_text(encoding="utf-8").rstrip().endswith("</svg>"):
            rep.problems.append("plot wrote no SVG")
    manifest = workdir / "curve.manifest.json"
    if manifest.exists():
        rep.sweep_s = float(json.loads(manifest.read_text(encoding="utf-8"))["duration_seconds"])


def _clear(workdir: Path) -> None:
    for path in workdir.iterdir():
        path.unlink()


def cli_rep(workload: Workload, seed: int, workdir: Path, env: dict[str, str],
            expected: dict, deadline: float) -> Rep:
    """Run the commands as separate processes, as a user would."""
    _clear(workdir)
    rep = Rep(wall_s=0.0)
    for argv in workload.commands(seed, workdir):
        code, wall, cpu, rss = _run_cli(argv, workdir, env, deadline)
        rep.wall_s += wall
        rep.cpu_s += cpu
        rep.peak_rss_mb = max(rep.peak_rss_mb, rss)
        if code != 0:
            tail = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")[-300:]
            rep.problems.append(f"{argv[0]} exited with {code}: {tail.strip()}")
            break
    else:
        _check_outputs(workload, workdir, expected, rep)
    return rep


def inprocess_rep(workload: Workload, seed: int, workdir: Path, expected: dict) -> Rep:
    """Run the commands through ``sldlab.cli.main`` in this process."""
    import sldlab.cli

    _clear(workdir)
    rep = Rep(wall_s=0.0)
    sink = io.StringIO()
    start = time.perf_counter()
    for argv in workload.commands(seed, workdir):
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = sldlab.cli.main(argv)
        if code != 0:
            rep.problems.append(f"{argv[0]} exited with {code}: {sink.getvalue()[-300:]}")
            break
    rep.wall_s = time.perf_counter() - start
    if not rep.problems:
        _check_outputs(workload, workdir, expected, rep)
    return rep


def repeat(step, seconds: float, deadline: float) -> list:
    """Call ``step`` until the next call would end after ``seconds``; at least once."""
    results = []
    start = time.monotonic()
    while True:
        results.append(step())
        elapsed = time.monotonic() - start
        if elapsed * (len(results) + 1) / len(results) > seconds or time.monotonic() > deadline:
            return results


# =====================================================================
# Runs
# =====================================================================


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    spread: dict[str, tuple[float, float, int]]  # name -> (q1, q3, samples) for the table
    problems: list[str]
    #: printed in the table only, not part of the result line
    notes: dict[str, tuple[float, str]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def _quartiles(values: list[float]) -> tuple[float, float, int]:
    if len(values) < 2:
        return values[0], values[0], len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, len(values)


def _tally(reps: list[Rep]) -> tuple[int, int, list[str]]:
    failed = [r for r in reps if r.problems]
    return len(reps), len(failed), sorted({p for r in failed for p in r.problems})


def run_untraced(workload: Workload, seed: int, seconds: float, workdir: Path, deadline: float,
                 expected: dict) -> Result:
    env = child_env()
    cells = len(expected["rows"]) * int(workload.flag("--seeds"))

    def step() -> Rep:
        # Set-up is sampled before every repetition so that its median, like
        # the others, spans the whole run rather than one moment of it.
        setup_s = [measure_setup(env, workdir) for _ in range(SETUP_SAMPLES)]
        rep = cli_rep(workload, seed, workdir, env, expected, deadline)
        rep.setup_s = setup_s
        return rep

    reps = repeat(step, seconds, deadline)
    attempted, failed, problems = _tally(reps)
    series = {
        "wall_s": ([r.wall_s for r in reps], "s"),
        "setup_s": ([s for r in reps for s in r.setup_s], "s"),
        "cells_per_s": ([cells / r.sweep_s for r in reps if r.sweep_s], "1/s"),
        "cpu_s": ([r.cpu_s for r in reps], "s"),
        "peak_rss_mb": ([r.peak_rss_mb for r in reps], "MB"),
    }
    metrics = {}
    spread = {}
    for name, (values, unit) in series.items():
        values = values or [0.0]
        metrics[name] = (statistics.median(values), unit)
        spread[name] = _quartiles(values)
    return Result(attempted, failed, metrics, spread, problems)


_UNITS = {"model.sampled_mb": "MB", "model.sample_dataset_unique_frac": "ratio"}


def run_traced(workload: Workload, seed: int, seconds: float, workdir: Path, deadline: float,
               expected: dict) -> Result:
    def pair() -> tuple[Rep, Rep, dict[str, float], float]:
        plain = inprocess_rep(workload, seed, workdir, expected)
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        with Tracer() as tracer:
            traced = inprocess_rep(workload, seed, workdir, expected)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        layer = summarize(tracer.spans)
        missing = [stem for stem in STEMS if stem in workload.layers and layer[f"{stem}_calls"] == 0]
        if missing:
            traced.problems.append("expected layers not called: " + ", ".join(missing))
        # Pool workers are children of this process; their spans stay in them.
        children_cpu = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        return plain, traced, layer, children_cpu

    # The first in-process repetition pays one-off costs (lazy imports, BLAS
    # start-up) that would otherwise land in the first plain time and make
    # trace.overhead_s negative; it is checked but not timed.
    start = time.monotonic()
    warmup = inprocess_rep(workload, seed, workdir, expected)
    pairs = repeat(pair, seconds - (time.monotonic() - start), deadline)
    attempted, failed, problems = _tally([warmup, *(r for p in pairs for r in p[:2])])
    metrics: dict[str, tuple[float, str]] = {}
    spread = {}
    for name in pairs[0][2]:
        values = [p[2][name] for p in pairs]
        metrics[name] = (statistics.median(values), "count" if name.endswith("_calls") else _UNITS.get(name, "s"))
        spread[name] = _quartiles(values)
    plain = statistics.median(p[0].wall_s for p in pairs)
    traced = statistics.median(p[1].wall_s for p in pairs)
    metrics["trace.overhead_s"] = (traced - plain, "s")
    notes = {"sweep.children_cpu_s": (statistics.median(p[3] for p in pairs), "s")}
    return Result(attempted, failed, metrics, spread, problems, notes)


def report(name: str, env_record: dict[str, object], result: Result) -> None:
    print("environment " + json.dumps(env_record, sort_keys=True))
    print(f"workload {name}: attempted {result.attempted}, failed {result.failed}, "
          f"error_rate {result.failed / result.attempted:.4g}")
    for problem in result.problems:
        print(f"  FAILED: {problem}")
    for metric, (value, unit) in {**result.metrics, **result.notes}.items():
        q1, q3, n = result.spread.get(metric, (value, value, 1))
        note = "  (table only)" if metric in result.notes else ""
        print(f"  {metric:40s} {value:12.6g} {unit:6s} [q1 {q1:.6g}, q3 {q3:.6g}, n={n}]{note}")
    print(result.line())


def import_sources() -> str | None:
    """Import sldlab from the checkout's src/; return an error message on failure."""
    if not (SRC / "sldlab" / "cli.py").is_file():
        return f"no sldlab sources under {SRC}"
    sys.path.insert(0, str(SRC))
    import sldlab.cli

    if Path(sldlab.__file__).resolve().parent != SRC / "sldlab":
        return f"imported sldlab from {sldlab.__file__}, not from {SRC}"
    return None


def execute(workload: Workload, seed: int, seconds: float, trace: bool,
            expected: dict | None = None) -> Result:
    """One run at base seed ``seed`` in a work directory under the checkout, removed afterwards.

    ``expected`` is the reference curve; by default the committed one.
    """
    if expected is None:
        expected = reference.load(workload.sweep, workload.simulate, seed)
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = ROOT / WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        run = run_traced if trace else run_untraced
        return run(workload, seed, seconds, workdir, deadline, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="picks the base seed passed to simulate")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_sources()
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    base_seed = args.seed % reference.SEEDS
    result = execute(WORKLOADS[args.workload], base_seed, args.seconds, bool(args.trace))
    report(args.workload, environment(args.seed), result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
