"""Quick self-check of the benchmark: every workload path at a tiny size.

    python3 perfbench/selfcheck.py

Runs each workload of run.py (fig5-pool2 included) shrunk to a small n and
grid, once untraced and once traced, against a reference curve taken from a
``--threads 1`` CLI run of the shrunk sweep, and asserts that the run is
correct and emits exactly the metrics BENCHMARK.json names, each with its
unit.  It then checks that the checks can fail: a run against a perturbed
reference curve, and a traced run that expects a layer it never reaches,
must both count every repetition as failed.  Last, it checks that
reference.json holds a curve for every workload and base seed, and that
run.py exits non-zero, without a result line, in a directory holding only
BENCHMARK.json and perfbench/.  Takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import reference
import run

# Small enough to run in seconds, large enough to keep every layer busy:
# each fig5/mc grid crosses N = n (tall and wide svd_of) and N = 2n (the Gram route).
TINY = {
    "fig5-serial": {"--n": "40", "--grid": "1:100:3"},
    "fig5-pool2": {"--n": "40", "--grid": "1:100:3"},
    "wide-n10000": {"--n": "300", "--grid": "10:100:3"},
    "mc-n1000": {"--n": "40", "--grid": "2:100:3", "--mc-test": "50"},
}


def shrink(workload: run.Workload, overrides: dict[str, str]) -> run.Workload:
    flags = list(workload.simulate)
    for flag, value in overrides.items():
        flags[flags.index(flag) + 1] = value
    return dataclasses.replace(workload, simulate=tuple(flags))


def expect_metrics(result: run.Result, specs: list[dict], what: str) -> None:
    got = {name: unit for name, (_, unit) in result.metrics.items()}
    want = {m["name"]: m["unit"] for m in specs}
    assert got == want, f"{what}: metrics differ from BENCHMARK.json: {set(got) ^ set(want)} " \
                        f"or units {[(k, got[k], want[k]) for k in got if k in want and got[k] != want[k]]}"


def tiny_reference(workload: run.Workload, workdir: Path) -> dict:
    """The curve of ``workload``'s sweep from one ``--threads 1`` CLI run at base seed 3."""
    out = workdir / "curve.csv"
    subprocess.run([sys.executable, "-m", "sldlab.cli", "simulate",
                    *reference.sweep_flags(workload.simulate), "--threads", "1",
                    "--base-seed", "3", "--out", str(out)],
                   cwd=workdir, env=run.child_env(), check=True, stdout=subprocess.DEVNULL)
    return reference.parse_curve(out.read_text(encoding="utf-8"))


def perturbed(curve: dict) -> dict:
    rows = [list(row) for row in curve["rows"]]
    rows[-1][1] *= 1.001
    return {"header": curve["header"], "rows": rows}


def check_bare_directory() -> None:
    bare = run.ROOT / run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fig5-serial", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare.parent, ignore_errors=True)
    assert proc.returncode != 0, "run.py succeeded without sources"
    assert '"metrics"' not in proc.stdout, "run.py printed a result without sources"


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    error = run.import_sources()
    assert error is None, error
    assert set(TINY) == set(run.WORKLOADS), "every workload needs a tiny variant"
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    workdir = run.ROOT / run.WORK / "selfcheck"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        curves: dict[str, dict] = {}
        for name, overrides in TINY.items():
            workload = shrink(run.WORKLOADS[name], overrides)
            # fig5-pool2 is held to the serial curve of fig5-serial
            expected = curves.setdefault(workload.sweep, tiny_reference(workload, workdir))
            for trace in (False, True):
                what = f"{name} trace={int(trace)}"
                result = run.execute(workload, seed=3, seconds=0, trace=trace, expected=expected)
                assert result.correct and result.attempted >= 1, f"{what}: {result.problems}"
                expect_metrics(result, spec["per_layer" if trace else "end_to_end"], what)
                print(f"ok  {what}: {len(result.metrics)} metrics")

        serial = shrink(run.WORKLOADS["fig5-serial"], TINY["fig5-serial"])
        wrong = run.execute(serial, seed=3, seconds=0, trace=False, expected=perturbed(curves["fig5"]))
        assert wrong.failed == wrong.attempted >= 1, "a changed curve value was not caught"
        print(f"ok  a changed curve value fails the run: {wrong.problems[0]}")
        unreached = dataclasses.replace(serial, layers=serial.layers | {"risk.monte_carlo"})
        traced = run.execute(unreached, seed=3, seconds=0, trace=True, expected=curves["fig5"])
        assert not traced.correct, "an expected layer without calls was not caught"
        print(f"ok  an expected layer without calls fails the run: {traced.problems[0]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, workload in run.WORKLOADS.items():
        for seed in range(reference.SEEDS):
            assert reference.load(workload.sweep, workload.simulate, seed)["rows"], (name, seed)
    print(f"ok  reference.json holds base seeds 0..{reference.SEEDS - 1} of every workload")
    check_bare_directory()
    print("ok  run.py refuses a directory without sources")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
