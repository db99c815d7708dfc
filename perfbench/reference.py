"""Committed reference curves for the benchmark's sweeps.

    python3 perfbench/reference.py

rewrites ``perfbench/reference.json``: for every sweep of run.py and every
base seed below ``SEEDS`` it runs ``python -m sldlab.cli simulate ...
--threads 1`` once and keeps the curve table, each value rounded to
``DIGITS`` significant digits.  run.py compares the curve of every
repetition with this file, so a change to any number the package computes
shows as a failed repetition.  Regenerate the file only for a change that
is meant to alter results, and say so where the change is described.
"""

from __future__ import annotations

import csv
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().with_name("reference.json")

#: Base seeds 0 .. SEEDS-1 have a committed curve; run.py maps --seed onto them.
SEEDS = 32
DIGITS = 10
#: A value matches when it is within REL_TOL of the reference (or ABS_TOL of 0).
REL_TOL = 1e-6
ABS_TOL = 1e-12


def sweep_flags(simulate: tuple[str, ...]) -> list[str]:
    """The simulate flags that fix the curve: all but ``--threads N``."""
    flags = list(simulate)
    if "--threads" in flags:
        i = flags.index("--threads")
        del flags[i:i + 2]
    return flags


def parse_curve(text: str) -> dict[str, list]:
    """A curve CSV as its header and rows of floats (train_size first)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise ValueError("empty curve CSV")
    return {"header": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}


def rounded(curve: dict[str, list]) -> dict[str, list]:
    return {"header": curve["header"],
            "rows": [[float(format(v, f".{DIGITS}g")) for v in row] for row in curve["rows"]]}


def compare(text: str, reference: dict[str, list]) -> str | None:
    """Why the curve CSV ``text`` does not match ``reference``, or None if it does."""
    try:
        curve = parse_curve(text)
    except ValueError as exc:
        return f"unreadable curve CSV: {exc}"
    if curve["header"] != reference["header"]:
        return f"header {curve['header']} != {reference['header']}"
    if len(curve["rows"]) != len(reference["rows"]):
        return f"{len(curve['rows'])} rows, reference has {len(reference['rows'])}"
    for got_row, want_row in zip(curve["rows"], reference["rows"]):
        for column, got, want in zip(curve["header"], got_row, want_row):
            if not math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
                return f"{column} at train_size {want_row[0]:g} is {got!r}, reference {want!r}"
    return None


def load(sweep: str, simulate: tuple[str, ...], base_seed: int) -> dict[str, list]:
    """The committed curve of ``sweep`` at ``base_seed``; the flags must match the file's."""
    entry = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))["sweeps"][sweep]
    if entry["flags"] != sweep_flags(simulate):
        raise ValueError(f"reference.json holds sweep {sweep} for flags {entry['flags']}, "
                         f"not {sweep_flags(simulate)}; regenerate it with reference.py")
    return entry["curves"][str(base_seed)]


def main() -> int:
    import run

    error = run.import_sources()
    if error:
        print(f"reference: {error}", file=sys.stderr)
        return 1
    sweeps: dict[str, dict[str, object]] = {}
    for workload in run.WORKLOADS.values():
        if workload.sweep in sweeps:
            continue
        flags = sweep_flags(workload.simulate)
        curves = {}
        (run.ROOT / run.WORK).mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.ROOT / run.WORK) as tmp:
            out = Path(tmp) / "curve.csv"
            for seed in range(SEEDS):
                subprocess.run(
                    [sys.executable, "-m", "sldlab.cli", "simulate", *flags, "--threads", "1",
                     "--base-seed", str(seed), "--out", str(out)],
                    cwd=tmp, env=run.child_env(), check=True, stdout=subprocess.DEVNULL,
                )
                curves[str(seed)] = rounded(parse_curve(out.read_text(encoding="utf-8")))
        sweeps[workload.sweep] = {"flags": flags, "curves": curves}
        print(f"{workload.sweep}: {SEEDS} curves of {len(curves['0']['rows'])} rows")
    REFERENCE_FILE.write_text(dump(sweeps), encoding="utf-8")
    return 0


def dump(sweeps: dict[str, dict[str, object]]) -> str:
    """reference.json text with one line per curve, so a regenerated file diffs by seed."""
    parts = []
    for name, entry in sweeps.items():
        curves = ",\n".join(f"   {json.dumps(seed)}: {json.dumps(curve)}"
                            for seed, curve in entry["curves"].items())
        parts.append(f' {json.dumps(name)}: {{\n  "flags": {json.dumps(entry["flags"])},\n'
                     f'  "curves": {{\n{curves}\n  }}\n }}')
    return '{"sweeps": {\n' + ",\n".join(parts) + "\n}}\n"


if __name__ == "__main__":
    raise SystemExit(main())
