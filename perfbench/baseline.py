"""Run every workload of BENCHMARK.json over several seeds and summarise the spread.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload it makes ``RUNS`` untraced runs with seeds 0, 1, ... and
one traced run with seed 0, all with the file's ``run_seconds``.  Each
end-to-end metric gets its median, quartiles and spread (interquartile range
as a share of the median) next to the bound BENCHMARK.json fixes; the
output also keeps every raw value and the environment record of the runs.
It exits 1 when a spread is not below a third of its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command: list[str], workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One benchmark run; returns (result line, environment record)."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    return json.loads(lines[-1]), env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    command = [sys.executable if c == "python3" else c for c in spec["command"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary: dict[str, object] = {"run_seconds": spec["run_seconds"], "runs": RUNS, "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in range(RUNS):
            result, env = run_once(command, name, seed, spec["run_seconds"], 0)
            results.append(result)
            summary["environment"] = {k: v for k, v in env.items() if k != "base_seed"}
        entry: dict[str, object] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "end_to_end": {},
        }
        print(f"{name}: attempted {entry['attempted']}, failed {entry['failed']}, "
              f"error_rate {entry['failed'] / entry['attempted']:.4g}")
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = spread < bound / 3
            steady &= ok
            entry["end_to_end"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread, "bound": bound, "values": values,
            }
            print(f"  {metric:14s} median {median:10.5g}  spread {spread:7.2%}  bound {bound:.0%}"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        traced, _ = run_once(command, name, 0, spec["run_seconds"], 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["correct"] = entry["correct"] and traced["correct"]
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
