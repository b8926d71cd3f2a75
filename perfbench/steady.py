"""Steadiness check and results file: run each workload once per seed.

    python3 perfbench/steady.py --runs 10 --out perfbench/results/BENCH_0.json

For every workload and end-to-end metric this prints the median of the
runs and the spread (distance between the first and third quartile, as
``statistics.quantiles(values, n=4)`` gives them, over the median) next to
the metric's bound from BENCHMARK.json.  Raw seconds (step and
calibration) are shown beside the calibrated values.  Seeds are 1..runs;
runs are sequential, one process each.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def spread(values: list) -> tuple:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=True)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    context = next(json.loads(line[len("# context "):]) for line in lines
                   if line.startswith("# context "))
    return {"result": result, "context": context}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write medians, quartiles and every value as JSON")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.runs + 1))
    report = {"python": platform.python_version(), "machine": platform.machine(),
              "seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds) for seed in seeds]
        columns = {name: [r["result"]["metrics"][name]["value"] for r in runs]
                   for name in bounds}
        for raw in ("step_s_p50", "calib_s_p50"):
            columns[raw] = [r["context"][raw] for r in runs]
        rows = {}
        print(f"== {workload}  ({len(runs)} runs, {seconds} s each)")
        for name, values in columns.items():
            med, q1, q3, rel = spread(values)
            bound = bounds.get(name)
            ok = bound is None or rel < bound / 3.0
            steady &= ok
            rows[name] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                          "bound": bound, "values": values}
            mark = "" if bound is None else ("ok" if ok else "WIDE")
            print(f"  {name:<18} median {med:<12.6g} spread {rel:7.4f}"
                  f"  bound {bound if bound is not None else '-':<5} {mark}")
        correct = all(r["result"]["correct"] for r in runs)
        steady &= correct
        print(f"  correct in every run: {correct}")
        report["workloads"][workload] = {
            "metrics": rows, "correct": correct,
            "causes": [r["context"]["causes"] for r in runs]}
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
