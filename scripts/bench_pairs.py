#!/usr/bin/env python3
"""Run the benchmark in alternating pairs of a parent checkout and this one.

Each pair runs ``perfbench/run.py --workload W --seed K --seconds S
--trace 0`` once in the parent checkout and once in this one, one process
at a time; even pairs run the parent first and odd pairs this checkout
first.  ``--workload`` takes one workload or a comma-separated list of
them, and ``--seed`` one seed or a list in the form of
``scripts/dumpdiff.py`` (``1,2``, ``1..3``).  They run one after the
other, workload by workload and within a workload seed by seed, all
pairs of one before the next.  Every run's end-to-end metrics are
printed as it finishes.  After the pairs of each workload and seed the
script prints their table, one row per end-to-end metric of
``BENCHMARK.json``: both sides' medians and
quartiles, the number of pairs this checkout won (a tie counts for
neither side) and a verdict, judged with the metric's ``better``
direction and ``bound``:

* ``regression``: this checkout's median is worse than the parent's by
  more than ``bound`` times the parent's median;
* ``gain``: this checkout won at least nine tenths of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile range;
* ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound allows, unless every run of this checkout reads better
  than every run of the parent;
* ``flat``: anything else.

The exit status is 1 when any metric of any workload at any seed is a
regression and 0 otherwise.  ``--pairs`` below 1, and a ``--parent``
that holds no ``perfbench/run.py``, are usage errors (exit 2), met
before any run: the parent runs first in the first pair.

Before the pairs the script prints, for each side, whether its checkout
holds a ``src/chebgamma/__pycache__``.  Where one does, that side's
setup_s reads cached bytecode rather than compiling the package, even
under ``PYTHONDONTWRITEBYTECODE=1``, which stops writing ``.pyc`` files
but not reading them; its setup_s then cannot be compared with a side
that compiles.

Usage:
    python scripts/bench_pairs.py --parent ../parent \\
        --workload verify,sweep-wide,sweep-deep --pairs 10 --seconds 30 --seed 1
    python scripts/bench_pairs.py --parent ../parent --workload verify \
        --pairs 5 --seed 1,2
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "scripts")]

import dumpdiff  # noqa: E402


def quartiles(samples) -> tuple:
    """(first quartile, median, third quartile) of the samples."""
    if len(samples) == 1:
        return (samples[0],) * 3
    return tuple(statistics.quantiles(samples, n=4, method="inclusive"))


def wins(parent, change, better: str) -> int:
    """How many pairs (parent[i], change[i]) the change reads better in."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better: str, bound: float) -> str:
    """The verdict on one metric's paired runs (module docstring).

    ``parent[i]`` and ``change[i]`` are the two runs of pair i.
    """
    sign = 1.0 if better == "lower" else -1.0
    p1, p_med, p3 = quartiles(parent)
    # how far the change's median is better than the parent's
    gap = sign * (p_med - statistics.median(change))
    if -gap > bound * abs(p_med):
        return "regression"
    if wins(parent, change, better) * 10 >= 9 * len(parent) and gap > p3 - p1:
        return "gain"
    separated = all(sign * (p - c) > 0 for p in parent for c in change)
    if p3 - p1 > bound * abs(p_med) and not separated:
        return "unresolved"
    return "flat"


def bytecode_note(checkout: Path) -> str:
    """Whether checkout holds cached bytecode of the package, in words."""
    if (checkout / "src" / "chebgamma" / "__pycache__").is_dir():
        return "src/chebgamma/__pycache__ present: setup_s reads cached bytecode"
    return "no src/chebgamma/__pycache__: setup_s compiles the package"


def run_once(checkout: Path, workload: str, seed: int, args) -> dict:
    """One benchmark run of workload at seed in checkout: metric name -> value.

    Raises FileNotFoundError, before it starts anything, where checkout
    holds no perfbench/run.py.
    """
    if not (checkout / "perfbench" / "run.py").is_file():
        raise FileNotFoundError(f"no perfbench/run.py in {checkout}")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def compare(workload: str, seed: int, sides: dict, metrics: list, args) -> bool:
    """Run workload's pairs at seed, print its runs and table; True if it regressed."""
    runs = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            values = run_once(sides[side], workload, seed, args)
            runs[side].append(values)
            print(f"{workload} seed {seed} pair {i + 1} {side:<6} " + " ".join(
                f"{m['name']}={values[m['name']]:.6g}" for m in metrics), flush=True)

    print(f"\n{workload} seed={seed} pairs={args.pairs} seconds={args.seconds}")
    print(f"{'metric':<18} {'better':<6} {'parent median [q1, q3]':<34} "
          f"{'change median [q1, q3]':<34} {'wins':<7} verdict")
    regressed = False
    for m in metrics:
        name = m["name"]
        parent = [values[name] for values in runs["parent"]]
        change = [values[name] for values in runs["change"]]
        won = wins(parent, change, m["better"])
        judged = verdict(parent, change, m["better"], m["bound"])
        regressed |= judged == "regression"
        cells = ["%.6g [%.6g, %.6g]" % (q[1], q[0], q[2])
                 for q in (quartiles(parent), quartiles(change))]
        print(f"{name:<18} {m['better']:<6} {cells[0]:<34} {cells[1]:<34} "
              f"{f'{won}/{args.pairs}':<7} {judged}")
    print(flush=True)
    return regressed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, metavar="DIR",
                        help="root of the parent checkout")
    parser.add_argument("--workload", required=True, metavar="W[,W...]",
                        help="one workload, or a comma-separated list")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=dumpdiff.parse_seeds, default=[1], metavar="K[,K...]",
                        help="one seed, or a list such as 1,2 or 1..3")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    for side, checkout in sides.items():
        print(f"{side} {checkout}: {bytecode_note(checkout)}", flush=True)
    # every workload and seed runs, even after one has regressed
    try:
        regressed = [compare(w, seed, sides, metrics, args)
                     for w in args.workload.split(",") for seed in args.seed]
    except FileNotFoundError as exc:
        parser.error(str(exc))
    return 1 if any(regressed) else 0


if __name__ == "__main__":
    sys.exit(main())
