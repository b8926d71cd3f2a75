#!/usr/bin/env python3
"""Fingerprint the benchmark's sweep outputs, one sha256 per workload and seed.

Builds the ``sweep-wide`` and ``sweep-deep`` grids of every variant of a
seed exactly as the benchmark does (``perfbench/workloads.py``), runs each
cell through ``run_sweep`` twice in the same directory, and hashes the
variants' per-step digests in variant order.  Two checkouts whose lines
match wrote byte-identical sweep files for every cell, so a change meant
to keep every value can be checked with one diff.  The second run writes
over the first run's files, as every timed step of the benchmark does;
when its digest differs from the first, the script names the variant and
exits with status 1.

Usage:
    python scripts/sweep_fingerprint.py
    python scripts/sweep_fingerprint.py --seeds 1,2,7 --workloads sweep-wide
"""

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads as wl  # noqa: E402

SWEEPS = tuple(name for name in wl.WORKLOADS if name != "verify")


def fingerprint(workload: str, seed: int) -> str:
    """sha256 over the digests of every variant's step, in variant order."""
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as workdir:
        bench = wl.Workload(workload, seed, workdir)
        for v in range(bench.variants):
            bench.step(v)
            first = bench.digest(v)
            bench.step(v)
            if bench.digest(v) != first:
                sys.exit(f"error: {workload} seed {seed} variant {v}: "
                         "a rerun over its own files changed the output")
            digest.update(first.encode())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,7", help="comma-separated benchmark seeds")
    parser.add_argument("--workloads", default=",".join(SWEEPS),
                        help=f"comma-separated subset of {', '.join(SWEEPS)}")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in SWEEPS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    for name in names:
        for seed in (int(tok) for tok in args.seeds.split(",")):
            print(f"{name} seed {seed}: {fingerprint(name, seed)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
