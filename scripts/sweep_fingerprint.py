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

``--dump DIR`` also keeps every cell's CSV, as
``DIR/<workload>/seed-<seed>/<cell>.csv`` (a cell whose ``run_sweep``
aborted leaves no file).  ``--against DIR`` reads such a dump, made by
another checkout, and reports per workload and seed how the rows moved:
how many rows changed in each column, the largest relative change of
each value between finite readings (a complex value is one value), and
every move of a point between the benchmark's failure causes, judged by
``workloads.judge_row``.  It then exits with status 1 when any row moved
and 0 when none did.  The seed list, the dump options and the rule by
which a row moved are those of ``scripts/dumpdiff.py``.

Usage:
    python scripts/sweep_fingerprint.py
    python scripts/sweep_fingerprint.py --seeds 0..2,7 --workloads sweep-wide
    python scripts/sweep_fingerprint.py --seeds 1 --dump /tmp/parent-rows
    python scripts/sweep_fingerprint.py --seeds 1 --against /tmp/parent-rows
"""

import argparse
import hashlib
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench"), str(ROOT / "scripts")]

import dumpdiff  # noqa: E402
import workloads as wl  # noqa: E402

SWEEPS = tuple(name for name in wl.WORKLOADS if name != "verify")
ABORTED = "aborted"


def _label(row) -> str:
    """Failure cause of a row (None for an aborted cell), or "pass"."""
    if row is None:
        return ABORTED
    outcome = wl.judge_row(row)
    return outcome.cause if outcome.failed else "pass"


def _value(row: dict, name: str):
    # a complex pair name_re/name_im, or a real column; "" reads as None
    if f"{name}_re" in row:
        parts = (row[f"{name}_re"], row[f"{name}_im"])
    else:
        parts = (row[name], "0")
    if "" in parts:
        return None
    return complex(float(parts[0]), float(parts[1]))


class RowDiff(dumpdiff.Moves):
    """How one set of sweep rows moved against an older set of the same points.

    A row is a record whose fields are its columns; ``moves`` counts the
    points per (old label, new label) move between failure causes.
    """

    def __init__(self):
        super().__init__()
        self.rows = self.rows_changed = 0
        self.moves = Counter()

    def add_cell(self, old_rows, new_rows, size: int):
        """Compare one cell; a list of rows per side, or None where it aborted."""
        olds = old_rows if old_rows is not None else [None] * size
        news = new_rows if new_rows is not None else [None] * size
        if len(olds) != len(news):
            raise ValueError(f"row counts differ: {len(olds)} against {len(news)}")
        for old, new in zip(olds, news):
            self.rows += 1
            before, after = _label(old), _label(new)
            if before != after:
                self.moves[before, after] += 1
            if old is None or new is None:
                self.rows_changed += (old is None) != (new is None)
                continue
            columns = self.compare(old, new)
            self.rows_changed += bool(columns)
            for name in {c[:-3] if c[-3:] in ("_re", "_im") else c for c in columns}:
                if name != "warnings":
                    self.value(name, _value(old, name), _value(new, name))

    def report(self) -> list:
        moves = ", ".join(f"{a} -> {b} {n}" for (a, b), n in sorted(self.moves.items()))
        return [f"{self.rows_changed} of {self.rows} rows changed",
                *self.summary("rows changed per column"),
                f"failure-cause moves: {moves or 'none'}"]


def _cell_dir(root: Path, workload: str, seed: int) -> Path:
    return root / workload / f"seed-{seed}"


def fingerprint(workload: str, seed: int, dump=None, against=None):
    """sha256 over the digests of every variant's step, in variant order.

    Returns (digest, RowDiff or None).  ``dump`` and ``against`` are the
    roots of a dump to write and of one to compare with.
    """
    digest = hashlib.sha256()
    diff = RowDiff() if against is not None else None
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
            if dump is None and diff is None:
                continue
            outcomes = bench.judge(v)
            for i, cell in enumerate(bench.cells[v]):
                path = Path(cell.output_path)
                aborted = outcomes[i * bench.cell_size].cause == ABORTED
                if dump is not None and not aborted:
                    target = _cell_dir(dump, workload, seed)
                    target.mkdir(parents=True, exist_ok=True)
                    shutil.copyfile(path, target / path.name)
                if diff is not None:
                    old = _cell_dir(against, workload, seed) / path.name
                    diff.add_cell(wl.read_sweep_csv(old) if old.exists() else None,
                                  None if aborted else wl.read_sweep_csv(path),
                                  bench.cell_size)
    return digest.hexdigest(), diff


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=dumpdiff.parse_seeds, default="1,2,7",
                        help="comma-separated benchmark seeds or lo..hi ranges")
    parser.add_argument("--workloads", default=",".join(SWEEPS),
                        help=f"comma-separated subset of {', '.join(SWEEPS)}")
    dumpdiff.add_dump_options(
        parser, "DIR", "keep every cell's CSV under DIR/<workload>/seed-<seed>/",
        "report how the rows moved against a --dump DIR")
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = [name for name in names if name not in SWEEPS]
    if unknown:
        parser.error(f"unknown workload(s): {', '.join(unknown)}")
    if args.against is not None:
        dumpdiff.require_dumps(parser, [_cell_dir(args.against, name, seed) for name in names
                                        for seed in args.seeds], Path.is_dir)
    moved = 0
    for name in names:
        for seed in args.seeds:
            digest, diff = fingerprint(name, seed, args.dump, args.against)
            print(f"{name} seed {seed}: {digest}")
            if diff is not None:
                moved += diff.rows_changed
                for line in diff.report():
                    print(f"  {line}")
    return dumpdiff.exit_status(moved)


if __name__ == "__main__":
    raise SystemExit(main())
