#!/usr/bin/env python3
"""Cold start of each ``chebgamma`` command, in fresh interpreters.

For each of ``eval``, ``series``, ``sweep`` (the demo grid of
``scripts/demo_grid.cfg``, written into a temporary directory), ``list``
and ``verify``, a fresh interpreter times ``import chebgamma.cli`` plus
``chebgamma.cli.main(argv)`` with the CPU time of its thread, and runs the
calibration loop of ``perfbench/calib.py`` before and after.  The time is
divided by the mean of the two loop times and multiplied by
``calib.REFERENCE_S``, so it reads in ms at the speed of the machine the
benchmark's bounds were set on, as ``setup_s`` does.  The script prints,
per command, the median and quartiles over ``--runs`` interpreters.

The children inherit the environment, ``PYTHONDONTWRITEBYTECODE`` among
it, and the header line says which way it was set.  Each checkout's
children get their own fresh ``PYTHONPYCACHEPREFIX`` inside the
temporary directory, so no ``__pycache__`` is read, neither a checkout's
(one left by an earlier run would time the two checkouts from different
caches) nor the standard library's.  With bytecode writing off, every
module the command imports is compiled from source in every run, and the
times include that compilation; with it on, only each checkout's first
run compiles.

``--parent DIR`` also times the checkout in DIR, alternating the two
checkouts: even runs start with the parent, odd runs with this checkout.
Both sides use this checkout's calibration loop.  A command that exits
nonzero stops the script with status 1.

Usage:
    python scripts/cold_start.py
    python scripts/cold_start.py --runs 11 --parent ../parent
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path[:0] = [str(PERFBENCH), str(ROOT / "scripts")]

from bench_pairs import quartiles  # noqa: E402
from calib import REFERENCE_S  # noqa: E402

POINT = ["--a", "3", "--k", "2.5", "--alpha", "0.3", "--beta", "-0.55"]
COMMANDS = {
    "eval": ["eval", *POINT],
    "series": ["series", *POINT],
    "sweep": ["sweep", "--config", str(ROOT / "scripts" / "demo_grid.cfg")],
    "list": ["list"],
    "verify": ["verify"],
}

# Runs in a fresh interpreter: the calibration loop, the import and the
# command, the loop again.  The last line of its output is the command's
# CPU time and the mean of the two loop times.
CHILD_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from calib import calibrate, clock
before = calibrate()
t0 = clock()
import chebgamma.cli
rc = chebgamma.cli.main(sys.argv[2:])
elapsed = clock() - t0
print(f"\\n{elapsed!r} {0.5 * (before + calibrate())!r} {rc} {chebgamma.cli.__file__}")
"""


def run_once(checkout: Path, argv: list, workdir: str, pycache: Path) -> float:
    """ms at the reference speed of one cold command in checkout."""
    done = subprocess.run(
        [sys.executable, "-c", CHILD_CODE, str(PERFBENCH), *argv], cwd=workdir,
        env=dict(os.environ, PYTHONPATH=str(checkout / "src"),
                 PYTHONPYCACHEPREFIX=str(pycache)),
        capture_output=True, text=True, timeout=300)
    *_, last = done.stdout.splitlines() or [""]
    fields = last.split()
    if done.returncode or len(fields) != 4 or fields[2] != "0":
        raise RuntimeError(f"{' '.join(argv[:1])} in {checkout} failed "
                           f"(exit {done.returncode}): {done.stderr.strip() or last}")
    if not Path(fields[3]).resolve().is_relative_to(checkout.resolve()):
        raise RuntimeError(f"imported chebgamma.cli from {fields[3]}, not {checkout}")
    elapsed, calib = float(fields[0]), float(fields[1])
    return 1e3 * elapsed / calib * REFERENCE_S


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=11,
                        help="fresh interpreters per command and checkout")
    parser.add_argument("--parent", type=Path, default=None, metavar="DIR",
                        help="also time the checkout in DIR, alternating with this one")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    sides = {"this": ROOT} if args.parent is None else {"parent": args.parent, "this": ROOT}
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        bytecode = "bytecode writing off: each run compiles what it imports"
    else:
        bytecode = "bytecode writing on: runs after the first read cached .pyc"
    print(f"cold start, ms of thread CPU at the reference speed; median [q1, q3] "
          f"over {args.runs} interpreters; a fresh bytecode cache per checkout, "
          f"{bytecode}")
    print(f"{'command':<8}" + "".join(f"{name:>28}" for name in sides))
    with tempfile.TemporaryDirectory(prefix="cold-start-") as workdir:
        for command, cmd_argv in COMMANDS.items():
            times = {name: [] for name in sides}
            for i in range(args.runs):
                order = list(sides) if i % 2 == 0 else list(reversed(sides))
                for name in order:
                    times[name].append(run_once(sides[name], cmd_argv, workdir,
                                                Path(workdir, "pycache", name)))
            cells = []
            for name in sides:
                q1, med, q3 = quartiles(times[name])
                cells.append(f"{med:8.1f} [{q1:6.1f}, {q3:6.1f}]")
            print(f"{command:<8}" + "".join(f"{cell:>28}" for cell in cells), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
