#!/usr/bin/env python3
"""Run the registered verification cases across several seeds.

The default seed must give a byte-identical report on every run; other
seeds redraw the randomized rows and should pass identically.  Exit
status is nonzero if any case fails at any seed.  The last line is the
sha256 over the text and JSON reports of every seed run, so two
checkouts can be compared over many seeds with one diff.

Usage:
    python scripts/reproduce_verification.py
    python scripts/reproduce_verification.py --seeds 1,2,3 --json out/
    python scripts/reproduce_verification.py --seeds $(seq -s, 0 199) | tail -1
"""

import argparse
import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chebgamma.harness import (  # noqa: E402
    DEFAULT_SEED, render_report_json, render_report_text, run_all)
from chebgamma.sweep import _open_in_place  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default=str(DEFAULT_SEED),
                        help="comma-separated seeds (default: the pinned report seed)")
    parser.add_argument("--json", default=None, metavar="DIR",
                        help="also write one JSON report per seed into DIR")
    args = parser.parse_args(argv)

    seeds = [int(tok) for tok in args.seeds.split(",")]
    any_fail = False
    digest = hashlib.sha256()
    for seed in seeds:
        reports = run_all(seed=seed)
        text = render_report_text(reports, seed)
        doc = render_report_json(reports, seed)
        digest.update(text.encode())
        digest.update(doc.encode())
        sys.stdout.write(text)
        if seed == DEFAULT_SEED:
            again = render_report_text(run_all(seed=seed), seed)
            status = "byte-identical" if again == text else "NOT REPRODUCIBLE"
            print(f"repeat run at seed {seed}: {status}")
        if args.json is not None:
            os.makedirs(args.json, exist_ok=True)
            path = os.path.join(args.json, f"report-{seed}.json")
            with _open_in_place(path) as fh:
                fh.write(doc)
            print(f"wrote {path}")
        any_fail |= any(r.status == "fail" for r in reports)
        print()
    print(f"sha256 of all reports = {digest.hexdigest()}")
    return 1 if any_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
