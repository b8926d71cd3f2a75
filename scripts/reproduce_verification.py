#!/usr/bin/env python3
"""Run the registered verification cases across several seeds.

The default seed must give a byte-identical report on every run; other
seeds redraw the randomized rows and should pass identically.  Exit
status is nonzero if any case fails at any seed.  The last line is the
sha256 over the text and JSON reports of every seed run, so two
checkouts can be compared over many seeds with one diff.  ``--seeds``
takes a comma-separated list whose items may be inclusive ranges
``lo..hi``.

``--dump DIR`` also writes each seed's JSON report as
``DIR/report-<seed>.json``.  ``--against DIR`` reads such a dump, made
by another checkout, and lists every (seed, case, field) of the reports
whose text moved, with the relative change of a numeric field that reads
finite on both sides (its old and new text otherwise); the exit status
then says only whether anything moved: 1 when it did and 0 when nothing
did.  Each case reports its worst point and names it by its parameters,
``point``; a field of a case whose worst point moved reads "at another
point", since it may have moved only because another point became the
worst one.  The seed list, the dump options and the relative-change rule
are those of ``scripts/dumpdiff.py``.

Usage:
    python scripts/reproduce_verification.py
    python scripts/reproduce_verification.py --seeds 1,2,3 --dump out/
    python scripts/reproduce_verification.py --seeds 0..199 | tail -1
    python scripts/reproduce_verification.py --seeds 0..199 --against out/
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]

import dumpdiff  # noqa: E402
from chebgamma.harness import (  # noqa: E402
    DEFAULT_SEED, render_report_json, render_report_text, run_all)
from dumpdiff import parse_seeds  # noqa: E402


def _number(value):
    """A numeric report field (a float or a [re, im] pair) as complex, else None."""
    if isinstance(value, float):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(isinstance(v, float) for v in value):
        return complex(*value)
    return None


def compare(seed: int, old_doc: str, new_doc: str) -> list:
    """One report line per (case, field) of one seed whose JSON text moved."""
    old = {c["case_id"]: c for c in json.loads(old_doc)["cases"]}
    moved = []
    for case in json.loads(new_doc)["cases"]:
        before = old.get(case["case_id"])
        if before is None:
            moved.append(f"seed {seed} {case['case_id']}: not in the dump")
            continue
        elsewhere = json.dumps(case.get("point")) != json.dumps(before.get("point"))
        for field, value in case.items():
            was = before.get(field)
            if json.dumps(value) == json.dumps(was):
                continue
            # a point's two floats are parameters, not a [re, im] value
            change = (None if field == "point"
                      else dumpdiff.relative_change(_number(was), _number(value)))
            note = (f"relative change {change:.3g}" if change is not None
                    else f"{json.dumps(was)} -> {json.dumps(value)}")
            if elsewhere and field != "point":
                note += ", at another point"
            moved.append(f"seed {seed} {case['case_id']} {field}: {note}")
    return moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=str(DEFAULT_SEED),
                        help="comma-separated seeds or lo..hi ranges "
                             "(default: the pinned report seed)")
    dumpdiff.add_dump_options(parser, "DIR", "also write one JSON report per seed into DIR",
                              "list the fields that moved against a --dump DIR")
    args = parser.parse_args(argv)

    if args.against is not None:
        dumpdiff.require_dumps(parser, args, [args.against / f"report-{seed}.json"
                                              for seed in args.seeds])
    any_fail = False
    moved = []
    digest = hashlib.sha256()
    for seed in args.seeds:
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
        if args.dump is not None:
            args.dump.mkdir(parents=True, exist_ok=True)
            path = args.dump / f"report-{seed}.json"
            path.write_text(doc)
            print(f"wrote {path}")
        if args.against is not None:
            old = (args.against / f"report-{seed}.json").read_text()
            moved += compare(seed, old, doc)
        any_fail |= any(r.status == "fail" for r in reports)
        print()
    if args.against is not None:
        print(f"{len(moved)} (seed, case, field) entries moved against {args.against}")
        for line in moved:
            print(f"  {line}")
    print(f"sha256 of all reports = {digest.hexdigest()}")
    if args.against is not None:
        return dumpdiff.exit_status(moved)
    return 1 if any_fail else 0


if __name__ == "__main__":
    raise SystemExit(main())
