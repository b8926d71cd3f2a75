"""The compare half of the scripts that check a checkout against another.

``sweep_fingerprint.py``, ``series_fingerprint.py`` and
``reproduce_verification.py`` each produce a set of records, keep them
with ``--dump`` and, run in another checkout, compare that checkout's
records with them through ``--against``.  Each script keeps how it
produces its records, its dump format and its own report lines.  This
module is the part they share:

* ``parse_seeds`` reads a comma-separated seed list whose items may be
  inclusive ranges ``lo..hi``; an empty range or a malformed item is an
  error;
* ``add_dump_options`` adds ``--dump`` and ``--against``, and
  ``require_dumps`` stops the parser with ``no dump at ...`` for every
  dump that is not there;
* ``relative_change`` says how far a value moved: None unless both
  sides are finite, 0 where they are equal, inf where the old value is
  0, and ``|new - old| / |old|`` otherwise;
* ``Moves`` counts, per field, the records whose text of that field
  moved, and keeps the largest relative change of each value;
* ``exit_status`` is 1 when anything moved and 0 otherwise.
"""

import argparse
import cmath
from collections import Counter
from pathlib import Path


def parse_seeds(text: str) -> list:
    """'0..3,7' -> [0, 1, 2, 3, 7]; an argparse type for ``--seeds``."""
    seeds = []
    for tok in text.split(","):
        lo, sep, hi = tok.partition("..")
        try:
            first, last = int(lo), int(hi if sep else lo)
        except ValueError:
            raise argparse.ArgumentTypeError(f"malformed seed {tok!r} in {text!r}") from None
        if last < first:
            raise argparse.ArgumentTypeError(f"empty seed range {tok!r}")
        seeds.extend(range(first, last + 1))
    return seeds


def add_dump_options(parser, metavar: str, dump_help: str, against_help: str):
    parser.add_argument("--dump", type=Path, default=None, metavar=metavar, help=dump_help)
    parser.add_argument("--against", type=Path, default=None, metavar=metavar,
                        help=against_help)


def require_dumps(parser, paths, exists=Path.is_file):
    """Stop with a parser error naming every path of ``paths`` that is no dump."""
    missing = [str(path) for path in paths if not exists(path)]
    if missing:
        parser.error(f"no dump at {', '.join(missing)}")


def finite(value) -> bool:
    """Whether a value, complex or None (unreadable), reads finite."""
    return value is not None and cmath.isfinite(value)


def relative_change(old, new):
    """How far a value moved from ``old`` to ``new`` (module docstring)."""
    if not (finite(old) and finite(new)):
        return None
    if old == new:
        return 0.0
    return abs(new - old) / abs(old) if old else cmath.inf


def exit_status(moved) -> int:
    return 1 if moved else 0


class Moves:
    """How a set of records moved against an older set of the same records.

    A record is a dict of field texts, and a field moved where its text
    differs.  ``changed`` counts each field's moves, and ``largest`` holds
    each value's largest relative change.
    """

    def __init__(self):
        self.changed = Counter()
        self.largest = {}

    def compare(self, old: dict, new: dict) -> list:
        """Count the fields that moved from ``old`` to ``new``; returns them in new's order."""
        fields = [f for f in new if old.get(f) != new[f]]
        self.changed.update(fields)
        return fields

    def value(self, name: str, old, new):
        """Take the relative change of value ``name`` (complex, or None
        where unreadable) into ``largest``."""
        change = relative_change(old, new)
        if change is not None:
            self.largest[name] = max(self.largest.get(name, 0.0), change)

    def summary(self, title: str, names=None) -> list:
        """Report lines: each field's moves, under ``title``, then the largest
        relative change of each of ``names`` (default: every value that has
        one; "-" for a name that has none).  No line when nothing moved."""
        if not self.changed:
            return []
        names = sorted(self.largest) if names is None else names
        lines = [f"{title}: " + ", ".join(f"{f} {n}" for f, n in sorted(self.changed.items()))]
        if names:
            lines.append("largest relative change: " + ", ".join(
                f"{name} {self.largest[name]:.3g}" if name in self.largest else f"{name} -"
                for name in names))
        return lines
