"""What the scripts that check a checkout against another share.

``sweep_fingerprint.py``, ``series_fingerprint.py``,
``kernel_fingerprint.py`` and ``reproduce_verification.py`` each produce
a set of records, keep them with ``--dump`` and, run in another
checkout, compare that checkout's records with them through
``--against``.  Each script keeps how it produces its records.  This
module is the rest:

* ``parse_seeds`` reads a comma-separated seed list whose items may be
  inclusive ranges ``lo..hi``; an empty range or a malformed item is an
  error;
* ``add_dump_options`` adds ``--dump`` and ``--against``, and
  ``require_dumps`` stops the parser where the two name one path (the
  dump would overwrite the one it is compared with, so every record
  would match itself) and with ``no dump at ...`` for every dump that
  is not there;
* ``relative_change`` says how far a value moved: None unless both
  sides are finite, 0 where they are equal, inf where the old value is
  0, and ``|new - old| / |old|`` otherwise;
* ``Moves`` counts, per field, the records whose text of that field
  moved, and keeps the largest relative change of each value;
* ``exit_status`` is 1 when anything moved and 0 otherwise;
* ``Draws`` is the one driver of the two seeded-draw scripts,
  ``series_fingerprint.py`` and ``kernel_fingerprint.py``: their
  ``--seed``/``--draws`` options, the ``<label> seed S, N draws: <sha256>``
  line over one tab-separated line per draw, the ``--dump`` of those
  lines, and the by-index comparison with an ``--against`` dump, where a
  dump of another draw count, or with another point at some index, is a
  usage error.
"""

import argparse
import cmath
import hashlib
import random
from collections import Counter
from pathlib import Path
from typing import Callable, NamedTuple


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


def require_dumps(parser, args, paths, exists=Path.is_file):
    """Stop with a parser error where ``--dump`` and ``--against`` name one
    path, or naming every path of ``paths`` that is no dump."""
    if args.dump is not None and args.dump.resolve() == args.against.resolve():
        parser.error(f"--dump and --against name one path, {args.against}")
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


class Draws(NamedTuple):
    """A seeded-draw script, given as data; ``main`` runs it.

    Draw i is ``evaluate(draw(rng))``, a dict from each of ``fields`` to
    its text.  ``point`` names the fields that say which point a draw is,
    and ``values`` those whose largest relative change the report gives,
    read by ``number`` (None where a cell is unreadable).  ``notes(moved)``
    gives the script's own report lines: those after the count of moved
    draws, and one list per moved draw, after its point.  ``label`` leads
    the digest line, and ``doc``'s first line describes the script.
    """

    doc: str
    label: str
    fields: tuple
    point: tuple
    values: tuple
    draw: Callable
    evaluate: Callable
    number: Callable
    notes: Callable = lambda moved: ([], [[]] * len(moved))

    def lines(self, seed: int, draws: int):
        """One tab-separated line per draw: its index, then one cell per field."""
        rng = random.Random(seed)
        for i in range(draws):
            cells = self.evaluate(self.draw(rng))
            yield "\t".join([str(i)] + [cells[f] for f in self.fields])

    def compare(self, old_lines, new_lines) -> tuple:
        """How the draws moved from ``old_lines`` to ``new_lines``.

        Returns the number of draws that moved and the report lines.  The
        largest relative changes are over the moved draws, every value of
        each.  Raises ValueError where the lines are not the same draws.
        """
        if len(old_lines) != len(new_lines):
            raise ValueError(f"draw counts differ: {len(old_lines)} against {len(new_lines)}")
        names = ("index",) + self.fields
        draws = Moves()
        moved = []
        for old_line, new_line in zip(old_lines, new_lines):
            old, new = (dict(zip(names, line.split("\t"))) for line in (old_line, new_line))
            if any(old[f] != new[f] for f in ("index",) + self.point):
                raise ValueError(f"draw {new['index']} is another point in the dump; "
                                 "use the --seed and --draws it was made with")
            changed = draws.compare(old, new)
            if changed:
                moved.append((new, changed, old))
                for f in self.values:
                    draws.value(f, self.number(old[f]), self.number(new[f]))
        head, notes = self.notes(moved)
        report = [f"{len(moved)} of {len(new_lines)} draws moved", *head,
                  *draws.summary("draws moved per field", self.values)]
        for (new, changed, old), own in zip(moved, notes):
            report.append(f"draw {new['index']}: "
                          + " ".join(f"{f}={new[f]}" for f in self.point))
            report.extend(own)
            report.extend(f"  {f}: {old[f]} -> {new[f]}" for f in changed)
        return len(moved), report

    def main(self, argv=None) -> int:
        parser = argparse.ArgumentParser(description=self.doc.splitlines()[0])
        parser.add_argument("--seed", type=int, default=1, help="seed of the draws")
        parser.add_argument("--draws", type=int, default=20000, help="number of draws")
        add_dump_options(parser, "FILE", "keep the per-draw lines in FILE",
                         "report which draws moved against a --dump FILE")
        args = parser.parse_args(argv)
        if args.draws < 1:
            parser.error("--draws must be at least 1")
        if args.against is not None:
            require_dumps(parser, args, [args.against])
        rows = list(self.lines(args.seed, args.draws))
        text = "".join(row + "\n" for row in rows)
        print(f"{self.label} seed {args.seed}, {args.draws} draws: "
              f"{hashlib.sha256(text.encode()).hexdigest()}")
        if args.dump is not None:
            args.dump.write_text(text)
        if args.against is None:
            return 0
        try:
            moved, report = self.compare(args.against.read_text().splitlines(), rows)
        except ValueError as exc:
            parser.error(str(exc))
        for line in report:
            print(f"  {line}")
        return exit_status(moved)
