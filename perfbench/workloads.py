"""Seeded workload inputs, one step per workload, and the per-operation check.

Three workloads, each a closed loop of back-to-back steps in one thread:

* ``verify``      one step is ``harness.run_all`` over every registered case;
* ``sweep-wide``  one step sweeps a 1456-point grid that spans the parameter
                  domain (the closed form and its kernels dominate);
* ``sweep-deep``  one step sweeps a 160-point grid at large integer k (the
                  O(Q^2) shell convolution dominates).

Each workload has a few input variants derived from the benchmark seed
(harness seeds for ``verify``, grids for the sweeps), and step i runs
variant i mod the variant count.  The quality metrics pool every variant,
so they move little from one benchmark seed to the next.

A sweep step issues one ``run_sweep`` per cell of its grid, in grid
order.  ``run_sweep`` lets some kernel errors escape (today a
``NonConvergenceError`` at k = -2, beta < -1, a*pi past ~200), which would
abort a whole-grid sweep; per cell, such an error aborts only that cell,
and its points count as failed with cause ``aborted``.

The points of a sweep workload, pooled over its variants, are the same for
every benchmark seed.  They are drawn once from ``POINTS_SEED``, stratified
so that every cell draws its values inside a fixed band, in V base slots
of one grid each.  The benchmark seed deals them out: for each cell
position a seeded shuffle decides which variant runs which slot's cell.
So every seed attempts the same operations and meets the same known
failures, and the seed changes which points share a step and in which
order they run.

The failure rule follows the harness tolerances.  A sweep point fails when
its cell aborted, when it was skipped, when either route is non-finite, or
when the routes disagree: at terminating (non-negative integer) k when the
relative difference exceeds 1e-9, otherwise when |series - closed| exceeds
the series' own error estimate plus 1e-9 |value|.  A verify operation
fails when its case status is not ``pass``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import random
from dataclasses import dataclass
from functools import partial

WORKLOADS = ("verify", "sweep-wide", "sweep-deep")
VARIANTS = {"verify": 16, "sweep-wide": 4, "sweep-deep": 8}
# Seed of the pooled sweep points; the benchmark seed only deals them out.
POINTS_SEED = 0
# Truncation mode each sweep asks for; None keeps the package default.
SERIES_MODE = {"sweep-wide": "optimal", "sweep-deep": None}
# The first cause that applies is the one counted.
CAUSES = ("aborted", "skipped", "nonfinite_series", "nonfinite_closed", "disagree")
INT_K_REL_TOL = 1e-9
NONINT_K_REL_TOL = 1e-9
DIGITS_CAP = 16.0


def variant_rng(seed: int, workload: str, variant: int) -> random.Random:
    digest = hashlib.sha256(f"{seed}:{workload}:{variant}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def harness_seeds(seed: int) -> list:
    """The verify variants: consecutive harness seeds that start at seed * count."""
    count = VARIANTS["verify"]
    return [seed * count + v for v in range(count)]


class _Sampler:
    """Uniform draws stratified across the variants of one seed.

    Draw j of variant v lands in slice (v + o_j) mod V of V equal slices of
    its range, with the offsets o_j shared by every variant; pooled over the
    variants, each draw covers its whole range evenly.
    """

    def __init__(self, seed: int, workload: str, variant: int):
        self.slices = VARIANTS[workload]
        self.slot = variant
        self._shared = variant_rng(seed, workload, -1)
        self._own = variant_rng(seed, workload, variant)

    def unit(self) -> float:
        offset = self._shared.randrange(self.slices)
        return ((self.slot + offset) % self.slices + self._own.random()) / self.slices

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def choice(self, options):
        return options[min(int(self.unit() * len(options)), len(options) - 1)]

    def log_band(self, lo: float, hi: float, band: int, count: int) -> float:
        """Log-uniform draw inside band ``band`` of ``count`` equal log-width bands."""
        return lo * (hi / lo) ** ((band + self.unit()) / count)


def _cell(a_pi: float, k, alpha: list, beta: list) -> dict:
    return {"a": a_pi / math.pi, "k": complex(k), "alpha": alpha, "beta": beta}


def _wide_k(draw: _Sampler, kind: int) -> complex:
    if kind == 0:
        return complex(draw.choice((1, 2, 3)))
    if kind == 1:
        return complex(draw.choice((4, 5)))
    if kind == 2:
        return complex(draw.uniform(0.2, 0.8))
    if kind == 3:
        return complex(draw.uniform(1.2, 2.8))
    if kind == 4:
        return complex(draw.uniform(-0.8, -0.2))
    if kind == 5:
        return complex(draw.choice((-2, -3)))
    return complex(draw.uniform(1.0, 2.0), draw.uniform(0.2, 0.8))


def wide_grid(seed: int, variant: int = 0) -> list:
    """91 cells (13 a*pi bands x 7 k kinds), each 4 alpha x 4 beta: 1456 points.

    a*pi is log-spaced over [3, 1000], so the band past ~300, where the
    closed form overflows to NaN today, is always present.  k covers small
    positive integers, non-integers (positive and negative), one negative
    integer (the only route into the non-positive-integer kernel path) and
    one complex value.  alpha/beta are mostly inside (-1, 1), one each lies
    outside [-1, 1], and one beta sits 1e-5..1e-3 from an alpha: just
    outside the 1e-6 singular moat, where the closed form loses digits.
    """
    draw = _Sampler(seed, "sweep-wide", variant)
    cells = []
    for band in range(13):
        for kind in range(7):
            a_pi = draw.log_band(3.0, 1000.0, band, 13)
            k = _wide_k(draw, kind)
            alpha = [draw.uniform(-0.95, -0.35), draw.uniform(-0.25, 0.25),
                     draw.uniform(0.35, 0.95), draw.uniform(1.1, 2.0)]
            near = alpha[1] + 10.0 ** draw.uniform(-5.0, -3.0)
            beta = [draw.uniform(-0.95, -0.35), near, draw.uniform(0.35, 0.95),
                    draw.uniform(-2.0, -1.1)]
            cells.append(_cell(a_pi, k, alpha, beta))
    return cells


# Integer-k bands for the deep grid: twelve spread over [30, 171] and four
# above, where the shell weight (k-1)! overflows and the series returns
# NaN today.  Narrow bands keep the O(k^2) work nearly seed-independent.
_DEEP_K_BANDS = ((30, 34), (42, 46), (55, 59), (68, 72), (81, 85), (94, 98),
                 (106, 110), (119, 123), (132, 136), (145, 149), (158, 162),
                 (167, 171), (172, 173), (174, 175), (176, 177), (178, 180))


def deep_grid(seed: int, variant: int = 0) -> list:
    """80 cells (16 integer-k bands x 5 a*pi bands over [30, 300]),
    each 1 alpha x 2 beta: 160 points."""
    draw = _Sampler(seed, "sweep-deep", variant)
    cells = []
    for lo, hi in _DEEP_K_BANDS:
        for band in range(5):
            k = draw.choice(range(lo, hi + 1))
            a_pi = draw.log_band(30.0, 300.0, band, 5)
            sign = 1.0 if band % 2 else -1.0
            alpha = [sign * draw.uniform(0.1, 0.9)]
            beta = [draw.uniform(-0.8, -0.2), draw.uniform(0.2, 0.8)]
            cells.append(_cell(a_pi, k, alpha, beta))
    return cells


def make_grid(workload: str, seed: int, variant: int = 0) -> list:
    """Variant ``variant`` of a sweep grid for benchmark seed ``seed``.

    Cell i of every variant is cell i of one of the V base slots drawn from
    POINTS_SEED; the seed's shuffle for position i gives each variant a
    different slot, so the variants of one seed together run every base
    cell exactly once.
    """
    grid = wide_grid if workload == "sweep-wide" else deep_grid
    slots = VARIANTS[workload]
    base = [grid(POINTS_SEED, slot) for slot in range(slots)]
    deal = variant_rng(seed, f"{workload}/deal", 0)
    cells = []
    for i in range(len(base[0])):
        order = list(range(slots))
        deal.shuffle(order)
        cells.append(base[order[variant]][i])
    return cells


def _literal(value) -> str:
    z = complex(value)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0.0 else ""
    return f"{z.real!r}{sign}{z.imag!r}i"


def config_text(cell: dict, series_mode, output_path: str) -> str:
    """Render one cell in the sweep config grammar, every value lossless."""
    lines = [f"{axis} = " + ", ".join(_literal(v) for v in values)
             for axis, values in (("a", [cell["a"]]), ("k", [cell["k"]]),
                                  ("alpha", cell["alpha"]), ("beta", cell["beta"]))]
    lines.append("mode = both")
    if series_mode is not None:
        lines.append(f"series_mode = {series_mode}")
    lines.append(f"output_path = {output_path}")
    lines.append("format = csv")
    return "\n".join(lines) + "\n"


def write_configs(workload: str, seed: int, variant: int, workdir: str) -> list:
    """Write one config file per cell of a grid variant; return their paths."""
    paths = []
    for i, cell in enumerate(make_grid(workload, seed, variant)):
        stem = os.path.join(workdir, f"{workload}-{variant}-{i:03d}")
        with open(stem + ".cfg", "w") as fh:
            fh.write(config_text(cell, SERIES_MODE[workload], stem + ".csv"))
        paths.append(stem + ".cfg")
    return paths


def parse_configs(sweep_module, paths) -> list:
    """Parse each cell's config file; the set-up probe times this too."""
    configs = []
    for path in paths:
        with open(path) as fh:
            configs.append(sweep_module.parse_sweep_config(fh.read()))
    return configs


@dataclass(frozen=True)
class Outcome:
    """Verdict on one operation: a verify case or a sweep grid point."""

    failed: bool
    cause: str | None       # one of CAUSES, or "status" for verify
    # Agreement digits of a passing operation whose reference is exact
    # (a verify case, or a sweep point at terminating k); None otherwise.
    digits: float | None


def _digits(rel: float) -> float:
    if rel <= 0.0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(rel))


def finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def terminating(k: complex) -> bool:
    return k.imag == 0.0 and k.real >= 0.0 and k.real == round(k.real)


def judge_point(k: complex, series, closed, series_err, skipped: bool) -> Outcome:
    """Apply the failure rule to one evaluated sweep point."""
    if skipped:
        return Outcome(True, "skipped", None)
    if not (finite(series) and series_err is not None and math.isfinite(series_err)):
        return Outcome(True, "nonfinite_series", None)
    if not finite(closed):
        return Outcome(True, "nonfinite_closed", None)
    diff = abs(series - closed)
    scale = max(abs(series), abs(closed))
    rel = diff / max(scale, 1e-300)
    if terminating(k):
        if rel > INT_K_REL_TOL:
            return Outcome(True, "disagree", None)
        return Outcome(False, None, _digits(rel))
    if diff > series_err + NONINT_K_REL_TOL * scale:
        return Outcome(True, "disagree", None)
    return Outcome(False, None, None)


def _number(text: str):
    return None if text == "" else float(text)


def _complex(row: dict, name: str) -> complex:
    if row[f"{name}_re"] == "":
        return complex(math.nan, math.nan)
    return complex(float(row[f"{name}_re"]), float(row[f"{name}_im"]))


def read_sweep_csv(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def judge_row(row: dict) -> Outcome:
    return judge_point(_complex(row, "k"), _complex(row, "series"),
                       _complex(row, "closed"), _number(row["series_err"]),
                       "skipped-with-warning" in row["warnings"])


def judge_reports(reports) -> list:
    return [Outcome(False, None, _digits(r.rel_err)) if r.status == "pass"
            else Outcome(True, "status", None) for r in reports]


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# Errors a run_sweep call can let escape from a grid point; each aborts
# the cell it happened in.
CELL_ERRORS = (ArithmeticError, ValueError, RuntimeError)


class Workload:
    """Inputs built from the seed plus the step the benchmark times.

    ``step(v)`` runs variant v's product calls (``parts(v)``) and nothing else.
    ``digest(v)`` and ``judge(v)`` read that step's outputs back, outside
    the timed region; the digest must repeat exactly on every step that
    runs the same variant.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        from chebgamma import harness, sweep

        self.name = name
        self._harness = harness
        self._sweep = sweep
        self.variants = VARIANTS[name]
        self.sweeping = name != "verify"
        self._reports = [None] * self.variants
        self.config_paths = [[] for _ in range(self.variants)]
        if not self.sweeping:
            self._seeds = harness_seeds(seed)
            self.operations = len(harness.case_ids())
            return
        self.config_paths = [write_configs(name, seed, v, workdir)
                             for v in range(self.variants)]
        self.cells = [parse_configs(sweep, paths) for paths in self.config_paths]
        first = self.cells[0][0]
        self.cell_size = len(first.a) * len(first.k) * len(first.alpha) * len(first.beta)
        self.operations = len(self.cells[0]) * self.cell_size
        self._summaries = [[None] * len(cells) for cells in self.cells]

    def parts(self, v: int) -> list:
        """The product calls one step of variant v makes, as callables in order:
        ``run_all`` for verify, one ``run_sweep`` per cell for the sweeps."""
        if not self.sweeping:
            return [partial(self._verify, v)]
        return [partial(self._sweep_cell, v, i) for i in range(len(self.cells[v]))]

    def step(self, v: int):
        for part in self.parts(v):
            part()

    def _verify(self, v: int):
        self._reports[v] = self._harness.run_all(seed=self._seeds[v])

    def _sweep_cell(self, v: int, i: int):
        try:
            self._summaries[v][i] = self._sweep.run_sweep(self.cells[v][i])
        except CELL_ERRORS:
            self._summaries[v][i] = None

    def reports(self, v: int) -> list:
        return self._reports[v]

    def digest(self, v: int) -> str:
        h = hashlib.sha256()
        if not self.sweeping:
            h.update(repr([(r.case_id, r.status, r.lhs_value, r.rhs_value, r.rel_err)
                           for r in self._reports[v]]).encode())
            return h.hexdigest()
        for summary, cell in zip(self._summaries[v], self.cells[v]):
            h.update(b"aborted\n" if summary is None else _file_bytes(cell.output_path))
        return h.hexdigest()

    def judge(self, v: int) -> list:
        """Per-operation outcomes of the latest step of v, in grid order."""
        if not self.sweeping:
            return judge_reports(self._reports[v])
        out = []
        for summary, cell in zip(self._summaries[v], self.cells[v]):
            if summary is None:
                out.extend([Outcome(True, "aborted", None)] * self.cell_size)
            else:
                out.extend(judge_row(row) for row in read_sweep_csv(cell.output_path))
        return out

    def well_formed(self, v: int) -> bool:
        """The latest step of v reported every operation with its own parameters."""
        if not self.sweeping:
            return ([r.case_id for r in self._reports[v]]
                    == list(self._harness.case_ids()))
        for summary, cell in zip(self._summaries[v], self.cells[v]):
            if summary is None:
                continue
            expected = [(a, k, al, be) for a in cell.a for k in cell.k
                        for al in cell.alpha for be in cell.beta]
            got = [tuple(_complex(row, n) for n in ("a", "k", "alpha", "beta"))
                   for row in read_sweep_csv(cell.output_path)]
            if got != expected or summary.points_evaluated != self.cell_size:
                return False
        return True

    def sweep_counts(self, v: int) -> tuple:
        """(points evaluated, points skipped) over the cells of v that completed."""
        if not self.sweeping:
            return 0, 0
        done = [s for s in self._summaries[v] if s is not None]
        return sum(s.points_evaluated for s in done), sum(s.failures for s in done)
