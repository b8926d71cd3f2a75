"""In-memory spans around calls into chebgamma's layers, for the traced run.

``Tracer.install()`` rebinds public functions by name in every chebgamma
module that imported them (``closedform.upper_gamma``,
``complexfn.upper_gamma``, ``sweep.closed_form``, ``harness.series_sum``,
``closedform.closed_form`` for ``limit_eval``'s inner calls, ...) to
wrappers that record a span per call: name, start, end, parent span and
step id.  ``uninstall()`` puts the originals back; untraced steps run with
no wrapper in place.  Spans stay in flat arrays until ``summary()``, which
derives each layer's self time (its duration minus the part of it its
child spans cover) and call count.

``upper_gamma`` spans are named by regime (``.cf``, ``.series``,
``.reflected``, ``.nonpos_int``).  The regime is the benchmark's own
classification of the arguments, following the regime map in the
``complexfn`` docstring; it does not look inside the kernel.
"""

from __future__ import annotations

import importlib
import math
from array import array
from collections import Counter
from time import perf_counter

UPPER_GAMMA = "complexfn.upper_gamma"
REGIMES = ("cf", "series", "reflected", "nonpos_int")

# (module defining the function, function name, layer name)
TARGETS = (
    ("complexfn", "upper_gamma", UPPER_GAMMA),
    ("complexfn", "log_gamma", "complexfn.log_gamma"),
    ("complexfn", "gamma_fn", "complexfn.gamma_fn"),
    ("complexfn", "exp_integral_e", "complexfn.exp_integral_e"),
    ("complexfn", "erfc_complex", "complexfn.erfc_complex"),
    ("series", "series_sum", "series.series_sum"),
    ("series", "difference_series", "series.difference_series"),
    ("closedform", "closed_form", "closedform.closed_form"),
    ("closedform", "contour_term", "closedform.contour_term"),
    ("closedform", "closed_form_cos", "closedform.closed_form_cos"),
    ("closedform", "limit_eval", "closedform.limit_eval"),
    ("closedform", "diff_closed_form", "closedform.diff_closed_form"),
    ("closedform", "prop1_value", "closedform.reference"),
    ("closedform", "golden_ratio_value", "closedform.reference"),
    ("closedform", "erfc_product_value", "closedform.reference"),
    ("harness", "run_case", "harness.run_case"),
    ("sweep", "run_sweep", "sweep.run_sweep"),
)
# Modules whose global names are rebound.
MODULES = ("complexfn", "series", "closedform", "harness", "sweep")
STEP = "workload"


def layer_spans() -> dict:
    """Layer name -> the span names whose calls and self time it sums."""
    layers = {layer: [layer] for _, _, layer in TARGETS}
    regimes = [f"{UPPER_GAMMA}.{r}" for r in REGIMES]
    layers[UPPER_GAMMA] += regimes
    layers.update((name, [name]) for name in regimes)
    return layers


def upper_gamma_regime(s, z) -> str:
    """Which branch of the complexfn regime map Gamma(s, z) falls in."""
    s, z = complex(s), complex(z)
    if z.imag == 0.0:
        z = complex(z.real, 0.0)
    if z == 0:
        return "series"
    n = round(s.real)
    if n <= 0 and abs(s - n) <= 1e-12:
        return "nonpos_int"
    radius = 1.5 * (1.0 + abs(s)) if s.real >= 0.0 else 1.5
    if abs(z) + z.real <= 4.0 or (abs(z) < radius and z.real >= 0.0):
        return "reflected" if z.real < 0.0 else "series"
    return "cf"


def _nonfinite(value) -> bool:
    value = getattr(value, "value", value)
    if not isinstance(value, complex):
        return False
    return not (math.isfinite(value.real) and math.isfinite(value.imag))


def _module(name: str):
    return importlib.import_module(f"chebgamma.{name}")


class Tracer:
    def __init__(self):
        self._singular_error = _module("errors").SingularParameterError
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.step_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.step_id = -1
        # (layer, counter) -> count: nonfinite, singular, shells
        self.counts: Counter = Counter()
        self._saved: list = []

    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        self.name_of.append(nid)
        self.step_of.append(self.step_id)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = perf_counter()
        self._stack.pop()

    def run_step(self, step_id: int, fn, *args):
        """Run one workload step under a root span."""
        self.step_id = step_id
        idx = self._open(self._id(STEP))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, fn, layer: str):
        tracer = self
        counts = self.counts
        singular = self._singular_error
        if layer == UPPER_GAMMA:
            regime_ids = {r: self._id(f"{layer}.{r}") for r in REGIMES}
            plain_id = self._id(layer)

            def span_id(args):
                try:
                    return regime_ids[upper_gamma_regime(*args[:2])]
                except (TypeError, ValueError):
                    return plain_id
        else:
            nid = self._id(layer)

            def span_id(args):
                return nid

        def wrapper(*args, **kwargs):
            idx = tracer._open(span_id(args))
            try:
                result = fn(*args, **kwargs)
            except singular:
                counts[layer, "singular"] += 1
                raise
            finally:
                tracer._close(idx)
            if _nonfinite(result):
                counts[layer, "nonfinite"] += 1
            shells = getattr(result, "shells_used", None)
            if shells is not None:
                counts[layer, "shells"] += shells
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        for home, attr, layer in TARGETS:
            original = getattr(_module(home), attr)
            wrapper = self._wrap(original, layer)
            for mod_name in MODULES:
                module = _module(mod_name)
                if module.__dict__.get(attr) is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def summary(self) -> dict:
        """Span name -> (calls, self seconds), over every recorded span."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            self_s[name] += end[i] - start[i] - child[i]
        return {name: (calls[name], self_s[name]) for name in calls}

    def write(self, path: str):
        """Dump every span as CSV: name, start, end, parent, step."""
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,step\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.step_of[i]}\n")
