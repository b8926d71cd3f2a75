"""Benchmark for chebgamma: verify, sweep-wide and sweep-deep.

    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

runs every workload in its own process and prints each end-to-end metric
by name and unit.  With one workload name it runs that workload only and
prints, as its last line, one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  See README.md for every metric.

Wall time drifts between processes on a shared machine, so step times
are gated in calibration units (cu): each step's time divided by the time
of a benchmark-owned, standard-library-only loop run next to it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = HERE / "results"

sys.path.insert(0, str(HERE))
import workloads as wl  # noqa: E402
from calib import REFERENCE_S, calibrate, clock  # noqa: E402

SETUP_SAMPLES = 31
SEGMENT_S = 0.025
PROBE_ORDERS = (10, 100, 400, 1000)
PROBE_MODES = (("exact", "exact-if-terminating"), ("optimal", "optimal"), ("fixed", "fixed"))
CASE_IDS = ("theorem1-int-k", "twelve-terms", "series-direct-sum", "series-vs-closed",
            "kernel-recurrence", "prop1-limit", "prop1-k1", "prop2-cos", "example1-erfc",
            "example2-golden", "diff-c1", "diff-c2", "diff-c3", "diff-c4", "diff-c5")

END_TO_END = (
    ("setup_s", "s"),
    ("step_cu_p50", "cu"),
    ("step_cu_p90", "cu"),
    ("pass_ratio", "ratio"),
    ("agree_digits_p10", "digits"),
    ("peak_rss_mb", "MB"),
)


def _per_layer() -> tuple:
    out = []

    def calls_self(layer):
        out.extend(((f"{layer}.calls", "count"), (f"{layer}.self_s", "s")))

    calls_self("complexfn.upper_gamma")
    out.append(("complexfn.upper_gamma.nonfinite", "count"))
    for regime in ("cf", "series", "reflected", "nonpos_int"):
        calls_self(f"complexfn.upper_gamma.{regime}")
    for kernel in ("log_gamma", "gamma_fn", "exp_integral_e", "erfc_complex"):
        calls_self(f"complexfn.{kernel}")
    calls_self("series.series_sum")
    out += [("series.series_sum.shells", "count"), ("series.series_sum.nonfinite", "count")]
    calls_self("series.difference_series")
    out += [(f"series.series_sum.q{q}_us", "us") for q in PROBE_ORDERS]
    out.append(("series.series_sum.probe_nonfinite", "count"))
    out += [(f"series.series_sum.mode_{short}_us", "us") for short, _ in PROBE_MODES]
    for fn in ("closed_form", "contour_term", "closed_form_cos", "limit_eval",
               "diff_closed_form", "reference"):
        calls_self(f"closedform.{fn}")
        out += [(f"closedform.{fn}.nonfinite", "count"), (f"closedform.{fn}.singular", "count")]
    calls_self("harness.run_case")
    out += [(f"harness.run_case.{case}_ms", "ms") for case in CASE_IDS]
    calls_self("sweep.run_sweep")
    out += [("sweep.points", "count"), ("sweep.skipped", "count"),
            ("workload.self_s", "s"), ("trace.step_s", "s"), ("trace.overhead_ratio", "ratio"),
            ("step_s_p50", "s"), ("calib_s_p50", "s")]
    out += [(f"check.{cause}", "count") for cause in wl.CAUSES]
    out.append(("check.fail_ratio", "ratio"))
    return tuple(out)


PER_LAYER = _per_layer()

# Runs in a fresh interpreter: the calibration loop, the imports and the
# config parse, the loop again; prints the import-and-parse time and the
# mean of the two loop times.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
from calib import calibrate, clock
before = calibrate()
t0 = clock()
import chebgamma, chebgamma.cli
from chebgamma.sweep import parse_sweep_config
for path in sys.argv[2:]:
    with open(path) as fh:
        parse_sweep_config(fh.read())
elapsed = clock() - t0
print(repr(elapsed), repr(0.5 * (before + calibrate())))
"""


def setup_ratio(config_paths: list) -> float:
    """Time to import chebgamma and chebgamma.cli in a fresh interpreter and
    parse the workload's config files, over the calibration loop timed
    around it in the same interpreter.  Multiplied by calib.REFERENCE_S it
    gives the set-up time in seconds at the reference machine speed.
    """
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(HERE), *config_paths],
                          cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=60, check=True)
    elapsed, calib = (float(x) for x in done.stdout.split())
    return elapsed / calib


def _quantile(values: list, q: int) -> float:
    """q-th percentile (q a multiple of 10) by statistics.quantiles."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10)[q // 10 - 1]


class Run:
    """One workload in this process: warm-up, timed steps, output checks.

    A timed step runs the calibration loop before its first product call,
    after every call that closes a segment of at least SEGMENT_S of product
    time, and after its last call.  Each segment is divided by the mean of
    the two calibrations around it, so a change of machine speed during a
    step moves few segments; the step's cu is the sum over its segments.
    Segments and calibrations are CPU time (calib.clock); the step's raw
    seconds are wall time.
    """

    def __init__(self, name: str, seed: int, workdir: str):
        self.workload = wl.Workload(name, seed, workdir)
        self.digests = []
        self.outcomes = []
        self.correct = True
        for v in range(self.workload.variants):
            self.workload.step(v)
            self.digests.append(self.workload.digest(v))
            self.outcomes.append(self.workload.judge(v))
            self.correct &= self.workload.well_formed(v)
            self.correct &= len(self.outcomes[v]) == self.workload.operations
        # Each distinct operation is attempted and judged once, here; every
        # timed repeat must reproduce its output byte for byte (_check).
        pooled = [o for outcomes in self.outcomes for o in outcomes]
        self.attempted = len(pooled)
        self.failed = sum(o.failed for o in pooled)
        self.calib = []
        self.steps = []
        self.cu = []

    def _check(self, v: int):
        self.correct &= self.workload.digest(v) == self.digests[v]

    def timed_step(self, v: int) -> float:
        """Run and check one step of variant v; return its seconds."""
        parts = self.workload.parts(v)
        before = calibrate()
        self.calib.append(before)
        step_s = step_cu = segment = 0.0
        for j, part in enumerate(parts):
            t0, c0 = perf_counter(), clock()
            part()
            step_s += perf_counter() - t0
            segment += clock() - c0
            if segment >= SEGMENT_S or j == len(parts) - 1:
                after = calibrate()
                self.calib.append(after)
                step_cu += segment / (0.5 * (before + after))
                before, segment = after, 0.0
        self.steps.append(step_s)
        self.cu.append(step_cu)
        self._check(v)
        return step_s

    def traced_step(self, v: int, tracer, step_id: int) -> float:
        """Run and check one step of variant v under ``tracer``; return its seconds."""
        tracer.install()
        try:
            t0 = perf_counter()
            tracer.run_step(step_id, self.workload.step, v)
            elapsed = perf_counter() - t0
        finally:
            tracer.uninstall()
        self._check(v)
        return elapsed

    def quality(self) -> dict:
        pooled = [o for outcomes in self.outcomes for o in outcomes]
        digits = [o.digits for o in pooled if o.digits is not None]
        return {
            "fail_ratio": self.failed / self.attempted,
            "agree_digits_p10": _quantile(digits, 10) if digits else 0.0,
            "causes": {c: sum(o.cause == c for o in pooled) for c in wl.CAUSES},
            "operations": self.attempted,
        }


def _metric(unit: str, value: float) -> dict:
    return {"value": float(value), "unit": unit}


def _result(run: Run, metrics: dict, context: dict) -> dict:
    return {"correct": bool(run.correct), "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics, "context": context}


def run_untraced(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Timed steps for ``seconds``, with SETUP_SAMPLES set-up samples spread
    evenly between them; the time the samples take is not counted."""
    run = Run(name, seed, workdir)
    configs = run.workload.config_paths[0]
    setup_ratio(configs)  # the first import may compile bytecode; users pay that once
    ratios = []
    start = perf_counter()
    setup_time = 0.0
    i = 0
    while i < 2 or perf_counter() - start - setup_time < seconds:
        if len(ratios) < SETUP_SAMPLES * (perf_counter() - start - setup_time) / seconds:
            t0 = perf_counter()
            ratios.append(setup_ratio(configs))
            setup_time += perf_counter() - t0
        run.timed_step(i % run.workload.variants)
        i += 1
    while len(ratios) < SETUP_SAMPLES:
        ratios.append(setup_ratio(configs))
    setup_s = statistics.median(ratios) * REFERENCE_S
    cu = run.cu
    quality = run.quality()
    values = {
        "setup_s": setup_s,
        "step_cu_p50": statistics.median(cu),
        "step_cu_p90": _quantile(cu, 90),
        "pass_ratio": 1.0 - quality["fail_ratio"],
        "agree_digits_p10": quality["agree_digits_p10"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    context = {
        "workload": name, "seed": seed, "steps": len(run.steps),
        "step_s_p50": statistics.median(run.steps),
        "calib_s_p50": statistics.median(run.calib),
        "fail_ratio": quality["fail_ratio"], "causes": quality["causes"],
    }
    return _result(run, {n: _metric(u, values[n]) for n, u in END_TO_END}, context)


def shell_probe(notes: list) -> dict:
    """series_sum timed at integer k = Q (max_shell >= Q), and once per mode."""
    from chebgamma.series import SeriesParams, TruncationPolicy, series_sum

    out = {}
    nonfinite = 0
    for q in PROBE_ORDERS:
        params = SeriesParams(a=50.0 / 3.141592653589793, k=q, alpha=0.3, beta=-0.4)
        policy = TruncationPolicy(max_shell=max(512, q))
        times = []
        for _ in range(5 if q <= 100 else 3):
            t0 = perf_counter()
            result = series_sum(params, policy)
            times.append(perf_counter() - t0)
        finite = wl.finite(result.value)
        nonfinite += not finite
        out[f"series.series_sum.q{q}_us"] = statistics.median(times) * 1e6
        notes.append(f"Q={q}: termination={result.termination} "
                     f"warnings={','.join(sorted(result.warnings)) or '-'} finite={finite}")
    out["series.series_sum.probe_nonfinite"] = nonfinite
    params = SeriesParams(a=30.0 / 3.141592653589793, k=2.5, alpha=0.3, beta=-0.55)
    for short, mode in PROBE_MODES:
        policy = TruncationPolicy(mode=mode)
        times = []
        for _ in range(21):
            t0 = perf_counter()
            series_sum(params, policy)
            times.append(perf_counter() - t0)
        out[f"series.series_sum.mode_{short}_us"] = statistics.median(times) * 1e6
    return out


def run_traced(name: str, seed: int, seconds: float, workdir: str) -> dict:
    """Pairs of steps on one variant, untraced then traced, for ``seconds``.

    Every span is written to SPANS_DIR/spans-<name>.csv at the end.
    """
    from spans import STEP, Tracer, layer_spans

    run = Run(name, seed, workdir)
    tracer = Tracer()
    plain, traced = [], []
    case_ms = {case: [] for case in CASE_IDS}
    start = perf_counter()
    pair = 0
    while pair < 1 or perf_counter() - start < seconds:
        v = pair % run.workload.variants
        plain.append(run.timed_step(v))
        for report in run.workload.reports(v) or ():
            case_ms.get(report.case_id, []).append(report.wall_time_ms)
        traced.append(run.traced_step(v, tracer, pair))
        pair += 1
    spans = tracer.summary()
    notes = []
    values = shell_probe(notes)

    def per_step(span_names, key):
        return sum(spans.get(n, (0, 0.0))[key] for n in span_names) / len(traced)

    for layer, names in layer_spans().items():
        values[f"{layer}.calls"] = per_step(names, 0)
        values[f"{layer}.self_s"] = per_step(names, 1)
    for (layer, counter), count in tracer.counts.items():
        values[f"{layer}.{counter}"] = count / len(traced)
    for case, ms in case_ms.items():
        values[f"harness.run_case.{case}_ms"] = statistics.median(ms) if ms else 0.0
    counts = [run.workload.sweep_counts(v) for v in range(run.workload.variants)]
    values["sweep.points"] = statistics.mean(c[0] for c in counts)
    values["sweep.skipped"] = statistics.mean(c[1] for c in counts)
    values["workload.self_s"] = per_step([STEP], 1)
    values["trace.step_s"] = statistics.mean(traced)
    values["trace.overhead_ratio"] = statistics.median(t / s for t, s in zip(traced, plain))
    values["step_s_p50"] = statistics.median(plain)
    values["calib_s_p50"] = statistics.median(run.calib)
    quality = run.quality()
    for cause, count in quality["causes"].items():
        values[f"check.{cause}"] = count / run.workload.variants
    values["check.fail_ratio"] = quality["fail_ratio"]
    spans_path = SPANS_DIR / f"spans-{name}.csv"
    tracer.write(str(spans_path))
    context = {"workload": name, "seed": seed, "traced_steps": len(traced),
               "spans": str(spans_path.relative_to(ROOT)), "probe": notes}
    return _result(run, {n: _metric(u, values.get(n, 0.0)) for n, u in PER_LAYER}, context)


def _print_result(result: dict):
    ctx = result["context"]
    print(f"== {ctx['workload']}  seed={ctx['seed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(f"  correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print("# context " + json.dumps(ctx, sort_keys=True))


def run_all_workloads(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            print(f"error: workload {name} exited with {done.returncode}", file=sys.stderr)
            return done.returncode
        last = json.loads(done.stdout.splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, m in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "chebgamma" / "__init__.py").is_file():
        print(f"error: no chebgamma sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all_workloads(args)
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import chebgamma

    if Path(chebgamma.__file__).resolve().parent != SRC / "chebgamma":
        print(f"error: imported chebgamma from {chebgamma.__file__}", file=sys.stderr)
        return 2
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=".")
    try:
        if args.trace:
            result = run_traced(args.workload, args.seed, args.seconds, workdir)
        else:
            result = run_untraced(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _print_result(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
