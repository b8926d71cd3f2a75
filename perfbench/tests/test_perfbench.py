"""Benchmark self-tests: the failure rule, seeded grids, and the tracer."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from chebgamma import SeriesParams, closed_form, series_sum  # noqa: E402
from chebgamma import closedform, complexfn, harness, sweep  # noqa: E402


def _point(a_pi, k, alpha, beta):
    p = SeriesParams(a=a_pi / math.pi, k=k, alpha=alpha, beta=beta)
    s = series_sum(p)
    return wl.judge_point(complex(k), s.value, closed_form(p), s.error_estimate, False)


def test_integer_k_point_passes_with_many_digits():
    out = _point(10.0, 2, 0.3, -0.4)
    assert not out.failed and out.digits > 12


def test_large_a_pi_closed_form_nan_fails_as_nonfinite_closed():
    out = _point(800.0, 2, 0.9, -0.3)
    assert out.failed and out.cause == "nonfinite_closed"


def test_series_overflow_past_k_172_fails_as_nonfinite_series():
    out = _point(50.0, 180, 0.3, -0.4)
    assert out.failed and out.cause == "nonfinite_series"


def test_integer_k_tolerance_is_relative_1e9():
    assert not wl.judge_point(2 + 0j, 1 + 0j, 1 + 5e-10 + 0j, 0.0, False).failed
    out = wl.judge_point(2 + 0j, 1 + 0j, 1 + 2e-9 + 0j, 0.0, False)
    assert out.failed and out.cause == "disagree"


def test_non_integer_k_tolerance_adds_the_series_error_estimate():
    passing = wl.judge_point(2.5 + 0j, 1 + 0j, 1 + 1e-6 + 0j, 1e-5, False)
    assert not passing.failed and passing.digits is None
    out = wl.judge_point(2.5 + 0j, 1 + 0j, 1 + 1e-6 + 0j, 1e-8, False)
    assert out.failed and out.cause == "disagree"


def test_sweep_rows_are_judged_from_the_csv(tmp_path):
    config = sweep.SweepConfig(a=(10.0 / math.pi + 0j,), k=(2 + 0j,),
                               alpha=(0.3 + 0j, 0.5 + 0j), beta=(0.5 + 0j,),
                               output_path=str(tmp_path / "cell.csv"))
    sweep.run_sweep(config)
    rows = wl.read_sweep_csv(config.output_path)
    outcomes = [wl.judge_row(row) for row in rows]
    assert not outcomes[0].failed
    assert outcomes[1].failed and outcomes[1].cause == "skipped"


@pytest.mark.parametrize("workload", ["sweep-wide", "sweep-deep"])
def test_grids_repeat_for_a_fixed_seed(workload):
    assert wl.make_grid(workload, 7, 2) == wl.make_grid(workload, 7, 2)
    assert wl.make_grid(workload, 7, 2) != wl.make_grid(workload, 8, 2)
    assert wl.make_grid(workload, 7, 2) != wl.make_grid(workload, 7, 3)


@pytest.mark.parametrize("workload", ["sweep-wide", "sweep-deep"])
def test_every_seed_pools_the_same_points(workload):
    def pooled(seed):
        return sorted(repr(cell) for v in range(wl.VARIANTS[workload])
                      for cell in wl.make_grid(workload, seed, v))

    assert pooled(7) == pooled(8) == pooled(123)


def test_grid_sizes_and_coverage():
    wide = wl.make_grid("sweep-wide", 3)
    assert sum(len(c["alpha"]) * len(c["beta"]) for c in wide) == 1456
    ks = [c["k"] for c in wide]
    assert any(k.imag != 0 for k in ks)
    assert any(k.imag == 0 and k.real < 0 and k.real == round(k.real) for k in ks)
    assert max(c["a"] * math.pi for c in wide) >= 300.0
    gaps = [abs(c["alpha"][1] - c["beta"][1]) for c in wide]
    assert all(1e-5 <= g <= 1e-3 for g in gaps)
    deep = wl.make_grid("sweep-deep", 3)
    assert sum(len(c["alpha"]) * len(c["beta"]) for c in deep) == 160
    assert any(c["k"].real >= 172 for c in deep)
    assert all(30 <= c["k"].real <= 180 and wl.terminating(c["k"]) for c in deep)


def test_harness_seeds_follow_the_benchmark_seed():
    assert wl.harness_seeds(3) == wl.harness_seeds(3)
    assert set(wl.harness_seeds(3)).isdisjoint(wl.harness_seeds(4))


def test_config_text_round_trips_every_value(tmp_path):
    cell = wl.make_grid("sweep-wide", 5)[90]
    text = wl.config_text(cell, "optimal", str(tmp_path / "out.csv"))
    config = sweep.parse_sweep_config(text)
    assert config.a == (complex(cell["a"]),) and config.k == (cell["k"],)
    assert config.alpha == tuple(complex(x) for x in cell["alpha"])
    assert config.beta == tuple(complex(x) for x in cell["beta"])
    assert config.policy.mode == "optimal"


@pytest.mark.parametrize("s, z, regime", [
    (-2.0, 5.0, "nonpos_int"),
    (2.5, 30.0, "cf"),
    (2.5, 1.0, "series"),
    (0.5, -30.0 + 1e-3j, "reflected"),
])
def test_upper_gamma_regime_follows_the_docstring_map(s, z, regime):
    assert spans.upper_gamma_regime(s, z) == regime


def test_tracer_records_spans_and_restores_originals(tmp_path):
    p = SeriesParams(a=20.0 / math.pi, k=2.5, alpha=0.3, beta=-0.55)
    expected = closed_form(p)
    originals = (closedform.closed_form, closedform.upper_gamma, complexfn.upper_gamma)
    tracer = spans.Tracer()
    tracer.install()
    try:
        got = tracer.run_step(0, closedform.closed_form, p)
    finally:
        tracer.uninstall()
    assert got == expected
    assert (closedform.closed_form, closedform.upper_gamma, complexfn.upper_gamma) == originals
    summary = tracer.summary()
    assert summary["closedform.closed_form"][0] == 1
    ug_calls = sum(summary.get(f"complexfn.upper_gamma.{r}", (0, 0.0))[0]
                   for r in spans.REGIMES)
    assert ug_calls == 12
    assert all(self_s >= 0.0 for _, self_s in summary.values())
    out = tmp_path / "spans.csv"
    tracer.write(str(out))
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["index", "name", "start", "end", "parent", "step"]
    assert len(rows) - 1 == sum(calls for calls, _ in summary.values())
    assert rows[1][1] == spans.STEP and rows[1][4] == "-1"
    assert all(float(r[2]) <= float(r[3]) and int(r[4]) < int(r[0]) and r[5] == "0"
               for r in rows[1:])


def test_benchmark_json_names_every_metric_the_code_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(bench_run.PER_LAYER)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert bench_run.CASE_IDS == harness.case_ids()
