"""Verification harness, sweep engine, and the batch CLI."""

import csv
import importlib.util
import json
import math
import os
import random
import stat
import threading
from pathlib import Path

import pytest

from chebgamma import (
    ConfigError,
    KernelDomainError,
    SeriesParams,
    SingularParameterError,
    SweepConfig,
    TruncationPolicy,
    case_ids,
    closed_form,
    compare,
    harness,
    parse_sweep_config,
    run_all,
    run_case,
    run_sweep,
    series_sum,
    upper_gamma,
)
from chebgamma import closedform
from chebgamma import sweep as sweep_module
from chebgamma._flags import collect
from chebgamma.cli import main
from chebgamma.complexfn import _difference
from chebgamma.harness import DEFAULT_SEED, registered_cases, render_report_json, render_report_text
from chebgamma.sweep import SWEEP_COLUMNS, parse_complex_literal

# The registry is frozen: adding, removing, or renaming a case must be a
# deliberate act that updates this manifest.
CASE_MANIFEST = {
    "theorem1-int-k": "primary",
    "twelve-terms": "primary",
    "series-direct-sum": "primary",
    "series-vs-closed": "primary",
    "kernel-recurrence": "primary",
    "prop1-limit": "primary",
    "prop1-k1": "derived-anchor",
    "prop2-cos": "primary",
    "example1-erfc": "primary",
    "example2-golden": "primary",
    "diff-c1": "primary",
    "diff-c2": "primary",
    "diff-c3": "primary",
    "diff-c4": "primary",
    "diff-c5": "primary",
}


# ----------------------------------------------------------------- compare

def test_compare_equal_values():
    abs_err, rel_err, ok = compare(1.0, 1.0, 1e-9)
    assert abs_err == 0.0 and rel_err == 0.0 and ok


def test_compare_detects_relative_miss():
    _, _, ok = compare(1.0, 1.0 + 1e-6j, 1e-9)
    assert not ok


def test_compare_absolute_fallback_near_zero():
    _, rel_err, ok = compare(0.0, 1e-12, 1e-9)
    assert ok and rel_err == 1.0


def test_compare_rejects_bad_tolerance():
    with pytest.raises(ConfigError):
        compare(1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        compare(1.0, 1.0, -1e-9)


def test_compare_at_values_whose_modulus_has_no_double():
    # abs() of either value overflows; the ratio is read from quartered values
    assert compare(1.5e308 + 1.5e308j, 1.5e308 + 1.5e308j, 1e-9) == (0.0, 0.0, True)
    abs_err, rel_err, ok = compare(1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, 1e-9)
    assert (abs_err, rel_err, ok) == (math.inf, 2.0, False)


@pytest.mark.parametrize("lhs, rhs, expected", [
    (1.0, 1.0, (0.0, 0.0)),
    (1.0, 1.0 + 1e-6j, (1e-6, 1e-6 / abs(1.0 + 1e-6j))),
    (0.0, 1e-12, (1e-12, 1.0)),
    (0.0, 0.0, (0.0, 0.0)),
    # abs() of either value overflows: read from the quartered values
    (1.5e308 + 1.5e308j, 1.5e308 + 1.5e308j, (0.0, 0.0)),
    (1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j, (math.inf, 2.0)),
])
def test_difference_is_the_one_rule_compare_reads(lhs, rhs, expected):
    assert _difference(lhs, rhs) == expected
    assert compare(lhs, rhs, 1e-9)[:2] == expected


def test_difference_of_nan_is_nan():
    for lhs, rhs in ((math.nan, 1.0), (1.0, complex(0.0, math.nan))):
        abs_err, rel_err = _difference(lhs, rhs)
        assert math.isnan(abs_err) and math.isnan(rel_err)
        assert not compare(lhs, rhs, 1e-9)[2]


# ---------------------------------------------------------------- registry

def test_registry_matches_manifest():
    assert dict((c.case_id, c.kind) for c in registered_cases()) == CASE_MANIFEST
    assert list(case_ids()) == list(CASE_MANIFEST)


def test_unknown_case_id_is_config_error():
    with pytest.raises(ConfigError):
        run_case("no-such-case")
    with pytest.raises(ConfigError):
        run_all(only="no-such-case")


def test_all_cases_pass_at_default_seed():
    reports = run_all()
    assert len(reports) == len(CASE_MANIFEST)
    for r in reports:
        assert r.status == "pass", f"{r.case_id}: rel={r.rel_err:.3e} tol={r.tolerance:.0e}"
        assert r.rel_err <= r.tolerance or abs(r.rhs_value) < 1e-8


def test_branch_sensitive_cases_report_their_warning():
    for cid in ("diff-c3", "diff-c5"):
        report = run_case(cid)
        assert "branch-sensitive" in report.warnings
    assert "branch-sensitive" not in run_case("diff-c1").warnings


def test_single_case_equals_its_row_in_full_run():
    full = {r.case_id: r for r in run_all(seed=777)}
    for cid in ("theorem1-int-k", "example1-erfc", "diff-c3"):
        solo = run_case(cid, seed=777)
        other = full[cid]
        assert solo.lhs_value == other.lhs_value
        assert solo.rhs_value == other.rhs_value
        assert solo.rel_err == other.rel_err


def test_reports_are_byte_identical_across_runs():
    first = run_all(seed=DEFAULT_SEED)
    second = run_all(seed=DEFAULT_SEED)
    assert render_report_text(first, DEFAULT_SEED) == render_report_text(second, DEFAULT_SEED)
    assert render_report_json(first, DEFAULT_SEED) == render_report_json(second, DEFAULT_SEED)


def test_report_text_shape():
    reports = run_all(seed=123)
    text = render_report_text(reports, 123)
    assert "seed = 123" in text
    for cid in CASE_MANIFEST:
        assert cid in text
    assert text.count("pass") >= len(CASE_MANIFEST)


def test_report_json_shape():
    reports = run_all(seed=123)
    doc = json.loads(render_report_json(reports, 123))
    assert doc["seed"] == 123
    assert len(doc["cases"]) == len(CASE_MANIFEST)
    for entry in doc["cases"]:
        assert set(entry) >= {"case_id", "status", "rel_err", "tolerance"}
        assert "wall_time_ms" not in entry


def test_json_report_names_the_worst_point():
    # the parameters of the reported point, a complex one as [re, im]
    report = run_case("kernel-recurrence", seed=3)
    s, z = report.point
    assert report.lhs_value == upper_gamma(s + 1, z)
    entry = json.loads(render_report_json([report], 3))["cases"][0]
    assert entry["point"] == [s, [z.real, z.imag]]


def test_seed_changes_randomized_rows():
    a = run_case("theorem1-int-k", seed=1)
    b = run_case("theorem1-int-k", seed=2)
    assert (a.lhs_value, a.rel_err) != (b.lhs_value, b.rel_err)


def _synthetic_case(points, tol=1e-8):
    # Each point is (lhs, rhs): the routes just hand back the point.
    return harness.VerificationCase(
        "synthetic", "fixed rows for the worst-row rule", "primary", tol,
        points=tuple(points), draw=None,
        lhs=lambda lhs, rhs: lhs, rhs=lambda lhs, rhs: rhs)


def test_any_failing_row_fails_the_case(monkeypatch):
    nan = float("nan")
    # A NaN row among passing rows: the case fails and reports the NaN row.
    monkeypatch.setitem(harness._BY_ID, "synthetic",
                        _synthetic_case([(1.0, 1.0), (nan, 1.0), (1.0 + 1e-9, 1.0)]))
    report = run_case("synthetic")
    assert report.status == "fail"
    assert math.isnan(report.rel_err)
    # A row passing only through the near-zero fallback (rel_err 0.9) does
    # not hide a row that truly fails (rel_err 1e-6 > tol).
    monkeypatch.setitem(harness._BY_ID, "synthetic",
                        _synthetic_case([(1e-9, 1e-10), (1.0 + 1e-6, 1.0)]))
    report = run_case("synthetic")
    assert report.status == "fail"
    assert report.rhs_value == 1.0 and report.rel_err < 1e-5
    # When every row passes, the largest rel_err is still the one reported.
    monkeypatch.setitem(harness._BY_ID, "synthetic",
                        _synthetic_case([(1.0 + 1e-9, 1.0), (1e-9, 1e-10)]))
    report = run_case("synthetic")
    assert report.status == "pass"
    assert report.rel_err == pytest.approx(0.9)


# ------------------------------------------------------------ literal parse

def test_complex_literal_forms():
    assert parse_complex_literal("1.5-0.25i") == complex(1.5, -0.25)
    assert parse_complex_literal("2i") == 2j
    assert parse_complex_literal("-i") == -1j
    assert parse_complex_literal("1e3") == 1000.0 + 0j
    assert parse_complex_literal("3+4i") == complex(3, 4)
    assert parse_complex_literal("-2.5e-1i") == complex(0, -0.25)
    assert parse_complex_literal(" 0.5 ") == 0.5 + 0j


def test_complex_literal_errors_echo_token():
    for bad in ("", "1.5+", "i3", "1.5 - 0.25i", "2j", "abc"):
        with pytest.raises(ConfigError) as err:
            parse_complex_literal(bad)
        assert bad.strip() in str(err.value) or "empty" in str(err.value)


# ------------------------------------------------------------ sweep config

GOOD_CONFIG = """
# demo grid
a = 3.1830988618379067, 6.3661977236758134
k = 1, 2.5
alpha = 0.5, -0.25
beta = -0.5
mode = both
series_mode = optimal
output_path = {path}
format = csv
"""


def test_parse_sweep_config_happy_path(tmp_path):
    out = tmp_path / "grid.csv"
    config = parse_sweep_config(GOOD_CONFIG.format(path=out))
    assert config.a == (complex(3.1830988618379067), complex(6.3661977236758134))
    assert config.k == (1 + 0j, 2.5 + 0j)
    assert config.alpha == (0.5 + 0j, -0.25 + 0j)
    assert config.beta == (-0.5 + 0j,)
    assert config.mode == "both"
    assert config.policy.mode == "optimal"
    assert config.format == "csv"


def test_parse_sweep_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_sweep_config("a = 1\nk = 2\nk = 3\nalpha = 0\nbeta = 0")
    assert "line 3" in str(err.value) and "duplicate" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_sweep_config("a = 1\nwhat = 2")
    assert "line 2" in str(err.value) and "unknown" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_sweep_config("a =\nk = 1")
    assert "line 1" in str(err.value) and "empty" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_sweep_config("a = 1\nk = one\nalpha = 0\nbeta = 0")
    assert "line 2" in str(err.value)

    with pytest.raises(ConfigError) as err:
        parse_sweep_config("mode = both")
    assert "missing grid axes" in str(err.value)
    assert "a, k, alpha, beta" in str(err.value)


@pytest.mark.parametrize("line, message", [
    ("a 1", "line 1: expected 'key = value', got 'a 1'"),
    ("max_shell = x", "max_shell must be an integer"),
    ("rel_tol = x", "rel_tol must be a float"),
])
def test_parse_sweep_config_refuses_a_bad_line(line, message):
    with pytest.raises(ConfigError) as err:
        parse_sweep_config(f"{line}\na = 1\nk = 1\nalpha = 0\nbeta = 0.5")
    assert str(err.value) == message


@pytest.mark.parametrize("change, message", [
    ({"alpha": ()}, "grid axis 'alpha' must be a nonempty tuple"),
    ({"k": [1 + 0j]}, "grid axis 'k' must be a nonempty tuple"),
    ({"beta": (0.5,)}, "grid axis 'beta' must contain complex values"),
    ({"mode": "neither"}, "mode must be one of ('series', 'closed', 'both'), got 'neither'"),
    ({"format": "xml"}, "format must be one of ('csv', 'json'), got 'xml'"),
    ({"policy": "optimal"}, "policy must be a TruncationPolicy, got 'optimal'"),
    ({"output_path": None}, "output_path must be a path, got None"),
])
def test_sweep_config_refuses_a_bad_field(change, message):
    fields = {"a": (1 + 0j,), "k": (1 + 0j,), "alpha": (0j,), "beta": (0.5 + 0j,), **change}
    with pytest.raises(ConfigError) as err:
        SweepConfig(**fields)
    assert str(err.value) == message


def test_sweep_config_grid_cap():
    axis = tuple(complex(i) for i in range(101))
    with pytest.raises(ConfigError) as err:
        SweepConfig(a=axis, k=axis, alpha=axis, beta=axis)
    assert "limit" in str(err.value)


def test_sweep_csv_grid_order_and_roundtrip(tmp_path):
    out = tmp_path / "grid.csv"
    config = SweepConfig(
        a=(10.0 / math.pi + 0j, 20.0 / math.pi + 0j),
        k=(1 + 0j,),
        alpha=(0.25 + 0j, -0.75 + 0j),
        beta=(0.5 + 0j,),
        mode="both",
        output_path=str(out),
    )
    summary = run_sweep(config)
    assert summary.points_evaluated == 4
    assert summary.failures == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == list(SWEEP_COLUMNS)
    # Outer loop a, inner alpha: row order is (a0,alpha0), (a0,alpha1), ...
    assert [float(r["a_re"]) for r in rows] == pytest.approx(
        [10.0 / math.pi, 10.0 / math.pi, 20.0 / math.pi, 20.0 / math.pi])
    assert [float(r["alpha_re"]) for r in rows] == pytest.approx([0.25, -0.75, 0.25, -0.75])
    for r in rows:
        # 17-digit rendering round-trips and the two routes agree at k = 1.
        z = math.pi * float(r["a_re"])
        expect = 1.0 + (float(r["alpha_re"]) + float(r["beta_re"])) / z
        assert float(r["series_re"]) == pytest.approx(expect, rel=1e-12)
        assert float(r["rel_diff"]) < 1e-9
        assert r["a_re"] == format(float(r["a_re"]), ".17g")


def test_sweep_singular_points_are_skipped_rows(tmp_path):
    out = tmp_path / "grid.csv"
    config = SweepConfig(
        a=(10.0 / math.pi + 0j,),
        k=(2 + 0j,),
        alpha=(0.5 + 0j, 1.0 + 0j),
        beta=(0.5 + 0j, -0.3 + 0j),
        mode="closed",
        output_path=str(out),
    )
    summary = run_sweep(config)
    assert summary.points_evaluated == 4
    assert summary.failures == 3  # alpha=beta, alpha=1 twice
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    skipped = [r for r in rows if "skipped-with-warning" in r["warnings"]]
    assert len(skipped) == 3
    for r in skipped:
        assert r["closed_re"] == ""
        assert r["rel_diff"] == ""
    kept = [r for r in rows if r not in skipped]
    assert len(kept) == 1 and kept[0]["closed_re"] != ""


def test_sweep_survives_a_saturating_kernel(tmp_path):
    # At k = -2, beta = -1.5, a*pi = 300 the closed form needs Gamma(-2, z)
    # past the double range; that point saturates and the grid goes on.
    out = tmp_path / "grid.csv"
    config = SweepConfig(
        a=(300.0 / math.pi + 0j,), k=(-2 + 0j,), alpha=(0.3 + 0j,),
        beta=(-1.5 + 0j, 0.4 + 0j), output_path=str(out),
    )
    summary = run_sweep(config)
    assert summary.points_evaluated == 2
    assert summary.failures == 0
    with open(out, newline="") as fh:
        saturated, regular = list(csv.DictReader(fh))
    assert "overflow-saturation" in saturated["warnings"]
    assert not math.isfinite(float(saturated["closed_re"]))
    assert float(regular["rel_diff"]) < 1e-9


def test_sweep_json_format(tmp_path):
    out = tmp_path / "grid.json"
    config = SweepConfig(
        a=(5 + 0j,), k=(1 + 0j,), alpha=(0.3 + 0j,), beta=(-0.4 + 0j,),
        mode="series", output_path=str(out), format="json",
    )
    summary = run_sweep(config)
    assert summary.points_evaluated == 1
    doc = json.loads(out.read_text())
    assert set(doc) == {"rows"}
    assert len(doc["rows"]) == 1
    row = doc["rows"][0]
    assert set(row) == set(SWEEP_COLUMNS)
    assert row["closed_re"] is None  # series-only mode
    assert row["series_re"] is not None


def _small_sweep(path, fmt):
    return SweepConfig(a=(5 + 0j,), k=(1 + 0j, 2.5 + 0j), alpha=(0.3 + 0j,),
                       beta=(-0.4 + 0j, 0.6 + 0j), output_path=str(path), format=fmt)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("old_size", [1, 100_000])
def test_sweep_over_an_existing_file_leaves_exactly_the_new_bytes(tmp_path, fmt, old_size):
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    run_sweep(_small_sweep(fresh, fmt))
    reused.write_bytes(b"\xff" * old_size)
    run_sweep(_small_sweep(reused, fmt))
    assert reused.read_bytes() == fresh.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_into_the_null_device(fmt):
    assert run_sweep(_small_sweep(os.devnull, fmt)).points_evaluated == 4


def test_sweep_into_a_pipe(tmp_path):
    fifo, plain = tmp_path / "fifo", tmp_path / "plain.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    run_sweep(_small_sweep(fifo, "csv"))
    reader.join(timeout=30)
    assert not reader.is_alive()
    run_sweep(_small_sweep(plain, "csv"))
    assert received == [plain.read_bytes()]


def test_sweep_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    # 66 x 64 points: more than one batch of rows, and far more than the
    # 64 KiB a pipe buffers.  alpha repeats 0.3 and holds 0.0 and -0.0,
    # whose coordinate cells must keep each its own sign.
    alpha = (0j, complex(-0.0, -0.0), 0.3 + 0j, 0.3 + 0j) + tuple(
        complex(-0.95 + 0.03 * i, 0.0) for i in range(62))
    beta = tuple(complex(0.9 - 0.028 * i, 0.01 * (i % 3)) for i in range(64))
    grid = dict(a=(20.0 / math.pi + 0j,), k=(2.5 + 0j,), alpha=alpha, beta=beta, mode="closed")
    assert len(alpha) * len(beta) > sweep_module._CSV_BATCH
    fifo, plain = tmp_path / "fifo", tmp_path / "plain.csv"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    run_sweep(SweepConfig(output_path=str(fifo), **grid))
    reader.join(timeout=30)
    assert not reader.is_alive()
    run_sweep(SweepConfig(output_path=str(plain), **grid))
    assert len(received[0]) > 64 * 1024
    assert received == [plain.read_bytes()]
    with open(plain, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == list(SWEEP_COLUMNS)
    points = [(va, val, vb) for va in grid["a"] for val in alpha for vb in beta]
    assert len(rows) == len(points)
    for row, (va, val, vb) in zip(rows, points):
        values = (va.real, va.imag, 2.5, 0.0, val.real, val.imag, vb.real, vb.imag)
        assert row[:8] == ["%.17g" % v for v in values]
    assert rows[0][4:6] == ["0", "0"]
    assert rows[len(beta)][4:6] == ["-0", "-0"]


def test_new_sweep_file_gets_the_permission_bits_of_open_w(tmp_path):
    old_umask = os.umask(0o027)
    try:
        run_sweep(_small_sweep(tmp_path / "grid.csv", "csv"))
        with open(tmp_path / "plain.csv", "w"):
            pass
    finally:
        os.umask(old_umask)
    mode = os.stat(tmp_path / "grid.csv").st_mode
    assert mode == os.stat(tmp_path / "plain.csv").st_mode
    assert stat.S_IMODE(mode) == 0o640


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_into_a_missing_directory_raises(tmp_path, fmt):
    with pytest.raises(FileNotFoundError):
        run_sweep(_small_sweep(tmp_path / "missing" / "grid", fmt))


def test_skipped_row_keeps_the_flags_of_the_route_that_ran(tmp_path):
    # At k = 180 the series overflows and flags it; at alpha = beta the
    # closed form is then refused.  The skipped row still carries the flag.
    out = tmp_path / "grid.csv"
    config = SweepConfig(
        a=(100.0 / math.pi + 0j,), k=(180 + 0j,), alpha=(0.3 + 0j,),
        beta=(0.3 + 0j, 0.5 + 0j), output_path=str(out),
    )
    assert run_sweep(config).failures == 1
    with open(out, newline="") as fh:
        skipped, regular = list(csv.DictReader(fh))
    assert skipped["warnings"] == (
        "overflow-saturation; skipped-with-warning: alpha and beta coincide "
        "(removable singularity); use limit_eval")
    assert regular["warnings"] == "overflow-saturation"


def _count_kernel_calls(monkeypatch, config):
    calls = []
    kernel = closedform.upper_gamma

    def counting(s, w):
        calls.append((s, w))
        return kernel(s, w)

    monkeypatch.setattr(closedform, "upper_gamma", counting)
    run_sweep(config)
    return len(calls)


def _closed_sweep(tmp_path, a, k, alpha, beta):
    return SweepConfig(
        a=tuple(complex(v) for v in a), k=tuple(complex(v) for v in k),
        alpha=tuple(complex(v) for v in alpha), beta=tuple(complex(v) for v in beta),
        mode="closed", output_path=str(tmp_path / "grid.csv"))


def test_sweep_kernel_work_grows_with_the_axes_not_their_product(tmp_path, monkeypatch):
    alpha, beta = (0.3, -0.6, 0.75), (0.5, -0.2, 0.1, -0.9)
    one_block = _closed_sweep(tmp_path, (20.0 / math.pi,), (2.5,), alpha, beta)
    # Six incomplete gammas per variable value: (3 + 4) * 6, not 3 * 4 * 12.
    assert _count_kernel_calls(monkeypatch, one_block) == 42
    # Pairs live for one (a, k) block: a second block pays again.
    two_blocks = _closed_sweep(tmp_path, (20.0 / math.pi,), (2.5, 3.5), alpha, beta)
    assert _count_kernel_calls(monkeypatch, two_blocks) == 84


@pytest.mark.parametrize("alpha, beta, calls", [
    ((1.0, 0.3), (0.5, -0.2), 18),   # alpha = 1 is singular at every point
    ((0.5,), (0.5,), 0),             # alpha = beta: nothing is evaluated
    ((0.5, 0.3), (0.5, -0.2), 18),   # 0.5 on both axes is one pair
    ((0.0, -0.0), (0.5,), 18),       # 0.0 and -0.0 are two pairs
])
def test_sweep_computes_a_root_pair_only_for_regular_points(
        tmp_path, monkeypatch, alpha, beta, calls):
    config = _closed_sweep(tmp_path, (20.0 / math.pi,), (2.5,), alpha, beta)
    assert _count_kernel_calls(monkeypatch, config) == calls


def test_sweep_evaluates_every_point_through_closed_form(tmp_path, monkeypatch):
    # A block is one root-pair scope around plain closed_form calls, which
    # a tracer sees by rebinding sweep.closed_form; no scope outlives it.
    points = []
    original = sweep_module.closed_form
    monkeypatch.setattr(sweep_module, "closed_form", lambda p: points.append(p) or original(p))
    config = _closed_sweep(tmp_path, (20.0 / math.pi,), (2.5, 3.5), (0.3, 1.0, -0.6), (0.5, -0.2))
    # alpha = 1 is singular at every point: four pairs per block
    assert _count_kernel_calls(monkeypatch, config) == 2 * 4 * 6
    assert len(points) == 2 * 3 * 2
    assert closedform._pair_scope.get() is None


def test_verify_limit_case_computes_seven_root_pairs_per_point(monkeypatch):
    calls = []
    kernel = closedform.upper_gamma
    monkeypatch.setattr(closedform, "upper_gamma", lambda s, w: calls.append(s) or kernel(s, w))
    assert run_case("prop1-limit").status == "pass"
    assert len(calls) == 11 * 7 * 6


def _same_float(x, y):
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1.0, x) == math.copysign(1.0, y)


def _parity_grid():
    rng = random.Random(20261018)
    shared = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.4, 0.4))
    # At a*pi = 1e155 and alpha = 3e153 the product z X overflows: the root
    # pair saturates e^(z X) and then raises KernelDomainError, a skipped
    # row whose flags come from the pair.  At the other a the pair of
    # alpha = 3e153 evaluates, its small root the reciprocal of the large.
    a = (rng.uniform(2.0, 10.0) + 0j, complex(rng.uniform(2.0, 10.0), rng.uniform(-2.0, 2.0)),
         300.0 / math.pi + 0j, 1e155 / math.pi + 0j)
    k = (rng.uniform(1.0, 4.0) + 0j, -2 + 0j, complex(rng.uniform(1.0, 3.0), rng.uniform(0.1, 1.0)))
    alpha = (0.3 + 0j, complex(rng.uniform(1.2, 2.0)), shared, 0j, complex(-0.0, 0.0),
             3e153 + 0j)
    beta = (-1.5 + 0j, complex(rng.uniform(-0.9, 0.0)), shared, complex(-0.0, 0.0), 0.3 + 0j)
    return a, k, alpha, beta


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_rows_match_point_by_point_evaluation(tmp_path, fmt):
    # Complex a, non-integer, negative-integer and complex k; x inside and
    # outside [-1, 1] and complex; +0.0 and -0.0; one value on both axes;
    # alpha = beta points; and the saturating root at k = -2, beta = -1.5.
    a, k, alpha, beta = _parity_grid()
    out = tmp_path / f"grid.{fmt}"
    policy = TruncationPolicy(mode="optimal", max_shell=64)
    config = SweepConfig(a=a, k=k, alpha=alpha, beta=beta, policy=policy,
                         output_path=str(out), format=fmt)
    run_sweep(config)
    if fmt == "csv":
        with open(out, newline="") as fh:
            rows = [{col: (r[col] if col == "warnings" else
                           None if r[col] == "" else float(r[col]))
                     for col in SWEEP_COLUMNS} for r in csv.DictReader(fh)]
    else:
        rows = json.loads(out.read_text())["rows"]
    points = [(va, vk, val, vb) for va in a for vk in k for val in alpha for vb in beta]
    assert len(rows) == len(points)
    seen_skip = seen_flag = seen_flagged_skip = 0
    for row, (va, vk, val, vb) in zip(rows, points):
        params = SeriesParams(a=va, k=vk, alpha=val, beta=vb)
        closed = note = None
        with collect() as seen:
            try:
                series_sum(params, policy)
                closed = closed_form(params)
            except (SingularParameterError, KernelDomainError, ConfigError) as exc:
                note = f"skipped-with-warning: {exc}"
        expected = sorted(seen) + ([note] if note else [])
        assert row["warnings"] == "; ".join(expected)
        if closed is None:
            assert row["closed_re"] is None and row["closed_im"] is None
        else:
            assert _same_float(row["closed_re"], closed.real)
            assert _same_float(row["closed_im"], closed.imag)
        seen_skip += note is not None
        seen_flag += "overflow-saturation" in row["warnings"]
        seen_flagged_skip += note is not None and bool(seen)
    assert seen_skip and seen_flag and seen_flagged_skip


def test_sweep_csv_cells_are_the_17_digit_text_of_each_value(tmp_path):
    # A NaN a is refused with a message holding a comma, so its row needs
    # CSV quoting; alpha = -0.0-0.0i gives signed zero cells; at k = -2,
    # a*pi = 0.1307 the fixed-mode series overflows to an infinite error
    # estimate with overflow-saturation; at a*pi = 300, beta = -1.5 the
    # closed form is NaN.
    nan = float("nan")
    a = (complex(nan, 0.0), 0.13066616661942596 / math.pi + 0j, 300.0 / math.pi + 0j)
    alpha = (-1.6698500023617897 + 0j, complex(-0.0, -0.0))
    beta = (-0.37267443809656786 + 0j, -1.5 + 0j, 0.5 + 0j)
    k = -2 + 0j
    policy = TruncationPolicy(mode="fixed")
    out = tmp_path / "grid.csv"
    run_sweep(SweepConfig(a=a, k=(k,), alpha=alpha, beta=beta, policy=policy,
                          output_path=str(out)))
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    points = [(va, val, vb) for va in a for val in alpha for vb in beta]
    assert len(rows) == len(points)
    texts = set()
    for row, (va, val, vb) in zip(rows, points):
        values = [va.real, va.imag, k.real, k.imag, val.real, val.imag, vb.real, vb.imag]
        with collect() as seen:
            try:
                params = SeriesParams(a=va, k=k, alpha=val, beta=vb)
            except ConfigError as exc:
                assert row[-1] == f"skipped-with-warning: {exc}"
                values += [None] * 6
            else:
                result = series_sum(params, policy)
                closed = closed_form(params)
                s = result.value
                values += [s.real, s.imag, result.error_estimate, closed.real, closed.imag,
                           abs(s - closed) / max(abs(s), abs(closed), 1e-300)]
                assert row[-1] == "; ".join(sorted(seen))
        assert row[:-1] == ["" if v is None else format(v, ".17g") for v in values]
        texts.update(row[:-1])
        if row[10] == "inf":
            assert "overflow-saturation" in row[-1]
    assert {"-0", "nan", "inf", ""} <= texts
    assert '"skipped-with-warning: a must be finite, got (nan+0j)"' in out.read_text()


# ------------------------------------------------------------------- CLI

def test_cli_eval_closed(capsys):
    rc = main(["eval", "--a", "3.1830988618379067", "--k", "1",
               "--alpha", "0.25", "--beta", "0.5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "value = " in out
    value = float(out.split("value = ")[1].split("+")[0])
    assert value == pytest.approx(1.075, rel=1e-9)


def test_cli_eval_twelve_terms(capsys):
    rc = main(["eval", "--a", "4", "--k", "2.5", "--alpha", "0.3",
               "--beta", "-0.45", "--path", "terms"])
    out = capsys.readouterr().out
    assert rc == 0
    term_lines = [ln for ln in out.splitlines() if ln.startswith("term ")]
    assert len(term_lines) == 12
    assert "value = " in out


def test_cli_eval_cos_path(capsys):
    rc = main(["eval", "--a", "3.1830988618379067", "--k", "1",
               "--alpha", "1.5707963267948966", "--beta", "1.0471975511965976",
               "--path", "cos"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split("value = ")[1].split("+")[0])
    assert value == pytest.approx(1.05, rel=1e-9)


def test_cli_series_output_fields(capsys):
    rc = main(["series", "--a", "10", "--k", "2", "--alpha", "0.5-0.25i",
               "--beta", "-0.1"])
    out = capsys.readouterr().out
    assert rc == 0
    for field in ("value = ", "error_estimate = ", "shells_used = ",
                  "termination = ", "warnings = "):
        assert field in out
    assert "terminated-exactly" in out


def test_cli_verify_single_case(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["verify", "--case", "prop1-k1", "--json", str(report_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "prop1-k1" in out and "pass" in out
    assert f"seed = {DEFAULT_SEED}\n" in out
    doc = json.loads(report_path.read_text())
    assert doc["cases"][0]["case_id"] == "prop1-k1"


def test_cli_verify_json_over_a_longer_file_leaves_exactly_the_report(capsys, tmp_path):
    fresh, reused = tmp_path / "fresh.json", tmp_path / "reused.json"
    reused.write_text("x" * 100_000)
    for path in (fresh, reused):
        assert main(["verify", "--case", "prop1-k1", "--json", str(path)]) == 0
    assert reused.read_bytes() == fresh.read_bytes()


def test_cli_verify_json_into_a_missing_directory_exits_2(capsys, tmp_path):
    rc = main(["verify", "--case", "prop1-k1", "--json", str(tmp_path / "missing" / "r.json")])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_list_shows_all_cases(capsys):
    rc = main(["list"])
    out = capsys.readouterr().out
    assert rc == 0
    for cid in CASE_MANIFEST:
        assert cid in out


def test_cli_singular_point_exits_2(capsys):
    rc = main(["eval", "--a", "3", "--k", "2", "--alpha", "0.5", "--beta", "0.5"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "limit_eval" in err


def test_cli_bad_literal_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--a", "nope", "--k", "1", "--alpha", "0", "--beta", "0.5"])
    assert exc.value.code == 2
    assert "nope" in capsys.readouterr().err


def test_cli_sweep_end_to_end(capsys, tmp_path):
    out_csv = tmp_path / "demo.csv"
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD_CONFIG.format(path=out_csv))
    rc = main(["sweep", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "points = 8" in out
    assert out_csv.exists()
    with open(out_csv, newline="") as fh:
        assert len(list(csv.DictReader(fh))) == 8


def test_cli_sweep_into_a_missing_directory_exits_2(capsys, tmp_path):
    cfg = tmp_path / "demo.cfg"
    cfg.write_text(GOOD_CONFIG.format(path=tmp_path / "missing" / "demo.csv"))
    assert main(["sweep", "--config", str(cfg)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_demo_sweep_matches_the_readme(capsys, tmp_path, monkeypatch):
    # The demo grid puts 0.5 on both axes, so its alpha = beta points are
    # skipped and the 0.5 root pair is shared by the other points.
    config = Path(__file__).resolve().parents[1] / "scripts" / "demo_grid.cfg"
    monkeypatch.chdir(tmp_path)
    rc = main(["sweep", "--config", str(config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "points = 24\nfailures = 6\n" in out
    assert (tmp_path / "demo_grid_out.csv").exists()


def test_cli_series_reads_exact_if_terminating_as_optimal(capsys):
    point = ["series", "--a", "10", "--k", "-0.5", "--alpha", "0.3", "--beta", "-0.45"]
    assert main(point + ["--mode", "exact-if-terminating"]) == 0
    alias = capsys.readouterr().out
    assert main(point + ["--mode", "optimal"]) == 0
    assert capsys.readouterr().out == alias
    assert main(point) == 0
    assert capsys.readouterr().out == alias


def test_sweep_fingerprint_reports_how_rows_moved():
    spec = importlib.util.spec_from_file_location(
        "sweep_fingerprint", Path(__file__).resolve().parents[1] / "scripts" / "sweep_fingerprint.py")
    fp = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fp)

    def row(closed, k=2.0):
        values = dict.fromkeys(SWEEP_COLUMNS, "0")
        values.update(k_re=repr(k), series_re="1.0", series_err="0", warnings="",
                      closed_re=repr(closed), rel_diff=repr(abs(closed - 1.0)))
        return values

    diff = fp.RowDiff()
    diff.add_cell([row(1.0), row(1.0), row(1.0)],
                  [row(1.0), row(1.0 + 2e-12), row(math.nan)], 3)
    diff.add_cell([row(1.0)], None, 1)
    assert (diff.rows, diff.rows_changed) == (4, 3)
    assert diff.changed == {"closed_re": 2, "rel_diff": 2}
    assert diff.largest["closed"] == pytest.approx(2e-12, rel=1e-3)
    assert diff.largest["rel_diff"] == math.inf  # from 0
    assert diff.moves == {("pass", "nonfinite_closed"): 1, ("pass", "aborted"): 1}
    assert diff.report()[-1] == "failure-cause moves: pass -> aborted 1, pass -> nonfinite_closed 1"


def _script(name):
    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_series_fingerprint_exits_1_when_a_draw_moved(tmp_path, capsys):
    # --against exits 0 against the script's own dump, and 1 once one
    # line of that dump is altered
    series = _script("series_fingerprint")
    dump = tmp_path / "series.txt"
    argv = ["--draws", "30"]
    assert series.main(argv + ["--dump", str(dump)]) == 0
    assert series.main(argv + ["--against", str(dump)]) == 0
    lines = dump.read_text().splitlines(keepends=True)
    cells = lines[3].split("\t")
    value = complex(cells[1 + len(series.POINT_FIELDS)])
    cells[1 + len(series.POINT_FIELDS)] = "(0.5+0j)"  # the value field
    lines[3] = "\t".join(cells)
    dump.write_text("".join(lines))
    assert series.main(argv + ["--against", str(dump)]) == 1
    out = capsys.readouterr().out
    assert "1 of 30 draws moved" in out
    assert f"largest relative change: value {abs(value - 0.5) / 0.5:.3g}, error 0\n" in out


def test_sweep_fingerprint_exits_1_when_a_row_moved(tmp_path, capsys):
    sweeps = _script("sweep_fingerprint")
    rows = tmp_path / "rows"
    argv = ["--seeds", "1", "--workloads", "sweep-deep"]
    assert sweeps.main(argv + ["--dump", str(rows)]) == 0
    assert sweeps.main(argv + ["--against", str(rows)]) == 0
    cell = sorted((rows / "sweep-deep" / "seed-1").iterdir())[0]
    with cell.open(newline="") as fh:
        table = list(csv.reader(fh))
    column = table[0].index("series_re")
    assert table[1][column] != "0.5"
    table[1][column] = "0.5"
    with cell.open("w", newline="") as fh:
        csv.writer(fh).writerows(table)
    capsys.readouterr()
    assert sweeps.main(argv + ["--against", str(rows)]) == 1
    assert "1 of 1280 rows changed" in capsys.readouterr().out


def test_bench_pairs_verdict_follows_the_pair_rule():
    pairs = _script("bench_pairs")
    parent = [100.0, 100.2, 99.8, 100.4, 99.6, 100.1, 99.9, 100.3, 99.7, 100.0]
    # parent quartiles 99.825 and 100.175: an IQR of 0.35
    faster = [p - 3.0 for p in parent]
    assert pairs.wins(parent, faster, "lower") == 10
    assert pairs.verdict(parent, faster, "lower", 0.15) == "gain"
    assert pairs.verdict(parent, faster, "higher", 0.15) == "flat"
    # nine wins of ten still make a gain, eight do not
    nine = faster[:9] + [101.0]
    assert pairs.wins(parent, nine, "lower") == 9
    assert pairs.verdict(parent, nine, "lower", 0.15) == "gain"
    eight = faster[:8] + [101.0, 101.0]
    assert pairs.verdict(parent, eight, "lower", 0.15) == "flat"
    # every pair won, but by less than the parent's IQR
    assert pairs.verdict(parent, [p - 0.3 for p in parent], "lower", 0.15) == "flat"
    # worse by more than the bound, in either direction of better
    assert pairs.verdict(parent, [p * 1.2 for p in parent], "lower", 0.15) == "regression"
    assert pairs.verdict(parent, [p * 1.1 for p in parent], "lower", 0.15) == "flat"
    assert pairs.verdict(parent, [p * 0.99 for p in parent], "higher", 0.005) == "regression"
    # a spread wider than the bound leaves a small move unresolved, unless
    # every run of the change reads better than every run of the parent
    wide = [80.0, 120.0] * 5
    assert pairs.verdict(wide, [79.0, 119.0] * 5, "lower", 0.15) == "unresolved"
    assert pairs.verdict(wide, [70.0, 79.0] * 5, "lower", 0.15) == "flat"
    # a tie counts for neither side
    assert pairs.wins([1.0, 2.0], [1.0, 1.0], "lower") == 1
    assert pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_bench_pairs_judges_each_workload_of_a_list(monkeypatch, capsys):
    # one table per workload and seed, workload by workload and seed by
    # seed; exit 1 once any of them regressed, and every one still runs
    pairs = _script("bench_pairs")
    metrics = json.loads((Path(pairs.ROOT) / "BENCHMARK.json").read_text())["end_to_end"]
    slower = {("sweep-wide", 1): 1.5}
    calls = []

    def run_once(checkout, workload, seed, args):
        calls.append((workload, seed))
        scale = slower.get((workload, seed), 1.0) if checkout == pairs.ROOT else 1.0
        jitter = 1.0 + 0.001 * len(calls)
        return {m["name"]: 10.0 * jitter * (scale if m["better"] == "lower" else 1.0)
                for m in metrics}

    def tables(out):
        return [tuple(line.split()[:2]) for line in out.splitlines() if " pairs=2 " in line]

    monkeypatch.setattr(pairs, "run_once", run_once)
    argv = ["--parent", "no-such-parent", "--pairs", "2", "--seconds", "1"]
    assert pairs.main(argv + ["--workload", "verify,sweep-wide,sweep-deep"]) == 1
    out = capsys.readouterr().out
    assert calls == [("verify", 1)] * 4 + [("sweep-wide", 1)] * 4 + [("sweep-deep", 1)] * 4
    assert tables(out) == [("verify", "seed=1"), ("sweep-wide", "seed=1"),
                           ("sweep-deep", "seed=1")]
    wide = out[out.index("sweep-wide seed=1 pairs"):out.index("sweep-deep seed=1 pairs")]
    assert "regression" in wide and "regression" not in out.replace(wide, "")
    calls.clear()
    assert pairs.main(argv + ["--workload", "verify,sweep-deep"]) == 0
    assert calls == [("verify", 1)] * 4 + [("sweep-deep", 1)] * 4
    capsys.readouterr()
    # a seed list runs every seed of one workload before the next workload
    calls.clear()
    slower = {("verify", 2): 1.5}
    assert pairs.main(argv + ["--workload", "verify,sweep-deep", "--seed", "1..2"]) == 1
    out = capsys.readouterr().out
    assert calls == [(w, seed) for w in ("verify", "sweep-deep") for seed in (1, 2) for _ in range(4)]
    assert tables(out) == [("verify", "seed=1"), ("verify", "seed=2"),
                           ("sweep-deep", "seed=1"), ("sweep-deep", "seed=2")]
    second = out[out.index("verify seed=2 pairs"):out.index("sweep-deep seed=1 pairs")]
    assert "regression" in second and "regression" not in out.replace(second, "")
    calls.clear()
    assert pairs.main(argv + ["--workload", "sweep-deep", "--seed", "1,3"]) == 0
    assert calls == [("sweep-deep", 1)] * 4 + [("sweep-deep", 3)] * 4
    with pytest.raises(SystemExit):
        pairs.main(argv + ["--workload", "verify", "--seed", "2..1"])
    assert "empty seed range '2..1'" in capsys.readouterr().err


def test_reproduce_verification_exits_1_when_a_report_moved(tmp_path, capsys):
    # --against exits 0 against the script's own dump, and 1 once one
    # field of that dump is altered
    verify = _script("reproduce_verification")
    reports = tmp_path / "reports"
    argv = ["--seeds", "3"]
    assert verify.main(argv + ["--dump", str(reports)]) == 0
    assert verify.main(argv + ["--against", str(reports)]) == 0
    assert "0 (seed, case, field) entries moved" in capsys.readouterr().out
    dump = reports / "report-3.json"
    doc = json.loads(dump.read_text())
    case = doc["cases"][5]
    case["rel_err"] *= 2.0
    case["status"] = "fail"
    dump.write_text(json.dumps(doc))
    assert verify.main(argv + ["--against", str(reports)]) == 1
    out = capsys.readouterr().out
    assert "2 (seed, case, field) entries moved" in out
    assert f"seed 3 {case['case_id']} rel_err: relative change 0.5\n" in out
    assert f'seed 3 {case["case_id"]} status: "fail" -> "pass"\n' in out
    assert verify.parse_seeds("0..2,7") == [0, 1, 2, 7]


def test_reproduce_verification_tells_a_moved_worst_point(tmp_path, capsys):
    # a field of a case whose worst point moved reads "at another point";
    # one of a case whose worst point held does not
    verify = _script("reproduce_verification")
    reports = tmp_path / "reports"
    argv = ["--seeds", "3"]
    assert verify.main(argv + ["--dump", str(reports)]) == 0
    dump = reports / "report-3.json"
    doc = json.loads(dump.read_text())
    moved, held = doc["cases"][4], doc["cases"][5]
    point = json.dumps(moved["point"])
    moved["point"][0] += 1.0
    for case in (moved, held):
        case["rel_err"] *= 2.0
    dump.write_text(json.dumps(doc))
    capsys.readouterr()
    assert verify.main(argv + ["--against", str(reports)]) == 1
    out = capsys.readouterr().out
    assert "3 (seed, case, field) entries moved" in out
    assert f"seed 3 {moved['case_id']} point: {json.dumps(moved['point'])} -> {point}\n" in out
    assert f"seed 3 {moved['case_id']} rel_err: relative change 0.5, at another point\n" in out
    assert f"seed 3 {held['case_id']} rel_err: relative change 0.5\n" in out


def test_cold_start_times_every_command(capsys):
    cold = _script("cold_start")
    assert cold.main(["--runs", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split()[0] for row in rows] == list(cold.COMMANDS)
    assert all(float(row.split()[1]) > 0 for row in rows)


def test_cli_missing_config_exits_2(capsys, tmp_path):
    rc = main(["sweep", "--config", "/nonexistent/path.cfg"])
    assert rc == 2
    assert capsys.readouterr().err
    # a file that does not decode as text is a config error too
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfegrid = 1\n")
    rc = main(["sweep", "--config", str(binary)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(binary) in err


def test_sweep_survives_a_point_past_the_double_range(tmp_path):
    # At a*pi = 1.5e308 the root argument a*pi*X of alpha = -0.3+0.2i has a
    # modulus past the largest double, and at alpha = -0.6 the continued
    # fraction does not converge; either point is a row, not an abort.
    out = tmp_path / "grid.csv"
    a = (20.0 / math.pi + 0j, 1.5e308 / math.pi + 0j)
    alpha = (-0.6 + 0j, -0.3 + 0.2j, 0.3 + 0j)
    config = SweepConfig(a=a, k=(2.5 + 0j,), alpha=alpha, beta=(0.5 + 0j,),
                         mode="closed", output_path=str(out))
    assert run_sweep(config).points_evaluated == 6
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row, alpha_value in zip(rows[:3], alpha):
        closed = closed_form(SeriesParams(a=a[0], k=2.5, alpha=alpha_value, beta=0.5))
        assert row["warnings"] == ""
        assert (row["closed_re"], row["closed_im"]) == (
            format(closed.real, ".17g"), format(closed.imag, ".17g"))
    assert ["skipped-with-warning: " in row["warnings"] for row in rows[3:]] == [
        True, True, False]
    assert rows[5]["warnings"] == "overflow-saturation"


def test_cli_eval_past_the_double_range_exits_2(capsys):
    rc = main(["eval", "--a", "4.7746482927568601e307", "--k", "2.5",
               "--alpha=-0.3+0.2i", "--beta", "0.5"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("mode", ["closed", "series"])
def test_sweep_skips_an_order_whose_modulus_overflows(tmp_path, mode):
    # |1.5e308 + 1.5e308i| has no double: a named error makes the point a
    # skipped row, and the grid goes on
    out = tmp_path / "grid.csv"
    config = SweepConfig(a=(3.0 + 0j,), k=(2.5 + 0j, 1.5e308 + 1.5e308j), alpha=(0.3 + 0j,),
                         beta=(-0.55 + 0j,), mode=mode, output_path=str(out))
    summary = run_sweep(config)
    assert (summary.points_evaluated, summary.failures) == (2, 1)
    with open(out, newline="") as fh:
        regular, skipped = list(csv.DictReader(fh))
    assert regular[f"{mode}_re"] != "" and "skipped" not in regular["warnings"]
    assert skipped["warnings"] == (
        "skipped-with-warning: |k| overflows a double at k=(1.5e+308+1.5e+308j)")
    assert skipped[f"{mode}_re"] == ""


def test_cli_eval_at_an_order_whose_modulus_overflows_exits_2(capsys):
    rc = main(["eval", "--a", "3", "--k", "1.5e308+1.5e308i", "--alpha", "0.3",
               "--beta", "-0.55"])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: |k| overflows a double at k=(1.5e+308+1.5e+308j)\n")


def test_closed_sweep_skips_an_argument_whose_modulus_overflows(tmp_path):
    out = tmp_path / "grid.csv"
    config = SweepConfig(a=(3.0 + 0j,), k=(2.5 + 0j,), alpha=(0.3 + 0j, 1.5e308 + 1.5e308j),
                         beta=(-0.55 + 0j,), mode="closed", output_path=str(out))
    summary = run_sweep(config)
    assert (summary.points_evaluated, summary.failures) == (2, 1)
    with open(out, newline="") as fh:
        regular, skipped = list(csv.DictReader(fh))
    assert regular["closed_re"] != "" and "skipped" not in regular["warnings"]
    assert skipped["warnings"] == (
        "skipped-with-warning: |alpha - beta|, |alpha| or |beta| overflows a double "
        "at alpha=(1.5e+308+1.5e+308j), beta=(-0.55+0j)")
    assert skipped["closed_re"] == ""


@pytest.mark.parametrize("path", ["closed", "cos"])
def test_cli_eval_at_an_argument_whose_modulus_overflows_exits_2(capsys, path):
    rc = main(["eval", "--a", "3", "--k", "2.5", "--alpha", "1.5e308+1.5e308i",
               "--beta", "-0.55", "--path", path])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows a double" in err



def test_sweep_keeps_a_point_whose_values_have_no_double_modulus(tmp_path):
    # At alpha = 0.3+0.6i both routes give about 1.5e308 (1 + i), a finite
    # value whose modulus abs() cannot return; its rel_diff is still read,
    # and the alpha = 0.1 row after it is written too.
    out = tmp_path / "grid.csv"
    config = SweepConfig(a=(2.122065907891937e-309 + 0j,), k=(1 + 0j,),
                         alpha=(0.3 + 0.6j, 0.1 + 0j), beta=(0.7 + 0.4j,),
                         output_path=str(out))
    assert run_sweep(config).points_evaluated == 2
    with open(out, newline="") as fh:
        past, within = list(csv.DictReader(fh))
    assert (past["series_re"], past["closed_re"]) == (
        "1.5000000000000008e+308", "1.5000000000000138e+308")
    assert float(past["rel_diff"]) == pytest.approx(9.126e-15, rel=1e-3)
    assert within["alpha_re"] == "0.10000000000000001" and within["rel_diff"] != ""
