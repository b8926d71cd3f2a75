"""The scripts under ``scripts/``, each loaded by its file path as a test
loads it, so a script must find its own imports from any working directory."""

import argparse
import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# a file with a #! line is a command; the others are modules the commands import
COMMANDS = sorted(p for p in SCRIPTS.glob("*.py") if p.read_text().startswith("#!"))


def _script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _exit_code(script, argv) -> int:
    with pytest.raises(SystemExit) as stop:
        script.main(argv)
    return stop.value.code


@pytest.mark.parametrize("path", COMMANDS, ids=lambda p: p.name)
def test_every_script_prints_its_help(path, capsys, monkeypatch):
    # from an import state without scripts/, so a script that cannot find
    # the modules beside it fails here whatever ran before
    monkeypatch.setattr(sys, "path", [p for p in sys.path if Path(p).resolve() != SCRIPTS])
    for name, module in list(sys.modules.items()):
        if Path(getattr(module, "__file__", None) or "/").parent == SCRIPTS:
            monkeypatch.delitem(sys.modules, name)
    assert _exit_code(_script(path), ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_seed_lists_take_ranges_and_refuse_empty_or_malformed_ones():
    dumpdiff = _script(SCRIPTS / "dumpdiff.py")
    assert dumpdiff.parse_seeds("3") == [3]
    assert dumpdiff.parse_seeds("0..2,7,5..5") == [0, 1, 2, 7, 5]
    for text in ("5..3", "", "1,,2", "1..", "x", "1..2..3"):
        with pytest.raises(argparse.ArgumentTypeError, match="seed"):
            dumpdiff.parse_seeds(text)


@pytest.mark.parametrize("name", ["sweep_fingerprint", "reproduce_verification"])
def test_an_empty_seed_range_is_a_usage_error(name, capsys):
    # before any seed runs, so no empty run passes for a clean one
    assert _exit_code(_script(SCRIPTS / f"{name}.py"), ["--seeds", "5..3"]) == 2
    captured = capsys.readouterr()
    assert "empty seed range '5..3'" in captured.err and not captured.out


def test_sweep_fingerprint_takes_a_seed_range(tmp_path, capsys):
    # the range reaches the missing-dump check as three seeds
    sweeps = _script(SCRIPTS / "sweep_fingerprint.py")
    argv = ["--seeds", "0..2", "--workloads", "sweep-deep", "--against", str(tmp_path)]
    assert _exit_code(sweeps, argv) == 2
    err = capsys.readouterr().err
    missing = ", ".join(str(tmp_path / "sweep-deep" / f"seed-{seed}") for seed in range(3))
    assert f"no dump at {missing}\n" in err


def test_relative_change_reads_only_finite_pairs():
    dumpdiff = _script(SCRIPTS / "dumpdiff.py")
    change = dumpdiff.relative_change
    assert change(2.0 + 0j, 3.0 + 0j) == 0.5
    assert change(1j, 1j) == 0.0
    assert change(0j, 1e-300 + 0j) == float("inf")
    for old, new in ((float("inf"), 1.0), (1.0, complex(0.0, float("nan"))), (None, 1.0)):
        assert change(old, new) is None


def test_truncation_profile_estimates_dominate_in_the_asymptotic_regime(capsys):
    profile = _script(SCRIPTS / "truncation_profile.py")
    assert profile.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[2:]]
    assert len(rows) == 12
    regular = [row for row in rows if row[5] != "not-in-asymptotic-regime"]
    assert regular and all(row[4] == "yes" for row in regular)


@pytest.mark.parametrize("argv", [["--points", "1"], ["--zmin", "0"],
                                  ["--zmin", "8", "--zmax", "4"]])
def test_truncation_profile_refuses_a_degenerate_grid(argv, capsys):
    assert _exit_code(_script(SCRIPTS / "truncation_profile.py"), argv) == 2
    assert "error: " in capsys.readouterr().err


def test_kernel_fingerprint_finds_an_edited_draw(tmp_path, capsys):
    kernels = _script(SCRIPTS / "kernel_fingerprint.py")
    dump = tmp_path / "kernels.txt"
    argv = ["--draws", "40", "--seed", "3"]
    assert kernels.main(argv + ["--dump", str(dump)]) == 0
    assert kernels.main(argv + ["--against", str(dump)]) == 0
    assert "  0 of 40 draws moved\n" in capsys.readouterr().out
    lines = dump.read_text().splitlines(keepends=True)
    cells = lines[7].split("\t")
    cells[1 + len(kernels.POINT_FIELDS)] = "(1+0j)"  # after the index, the upper_gamma cell
    lines[7] = "\t".join(cells)
    dump.write_text("".join(lines))
    assert kernels.main(argv + ["--against", str(dump)]) == 1
    out = capsys.readouterr().out
    assert "  1 of 40 draws moved\n" in out and "  draw 7: s=" in out
    assert "  upper_gamma: (1+0j) -> " in out


@pytest.mark.parametrize("name, argv", [
    ("series_fingerprint", ["--draws", "5"]),
    ("kernel_fingerprint", ["--draws", "5"]),
    ("sweep_fingerprint", ["--seeds", "1", "--workloads", "sweep-deep"]),
    ("reproduce_verification", ["--seeds", "3"]),
])
def test_dump_and_against_on_one_path_is_a_usage_error(name, argv, tmp_path, capsys):
    # the dump would overwrite the records it is compared with, and every
    # record would match itself; refused before anything runs or is written
    dump = tmp_path / "dump"
    argv = argv + ["--dump", str(dump), "--against", str(dump)]
    assert _exit_code(_script(SCRIPTS / f"{name}.py"), argv) == 2
    captured = capsys.readouterr()
    assert f"error: --dump and --against name one path, {dump}\n" in captured.err
    assert not captured.out and not dump.exists()


@pytest.mark.parametrize("name", ["series_fingerprint", "kernel_fingerprint"])
def test_a_dump_of_other_draws_is_a_usage_error(name, tmp_path, capsys):
    script = _script(SCRIPTS / f"{name}.py")
    dump = tmp_path / "draws.txt"
    assert script.main(["--draws", "5", "--seed", "3", "--dump", str(dump)]) == 0
    capsys.readouterr()
    assert _exit_code(script, ["--draws", "6", "--seed", "3", "--against", str(dump)]) == 2
    assert "error: draw counts differ: 5 against 6\n" in capsys.readouterr().err
    assert _exit_code(script, ["--draws", "5", "--seed", "4", "--against", str(dump)]) == 2
    assert ("error: draw 0 is another point in the dump; use the --seed and --draws "
            "it was made with\n") in capsys.readouterr().err


def test_bench_pairs_refuses_no_pairs(capsys):
    # before the side headers, so no empty table reads as a verdict
    argv = ["--parent", ".", "--workload", "verify", "--pairs", "0"]
    assert _exit_code(_script(SCRIPTS / "bench_pairs.py"), argv) == 2
    captured = capsys.readouterr()
    assert "error: --pairs must be at least 1\n" in captured.err and not captured.out


def test_bench_pairs_refuses_a_parent_without_the_benchmark(tmp_path, capsys, monkeypatch):
    pairs = _script(SCRIPTS / "bench_pairs.py")

    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run started")

    monkeypatch.setattr(pairs.subprocess, "run", no_run)
    for parent in (tmp_path / "no-such-parent", tmp_path):
        argv = ["--parent", str(parent), "--workload", "verify", "--pairs", "1"]
        assert _exit_code(pairs, argv) == 2
        assert f"error: no perfbench/run.py in {parent}\n" in capsys.readouterr().err
