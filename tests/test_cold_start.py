"""Cold start: what importing the package and the command line loads.

The verification harness, and ``hashlib`` and ``json`` behind it, load on
first use, and the sweep writer imports ``json`` and ``csv`` only on the
paths that write them.  So a fresh interpreter that imports ``chebgamma``
and ``chebgamma.cli`` and parses a sweep config, as every ``chebgamma``
command does before it runs, loads none of them.  Every name the package
and its submodules export still resolves once they are loaded.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import chebgamma

SRC = Path(chebgamma.__file__).resolve().parents[1]
DEFERRED = ("chebgamma.harness", "hashlib", "json", "csv", "dataclasses", "inspect")
HARNESS_NAMES = ("CaseReport", "VerificationCase", "case_ids", "compare", "run_all", "run_case")

# The modules present before the first import are the interpreter's own
# start-up set (site may preload some through .pth files); a probe prints
# the ones its code added to it.
PROBE = """\
import sys
before = set(sys.modules)
{}
print(" ".join(sorted(set(sys.modules) - before)))
"""
# what every command does before it runs
COMMAND_START = """\
import chebgamma, chebgamma.cli
from chebgamma.sweep import parse_sweep_config
parse_sweep_config("a = 1\\nk = 2, 2.5\\nalpha = 0.5\\nbeta = -0.5, 0.25i\\nformat = json\\n")"""


def _loaded_by(code: str) -> set:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", PROBE.format(code)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_import_and_config_parse_load_no_driver_module():
    loaded = _loaded_by(COMMAND_START)
    assert "chebgamma.cli" in loaded and "chebgamma.sweep" in loaded
    assert loaded.isdisjoint(DEFERRED), sorted(loaded.intersection(DEFERRED))


def test_importing_the_harness_loads_neither_dataclasses_nor_inspect():
    # the import behind the verify and list commands
    loaded = _loaded_by("import chebgamma.harness")
    assert "chebgamma.harness" in loaded
    assert loaded.isdisjoint(("dataclasses", "inspect")), sorted(loaded)


def test_harness_names_resolve_on_first_use():
    for name in chebgamma.__all__:
        assert getattr(chebgamma, name) is not None
    assert chebgamma.run_all is chebgamma.harness.run_all
    for name in HARNESS_NAMES:
        assert getattr(chebgamma, name) is getattr(chebgamma.harness, name)
    listed = dir(chebgamma)
    assert set(HARNESS_NAMES) | {"harness", "closed_form"} <= set(listed)
    assert listed == sorted(listed)
    with pytest.raises(AttributeError, match="no_such_name"):
        chebgamma.no_such_name


def test_every_submodule_export_resolves():
    for info in pkgutil.iter_modules(chebgamma.__path__):
        module = importlib.import_module(f"chebgamma.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    retired = {"GammaBranchSpec", "ShellCoefficient", "erf_complex", "prefactor_kind"}
    assert retired.isdisjoint(chebgamma.__all__)
