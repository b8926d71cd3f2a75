"""Cold start: what importing the package and the command line loads.

The verification harness, and ``hashlib`` and ``json`` behind it, load on
first use, and the sweep writer imports ``json`` and ``csv`` only on the
paths that write them, and ``locale`` not at all.  So a fresh interpreter
that imports ``chebgamma`` and ``chebgamma.cli`` and parses a sweep
config, as every ``chebgamma`` command does before it runs, loads none of
them.  Every name the package
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
DEFERRED = ("chebgamma.harness", "hashlib", "json", "csv", "dataclasses", "inspect", "locale")
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

# a CSV sweep with a quoted warnings cell, then a JSON one
SWEEP_RUN = """\
import os
from chebgamma.sweep import SweepConfig, run_sweep
for fmt in ("csv", "json"):
    run_sweep(SweepConfig(a=(5 + 0j,), k=(1e308 + 1e308j,), alpha=(0.3 + 0j,),
                          beta=(-0.4 + 0j,), output_path=os.devnull, format=fmt))"""


def _loaded_by(code: str, *options: str) -> set:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, *options, "-c", PROBE.format(code)],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


def test_import_and_config_parse_load_no_driver_module():
    loaded = _loaded_by(COMMAND_START)
    assert "chebgamma.cli" in loaded and "chebgamma.sweep" in loaded
    assert loaded.isdisjoint(DEFERRED), sorted(loaded.intersection(DEFERRED))


@pytest.mark.parametrize("utf8_mode", ["0", "1"])
def test_writing_a_sweep_loads_no_locale(utf8_mode):
    # the writer takes open()'s encoding from the built-in _locale
    loaded = _loaded_by(SWEEP_RUN, "-X", f"utf8={utf8_mode}")
    assert {"chebgamma.sweep", "csv", "json"} <= loaded
    assert "locale" not in loaded


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


def test_the_package_exports_exactly_what_its_submodules_list():
    modules = ("chebyshev", "closedform", "complexfn", "errors", "series", "sweep")
    listed = {name for module in modules
              for name in importlib.import_module(f"chebgamma.{module}").__all__}
    assert chebgamma.__all__ == sorted({*listed, *HARNESS_NAMES, "__version__"})


def test_every_submodule_export_resolves():
    for info in pkgutil.iter_modules(chebgamma.__path__):
        module = importlib.import_module(f"chebgamma.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (info.name, name)
    retired = {"GammaBranchSpec", "LimitSpec", "ShellCoefficient", "erf_complex",
               "prefactor_kind"}
    assert retired.isdisjoint(chebgamma.__all__)
