"""Cold start: what importing the package and the command line loads.

The verification harness, and ``hashlib`` and ``json`` behind it, load on
first use, and the sweep writer imports ``json`` and ``csv`` only on the
paths that write them.  So a fresh interpreter that imports ``chebgamma``
and ``chebgamma.cli`` and parses a sweep config, as every ``chebgamma``
command does before it runs, loads none of them.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import chebgamma

SRC = Path(chebgamma.__file__).resolve().parents[1]
DEFERRED = ("chebgamma.harness", "hashlib", "json", "csv")
HARNESS_NAMES = ("CaseReport", "VerificationCase", "case_ids", "compare", "run_all", "run_case")

# The modules present before the first import are the interpreter's own
# start-up set (site may preload some through .pth files); the probe
# prints the ones the import and the parse added to it.
PROBE = """\
import sys
before = set(sys.modules)
import chebgamma, chebgamma.cli
from chebgamma.sweep import parse_sweep_config
parse_sweep_config("a = 1\\nk = 2, 2.5\\nalpha = 0.5\\nbeta = -0.5, 0.25i\\nformat = json\\n")
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_import_and_config_parse_load_no_driver_module():
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", PROBE], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(done.stdout.split())
    assert "chebgamma.cli" in loaded and "chebgamma.sweep" in loaded
    assert loaded.isdisjoint(DEFERRED), sorted(loaded.intersection(DEFERRED))


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
