"""Each layer loads on first use: checked in fresh interpreters, on what
``sys.modules`` holds after an import or a command."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
BELOW_CLI = {"cli", "series", "lattice", "products"}


def _fresh(code: str) -> list:
    """The last line ``code`` prints, as JSON, run in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("code, loaded", [
    ("import cylq", set()),
    ("import cylq; hasattr(cylq, '__wrapped__')", set()),
    ("import cylq; cylq.Window", {"series"}),
    ("from cylq import fitkit", {"fitkit", "series", "lattice", "products"}),
    ("from cylq import cli; cli.build_parser().parse_args(['balance', '--max-width', '3'])",
     BELOW_CLI),
    ("from cylq import cli; cli.main(['balance', '--max-width', '3'])", BELOW_CLI),
    ("from cylq import cli; cli.main(['verify', '--case', 'euler-sum'])",
     BELOW_CLI | {"recur", "identities"}),
    ("from cylq import cli; cli.main(['solve', '--kind', 'cylindric', '--profile', '1', '--N', '4'])",
     BELOW_CLI | {"recur"}),
    ("import cylq; cylq.fit_report",
     {"series", "lattice", "products", "recur", "identities", "fitkit"}),
])
def test_a_call_loads_only_its_layers(code, loaded):
    probe = "%s\nimport json, sys\nprint(json.dumps([m for m in sys.modules if m.startswith('cylq.')]))"
    assert {m[len("cylq."):] for m in _fresh(probe % code)} == loaded


def test_star_import_binds_exactly_the_package_all():
    bound, listed, listed_in_dir = _fresh(
        "import json, cylq\n"
        "ns = {}\n"
        "exec('from cylq import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), sorted(cylq.__all__),"
        " set(cylq.__all__) <= set(dir(cylq))]))"
    )
    assert bound == listed and "__version__" in bound
    assert listed_in_dir
