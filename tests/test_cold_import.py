"""Importing an entry point loads numpy and the stdlib only.

scipy is needed by three spectral-analysis calls and imported on their
first use; nothing imports networkx.  Each check runs in a fresh
interpreter, because this test process has long since imported both.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

HEAVY = ("scipy", "networkx")

_SCRIPT = """
import sys
import {module}
heavy = sorted(k for k in sys.modules if k.split('.')[0] in {heavy!r})
print(','.join(heavy))
"""


def _run(script: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, env=env)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


@pytest.mark.parametrize("module", ["repro.core", "repro.microbench",
                                    "repro.harness.registry", "repro.serve",
                                    "repro.cli"])
def test_entry_point_imports_no_scipy_or_networkx(module):
    assert _run(_SCRIPT.format(module=module, heavy=HEAVY)) == ""


def test_periodogram_imports_scipy_signal_on_first_call():
    script = (
        "import sys\n"
        "from repro import analysis\n"
        "assert 'scipy.signal' not in sys.modules\n"
        "analysis.periodogram([0.0, 1.0] * 8, 1000)\n"
        "print('scipy.signal' in sys.modules)\n")
    assert _run(script) == "True"
