"""Smoke test of the benchmark: one traced pass of perfbench/run.py.

A traced run imports interp._CHUNK and wraps Interpolant.eval and
characteristics.fit_hierarchical by name, so renaming any of them breaks the
benchmark without failing any other test.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_pass_exits_zero_and_checks_out():
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ex1-q7", "--seed", "1",
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
