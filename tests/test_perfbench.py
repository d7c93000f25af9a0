"""Smoke test of the benchmark: one traced pass of perfbench/run.py.

A benchmark run (perfbench/run.py, perfbench/workloads.py and, traced,
perfbench/tracing.py's traced_pass) looks up these attributes by name, so
renaming any of them breaks the benchmark without failing any other test:

- grid.build_grid, characteristics.build_grid and errors.build_grid
- SparseGrid.cells, .ref, .phys and .domain
- the problem class's f, L, H_x, u_star, h and h_x
- bvp.splu, which the solver no longer calls: bvp.py keeps the import only
  so that tracing.py's wrap finds it (bvp.splu_calls and bvp.splu_s read 0)
- characteristics: bvp_solve, sweep, solve_point, GridSolution.save_jsonl,
  load_jsonl, fit_feedback, FeedbackLaw.control, .value and .costate,
  fit_hierarchical, _solve_chunk and ProcessPoolExecutor.  map_chunks reads
  ProcessPoolExecutor at every call and keys its cached pool by the class, so
  the pool built under the traced pass's binding is not reused after it
- interp._CHUNK and Interpolant.eval
- errors: validate, solve_point, mc_ebvp and _oracle_chunk;
  ValidationReport.mae, .n_oracle_failures and .n_requested.  The traced pass
  also sets errors.ProcessPoolExecutor, which nothing reads (validate maps
  through characteristics.map_chunks), and removes it again
- mpc.simulate and mpc._rk4_hold
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# both solver workloads: their problems' callbacks differ (attitude and Example III)
@pytest.mark.parametrize("workload", ["ex1-q7", "ex3-q7"])
def test_traced_pass_exits_zero_and_checks_out(workload):
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", "1"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    assert json.loads(out.stdout.splitlines()[-1])["correct"] is True
