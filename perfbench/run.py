"""Layered benchmark of the sweep -> fit -> validate -> MPC pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ex3-q7 --seed 1 --seconds 35 --trace 0

--trace 0 repeats the pipeline untraced for --seconds and prints every
end-to-end metric; --trace 1 runs it once with spans around each layer's
calls and prints the per-layer metrics.  Each metric goes on its own line
as "name value unit"; the last line is one JSON object {correct, attempted,
failed, metrics}.  The run exits 1 when an output check fails and 2 when the
package cannot be imported from ./src.  Spans, checks and machine details are written to
.perfbench_out/.  NOTES.md describes the workloads and metrics.
"""

import os

# numpy's OpenBLAS is threaded; with two pool workers on two cores any BLAS
# thread oversubscribes.  Set before numpy is imported, inherited by the pool.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
from contextlib import nullcontext  # noqa: E402
import gzip  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKERS = 2


def _import_package():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import hjbsparse
    except ImportError as exc:
        print(f"perfbench: cannot import hjbsparse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        sys.exit(2)
    if Path(hjbsparse.__file__).resolve().parent != ROOT / "src" / "hjbsparse":
        print(f"perfbench: hjbsparse imported from {hjbsparse.__file__}, not from ./src", file=sys.stderr)
        sys.exit(2)


def _git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def machine(seed: int, workers: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_sha": _git_sha(),
        "seed": seed,
        "workers": workers,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_package()
    import workloads as wk
    import tracing
    from hjbsparse.interp import _CHUNK

    if args.workload not in wk.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; expected one of {sorted(wk.WORKLOADS)}")
    wl = wk.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    clock = wk.Clock(tracer)
    problem_cls = type(wl.make_problem())
    with tracing.traced_pass(tracer, problem_cls) if tracer else nullcontext():
        problem, grid = wk.setup(wl, clock)
        inputs = wk.make_inputs(wl, problem, len(grid), args.seed)
        if tracer:
            passes = [wk.run_pass(wl, problem, grid, inputs, WORKERS, out_dir, clock)]
        else:
            passes = wk.measure(wl, problem, grid, inputs, WORKERS, args.seconds, out_dir, clock)
    run = passes[0]
    checks = wk.check(wl, problem, grid, passes, inputs)
    attempted, failed = wk.counts(passes)

    if tracer:
        facts = {"workers": WORKERS, "grid_points": len(grid), "grid_cells": len(grid.cells),
                 "paper_points": wk.paper_points(wl), "dataset_bytes": run.dataset_bytes,
                 "diverged": sum(t.status == "diverged" for t in run.trajectories),
                 "attempted": attempted, "failed": failed,
                 "pipeline_s": run.pipeline_s * clock.scale(), "eval_chunk": _CHUNK}
        metrics = tracing.layer_metrics(tracer, facts)
        measured = None
    else:
        metrics = wk.end_to_end(wl, grid, passes, clock, clock.scale())
        measured = {k: v for k, (v, _) in wk.end_to_end(wl, grid, passes, clock, 1.0).items()}

    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    info = {"workload": wl.name, "machine": machine(args.seed, WORKERS),
            "record_body_sha256": run.body_sha256, "mae": run.report.mae,
            "checks": checks, "passes": len(passes), "stage_s": clock.times,
            "pipeline_s": [p.pipeline_s for p in passes], "kernel_s": clock.kernel_times,
            "scale": clock.scale(),
            "metrics_as_measured": measured,
            "query_s": [[i, *c[:4]] for i, p in enumerate(passes) for c in p.calls],
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (out_dir / f"{stem}.json").write_text(json.dumps(info, indent=1, default=float))
    if tracer:
        with gzip.open(out_dir / f"{stem}.spans.json.gz", "wt") as fh:
            json.dump({"spans": tracer.spans,
                       "rollup": [[n, c, *v] for (n, c), v in tracer.rollup.items()]}, fh)

    print(f"# {wl.name} seed={args.seed} trace={args.trace} "
          f"machine={json.dumps(info['machine'])}")
    print(f"# record body sha256 {info['record_body_sha256']}")
    for name, ok in checks.items():
        print(f"# check {'PASS' if ok else 'FAIL'}: {name}")
    print(f"# attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    correct = all(checks.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"# wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
