"""Make BENCH_grid.json: the sparse grid enumerated in bulk from its level array, against its parent.

Run from the root of a checkout, with the parent commit and the change each
extracted into a directory of their own:

    git archive <parent> | tar -x -C <parent-dir>
    python3 scripts/bench_grid.py --parent <parent-dir> --parent-sha <parent> \
        --change <change-dir> --out BENCH_grid.json

The record has four parts.

- pairs: `perfbench/run.py --seconds 35 --trace 0` on both trees, one pair per
  seed and workload, the parent first at odd seeds and the change first at
  even ones; nothing else runs meanwhile (`bench_pool.run_bench` runs each).
- traced: one `--trace 1` pass per tree and workload, for the per-layer
  `grid.build_s`, `grid.points` and `grid.cells`.
- build_grid: the wall time of `build_grid` on CGL d6 q10, d6 q13, d4 q7 and
  d4 q12 in a fresh process per tree and round, the trees alternating, with
  the sha256 of each grid's cols, levels, offsets, ref and phys bytes.
- criterion_3: `mc_ebvp` on CGL d6 q13 at 2,000 points and seed 2024, as the
  acceptance test runs it, in the same processes: the first call and the
  median of the warm ones, with the max ratio it reports.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
from bench_pool import WORKLOADS, compare, quartiles, run_bench

SECONDS = 35
CASES = ((6, 10), (6, 13), (4, 7), (4, 12))
ROUNDS = 5
REPEATS = 21
MC_REPEATS = 3

MICRO = """
import hashlib, json, sys, time
from hjbsparse.errors import mc_ebvp
from hjbsparse.grid import NodeFamily, build_grid
cases, repeats, mc_repeats = json.loads(sys.argv[1])
out = {}
for d, q in cases:
    build_grid(NodeFamily.CGL, d, q)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        grid = build_grid(NodeFamily.CGL, d, q)
        times.append(time.perf_counter() - start)
    digest = hashlib.sha256()
    for name in ("cols", "levels", "offsets", "ref", "phys"):
        digest.update(getattr(grid, name).tobytes())
    out[f"d{d}q{q}"] = {"points": len(grid), "cells": len(grid.cells), "times_s": times,
                        "sha256": digest.hexdigest()}
times, ratios = [], set()
for _ in range(mc_repeats + 1):
    start = time.perf_counter()
    rep = mc_ebvp(NodeFamily.CGL, 6, 13, n_eval=2000, seed=2024)
    times.append(time.perf_counter() - start)
    ratios.add(rep.max_ratio)
out["mc_ebvp"] = {"times_s": times, "max_ratio": sorted(ratios)}
print(json.dumps(out))
"""


def run_traced(tree: Path, workload: str, seed: int) -> dict:
    """The per-layer grid metrics of one traced perfbench pass in `tree`."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(SECONDS), "--trace", "1"], cwd=tree, capture_output=True, text=True)
    out = {"exit": proc.returncode}
    if proc.returncode not in (0, 1):
        return out | {"stderr": proc.stderr[-2000:]}
    last = json.loads(proc.stdout.splitlines()[-1])
    return out | {"correct": last["correct"],
                  **{k: last["metrics"][k]["value"] for k in ("grid.build_s", "grid.points", "grid.cells")}}


def run_micro(tree: Path) -> dict:
    """build_grid and mc_ebvp timings in one fresh process importing `tree`'s package."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", MICRO, json.dumps([CASES, REPEATS, MC_REPEATS])],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def micro(trees: dict) -> tuple[dict, dict]:
    """build_grid per case and mc_ebvp, ROUNDS fresh processes per tree, the trees alternating."""
    rounds = {side: [] for side in trees}
    for i in range(ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            rounds[side].append(run_micro(trees[side]))
    build = {"what": f"{ROUNDS} fresh processes per tree, alternating; in each, one warm-up build and "
                     f"{REPEATS} timed builds per case; quartiles of the per-process medians (s)"}
    for d, q in CASES:
        case = f"d{d}q{q}"
        runs = {side: [r[case] for r in rounds[side]] for side in trees}
        medians = {side: [float(np.median(r["times_s"])) for r in runs[side]] for side in trees}
        build[case] = {"points": runs["change"][0]["points"], "cells": runs["change"][0]["cells"],
                       "same_grid_bytes": len({r["sha256"] for side in trees for r in runs[side]}) == 1,
                       **{side: quartiles(medians[side]) for side in trees},
                       "speedup": float(np.median(medians["parent"]) / np.median(medians["change"]))}
    mc = {side: [r["mc_ebvp"] for r in rounds[side]] for side in trees}
    criterion_3 = {"what": f"mc_ebvp(CGL, 6, 13, n_eval=2000, seed=2024), in each of the {ROUNDS} processes "
                           f"per tree: the first call, and the median of the {MC_REPEATS} calls after it (s)",
                   "max_ratio": sorted({x for side in trees for r in mc[side] for x in r["max_ratio"]}),
                   **{side: {"first_call": quartiles([r["times_s"][0] for r in mc[side]]),
                             "warm": quartiles([float(np.median(r["times_s"][1:])) for r in mc[side]])}
                      for side in trees}}
    return build, criterion_3


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="251-260", help="first-last seed of the pairs")
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    config = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    runs = {wl: {"parent": {}, "change": {}} for wl in WORKLOADS}
    for seed in range(first, last + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for wl in WORKLOADS:
            for side in order:
                runs[wl][side][str(seed)] = r = run_bench(trees[side], wl, seed, SECONDS)
                print(f"{wl} seed {seed} {side}: exit {r['exit']} "
                      f"setup_s {r.get('metrics', {}).get('setup_s')}", file=sys.stderr, flush=True)

    traced = {wl: {side: run_traced(trees[side], wl, first) for side in ("parent", "change")} for wl in WORKLOADS}
    build, criterion_3 = micro(trees)
    record = {
        "what": "SparseGrid enumerates its points in bulk from the (C, d) level array of its cells, each "
                "point's offsets being the mixed-radix digits of its rank within its cell, instead of one "
                "np.meshgrid per cell; pool workers exit when their parent dies; the dataset writer tests "
                "finiteness with math.isfinite",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "script": "scripts/bench_grid.py",
        "machine": f"{os.cpu_count()}-core container, python {platform.python_version()}, numpy {np.__version__}, "
                   "OMP/OPENBLAS threads 1",
        "parent": args.parent_sha,
        "claim": {"metric": "setup_s", "workload": "interp-d6-q10",
                  "rule": "change wins >= 9/10 of the pairs and the medians differ by more than the parent's IQR"},
        "run_order": f"seeds {first}-{last}, each running ex1-q7, then ex3-q7, then interp-d6-q10; odd seeds "
                     "ran the parent first, even seeds the change first; each side from its own extracted tree",
        "comparison": compare(runs, config),
        "runs": runs,
        "traced": {"what": f"one --trace 1 pass per tree and workload at seed {first}", **traced},
        "build_grid": build,
        "criterion_3": criterion_3,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
