"""Make BENCH_hold.json: one running-cost call per RK4 hold and attitude constants hoisted out of f, against its parent.

Run from the root of a checkout, with the parent commit and the change each
extracted into a directory of their own:

    git archive <parent> | tar -x -C <parent-dir>
    python3 scripts/bench_hold.py --parent <parent-dir> --parent-sha <parent> \
        --change <change-dir> --out BENCH_hold.json

The record has three parts.

- pairs: `perfbench/run.py --seconds 35 --trace 0` on both trees, one pair per
  seed and workload, the parent first at odd seeds and the change first at
  even ones; nothing else runs meanwhile (`bench_pool.run_bench` runs each).
- hold: per example (I, II, III and the benchmark's smooth field), the wall
  time of one `mpc._rk4_hold` in fresh processes per tree and round, the
  trees alternating; the f and L calls one hold makes, counted on the
  instance; and the sha256 of (x, repr(z)) over seeded holds, equal on both
  trees when the plant is bit-identical.
- query: whether `query_ms_p50` follows the plant.  In the same processes,
  on each workload's fitted law, 500 `FeedbackLaw.control` calls timed back
  to back, then timed with one `_rk4_hold` after each (as in the MPC loop),
  each with `gc` enabled and disabled.
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
ROUNDS = 5
HOLDS = 20              # seeded (x, u) per example
REPEATS = 15            # timed repeats of each hold per process
QUERIES = 500

MICRO = """
import gc, hashlib, json, sys, time
import numpy as np
sys.path.insert(0, "perfbench")
from workloads import MPC_HZ, SWEEP_TOL, WORKLOADS, make_smooth_field
from hjbsparse import characteristics, mpc
from hjbsparse.grid import NodeFamily, build_grid
from hjbsparse.problems import make_example1, make_example2, make_example3
holds, repeats, queries = json.loads(sys.argv[1])
dt = 1.0 / MPC_HZ
out = {"hold": {}, "query": {}}
for name, make in (("example1", make_example1), ("example2", make_example2),
                   ("example3", make_example3), ("smooth-field", make_smooth_field)):
    problem, rng = make(), np.random.default_rng(2026)
    box = problem.state_box
    cases = []
    for _ in range(holds):
        x = box.center + 0.25 * box.width * rng.uniform(-1.0, 1.0, problem.n)
        cases.append((problem.specialize(0.0, x), x, rng.uniform(-1.0, 1.0, problem.m)))
    digest, times = hashlib.sha256(), []
    for frozen, x, u in cases:
        got_x, got_z = mpc._rk4_hold(frozen, 0.3, x, u, dt)
        digest.update(got_x.tobytes() + repr(got_z).encode())
        runs = []
        for _ in range(repeats):
            start = time.perf_counter()
            mpc._rk4_hold(frozen, 0.3, x, u, dt)
            runs.append(time.perf_counter() - start)
        times.append(float(np.median(runs)))
    frozen, x, u = cases[0]
    calls = {"f": 0, "L": 0}
    for meth in calls:
        def counted(*a, meth=meth, inner=getattr(frozen, meth)):
            calls[meth] += 1
            return inner(*a)
        setattr(frozen, meth, counted)
    mpc._rk4_hold(frozen, 0.3, x, u, dt)
    out["hold"][name] = {"hold_ms": 1e3 * float(np.median(times)), "calls": calls, "sha256": digest.hexdigest()}

for wl in WORKLOADS.values():
    problem = wl.make_problem()
    grid = build_grid(NodeFamily.CGL, wl.d, wl.q, problem.domain)
    law = characteristics.fit_feedback(problem, grid, characteristics.sweep(problem, grid, tol=SWEEP_TOL, workers=2))
    frozen, rng = problem.specialize(0.0, problem.state_box.center), np.random.default_rng(7)
    box = problem.state_box
    xs = [box.center + 0.25 * box.width * rng.uniform(-1.0, 1.0, problem.n) for _ in range(queries)]
    for x in xs[:20]:
        law.control(0.0, x)
    row = {}
    for gc_on in (True, False):
        for plant in (False, True):
            gc.enable() if gc_on else gc.disable()
            ms = []
            for x in xs:
                start = time.perf_counter()
                u = law.control(0.0, x)
                ms.append(1e3 * (time.perf_counter() - start))
                if plant:
                    mpc._rk4_hold(frozen, 0.0, x, u, dt)
            gc.enable()
            row[f"{'with_hold' if plant else 'back_to_back'}_gc_{'on' if gc_on else 'off'}"] = {
                "p50_ms": float(np.percentile(ms, 50)), "p90_ms": float(np.percentile(ms, 90))}
    out["query"][wl.name] = row
print(json.dumps(out))
"""


def run_micro(tree: Path) -> dict:
    """Hold timings, call counts and hashes, and query timings, in one fresh process in `tree`."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-c", MICRO, json.dumps([HOLDS, REPEATS, QUERIES])], cwd=tree,
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def micro(trees: dict) -> tuple[dict, dict]:
    """The hold and query tables over ROUNDS fresh processes per tree, the trees alternating."""
    rounds = {side: [] for side in trees}
    for i in range(ROUNDS):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            rounds[side].append(run_micro(trees[side]))
    hold = {"what": f"{ROUNDS} fresh processes per tree, alternating; in each, {HOLDS} seeded holds of the "
                    f"benchmark's dt per example, each timed {REPEATS} times; quartiles of the per-process "
                    "medians (ms)"}
    for name in rounds["change"][0]["hold"]:
        runs = {side: [r["hold"][name] for r in rounds[side]] for side in trees}
        ms = {side: [r["hold_ms"] for r in runs[side]] for side in trees}
        hold[name] = {"calls_per_hold": {side: runs[side][0]["calls"] for side in trees},
                      "bit_identical": len({r["sha256"] for side in trees for r in runs[side]}) == 1,
                      **{f"{side}_ms": quartiles(ms[side]) for side in trees},
                      "speedup": float(np.median(ms["parent"]) / np.median(ms["change"]))}
    query = {"what": f"{QUERIES} FeedbackLaw.control calls per mode on each workload's law (swept at the "
                     "benchmark's tol on 2 workers), back to back or each followed by one _rk4_hold, with gc "
                     f"on or off; quartiles over the {ROUNDS} processes per tree of each process's p50 and p90 (ms)"}
    for wl in rounds["change"][0]["query"]:
        query[wl] = {mode: {side: {stat: quartiles([r["query"][wl][mode][stat] for r in rounds[side]])
                                   for stat in ("p50_ms", "p90_ms")} for side in trees}
                     for mode in rounds["change"][0]["query"][wl]}
        query[wl]["p50_ratios"] = p50_ratios(query[wl])
    return hold, query


def p50_ratios(table: dict) -> dict:
    """Ratios of median query p50s: a hold between queries, gc off, and the change's plant against the parent's."""
    p50 = lambda mode, side: table[mode][side]["p50_ms"]["median"]  # noqa: E731
    return {**{f"{side}_with_hold_over_back_to_back": p50("with_hold_gc_on", side) / p50("back_to_back_gc_on", side)
               for side in ("parent", "change")},
            **{f"{side}_gc_off_over_gc_on_with_hold": p50("with_hold_gc_off", side) / p50("with_hold_gc_on", side)
               for side in ("parent", "change")},
            "change_over_parent_with_hold": p50("with_hold_gc_on", "change") / p50("with_hold_gc_on", "parent")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="261-270", help="first-last seed of the pairs")
    args = ap.parse_args()
    first, last = map(int, args.seeds.split("-"))
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    config = json.loads((trees["change"] / "BENCHMARK.json").read_text())

    hold, query = micro(trees)
    runs = {wl: {"parent": {}, "change": {}} for wl in WORKLOADS}
    for seed in range(first, last + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for wl in WORKLOADS:
            for side in order:
                runs[wl][side][str(seed)] = r = run_bench(trees[side], wl, seed, SECONDS)
                print(f"{wl} seed {seed} {side}: exit {r['exit']} "
                      f"mpc_step_ms_p50 {r.get('metrics', {}).get('mpc_step_ms_p50')}", file=sys.stderr, flush=True)

    record = {
        "what": "mpc._rk4_hold keeps the stage states as columns and calls L once per hold on them instead of "
                "once per stage; AttitudeProblem keeps J and H as float tuples and tests gimbal lock with "
                "np.count_nonzero",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "script": "scripts/bench_hold.py",
        "machine": f"{os.cpu_count()}-core container, python {platform.python_version()}, numpy {np.__version__}, "
                   "OMP/OPENBLAS threads 1",
        "parent": args.parent_sha,
        "claim": {"metric": "mpc_step_ms_p50", "workload": "ex1-q7",
                  "rule": "change wins >= 9/10 of the pairs and the medians differ by more than the parent's IQR"},
        "run_order": f"hold and query processes first; then seeds {first}-{last}, each running ex1-q7, then "
                     "ex3-q7, then interp-d6-q10; odd seeds ran the parent first, even seeds the change first; "
                     "each side from its own extracted tree",
        "comparison": compare(runs, config),
        "runs": runs,
        "hold": hold,
        "query": query,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
