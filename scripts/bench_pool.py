"""Make BENCH_pool.json: map_chunks with one process pool per process, against its parent.

Run from the root of a checkout, with the parent commit and the change each
extracted into a directory of their own:

    git archive <parent> | tar -x -C <parent-dir>
    python3 scripts/bench_pool.py --parent <parent-dir> --parent-sha <parent> \
        --change <change-dir> --out BENCH_pool.json

The record has five parts.

- pairs: `perfbench/run.py --seconds 35 --trace 0` on both trees, one pair per
  seed and workload, the parent first at odd seeds and the change first at
  even ones; nothing else runs meanwhile.  Each run keeps its end-to-end
  metrics, record-body sha256, checks, and the first pass's first `sweep`
  call as measured (not speed-scaled): a pool built on a process's first
  call moves start-up there, and this keeps it visible.
- worker_rss: one shorter run per tree and workload that polls /proc every
  5 ms for the run's descendant processes and keeps each one's VmHWM.  The
  benchmark's `peak_rss_mb` reads RUSAGE_CHILDREN, which counts reaped
  children only, so it stops covering workers that live until exit.
- traffic: in one run per workload of the change, the maps that used the
  pool (map_chunks calls with workers) and the pools built.  Every map after
  a process's first reuses its pool; the rest of the gain's share is that.
- cli: the wall time of whole CLI processes that map once, as every CLI
  command does: `hjbsparse sweep` of Example III on the CGL d=4 q=7 grid and
  `hjbsparse validate` of that dataset on 40 samples, both with 2 workers, in
  alternating pairs; each side's dataset records and report MAE are compared.
- scheduling: every grid point of ex1-q7 and ex3-q7 solved serially in this
  process (single-threaded BLAS), and those times replayed greedily on 2
  workers: round-robin chunks as map_chunks cuts them, longest point first
  (LPT), and the ideal max(total / 2, longest point).  Dispatch cost is left
  out.
"""

import os

os.environ.update({"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"})

import argparse  # noqa: E402
import heapq  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

WORKLOADS = ("ex1-q7", "ex3-q7", "interp-d6-q10")
SECONDS = 35
RSS_SECONDS = 8
WORKERS = 2
CLI_PAIRS = 10
CLI = ("import sys; from hjbsparse.cli import main; sys.exit(main())",)


def run_bench(tree: Path, workload: str, seed: int, seconds: float, poll: bool = False) -> dict:
    """One untraced perfbench run in `tree`; with poll, the peak RSS of its descendants too."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    hwm: dict[int, int] = {}         # peak RSS (kB) by descendant pid
    python: dict[int, bool] = {}     # whether that pid is a python process (pool workers, not git)
    while poll and proc.poll() is None:
        for pid in descendants(proc.pid):
            kb = vm_hwm_kb(pid)
            if kb is not None:
                hwm[pid] = max(kb, hwm.get(pid, 0))
                python.setdefault(pid, is_python(pid))
        time.sleep(0.005)
    stdout, stderr = proc.communicate(timeout=600)
    out = {"exit": proc.returncode}
    if proc.returncode not in (0, 1):
        out["stderr"] = stderr[-2000:]
        return out
    last = json.loads(stdout.splitlines()[-1])
    out.update(correct=last["correct"], attempted=last["attempted"], failed=last["failed"],
               metrics={k: v["value"] for k, v in last["metrics"].items()})
    for line in stdout.splitlines():
        if line.startswith("# record body sha256 "):
            out["record_body_sha256"] = line.split()[-1]
    info = json.loads((tree / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json").read_text())
    out["checks"] = info["checks"]
    out["first_sweep_s"] = info["stage_s"]["sweep"][0]
    out["scale"] = info["scale"]
    if poll:
        workers = [kb for pid, kb in hwm.items() if python[pid]]
        out["workers_seen"] = len(workers)
        out["worker_vmhwm_mb_max"] = max(workers, default=0) / 1024.0
    return out


def descendants(pid: int) -> list[int]:
    """Every live process below pid, from /proc/<pid>/task/<tid>/children."""
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                children = Path(f"/proc/{parent}/task/{tid}/children").read_text().split()
            except FileNotFoundError:
                continue
            for child in map(int, children):
                found.append(child)
                todo.append(child)
    return found


def vm_hwm_kb(pid: int) -> int | None:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return None


def is_python(pid: int) -> bool:
    try:
        return Path(f"/proc/{pid}/comm").read_text().startswith("python")
    except (FileNotFoundError, ProcessLookupError):
        return False


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def compare(runs: dict, config: dict) -> dict:
    """Per workload and end-to-end metric: each side's quartiles, pair wins, and the bound test."""
    out = {}
    for wl, sides in runs.items():
        seeds = sorted(sides["parent"], key=int)
        row = {"pairs": len(seeds)}
        for metric in config["end_to_end"]:
            name, lower = metric["name"], metric["better"] == "lower"
            par = [sides["parent"][s]["metrics"][name] for s in seeds]
            chg = [sides["change"][s]["metrics"][name] for s in seeds]
            wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
            ties = sum(c == p for p, c in zip(par, chg))
            qp, qc = quartiles(par), quartiles(chg)
            rel = (qc["median"] - qp["median"]) / qp["median"] if qp["median"] else 0.0
            row[name] = {"parent": qp, "change": qc, "change_wins": f"{wins}/{len(seeds)}", "ties": ties,
                         "median_change_rel": rel,
                         "worse_than_bound": bool((rel if lower else -rel) > metric["bound"]),
                         "beyond_parent_iqr": bool(abs(qc["median"] - qp["median"]) > qp["q3"] - qp["q1"])}
        first = lambda side: [sides[side][s]["first_sweep_s"] for s in seeds]  # noqa: E731
        row["first_sweep_s"] = {"parent": quartiles(first("parent")), "change": quartiles(first("change"))}
        row["same_record_body"] = len({r["record_body_sha256"] for side in sides.values()
                                       for r in side.values()}) == 1
        row["every_check_passes"] = all(r["correct"] for side in sides.values() for r in side.values())
        out[wl] = row
    return out


TRAFFIC = """
import json, runpy, sys
sys.path[:0] = ["src", "perfbench"]
from hjbsparse import characteristics as ch
counts = {"maps_with_workers": 0, "pools_built": 0}
executor, pool_class = ch._executor, ch.ProcessPoolExecutor
def counted_executor(workers):
    counts["maps_with_workers"] += 1
    return executor(workers)
class CountedPool(pool_class):
    def __init__(self, *args, **kwargs):
        counts["pools_built"] += 1
        super().__init__(*args, **kwargs)
ch._executor, ch.ProcessPoolExecutor = counted_executor, CountedPool
sys.argv = ["perfbench/run.py", *sys.argv[1:]]
try:
    runpy.run_path("perfbench/run.py", run_name="__main__")
except SystemExit:
    pass
print(json.dumps(counts), file=sys.stderr)
"""


def traffic(tree: Path) -> dict:
    """Maps that used the pool and pools built, in one untraced run per workload of the change."""
    out = {}
    for wl in WORKLOADS:
        proc = subprocess.run([sys.executable, "-c", TRAFFIC, "--workload", wl, "--seed", "1",
                               "--seconds", str(SECONDS), "--trace", "0"],
                              cwd=tree, capture_output=True, text=True, check=True)
        counts = json.loads(proc.stderr.splitlines()[-1])
        out[wl] = counts | {"share_reusing_a_pool": 1 - counts["pools_built"] / counts["maps_with_workers"]}
    return out


def cli_single_map(trees: dict) -> dict:
    """Wall time (s) of a CLI sweep process and a CLI validate process per side, CLI_PAIRS alternating pairs."""
    runs = {side: {"sweep": [], "validate": []} for side in trees}
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(-1, CLI_PAIRS):             # pair -1 warms the file cache and is not kept
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                env = {**os.environ, "PYTHONPATH": str(trees[side] / "src")}
                ds, report = Path(tmp) / f"{side}.jsonl", Path(tmp) / f"{side}-report.json"
                for cmd, args in (("sweep", ["--problem", "example3", "--q", "7", "--out", ds]),
                                  ("validate", ["--dataset", ds, "--n", "40", "--out", report])):
                    start = time.perf_counter()
                    subprocess.run([sys.executable, "-c", *CLI, cmd, *map(str, args), "--workers", str(WORKERS)],
                                   env=env, cwd=tmp, check=True, capture_output=True)
                    if i >= 0:
                        runs[side][cmd].append(time.perf_counter() - start)
                outputs[side] = (ds.read_text().splitlines()[1:], json.loads(report.read_text())["mae"])
    return {"what": f"{CLI_PAIRS} alternating pairs after one warm-up pair, the parent first in even pairs; "
                    "wall time of the whole process, interpreter start and exit included",
            "same_records_and_mae": outputs["parent"] == outputs["change"],
            **{cmd: {side: quartiles(runs[side][cmd]) | {"runs": runs[side][cmd]} for side in trees}
               for cmd in ("sweep", "validate")}}


def scheduling(tree: Path, repeats: int = 3) -> dict:
    """Makespans on WORKERS workers from serial point times (median of `repeats` solves per point)."""
    sys.path[:0] = [str(tree / "src"), str(tree / "perfbench")]
    import workloads as wk
    from hjbsparse.characteristics import point_args, solve_point
    from hjbsparse.grid import NodeFamily, build_grid

    out = {}
    for name in ("ex1-q7", "ex3-q7"):
        wl = wk.WORKLOADS[name]
        problem = wl.make_problem()
        grid = build_grid(NodeFamily.CGL, wl.d, wl.q, problem.domain)
        times = []
        for t0, x0 in point_args(problem, grid.phys):
            took = []
            for _ in range(repeats):
                start = time.perf_counter()
                solve_point(problem, t0, x0, wk.SWEEP_TOL)
                took.append(time.perf_counter() - start)
            times.append(float(np.median(took)))
        nchunks = min(len(times), 4 * WORKERS)
        chunks = [sum(times[i::nchunks]) for i in range(nchunks)]
        out[name] = {"points": len(times), "serial_ms": 1e3 * sum(times),
                     "round_robin_chunks_ms": 1e3 * greedy(chunks),
                     "lpt_ms": 1e3 * greedy(sorted(times, reverse=True)),
                     "ideal_ms": 1e3 * max(sum(times) / WORKERS, max(times))}
    return out


def greedy(tasks: list[float]) -> float:
    """Makespan of tasks taken in order, each by the worker that frees first."""
    free = [0.0] * WORKERS
    for t in tasks:
        heapq.heapreplace(free, free[0] + t)
    return max(free)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="111-120", help="first-last seed of the pairs")
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
                      f"validate_s {r.get('metrics', {}).get('validate_s')}", file=sys.stderr, flush=True)

    rss = {wl: {side: run_bench(trees[side], wl, first, RSS_SECONDS, poll=True) for side in ("parent", "change")}
           for wl in WORKLOADS}
    record = {
        "what": "map_chunks keeps one ProcessPoolExecutor per process and worker count instead of forking "
                "a fresh pool on every sweep and validate call; fit_feedback reads each record once",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {SECONDS} --trace 0",
        "script": "scripts/bench_pool.py",
        "machine": f"{os.cpu_count()}-core container, python {platform.python_version()}, numpy {np.__version__}, "
                   "OMP/OPENBLAS threads 1",
        "parent": args.parent_sha,
        "claim": {"metric": "validate_s", "workload": "interp-d6-q10",
                  "rule": "change wins >= 9/10 of the pairs and the medians differ by more than the parent's IQR"},
        "run_order": f"seeds {first}-{last}, each running ex1-q7, then ex3-q7, then interp-d6-q10; odd seeds "
                     "ran the parent first, even seeds the change first; each side from its own extracted tree",
        "comparison": compare(runs, config),
        "runs": runs,
        "worker_rss": {"what": f"one --seconds {RSS_SECONDS} run per side at seed {first}, /proc polled every 5 ms: "
                               "distinct descendant pids seen, the largest VmHWM among them (MB), and the "
                               "benchmark's own peak_rss_mb", **{
                                   wl: {side: {k: r.get(k) for k in ("workers_seen", "worker_vmhwm_mb_max")}
                                        | {"peak_rss_mb": r.get("metrics", {}).get("peak_rss_mb")}
                                        for side, r in sides.items()}
                                   for wl, sides in rss.items()}},
        "traffic": {"what": f"one --seconds {SECONDS} run per workload of the change at seed 1", **traffic(
            trees["change"])} | {"cli": "every CLI command maps at most once per process: share 0"},
        "cli": cli_single_map(trees),
        "scheduling": scheduling(trees["change"]),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
