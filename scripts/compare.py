"""Benchmark a change against its parent: alternating pairs of perfbench runs on two trees.

Run from the root of a checkout, with the parent commit and the change each
extracted into a directory of their own:

    git archive <parent> | tar -x -C <parent-dir>
    git archive <change> | tar -x -C <change-dir>
    python3 scripts/compare.py --parent <parent-dir> --parent-sha <parent> \
        --change <change-dir> --out BENCH_<name>.json [--seeds 1-10] [--claim METRIC@WORKLOAD]

Both trees must hold the same BENCHMARK.json, else the driver exits 2 and
writes nothing.  Its workloads, its run_seconds and each end-to-end metric's
better and bound set what runs and how it is judged.  Every run is
single-threaded in BLAS, as perfbench/run.py sets it.  The record has:

- runs: per workload, side and seed, one `perfbench/run.py --trace 0` run.
  At each seed every workload runs once per side, the parent first at odd
  seeds and the change first at even ones.  A run keeps its exit code,
  correct, attempted/failed, metrics, record-body sha256, checks and speed
  scale.  A run that exits with a code other than 0 or 1, or is killed after
  TIMEOUT_S, keeps its exit code and the tail of its stderr.
- traced: one `--trace 1` pass per workload and side at the first seed, with
  the per-layer metrics.
- comparison: per workload, over the pairs whose two runs both finished, and
  per end-to-end metric: each side's quartiles, the change's wins and ties,
  the relative change of the median, whether the medians differ by more than
  the parent's IQR (`beyond_parent_iqr`), whether the change is worse than
  the bound (`worse_than_bound`), and whether the parent's IQR over its
  median is wider than the bound while not every change run beats every
  parent run (`unresolved`).  Per workload also: whether every run wrote the
  same record body and passed every check, each side's failed share of the
  operations attempted, and the runs that failed (`incomplete`).
- claim: with --claim, whether the change met the rule for a gain on that
  metric and workload: it wins at least 9/10 of the pairs run, its median is
  better than the parent's by more than the parent's IQR, and its failed
  share is no higher.
"""

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
TIMEOUT_S = 600


def run_bench(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """One perfbench run in `tree`; a run that does not finish keeps its exit code and stderr."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # its own session, so that a kill reaches the pool workers that hold its pipes too
    proc = subprocess.Popen(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=os.environ | BLAS_THREADS, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nkilled after {TIMEOUT_S} s"
    out = {"exit": proc.returncode}
    if proc.returncode not in (0, 1):
        return out | {"stderr": stderr[-2000:]}
    last = json.loads(stdout.splitlines()[-1])
    info = json.loads((tree / ".perfbench_out" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return out | {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
                  "metrics": {k: v["value"] for k, v in last["metrics"].items()},
                  "record_body_sha256": info["record_body_sha256"], "checks": info["checks"],
                  "scale": info["scale"]}


def quartiles(values: list[float]) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(med), "q3": float(q3)}


def judge(metric: dict, par: list[float], chg: list[float]) -> dict:
    """One end-to-end metric over paired runs: quartiles, wins, and the bound and spread tests."""
    sign = 1.0 if metric["better"] == "lower" else -1.0      # sign * value: lower is better
    qp, qc = quartiles(par), quartiles(chg)
    iqr = qp["q3"] - qp["q1"]
    rel = (qc["median"] - qp["median"]) / qp["median"] if qp["median"] else 0.0
    every_run_better = max(sign * c for c in chg) < min(sign * p for p in par)
    return {"parent": qp, "change": qc,
            "wins": sum(sign * c < sign * p for p, c in zip(par, chg)),
            "ties": sum(c == p for p, c in zip(par, chg)),
            "median_change_rel": rel,
            "beyond_parent_iqr": abs(qc["median"] - qp["median"]) > iqr,
            "worse_than_bound": sign * rel > metric["bound"],
            "unresolved": iqr > metric["bound"] * abs(qp["median"]) and not every_run_better}


def failed_share(runs: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(runs: dict, config: dict) -> dict:
    """Per workload: each end-to-end metric over the pairs whose runs both finished, and the run checks."""
    out = {}
    for wl, sides in runs.items():
        seeds = sorted(sides["parent"], key=int)
        failed = [{"side": side, "seed": int(s), "exit": sides[side][s]["exit"]}
                  for s in seeds for side in SIDES if "metrics" not in sides[side][s]]
        done = [s for s in seeds if all("metrics" in sides[side][s] for side in SIDES)]
        finished = {side: [r for r in sides[side].values() if "metrics" in r] for side in SIDES}
        row = {"pairs": len(seeds), "complete_pairs": len(done), "incomplete": bool(failed), "failed_runs": failed,
               "same_record_body": len({r["record_body_sha256"] for side in SIDES for r in finished[side]}) == 1,
               "every_check_passes": all(r.get("correct", False) for side in SIDES for r in sides[side].values()),
               "failed_share": {side: failed_share(finished[side]) for side in SIDES}}
        for metric in config["end_to_end"] if done else ():
            row[metric["name"]] = judge(metric, *([sides[side][s]["metrics"][metric["name"]] for s in done]
                                                   for side in SIDES))
        out[wl] = row
    return out


def verdict(comparison: dict, config: dict, metric: str, workload: str) -> dict:
    """Whether the change met the rule for a gain on `metric` at `workload`."""
    row = comparison[workload]
    better = next(m["better"] for m in config["end_to_end"] if m["name"] == metric)
    judged = row.get(metric)
    out = {"metric": metric, "workload": workload,
           "rule": "change wins >= 9/10 of the pairs run, its median is better than the parent's by more than "
                   "the parent's IQR, and its failed share is no higher",
           "wins": judged["wins"] if judged else 0, "pairs": row["pairs"],
           "median_better_beyond_parent_iqr": bool(judged and judged["beyond_parent_iqr"] and (
               judged["median_change_rel"] < 0 if better == "lower" else judged["median_change_rel"] > 0)),
           "failed_share_rose": row["failed_share"]["change"] > row["failed_share"]["parent"]}
    out["met"] = (10 * out["wins"] >= 9 * out["pairs"] and out["median_better_beyond_parent_iqr"]
                  and not out["failed_share_rose"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent commit's extracted tree")
    ap.add_argument("--parent-sha", required=True)
    ap.add_argument("--change", type=Path, required=True, help="the change's extracted tree")
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last seed of the pairs")
    ap.add_argument("--claim", metavar="METRIC@WORKLOAD", help="the end-to-end metric and workload of a claimed gain")
    args = ap.parse_args(argv)
    trees = {side: getattr(args, side).resolve() for side in SIDES}
    try:
        config, other = (json.loads((trees[side] / "BENCHMARK.json").read_text()) for side in SIDES)
    except (OSError, ValueError) as exc:
        ap.error(f"cannot read a tree's BENCHMARK.json: {exc}")
    if config != other:
        ap.error("the two trees' BENCHMARK.json differ, so their runs are not comparable")
    workloads = [w["name"] for w in config["workloads"]]
    seconds = config["run_seconds"]
    try:
        first, last = map(int, args.seeds.split("-"))
    except ValueError:
        ap.error(f"--seeds takes FIRST-LAST, not {args.seeds!r}")
    if last < first:
        ap.error(f"--seeds {args.seeds} names no seed")
    if args.claim:
        metric, _, workload = args.claim.partition("@")
        if metric not in [m["name"] for m in config["end_to_end"]] or workload not in workloads:
            ap.error(f"--claim {args.claim!r} names no end-to-end metric and workload of BENCHMARK.json")

    runs = {wl: {side: {} for side in SIDES} for wl in workloads}
    for seed in range(first, last + 1):
        for wl in workloads:
            for side in SIDES if seed % 2 else SIDES[::-1]:
                runs[wl][side][str(seed)] = r = run_bench(trees[side], wl, seed, seconds)
                print(f"{wl} seed {seed} {side}: exit {r['exit']}", file=sys.stderr, flush=True)
    traced = {wl: {side: run_bench(trees[side], wl, first, seconds, trace=1) for side in SIDES} for wl in workloads}
    comparison = compare(runs, config)
    record = {
        "script": "scripts/compare.py",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0",
        "machine": f"{os.cpu_count()}-core machine, python {platform.python_version()}, numpy {np.__version__}, "
                   "OMP/OPENBLAS threads 1 in every run",
        "parent": args.parent_sha,
        "run_order": f"seeds {first}-{last}, each running {', then '.join(workloads)}; odd seeds ran the parent "
                     "first, even seeds the change first; each side from its own tree; then one --trace 1 pass "
                     f"per workload and side at seed {first}",
        "claim": verdict(comparison, config, metric, workload) if args.claim else None,
        "comparison": comparison,
        "traced": traced,
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
