"""scripts/compare.py, the benchmark driver: its verdicts on synthetic runs, its handling of
runs that crash or hang, and one short end-to-end run on two copies of this tree."""

import importlib.util
import json
import shutil
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare", ROOT / "scripts" / "compare.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)

CONFIG = {"run_seconds": 1, "workloads": [{"name": "w"}],
          "end_to_end": [{"name": "t_s", "better": "lower", "bound": 0.25},
                         {"name": "rate", "better": "higher", "bound": 0.25}]}


def synthetic(parent: list[float], change: list[float], failed=(0, 0)) -> dict:
    """Paired runs of workload "w" whose t_s reads `parent` and `change`; rate reads their inverses."""
    def run(t, failed):
        return {"exit": 0, "correct": True, "attempted": 100, "failed": failed, "record_body_sha256": "same",
                "metrics": {"t_s": t, "rate": 1.0 / t}}
    return {"w": {"parent": {str(s): run(t, failed[0]) for s, t in enumerate(parent, 1)},
                  "change": {str(s): run(t, failed[1]) for s, t in enumerate(change, 1)}}}


def claim(runs: dict, metric: str = "t_s") -> dict:
    return compare.verdict(compare.compare(runs, CONFIG), CONFIG, metric, "w")


PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


class TestVerdict:
    def test_ten_wins_beyond_the_iqr_meet_the_claim(self):
        runs = synthetic(PARENT, [0.8 * t for t in PARENT])
        assert claim(runs)["met"] and claim(runs, "rate")["met"]
        assert claim(runs)["wins"] == 10

    def test_eight_wins_do_not(self):
        change = [0.8 * t for t in PARENT[:8]] + [1.1, 1.1]
        verdict = claim(synthetic(PARENT, change))
        assert verdict["wins"] == 8 and verdict["median_better_beyond_parent_iqr"]
        assert not verdict["met"]

    def test_ties_count_as_neither_win_nor_loss(self):
        change = PARENT[:5] + [0.8 * t for t in PARENT[5:]]
        judged = compare.compare(synthetic(PARENT, change), CONFIG)["w"]["t_s"]
        assert (judged["wins"], judged["ties"]) == (5, 5)
        assert not claim(synthetic(PARENT, change))["met"]

    def test_a_median_beyond_the_iqr_in_the_wrong_direction_is_no_gain(self):
        assert not claim(synthetic(PARENT, [1.2 * t for t in PARENT]))["met"]

    def test_a_metric_worse_than_its_bound_is_flagged(self):
        row = compare.compare(synthetic(PARENT, [1.5 * t for t in PARENT]), CONFIG)["w"]
        assert row["t_s"]["worse_than_bound"] and row["rate"]["worse_than_bound"]
        row = compare.compare(synthetic(PARENT, [1.2 * t for t in PARENT]), CONFIG)["w"]
        assert not row["t_s"]["worse_than_bound"] and not row["rate"]["worse_than_bound"]

    def test_a_parent_iqr_wider_than_the_bound_is_unresolved(self):
        parent = [1.0, 1.5, 0.7, 1.4, 0.8, 1.0, 1.3, 0.75, 1.0, 1.45]
        judged = compare.compare(synthetic(parent, parent[::-1]), CONFIG)["w"]["t_s"]
        assert judged["unresolved"] and not judged["worse_than_bound"]
        assert not compare.compare(synthetic(PARENT, PARENT[::-1]), CONFIG)["w"]["t_s"]["unresolved"]

    def test_unless_every_change_run_is_better(self):
        parent = [1.0, 1.5, 0.7, 1.4, 0.8, 1.0, 1.3, 0.75, 1.0, 1.45]
        judged = compare.compare(synthetic(parent, [0.5 * min(parent)] * 10), CONFIG)["w"]
        assert not judged["t_s"]["unresolved"] and not judged["rate"]["unresolved"]

    def test_a_higher_failed_share_voids_the_claim(self):
        runs = synthetic(PARENT, [0.8 * t for t in PARENT], failed=(1, 2))
        verdict = claim(runs)
        assert verdict["wins"] == 10 and verdict["failed_share_rose"] and not verdict["met"]
        assert claim(synthetic(PARENT, [0.8 * t for t in PARENT], failed=(2, 2)))["met"]


# A stand-in perfbench/run.py: seed 2 crashes in the change tree and seed 3 hangs there,
# with a child process that holds its pipes; every other run finishes.
STUB = textwrap.dedent("""
    import argparse, json, subprocess, sys, time
    from pathlib import Path
    ap = argparse.ArgumentParser()
    for flag in ("--workload", "--seed", "--seconds", "--trace"):
        ap.add_argument(flag)
    args = ap.parse_args()
    side = Path.cwd().name
    if side == "change" and args.seed == "2":
        print("crashed", file=sys.stderr)
        sys.exit(3)
    if side == "change" and args.seed == "3":
        subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
        time.sleep(60)
    out = Path(".perfbench_out")
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"record_body_sha256": "same", "checks": {"ok": True}, "scale": 1.0}))
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                      "metrics": {"t_s": {"value": 1.0}, "rate": {"value": 1.0}}}))
""")


def test_a_crashed_or_hung_run_is_kept_and_marks_its_workload_incomplete(tmp_path, monkeypatch):
    for side in compare.SIDES:
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(STUB)
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    monkeypatch.setattr(compare, "TIMEOUT_S", 2)
    out = tmp_path / "out.json"
    start = time.monotonic()
    assert compare.main(["--parent", str(tmp_path / "parent"), "--parent-sha", "p", "--change",
                         str(tmp_path / "change"), "--out", str(out), "--seeds", "1-4", "--claim", "t_s@w"]) == 0
    assert time.monotonic() - start < 30, "the hung run's child kept its pipes open"
    record = json.loads(out.read_text())
    runs = record["runs"]["w"]
    assert sorted(runs["parent"]) == sorted(runs["change"]) == ["1", "2", "3", "4"]
    assert runs["change"]["2"]["exit"] == 3 and "crashed" in runs["change"]["2"]["stderr"]
    assert runs["change"]["3"]["exit"] < 0 and "killed after 2 s" in runs["change"]["3"]["stderr"]
    row = record["comparison"]["w"]
    assert row["incomplete"] and not row["every_check_passes"]
    assert row["failed_runs"] == [{"side": "change", "seed": 2, "exit": 3},
                                  {"side": "change", "seed": 3, "exit": runs["change"]["3"]["exit"]}]
    assert (row["pairs"], row["complete_pairs"]) == (4, 2) and row["t_s"]["ties"] == 2
    assert not record["claim"]["met"]


def _tree(path: Path, trim) -> Path:
    """A copy of this tree's src/, perfbench/ and BENCHMARK.json, the copy's BENCHMARK.json trimmed."""
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, path / name, ignore=skip)
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    config["workloads"] = [w for w in config["workloads"] if w["name"] == "ex3-q7"]
    config["run_seconds"] = 1
    (path / "BENCHMARK.json").write_text(json.dumps(trim(config)))
    return path


def _drive(tmp_path: Path, trim_change=lambda c: c) -> tuple[subprocess.CompletedProcess, Path]:
    parent, change = _tree(tmp_path / "parent", lambda c: c), _tree(tmp_path / "change", trim_change)
    out = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "compare.py"), "--parent", str(parent),
                           "--parent-sha", "test", "--change", str(change), "--out", str(out), "--seeds", "1-1"],
                          capture_output=True, text=True, timeout=600)
    return proc, out


def test_one_pair_on_two_copies_of_this_tree(tmp_path):
    proc, out = _drive(tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(out.read_text())
    assert set(record) == {"script", "command", "machine", "parent", "run_order", "claim", "comparison",
                           "traced", "runs"}
    assert record["claim"] is None
    row = record["comparison"]["ex3-q7"]
    assert row["same_record_body"] and row["every_check_passes"] and not row["incomplete"]
    metrics = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    assert all(set(row[m]) >= {"parent", "change", "wins", "ties", "median_change_rel", "beyond_parent_iqr",
                               "worse_than_bound", "unresolved"} for m in metrics)
    for side in compare.SIDES:
        run, traced = record["runs"]["ex3-q7"][side]["1"], record["traced"]["ex3-q7"][side]
        assert run["exit"] == 0 and set(metrics) <= set(run["metrics"])
        assert traced["exit"] == 0 and traced["correct"] and "grid.build_s" in traced["metrics"]
        assert traced["record_body_sha256"] == run["record_body_sha256"]


def test_trees_with_different_benchmarks_are_refused(tmp_path):
    proc, out = _drive(tmp_path, lambda c: c | {"run_seconds": 2})
    assert proc.returncode == 2 and "BENCHMARK.json differ" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("args", [["--seeds", "3"], ["--seeds", "5-4"], ["--claim", "t_s@nowhere"],
                                  ["--claim", "nothing@w"]])
def test_malformed_seeds_or_claim_are_usage_errors(args, tmp_path):
    for side in compare.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(CONFIG))
    with pytest.raises(SystemExit) as exc:
        compare.main(["--parent", str(tmp_path / "parent"), "--parent-sha", "p", "--change",
                      str(tmp_path / "change"), "--out", str(tmp_path / "out.json"), *args])
    assert exc.value.code == 2 and not (tmp_path / "out.json").exists()
