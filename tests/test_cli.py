import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hjbsparse.bvp import BvpStatus
from hjbsparse.characteristics import solve_point
from hjbsparse.cli import _workers, build_parser, main
from hjbsparse.mpc import read_trajectory
from hjbsparse.problems import make_example1


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestBasics:
    def test_no_arguments_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["grid", "--nope", "3"])
        assert exc.value.code == 2

    def test_domain_error_exits_one(self, tmp_path, capsys):
        code, _ = run(["grid", "--family", "classic", "--d", "3", "--q", "2",
                       "--out", str(tmp_path / "g.json")], capsys)
        assert code == 1

    @pytest.mark.parametrize("args", [["--q", "5"], ["--d", "2"]])
    def test_grid_without_d_or_q_is_usage_error(self, args, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["grid", *args, "--out", str(tmp_path / "g.json")])
        assert exc.value.code == 2

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("HJB_WORKERS", "5")
        assert _workers(None) == 5
        assert _workers(3) == 3

    def test_parser_covers_all_subcommands(self):
        parser = build_parser()
        subs = parser._subparsers._group_actions[0].choices
        assert set(subs) == {"grid", "sweep", "fit", "interp", "bound",
                             "mc-ebvp", "validate", "mpc", "order-check"}


class TestGridCommand:
    def test_published_count_printed_and_written(self, tmp_path, capsys):
        out_path = tmp_path / "grid.json"
        csv_path = tmp_path / "points.csv"
        code, out = run(["grid", "--family", "classic", "--d", "2", "--q", "8",
                         "--out", str(out_path), "--points-csv", str(csv_path)], capsys)
        assert code == 0
        assert "count=385" in out
        payload = json.loads(out_path.read_text())
        assert payload["count"] == 385
        assert payload["count_formula"] == 385
        assert len(csv_path.read_text().splitlines()) == 386
        manifest = json.loads((tmp_path / "grid.json.manifest.json").read_text())
        assert str(out_path) in manifest["outputs"]
        assert str(csv_path) in manifest["outputs"]
        assert manifest["config"]["family"] == "classic"


class TestBoundCommand:
    def test_paper_scale_coefficient(self, tmp_path, capsys):
        out_path = tmp_path / "bound.json"
        code, out = run(["bound", "--family", "cgl", "--d", "6", "--q", "13",
                         "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert 3.66e4 * 0.95 <= payload["coefficient"] <= 3.66e4 * 1.05
        assert f"{payload['coefficient']:.6g}" in out


@pytest.fixture(scope="module")
def ds_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "ds.jsonl"
    code = main(["sweep", "--problem", "example3", "--family", "cgl", "--q", "6",
                 "--tol", "1e-8", "--workers", "2", "--out", str(path)])
    assert code == 0
    return path


class TestPipeline:
    def test_sweep_dataset_and_manifest(self, ds_path):
        lines = ds_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["problem"]["id"] == "example3" and header["q"] == 6
        assert len(lines) - 1 == 41
        manifest = json.loads(Path(str(ds_path) + ".manifest.json").read_text())
        assert manifest["config"]["workers"] == 2

    def test_fit(self, ds_path, tmp_path, capsys):
        out_path = tmp_path / "fit.json"
        code, out = run(["fit", "--dataset", str(ds_path), "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["value_surpluses"]) == 41
        assert str(payload["max_abs_value_surplus"]) in out

    def test_interp(self, ds_path, tmp_path, capsys):
        out_path = tmp_path / "interp.json"
        code, out = run(["interp", "--dataset", str(ds_path),
                         "--at", "2.5,0,0,0", "--at", "0,1,1,1", "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert len(payload["evaluations"]) == 2
        assert "V=" in out

    def test_validate(self, ds_path, tmp_path, capsys):
        out_path = tmp_path / "report.json"
        code, out = run(["validate", "--dataset", str(ds_path), "--n", "12", "--tol", "1e-8",
                         "--seed", "4", "--workers", "2", "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["n_used"] == 12
        assert "MAE=" in out
        assert (tmp_path / "report.json.hist.csv").exists()

    def test_mpc(self, ds_path, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        code, out = run(["mpc", "--dataset", str(ds_path), "--x0", "0.5,0.5,0.5",
                         "--noise", "0.01", "--hz", "7", "--tmax", "5", "--seed", "2",
                         "--out", str(out_path)], capsys)
        assert code == 0
        header, data = read_trajectory(out_path)
        assert header[0] == "t" and header[-1] == "cost"
        assert data.shape[0] == 36
        assert "status=ok" in out

    @pytest.mark.parametrize("flag", ["--hz", "--dt"])
    def test_mpc_rejects_zero_sample_period(self, flag, ds_path, tmp_path, capsys):
        code = main(["mpc", "--dataset", str(ds_path), "--x0", "0.5,0.5,0.5", flag, "0",
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fit_refuses_coarse_failure(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        root = json.loads(lines[1])
        root.update(V=None, lam=[None] * 3, status=BvpStatus.NEWTON_DIVERGED.value)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(root), *lines[2:]]) + "\n")
        code, _ = run(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")], capsys)
        assert code == 1

    def test_header_without_problem_spec_is_refused(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["problem"] = "example3"
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        code = main(["fit", "--dataset", str(old), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "re-run" in capsys.readouterr().err

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        code, _ = run(["validate", "--dataset", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1


class TestProblemConfig:
    """Example I at q=6 is a one-point grid, so each sweep here is a single solve."""

    def sweep(self, tmp_path, *args):
        path = tmp_path / "ds.jsonl"
        code = main(["sweep", *args, "--q", "6", "--workers", "1", "--out", str(path)])
        return code, path

    def config(self, tmp_path, params):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params))
        return str(path)

    def test_validate_solves_the_overridden_problem(self, tmp_path):
        code, ds = self.sweep(tmp_path, "--problem", "example1",
                              "--problem-config", self.config(tmp_path, {"T": 2.0}))
        assert code == 0
        assert json.loads(ds.read_text().splitlines()[0])["problem"]["params"]["T"] == 2.0
        out = tmp_path / "report.json"
        assert main(["validate", "--dataset", str(ds), "--n", "2", "--tol", "1e-8", "--seed", "1",
                     "--workers", "1", "--out", str(out)]) == 0
        base = make_example1()
        overridden = replace(base, params=replace(base.params, T=2.0))
        for sample in json.loads(out.read_text())["samples"]:
            rec = solve_point(overridden, 0.0, np.array(sample["x"]), tol=1e-8)
            assert sample["oracle"] == pytest.approx(rec.V, rel=1e-9, abs=1e-12)

    def test_mpc_clamps_to_the_dataset_box(self, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", "example1", "--domain-id", "d2")
        assert code == 0
        out = tmp_path / "traj.csv"
        # phi = 0.7 lies inside d2 (|phi| <= pi/3) but outside d1 (|phi| <= pi/6)
        code, stdout = run(["mpc", "--dataset", str(ds), "--x0", "0.7,0,0,0,0,0", "--tmax", "0",
                            "--out", str(out)], capsys)
        assert code == 0
        assert "clamps=0" in stdout

    # example3 takes no params; "j" is not an AttitudeParams field
    @pytest.mark.parametrize("problem, params", [("example3", {"T": 2.0}), ("example1", {"j": [1.0, 2.0, 3.0]})])
    def test_rejected_problem_config_exits_one(self, problem, params, tmp_path, capsys):
        code, _ = self.sweep(tmp_path, "--problem", problem, "--problem-config", self.config(tmp_path, params))
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestConfigPrecedence:
    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 10, "seed": 3}))
        out_path = tmp_path / "mc.json"
        code, _ = run(["mc-ebvp", "--family", "cgl", "--d", "2", "--q", "6",
                       "--config", str(cfg), "--n", "5", "--out", str(out_path)], capsys)
        assert code == 0
        manifest = json.loads((tmp_path / "mc.json.manifest.json").read_text())
        assert manifest["config"]["n"] == 5        # flag wins
        assert manifest["config"]["seed"] == 3     # from config file
        assert manifest["seeds"] == [3]
        payload = json.loads(out_path.read_text())
        assert payload["n_eval"] == 5


class TestOrderCheck:
    def test_orders_reported(self, tmp_path, capsys):
        out_path = tmp_path / "order.json"
        code, out = run(["order-check", "--seed", "0", "--out", str(out_path)], capsys)
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert 4.5 <= payload["bvp_order_linear"] <= 5.6
        assert 4.5 <= payload["bvp_order_nonlinear"] <= 5.5
        assert -2.6 <= payload["interp_slope_classic_d2"] <= -1.6
        assert "orders" in out
