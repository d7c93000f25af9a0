import json
import os
import shlex
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from trajectory_csv import read_trajectory

from hjbsparse.bvp import BvpStatus
from hjbsparse.characteristics import solve_point
from hjbsparse.cli import _workers, build_parser, main
from hjbsparse.problems import make_example1, make_example2, null_direction, optimal_attitude


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
    def test_grid_without_d_or_q_is_usage_error(self, args, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["grid", *args, "--out", str(tmp_path / "g.json")])
        assert exc.value.code == 2
        assert f"grid requires --{'q' if '--d' in args else 'd'}" in capsys.readouterr().err

    @pytest.mark.parametrize("args, key", [
        (["bound", "--d", "2"], "q"),
        (["mc-ebvp", "--q", "6"], "d"),
        (["sweep", "--problem", "example1"], "q"),
    ])
    def test_a_missing_setting_is_named(self, args, key, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(tmp_path / "o.json")])
        assert exc.value.code == 2
        assert f"{args[0]} requires --{key}, as a flag or a --config entry" in capsys.readouterr().err

    def test_workers_env_fallback(self, monkeypatch):
        monkeypatch.setenv("HJB_WORKERS", "5")
        assert _workers(None) == 5
        assert _workers(3) == 3

    def test_workers_default_is_the_affinity_mask(self, monkeypatch):
        monkeypatch.delenv("HJB_WORKERS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert _workers(None) == 1

    @pytest.mark.parametrize("flags, env, cfg, name", [
        (["--workers", "-3"], None, {}, "workers"),
        ([], "abc", {}, "HJB_WORKERS"),
        ([], "0", {}, "HJB_WORKERS"),
        ([], None, {"workers": 2.5}, "workers"),
        ([], None, {"workers": True}, "workers"),
    ])
    def test_workers_must_be_an_integer_of_at_least_one(self, flags, env, cfg, name, tmp_path, capsys,
                                                        monkeypatch):
        if env is not None:
            monkeypatch.setenv("HJB_WORKERS", env)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "ds.jsonl"
        code = main(["sweep", "--problem", "example1", "--q", "6", *flags, "--config", str(path),
                     "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert f"error: {name}: cannot read" in err and "Traceback" not in err

    @pytest.mark.parametrize("flags, name", [(["mc-ebvp", "--d", "2", "--q", "4", "--seed", "-1"], "seed"),
                                             (["bound", "--d", "2", "--q", "4", "--lebesgue", "foo"], "lebesgue")])
    def test_flag_value_the_converter_refuses_is_named(self, flags, name, tmp_path, capsys):
        out = tmp_path / "o.json"
        code = main([*flags, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert f"error: {name}: cannot read" in err and "Traceback" not in err

    def test_readme_examples_parse(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines() if line.startswith("hjbsparse ")]
        assert len(lines) == 10
        for line in lines:
            build_parser().parse_args(shlex.split(line)[1:])

    def test_help_shows_each_declared_default(self):
        text = build_parser()._subparsers._group_actions[0].choices["sweep"].format_help()
        assert "(default: 1e-06)" in text and "(default: cgl)" in text and "(required)" in text

    def test_parser_covers_all_subcommands(self):
        parser = build_parser()
        subs = parser._subparsers._group_actions[0].choices
        assert set(subs) == {"grid", "sweep", "fit", "interp", "bound",
                             "mc-ebvp", "validate", "mpc", "order-check"}


    @pytest.mark.parametrize("tol", ["0", "-1", "nan"])
    def test_sweep_refuses_a_tolerance_that_is_not_positive(self, tol, tmp_path, capsys):
        code = main(["sweep", "--problem", "example3", "--q", "6", "--tol", tol, "--workers", "1",
                     "--out", str(tmp_path / "ds.jsonl")])
        err = capsys.readouterr().err
        assert code == 1
        assert "tol" in err and "Traceback" not in err

    def test_bound_refuses_zero_dimensions(self, tmp_path, capsys):
        code = main(["bound", "--d", "0", "--q", "2", "--out", str(tmp_path / "bound.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "coefficient" not in captured.out and "q >= d >= 1" in captured.err


class TestGridCommand:
    def test_domain_with_a_bound_that_is_not_finite_exits_one(self, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["grid", "--d", "2", "--q", "3", "--domain", "0:1,0:inf", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("domain", ["0:1,0:1:2", "0:1,0", "0:1,,0:1"])
    def test_domain_axis_that_is_not_lo_hi_exits_one(self, domain, tmp_path, capsys):
        out = tmp_path / "g.json"
        code = main(["grid", "--d", "2", "--q", "3", "--domain", domain, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert "--domain axis 2 'lo:hi': cannot read" in err and "Traceback" not in err

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

    def test_interp_refuses_a_point_with_too_few_coordinates(self, ds_path, tmp_path, capsys):
        code = main(["interp", "--dataset", str(ds_path), "--at", "0.1", "--out", str(tmp_path / "i.json")])
        assert code == 1
        assert "expected points with 4 coordinates" in capsys.readouterr().err

    def test_interp_names_the_flag_of_a_field_that_is_not_a_number(self, ds_path, tmp_path, capsys):
        code = main(["interp", "--dataset", str(ds_path), "--at", "2.5,a,0,1", "--out", str(tmp_path / "i.json")])
        assert code == 1
        assert "--at: cannot read '2.5,a,0,1' (could not convert string to float: 'a')" in capsys.readouterr().err

    def test_interp_refuses_a_nan_point(self, ds_path, tmp_path, capsys):
        code = main(["interp", "--dataset", str(ds_path), "--at", "nan,0,0,0", "--out", str(tmp_path / "i.json")])
        assert code == 1
        assert "outside domain box" in capsys.readouterr().err

    def test_validate_refuses_zero_samples(self, ds_path, tmp_path, capsys):
        code = main(["validate", "--dataset", str(ds_path), "--n", "0", "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "n_samples must be >= 1" in capsys.readouterr().err

    def test_validate_refuses_a_zero_tolerance(self, ds_path, tmp_path, capsys):
        code = main(["validate", "--dataset", str(ds_path), "--n", "2", "--tol", "0", "--workers", "1",
                     "--out", str(tmp_path / "r.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "tol" in err and "Traceback" not in err

    def test_validate_oracle_defaults_to_a_tenth_of_the_sweep_tolerance(self, ds_path, tmp_path):
        out_path = tmp_path / "report.json"
        assert main(["validate", "--dataset", str(ds_path), "--n", "2", "--workers", "1",
                     "--out", str(out_path)]) == 0
        assert json.loads(ds_path.read_text().splitlines()[0])["tolerance"] == 1e-8
        assert json.loads(out_path.read_text())["tight_tol"] == 1e-9
        assert json.loads(Path(str(out_path) + ".manifest.json").read_text())["config"]["tol"] == 1e-9

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

    @pytest.mark.parametrize("noise", ["nan", "inf"])
    def test_mpc_refuses_a_noise_that_is_not_finite(self, noise, ds_path, tmp_path, capsys):
        code = main(["mpc", "--dataset", str(ds_path), "--x0", "0.1,0,0", "--tmax", "0.2", "--noise", noise,
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 1
        assert "noise magnitude must be finite" in capsys.readouterr().err

    def test_mpc_refuses_an_empty_x0_field(self, ds_path, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = main(["mpc", "--dataset", str(ds_path), "--x0", "1,,1,1", "--tmax", "0.2", "--out", str(out)])
        assert code == 1 and not out.exists()
        assert "--x0: cannot read '1,,1,1'" in capsys.readouterr().err

    def test_mpc_rejects_zero_sample_period(self, ds_path, tmp_path, capsys):
        code = main(["mpc", "--dataset", str(ds_path), "--x0", "0.5,0.5,0.5", "--hz", "0",
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 1
        assert "error: hz: cannot read" in capsys.readouterr().err

    def test_fit_refuses_coarse_failure(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        root = json.loads(lines[1])
        root.update(V=None, lam=[None] * 3, status=BvpStatus.NEWTON_DIVERGED.value)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], json.dumps(root), *lines[2:]]) + "\n")
        code, _ = run(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")], capsys)
        assert code == 1

    def test_record_missing_key_exits_one(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        rec = json.loads(lines[5])
        del rec["mesh"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([*lines[:5], json.dumps(rec), *lines[6:]]) + "\n")
        code = main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "line 6: missing key 'mesh'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["newton", "meshes", "cont"])
    def test_record_missing_solver_counter_exits_one(self, key, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        rec = json.loads(lines[5])
        del rec[key]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([*lines[:5], json.dumps(rec), *lines[6:]]) + "\n")
        code = main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert f"line 6: missing key {key!r}" in capsys.readouterr().err

    def test_swapped_records_exit_one(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        lines[3], lines[7] = lines[7], lines[3]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "line 4: record id 6, expected 2" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        ({"family": "modified"}, "line 11: record x [2.5, 0.0, 0.0, -1.414213562373095], expected"),
        ({"domain": [[0.0, 5.0], [-2.0, 2.0], [-2.0, 2.0], [-1.9, 2.0]]},
         "line 2: record x [2.5, 0.0, 0.0, 0.0], expected"),
        ({"family": "foo"}, "bad.jsonl line 1: unknown node family 'foo'"),
        ({"q": 3}, "bad.jsonl line 1: depth q=3 must be >= dimension d=4"),
        ({"domain": [[0.0, 5.0], [-2.0, 2.0], [-2.0, 2.0]]}, "bad.jsonl line 1: domain has 3 axes, expected 4"),
    ])
    def test_header_that_rebuilds_another_grid_is_refused(self, edit, message, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps({**json.loads(lines[0]), **edit}), *lines[1:]]) + "\n")
        code = main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert message in capsys.readouterr().err

    def test_record_off_its_grid_point_is_refused(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        rec = json.loads(lines[10])
        rec["x"][1] += 1e-12
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([*lines[:10], json.dumps(rec), *lines[11:]]) + "\n")
        code = main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line 11: record x [2.5, 1e-12, 0.0, -1.414213562373095], expected [2.5, 0.0," in err

    def test_record_past_the_last_grid_point_is_refused(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([*lines, lines[-1]]) + "\n")
        code = main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "line 43: record past the grid's last point, id 40" in capsys.readouterr().err

    @pytest.mark.parametrize("command, cut, line", [
        (["fit"], slice(None), 2),
        (["interp", "--at", "2.5,0,0,1"], slice(None), 2),
        (["fit"], slice(4, 5), 6),
    ])
    def test_costates_of_the_wrong_length_are_refused(self, command, cut, line, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        records = [json.loads(rec) for rec in lines[1:]]
        for rec in records[cut]:
            rec["lam"] = rec["lam"][:2]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([lines[0], *map(json.dumps, records)]) + "\n")
        code = main([command[0], "--dataset", str(bad), *command[1:], "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 1 and "Traceback" not in err
        assert f"line {line}: 'lam' has 2 entries, expected the problem's n = 3" in err

    def test_header_without_problem_spec_is_refused(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        header = json.loads(lines[0])
        header["problem"] = "example3"
        old = tmp_path / "old.jsonl"
        old.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        code = main(["fit", "--dataset", str(old), "--out", str(tmp_path / "fit.json")])
        assert code == 1
        assert "re-run" in capsys.readouterr().err

    def test_header_without_tolerance_is_refused(self, ds_path, tmp_path, capsys):
        lines = ds_path.read_text().splitlines()
        header = json.loads(lines[0])
        del header["tolerance"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        code = main(["validate", "--dataset", str(bad), "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert "line 1: missing key 'tolerance'" in capsys.readouterr().err

    def test_missing_dataset_exits_one(self, tmp_path, capsys):
        code, _ = run(["validate", "--dataset", str(tmp_path / "nope.jsonl"),
                       "--out", str(tmp_path / "r.json")], capsys)
        assert code == 1


class TestProblemConfig:
    """Examples I and II at q=6 are one-point grids, so each sweep here is a single solve."""

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

    def test_problem_domain_other_than_the_grid_domain_is_refused(self, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", "example1")
        assert code == 0
        lines = ds.read_text().splitlines()
        header = json.loads(lines[0])
        header["problem"]["params"]["domain"] = [[lo / 2, hi / 2] for lo, hi in header["domain"]]
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")]) == 1
        assert f"error: {bad} line 1: the problem's domain" in capsys.readouterr().err

    def test_malformed_problem_param_in_the_header_names_the_file_and_line(self, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", "example1")
        assert code == 0
        lines = ds.read_text().splitlines()
        header = json.loads(lines[0])
        header["problem"]["params"]["T"] = "long"
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert main(["fit", "--dataset", str(bad), "--out", str(tmp_path / "fit.json")]) == 1
        assert f"error: {bad} line 1: malformed problem param T='long'" in capsys.readouterr().err

    def test_interp_refuses_a_point_with_too_few_coordinates(self, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", "example1")
        assert code == 0
        code = main(["interp", "--dataset", str(ds), "--at", "0.1", "--out", str(tmp_path / "i.json")])
        assert code == 1
        assert "expected points with 6 coordinates" in capsys.readouterr().err

    def test_mpc_clamps_to_the_dataset_box(self, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", "example1", "--domain-id", "d2")
        assert code == 0
        out = tmp_path / "traj.csv"
        # phi = 0.7 lies inside d2 (|phi| <= pi/3) but outside d1 (|phi| <= pi/6)
        code, stdout = run(["mpc", "--dataset", str(ds), "--x0", "0.7,0,0,0,0,0", "--tmax", "0",
                            "--out", str(out)], capsys)
        assert code == 0
        assert "clamps=0" in stdout

    def test_mpc_records_example2_target_attitude(self, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", "example2")
        assert code == 0
        x0 = np.array([0.1, -0.1, 0.2, 0.05, 0.0, -0.05])
        out = tmp_path / "traj.csv"
        code = main(["mpc", "--dataset", str(ds), "--x0", ",".join(map(str, x0)), "--tmax", "0",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        target = optimal_attitude(make_example2().params, x0[:3], x0[3:]).v_e
        assert manifest["config"]["target_attitude"] == target.tolist()

    @pytest.mark.parametrize("problem", ["example1", "example2"])
    @pytest.mark.parametrize("x0", ["0.1", "0.1,0.2,0.3"])
    def test_mpc_refuses_an_x0_of_the_wrong_length(self, problem, x0, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", problem)
        assert code == 0
        code = main(["mpc", "--dataset", str(ds), "--x0", x0, "--tmax", "0",
                     "--out", str(tmp_path / "traj.csv")])
        assert code == 1
        assert "x0 must be 6 finite numbers" in capsys.readouterr().err

    def test_sweep_with_momentum_along_the_null_direction_exits_one(self, tmp_path, capsys):
        # the one q=6 point sits at the box centre; its rate w = C/J makes C.J w = 1 and c0 = -9,
        # so the reachable circle has radius > 0 about the axis through H = 10 C
        params = make_example2().params
        C = null_direction(params.B)
        w = C / params.J
        domain = [[-0.5, 0.5]] * 3 + [[wk - 0.1, wk + 0.1] for wk in w]
        config = self.config(tmp_path, {"H": (10.0 * C).tolist(), "domain": domain})
        code, ds = self.sweep(tmp_path, "--problem", "example2", "--problem-config", config)
        assert code == 1
        assert not ds.exists()
        assert "not unique" in capsys.readouterr().err

    @pytest.mark.parametrize("problem", ["example2", "example3"])
    def test_domain_d2_is_refused_without_one(self, problem, tmp_path, capsys):
        code, ds = self.sweep(tmp_path, "--problem", problem, "--domain-id", "d2")
        assert code == 1
        assert not ds.exists()
        assert "only domain d1" in capsys.readouterr().err

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


    @pytest.mark.parametrize("command, cfg", [
        (["mc-ebvp", "--family", "cgl", "--d", "2", "--q", "6"], {"n": [1]}),
        (["grid", "--d", "2", "--q", "4"], {"family": 3}),
        (["grid", "--d", "2", "--q", "4"], {"family": None}),
        (["mc-ebvp"], {"seed": None, "d": 2, "q": 4}),
        (["grid"], {"q": 4.7, "d": 2}),
        (["bound", "--family", "classic", "--d", "2", "--q", "4"], {"lebesgue": None}),
        (["mc-ebvp", "--d", "2", "--q", "4"], {"seed": -1}),
        (["mc-ebvp", "--d", "2", "--q", "4"], {"seed": 2**128}),
        (["mpc", "--dataset", "absent.jsonl", "--x0", "0.5,0.5,0.5"], {"hz": 0}),
    ])
    def test_config_value_of_the_wrong_type_exits_one(self, command, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main([*command, "--config", str(path), "--out", str(tmp_path / "o.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: {next(iter(cfg))}: cannot read" in err and "Traceback" not in err


    @pytest.mark.parametrize("command, cfg", [
        (["bound"], {"d": 2, "q": 5}),
        (["mc-ebvp", "--n", "5"], {"d": 2, "q": 6}),
        (["sweep", "--problem", "example1", "--workers", "1"], {"q": 6}),
    ])
    def test_config_supplies_d_and_q(self, command, cfg, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        assert main([*command, "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert {k: manifest["config"][k] for k in cfg} == cfg

    @pytest.mark.parametrize("command, cfg, unread", [
        (["grid", "--d", "2", "--q", "4"], {"qq": 9}, "'qq'"),
        (["fit", "--dataset", "absent.jsonl"], {"n": 3}, "'n'"),
        (["validate", "--dataset", "absent.jsonl"], {"n": 3, "q": 6, "qq": 9}, "'q', 'qq'"),
    ])
    def test_config_key_the_command_does_not_read_exits_one(self, command, cfg, unread, tmp_path, capsys):
        # refused before any work: the absent dataset is never opened
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o.json"
        code = main([*command, "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1 and not out.exists()
        assert f"{command[0]} reads no config key {unread}\n" in err and "absent.jsonl" not in err


class TestMcEbvpCommand:
    def test_refuses_zero_points(self, tmp_path, capsys):
        code = main(["mc-ebvp", "--family", "cgl", "--d", "2", "--q", "6", "--n", "0",
                     "--out", str(tmp_path / "mc.json")])
        assert code == 1
        assert "n_eval must be >= 1" in capsys.readouterr().err


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
