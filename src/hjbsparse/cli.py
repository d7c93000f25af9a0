"""Command-line entry point: grid / sweep / fit / interp / bound / mc-ebvp / validate / mpc / order-check.

Every artifact-producing command writes exactly one run manifest next to its
output (resolved config, seeds, code version, timestamps, input/output
digests), and every number printed to stdout is also present in the
machine-readable output file.

Config precedence: command-line flags > --config JSON file > defaults.
Worker count falls back to the HJB_WORKERS environment variable, then to the
available parallelism.  Exit codes: 0 success, 1 domain/runtime errors,
2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bvp import BvpProblem, empirical_order
from .characteristics import fit_feedback, load_jsonl, point_args, sweep
from .errors import coefficient_growth_check, mc_ebvp, worst_case_coefficient, validate
from .exceptions import HjbSparseError
from .grid import Box, NodeFamily, build_grid, dense_size, grid_size
from .interp import fit_hierarchical
from .mpc import HorizonMode, MpcConfig, emit_trajectory, simulate
from .problems import make_problem, problem_from_spec
from .util import jsonable, sha256_file


def _workers(value) -> int:
    if value is not None:
        return int(value)
    env = os.environ.get("HJB_WORKERS")
    if env:
        return int(env)
    return os.cpu_count() or 1


def _parse_domain(text: str, d: int) -> Box:
    axes = [a for a in text.split(",") if a.strip()]
    if len(axes) != d:
        raise HjbSparseError(f"--domain needs {d} axes 'lo:hi', got {len(axes)}")
    lows, highs = [], []
    for a in axes:
        lo, hi = a.split(":")
        lows.append(float(lo))
        highs.append(float(hi))
    return Box(tuple(lows), tuple(highs))


def _parse_vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.replace(",", " ").split()])


class _Run:
    """Collects resolved config, seeds and file digests for the manifest."""

    def __init__(self, argv: list[str], out: str | None):
        self.argv = argv
        self.out = out
        self.config: dict = {}
        self.seeds: list[int] = []
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    def add_input(self, path):
        self.inputs[str(path)] = sha256_file(path)

    def write_manifest(self):
        if self.out is None:
            return
        manifest = {
            "command": self.argv,
            "config": jsonable(self.config),
            "version": __version__,
            "seeds": self.seeds,
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "inputs": self.inputs,
            "outputs": {p: sha256_file(p) for p in self.outputs if Path(p).exists()},
        }
        path = str(self.out) + ".manifest.json"
        with open(path, "w") as fh:
            json.dump(manifest, fh, indent=2)


def _write_json(run: _Run, path, payload: dict):
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2)
    run.outputs.append(str(path))


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise HjbSparseError(f"{path} must hold a JSON object")
    return cfg


def _resolve(run: _Run, flag_value, cfg: dict, key: str, default):
    value = flag_value if flag_value is not None else cfg.get(key, default)
    run.config[key] = value
    return value


def _load_dataset(args, run: _Run):
    """The dataset's solution and grid, and the problem its header specifies."""
    run.add_input(args.dataset)
    _, solution, grid = load_jsonl(args.dataset)
    if not isinstance(solution.header.get("problem"), dict):
        raise HjbSparseError(f"{args.dataset} was written before datasets carried their problem spec; "
                             "re-run `hjbsparse sweep` to regenerate it")
    return problem_from_spec(solution.header["problem"]), solution, grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_grid(args, run: _Run, cfg: dict) -> int:
    family = NodeFamily.parse(_resolve(run, args.family, cfg, "family", "cgl"))
    d = _resolve(run, args.d, cfg, "d", None)
    q = _resolve(run, args.q, cfg, "q", None)
    if d is None or q is None:
        build_parser().error("grid requires --d and --q, as flags or --config entries")
    d, q = int(d), int(q)
    domain = _parse_domain(args.domain, d) if args.domain else Box((0.0,) * d, (1.0,) * d)
    run.config["domain"] = domain.as_json()
    grid = build_grid(family, d, q, domain)
    payload = grid.info()
    payload["dense_count"] = dense_size(family, d, q)
    payload["count_formula"] = grid_size(family, d, q)
    _write_json(run, args.out, payload)
    if args.points_csv:
        with open(args.points_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"mi{k}" for k in range(d)] + [f"off{k}" for k in range(d)]
                            + [f"ref{k}" for k in range(d)] + [f"phys{k}" for k in range(d)])
            for i in range(len(grid)):
                writer.writerow([*grid.levels[i], *grid.offsets[i],
                                 *[repr(float(v)) for v in grid.ref[i]],
                                 *[repr(float(v)) for v in grid.phys[i]]])
        run.outputs.append(args.points_csv)
    print(f"family={family.value} d={d} q={q} count={payload['count']} dense={payload['dense_count']}")
    return 0


def cmd_sweep(args, run: _Run, cfg: dict) -> int:
    spec = make_problem(args.problem, args.domain_id or "d1").spec()
    if args.problem_config:
        run.add_input(args.problem_config)
        spec["params"].update(_load_config_file(args.problem_config))
    problem = problem_from_spec(spec)
    run.config["problem"] = problem.spec()
    family = NodeFamily.parse(_resolve(run, args.family, cfg, "family", "cgl"))
    q = int(_resolve(run, args.q, cfg, "q", None))
    tol = float(_resolve(run, args.tol, cfg, "tol", 1e-8))
    workers = _workers(_resolve(run, args.workers, cfg, "workers", None))
    run.config["workers"] = workers
    d = problem.domain.d
    grid = build_grid(family, d, q, problem.domain)
    solution = sweep(problem, grid, tol=tol, workers=workers)
    solution.save_jsonl(args.out, grid)
    run.outputs.append(args.out)
    n_fail = len(solution.failures)
    run.config.update({"points": len(grid), "converged": len(grid) - n_fail, "failed": n_fail})
    print(f"points={len(grid)} converged={len(grid) - n_fail} failed={n_fail} out={args.out}")
    return 0


def cmd_fit(args, run: _Run, cfg: dict) -> int:
    problem, solution, grid = _load_dataset(args, run)
    law = fit_feedback(problem, grid, solution)
    payload = {
        "header": solution.header,
        "n_points": len(grid),
        "n_failed": len(solution.failures),
        "max_abs_value_surplus": float(np.abs(law.value.surpluses).max()),
        "value_surpluses": law.value.surpluses,
        "costate_surpluses": law.costate.surpluses,
    }
    _write_json(run, args.out, payload)
    print(f"fitted {len(grid)} points; max |V surplus| = {payload['max_abs_value_surplus']}")
    return 0


def cmd_interp(args, run: _Run, cfg: dict) -> int:
    problem, solution, grid = _load_dataset(args, run)
    law = fit_feedback(problem, grid, solution)
    pts = [_parse_vector(a) for a in args.at]
    rows = []
    for p, (t, x) in zip(pts, point_args(problem, pts)):
        lam = law.costate_at(t, x)
        u = law.control(t, x)
        rows.append({"point": p, "t": t, "V": law.value_at(t, x), "lam": lam, "u": u})
        print(f"at {p.tolist()}: V={rows[-1]['V']} u={u.tolist()}")
    _write_json(run, args.out, {"dataset": str(args.dataset), "evaluations": rows})
    return 0


def cmd_bound(args, run: _Run, cfg: dict) -> int:
    family = NodeFamily.parse(_resolve(run, args.family, cfg, "family", "cgl"))
    d = int(_resolve(run, args.d, cfg, "d", None))
    q = int(_resolve(run, args.q, cfg, "q", None))
    mode = _resolve(run, args.lebesgue, cfg, "lebesgue", "bound")
    report = worst_case_coefficient(family, d, q, lebesgue_mode=mode)
    _write_json(run, args.out, report.__dict__)
    print(f"coefficient={report.coefficient:.6g} (family={family.value} d={d} q={q} mode={mode})")
    return 0


def cmd_mc_ebvp(args, run: _Run, cfg: dict) -> int:
    family = NodeFamily.parse(_resolve(run, args.family, cfg, "family", "cgl"))
    d = int(_resolve(run, args.d, cfg, "d", None))
    q = int(_resolve(run, args.q, cfg, "q", None))
    n = int(_resolve(run, args.n, cfg, "n", 2000))
    seed = int(_resolve(run, args.seed, cfg, "seed", 0))
    run.seeds.append(seed)
    report = mc_ebvp(family, d, q, n_eval=n, seed=seed)
    payload = {k: v for k, v in report.__dict__.items() if k != "ratios"}
    _write_json(run, args.out, payload)
    print(f"max |e_BVP/eps| = {report.max_ratio:.4f} over {n} points (seed={seed})")
    return 0


def cmd_validate(args, run: _Run, cfg: dict) -> int:
    problem, solution, grid = _load_dataset(args, run)
    n = int(_resolve(run, args.n, cfg, "n", 300))
    tol = float(_resolve(run, args.tol, cfg, "tol", 1e-7))
    seed = int(_resolve(run, args.seed, cfg, "seed", 0))
    workers = _workers(_resolve(run, args.workers, cfg, "workers", None))
    run.config["workers"] = workers
    run.seeds.append(seed)
    law = fit_feedback(problem, grid, solution)
    report = validate(problem, law, n_samples=n, tight_tol=tol, seed=seed, workers=workers)
    _write_json(run, args.out, report.as_json())
    hist_path = str(args.out) + ".hist.csv"
    with open(hist_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_left", "bin_right", "count"])
        for i, c in enumerate(report.histogram_counts):
            writer.writerow([report.histogram_edges[i], report.histogram_edges[i + 1], c])
    run.outputs.append(hist_path)
    print(f"MAE={report.mae:.6g} relMAE={report.relative_mae:.6g} "
          f"max={report.max_abs_error:.6g} n={report.n_used} failures={report.n_oracle_failures}")
    return 0


def cmd_mpc(args, run: _Run, cfg: dict) -> int:
    problem, solution, grid = _load_dataset(args, run)
    x0 = _parse_vector(args.x0)
    noise = float(_resolve(run, args.noise, cfg, "noise", 0.0))
    seed = int(_resolve(run, args.seed, cfg, "seed", 0))
    t_max = float(_resolve(run, args.tmax, cfg, "tmax", problem.horizon))
    if args.dt is not None:
        dt = float(args.dt)
    else:
        hz = float(_resolve(run, args.hz, cfg, "hz", 10.0))
        if not hz > 0:
            raise ValueError(f"--hz must be > 0, got {hz}")
        dt = 1.0 / hz
    run.config.update({"dt": dt, "x0": x0.tolist()})
    run.seeds.append(seed)
    mode = HorizonMode.TIME_IN_GRID if problem.time_in_grid else HorizonMode.FIXED_INITIAL
    run.config["horizon_mode"] = mode.value
    law = fit_feedback(problem, grid, solution)
    config = MpcConfig(dt=dt, t_max=t_max, noise_fraction=noise, horizon_mode=mode, seed=seed)
    traj = simulate(problem, law, x0, config)
    emit_trajectory(traj, args.out, problem)
    run.outputs.append(args.out)
    run.config.update({"status": traj.status, "samples": len(traj.times),
                       "clamps": len(traj.clamp_events)})
    print(f"status={traj.status} samples={len(traj.times)} "
          f"final_cost={traj.accumulated_cost[-1]} clamps={len(traj.clamp_events)}")
    return 0


def cmd_order_check(args, run: _Run, cfg: dict) -> int:
    def rhs_sin(s, y):
        return np.stack([y[1], -y[0]])

    def bc_sin(ya, yb):
        return np.array([ya[0], yb[0] - 1.0])

    p_sin = BvpProblem(ndim=2, rhs=rhs_sin, bc=bc_sin, interval=(0.0, np.pi / 2), tol=1e-8)
    fit_sin = empirical_order(p_sin, lambda s: np.stack([np.sin(s), np.cos(s)]), [4, 6, 8, 12, 16, 24])

    def rhs_exp(s, y):
        return np.stack([y[1], (np.cos(s) ** 2 - np.sin(s)) * y[0] + (y[0] ** 2 - np.exp(2 * np.sin(s)))])

    def bc_exp(ya, yb):
        return np.array([ya[0] - 1.0, yb[0] - np.exp(np.sin(2.0))])

    def guess_exp(s):
        return np.stack([np.ones_like(s), np.zeros_like(s)])

    p_exp = BvpProblem(ndim=2, rhs=rhs_exp, bc=bc_exp, interval=(0.0, 2.0), tol=1e-8, guess=guess_exp)
    fit_exp = empirical_order(
        p_exp, lambda s: np.stack([np.exp(np.sin(s)), np.cos(s) * np.exp(np.sin(s))]), [6, 8, 12, 16, 24]
    )

    # interpolation convergence on the oscillatory product function
    seed = int(_resolve(run, args.seed, cfg, "seed", 0))
    run.seeds.append(seed)
    from .util import make_rng
    rng = make_rng(seed)
    sample_pts = rng.uniform(0.0, 1.0, size=(10_000, 2))
    errs, ns = [], []
    for q in range(6, 13):
        g = build_grid(NodeFamily.CLASSIC, 2, q)
        f = np.sin(np.pi * g.ref[:, 0]) * np.sin(np.pi * g.ref[:, 1])
        it = fit_hierarchical(g, f)
        truth = np.sin(np.pi * sample_pts[:, 0]) * np.sin(np.pi * sample_pts[:, 1])
        errs.append(float(np.abs(it.eval(sample_pts) - truth).max()))
        ns.append(2 ** (q - 2))
    slope = float(np.polyfit(np.log(ns), np.log(errs), 1)[0])

    rate = coefficient_growth_check(NodeFamily.CLASSIC, 2, list(range(4, 11)))
    payload = {
        "bvp_order_linear": fit_sin.order,
        "bvp_order_nonlinear": fit_exp.order,
        "interp_slope_classic_d2": slope,
        "interp_errors": errs,
        "interp_n": ns,
        "growth_fitted_degree": rate.fitted_degree,
        "growth_coefficients": rate.coefficients,
    }
    _write_json(run, args.out, payload)
    print(f"bvp orders: linear={fit_sin.order:.3f} nonlinear={fit_exp.order:.3f}; "
          f"interp slope={slope:.3f}; growth degree={rate.fitted_degree:.3f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hjbsparse",
                                     description="Sparse-grid characteristics toolkit for optimal feedback control")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default):
        p.add_argument("--config", default=None, help="JSON config file (flags override it)")
        p.add_argument("--out", default=out_default, help="machine-readable output path")

    p = sub.add_parser("grid", help="construct a sparse grid and report counts")
    p.add_argument("--family", default=None)
    p.add_argument("--d", type=int, default=None, required=False)
    p.add_argument("--q", type=int, default=None, required=False)
    p.add_argument("--domain", default=None, help="comma-separated lo:hi per axis (default unit cube)")
    p.add_argument("--points-csv", default=None, help="also write the full point list as CSV")
    common(p, "grid.json")

    p = sub.add_parser("sweep", help="solve the characteristic BVP at every grid point")
    p.add_argument("--problem", required=True)
    p.add_argument("--domain-id", default=None, choices=["d1", "d2"])
    p.add_argument("--problem-config", default=None,
                   help="JSON object overriding AttitudeParams fields (B, J, H, W, T, domain)")
    p.add_argument("--family", default=None)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--workers", type=int, default=None)
    common(p, "ds.jsonl")

    p = sub.add_parser("fit", help="fit hierarchical surpluses from a sweep dataset")
    p.add_argument("--dataset", required=True)
    common(p, "fit.json")

    p = sub.add_parser("interp", help="evaluate interpolated V, costate and control at points")
    p.add_argument("--dataset", required=True)
    p.add_argument("--at", action="append", required=True,
                   help="comma-separated point, repeatable; includes t first for time-in-grid problems")
    common(p, "interp.json")

    p = sub.add_parser("bound", help="worst-case error amplification coefficient")
    p.add_argument("--family", default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lebesgue", default=None, choices=["bound", "numeric"])
    common(p, "bound.json")

    p = sub.add_parser("mc-ebvp", help="Monte-Carlo estimate of the error functional")
    p.add_argument("--family", default=None)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p, "mc.json")

    p = sub.add_parser("validate", help="compare interpolant against tight-tolerance solves")
    p.add_argument("--dataset", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    common(p, "report.json")

    p = sub.add_parser("mpc", help="closed-loop zero-order-hold simulation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    p.add_argument("--noise", type=float, default=None, help="uniform noise amplitude, fraction of halfwidth")
    p.add_argument("--hz", type=float, default=None, help="sampling rate (default 10)")
    p.add_argument("--dt", type=float, default=None, help="sample period (overrides --hz)")
    p.add_argument("--tmax", type=float, default=None)
    p.add_argument("--seed", type=int, default=None)
    common(p, "traj.csv")

    p = sub.add_parser("order-check", help="convergence-order harness for the solver and interpolation")
    p.add_argument("--seed", type=int, default=None)
    common(p, "order.json")

    return parser


_HANDLERS = {
    "grid": cmd_grid,
    "sweep": cmd_sweep,
    "fit": cmd_fit,
    "interp": cmd_interp,
    "bound": cmd_bound,
    "mc-ebvp": cmd_mc_ebvp,
    "validate": cmd_validate,
    "mpc": cmd_mpc,
    "order-check": cmd_order_check,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(argv=argv, out=args.out)
    try:
        cfg = _load_config_file(args.config)
        if args.config:
            run.add_input(args.config)
        code = _HANDLERS[args.command](args, run, cfg)
        run.write_manifest()
        return code
    except (HjbSparseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
