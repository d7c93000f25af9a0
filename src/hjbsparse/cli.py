"""Command-line entry point: grid / sweep / fit / interp / bound / mc-ebvp / validate / mpc / order-check.

Every artifact-producing command writes exactly one run manifest next to its
output (resolved config, seeds, code version, timestamps, input/output
digests), and every number printed to stdout is also present in the
machine-readable output file.

Each setting is declared once: _SETTINGS gives its flag type and converter,
and a command's common(...) call its default.  main resolves every setting a
command declares before the handler runs: the flag, else the --config entry
(null included), else the default, read by the converter.  Worker count falls
back to the HJB_WORKERS environment variable, then to the available
parallelism.  Exit codes: 0 success, 1 domain/runtime errors, 2 usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .bvp import BvpProblem, empirical_order
from .characteristics import fit_feedback, load_jsonl, point_args, sweep
from .errors import coefficient_growth_check, mc_ebvp, worst_case_coefficient, validate
from .exceptions import HjbSparseError
from .grid import Box, NodeFamily, build_grid, dense_size, grid_size
from .interp import fit_hierarchical
from .mpc import HorizonMode, MpcConfig, check_x0, emit_trajectory, simulate
from .problems import make_problem, problem_from_spec
from .util import json_default, sha256_file


def _int(value) -> int:
    """An integer setting; a boolean or a non-integral number is refused, not truncated."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError("expected an integer")
    return int(value)


def _positive_int(value) -> int:
    n = _int(value)
    if n < 1:
        raise ValueError("expected an integer >= 1")
    return n


def _seed(value) -> int:
    """A seed; Philox takes it as a 128-bit key."""
    n = _int(value)
    if not 0 <= n < 2**128:
        raise ValueError("expected an integer in [0, 2**128)")
    return n


def _positive_float(value) -> float:
    if not 0.0 < float(value) < np.inf:
        raise ValueError("expected a finite number > 0")
    return float(value)


def _lebesgue(value) -> str:
    if value not in ("bound", "numeric"):
        raise ValueError("expected bound|numeric")
    return value


REQUIRED = object()  # the default of a setting the command cannot run without

# setting -> (the type argparse gives its flag, the converter of its resolved value, help)
_SETTINGS = {
    "family": (str, NodeFamily.parse, "node family: classic|modified|cgl"),
    "d": (int, _int, "dimension"),
    "q": (int, _int, "depth"),
    "n": (int, _int, "number of samples"),
    "seed": (int, _seed, "seed of the counter-based RNG"),
    "workers": (int, _positive_int, "worker processes (unset: HJB_WORKERS, else the available parallelism)"),
    "tol": (float, float, "solver tolerance (unset in validate: the dataset's / 10)"),
    "lebesgue": (str, _lebesgue, "Lebesgue constants: bound|numeric"),
    "noise": (float, float, "uniform noise amplitude, fraction of halfwidth"),
    "hz": (float, _positive_float, "sampling rate"),
    "tmax": (float, float, "simulated time (unset: the problem's horizon)"),
}


def _workers(value) -> int:
    """The resolved --workers setting, else HJB_WORKERS, else the CPUs this process may run on."""
    if value is not None:
        return value
    if env := os.environ.get("HJB_WORKERS"):
        return _read("HJB_WORKERS", env, _positive_int)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _lo_hi(axis: str) -> tuple[float, float]:
    """An axis 'lo:hi'; a field that is not a number, or not exactly two fields, raises ValueError."""
    lo, hi = (float(v) for v in axis.split(":"))
    return lo, hi


def _parse_domain(text: str, d: int) -> Box:
    axes = [_read(f"--domain axis {k} 'lo:hi'", axis, _lo_hi) for k, axis in enumerate(text.split(","), start=1)]
    if len(axes) != d:
        raise HjbSparseError(f"--domain needs {d} axes 'lo:hi', got {len(axes)}")
    return Box(*zip(*axes))


def _vector(text: str) -> np.ndarray:
    return np.array([float(v) for v in text.split(",")])


class _Run:
    """Collects resolved config, seeds and file digests for the manifest."""

    def __init__(self, argv: list[str], out: str):
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
        manifest = {
            "command": self.argv,
            "config": self.config,
            "version": __version__,
            "seeds": self.seeds,
            "started": self.started,
            "finished": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "inputs": self.inputs,
            "outputs": {p: sha256_file(p) for p in [str(self.out), *self.outputs] if Path(p).exists()},
        }
        _write_json(str(self.out) + ".manifest.json", manifest)


def _write_json(path, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=json_default)


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise HjbSparseError(f"{path} must hold a JSON object")
    return cfg


def _read(name: str, value, convert):
    """convert(value); a value it refuses raises HjbSparseError naming the setting."""
    try:
        return convert(value)
    except (TypeError, ValueError, AttributeError) as exc:
        raise HjbSparseError(f"{name}: cannot read {value!r} ({exc})") from None


def _load_dataset(args, run: _Run):
    """The dataset's solution and grid, and the problem its header specifies, whose domain must be the grid's
    and whose n every costate must have."""
    run.add_input(args.dataset)
    _, solution, grid = load_jsonl(args.dataset)
    try:
        problem = problem_from_spec(solution.header["problem"])
    except ValueError as exc:
        raise HjbSparseError(f"{args.dataset} line 1: {exc}") from exc
    if problem.domain.as_json() != grid.domain.as_json():
        raise HjbSparseError(f"{args.dataset} line 1: the problem's domain {problem.domain.as_json()} "
                             f"is not the grid's {grid.domain.as_json()}")
    for r in solution.records:
        if len(r.lam) != problem.n:
            raise HjbSparseError(f"{args.dataset} line {r.point_id + 2}: 'lam' has {len(r.lam)} entries, "
                                 f"expected the problem's n = {problem.n}")
    return problem, solution, grid


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_grid(args, run: _Run) -> int:
    family, d, q = args.family, args.d, args.q
    domain = _parse_domain(args.domain, d) if args.domain else Box((0.0,) * d, (1.0,) * d)
    run.config["domain"] = domain.as_json()
    grid = build_grid(family, d, q, domain)
    payload = grid.info()
    payload["dense_count"] = dense_size(family, d, q)
    payload["count_formula"] = grid_size(family, d, q)
    _write_json(args.out, payload)
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


def cmd_sweep(args, run: _Run) -> int:
    spec = make_problem(args.problem, args.domain_id or "d1").spec()
    if args.problem_config:
        run.add_input(args.problem_config)
        spec["params"].update(_load_config_file(args.problem_config))
    problem = problem_from_spec(spec)
    run.config["problem"] = problem.spec()
    workers = run.config["workers"] = _workers(args.workers)
    grid = build_grid(args.family, problem.domain.d, args.q, problem.domain)
    solution = sweep(problem, grid, tol=args.tol, workers=workers)
    solution.save_jsonl(args.out, grid)
    n_fail = len(solution.failures)
    run.config.update({"points": len(grid), "converged": len(grid) - n_fail, "failed": n_fail})
    print(f"points={len(grid)} converged={len(grid) - n_fail} failed={n_fail} out={args.out}")
    return 0


def cmd_fit(args, run: _Run) -> int:
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
    _write_json(args.out, payload)
    print(f"fitted {len(grid)} points; max |V surplus| = {payload['max_abs_value_surplus']}")
    return 0


def cmd_interp(args, run: _Run) -> int:
    problem, solution, grid = _load_dataset(args, run)
    law = fit_feedback(problem, grid, solution)
    pts = [_read("--at", a, _vector) for a in args.at]
    rows = []
    for p, (t, x) in zip(pts, point_args(problem, pts)):
        lam = law.costate_at(t, x)
        u = law.control(t, x)
        rows.append({"point": p, "t": t, "V": law.value_at(t, x), "lam": lam, "u": u})
        print(f"at {p.tolist()}: V={rows[-1]['V']} u={u.tolist()}")
    _write_json(args.out, {"dataset": str(args.dataset), "evaluations": rows})
    return 0


def cmd_bound(args, run: _Run) -> int:
    report = worst_case_coefficient(args.family, args.d, args.q, lebesgue_mode=args.lebesgue)
    _write_json(args.out, report.__dict__)
    print(f"coefficient={report.coefficient:.6g} "
          f"(family={args.family.value} d={args.d} q={args.q} mode={args.lebesgue})")
    return 0


def cmd_mc_ebvp(args, run: _Run) -> int:
    report = mc_ebvp(args.family, args.d, args.q, n_eval=args.n, seed=args.seed)
    payload = {k: v for k, v in report.__dict__.items() if k != "ratios"}
    _write_json(args.out, payload)
    print(f"max |e_BVP/eps| = {report.max_ratio:.4f} over {args.n} points (seed={args.seed})")
    return 0


def cmd_validate(args, run: _Run) -> int:
    problem, solution, grid = _load_dataset(args, run)
    if args.tol is None:  # the oracle stays 10x tighter than the sweep it checks
        args.tol = run.config["tol"] = float(solution.header["tolerance"]) / 10
    workers = run.config["workers"] = _workers(args.workers)
    law = fit_feedback(problem, grid, solution)
    report = validate(problem, law, n_samples=args.n, tight_tol=args.tol, seed=args.seed, workers=workers)
    _write_json(args.out, asdict(report))
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


def cmd_mpc(args, run: _Run) -> int:
    problem, solution, grid = _load_dataset(args, run)
    x0 = check_x0(problem, _read("--x0", args.x0, _vector))
    t_max = run.config["tmax"] = problem.horizon if args.tmax is None else args.tmax
    dt = 1.0 / args.hz
    run.config.update({"dt": dt, "x0": x0.tolist()})
    mode = HorizonMode.TIME_IN_GRID if problem.time_in_grid else HorizonMode.FIXED_INITIAL
    run.config["horizon_mode"] = mode.value
    problem = problem.specialize(0.0, x0)  # as simulate does; solves Example II's target attitude once
    if getattr(problem, "target_attitude", None) is not None:
        run.config["target_attitude"] = problem.target_attitude.tolist()
    law = fit_feedback(problem, grid, solution)
    config = MpcConfig(dt=dt, t_max=t_max, noise_fraction=args.noise, horizon_mode=mode, seed=args.seed)
    traj = simulate(problem, law, x0, config)
    emit_trajectory(traj, args.out, problem)
    run.config.update({"status": traj.status, "samples": len(traj.times),
                       "clamps": len(traj.clamp_events)})
    print(f"status={traj.status} samples={len(traj.times)} "
          f"final_cost={traj.accumulated_cost[-1]} clamps={len(traj.clamp_events)}")
    return 0


def cmd_order_check(args, run: _Run) -> int:
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
    from .util import make_rng
    rng = make_rng(args.seed)
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
    _write_json(args.out, payload)
    print(f"bvp orders: linear={fit_sin.order:.3f} nonlinear={fit_exp.order:.3f}; "
          f"interp slope={slope:.3f}; growth degree={rate.fitted_degree:.3f}")
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hjbsparse",
                                     description="Sparse-grid characteristics toolkit for optimal feedback control")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out_default, handler, **settings):
        """The flag of each setting the command reads (its --config keys), --config and --out, and the handler.

        settings maps each setting to its default: a value, REQUIRED, or None when the handler works it out.
        """
        for name, default in settings.items():
            kind, _, text = _SETTINGS[name]
            shown = "" if default is None else " (required)" if default is REQUIRED else f" (default: {default})"
            p.add_argument(f"--{name}", type=kind, default=None, help=text + shown)
        p.add_argument("--config", default=None, help="JSON config file (flags override it)")
        p.add_argument("--out", default=out_default, help="machine-readable output path")
        p.set_defaults(handler=handler, settings=settings)

    p = sub.add_parser("grid", help="construct a sparse grid and report counts")
    p.add_argument("--domain", default=None, help="comma-separated lo:hi per axis (default unit cube)")
    p.add_argument("--points-csv", default=None, help="also write the full point list as CSV")
    common(p, "grid.json", cmd_grid, family="cgl", d=REQUIRED, q=REQUIRED)

    p = sub.add_parser("sweep", help="solve the characteristic BVP at every grid point")
    p.add_argument("--problem", required=True)
    p.add_argument("--domain-id", default=None, choices=["d1", "d2"])
    p.add_argument("--problem-config", default=None,
                   help="JSON object overriding AttitudeParams fields (B, J, H, W, T, domain)")
    common(p, "ds.jsonl", cmd_sweep, family="cgl", q=REQUIRED, tol=1e-6, workers=None)

    p = sub.add_parser("fit", help="fit hierarchical surpluses from a sweep dataset")
    p.add_argument("--dataset", required=True)
    common(p, "fit.json", cmd_fit)

    p = sub.add_parser("interp", help="evaluate interpolated V, costate and control at points")
    p.add_argument("--dataset", required=True)
    p.add_argument("--at", action="append", required=True,
                   help="comma-separated point, repeatable; includes t first for time-in-grid problems")
    common(p, "interp.json", cmd_interp)

    p = sub.add_parser("bound", help="worst-case error amplification coefficient")
    common(p, "bound.json", cmd_bound, family="cgl", d=REQUIRED, q=REQUIRED, lebesgue="bound")

    p = sub.add_parser("mc-ebvp", help="Monte-Carlo estimate of the error functional")
    common(p, "mc.json", cmd_mc_ebvp, family="cgl", d=REQUIRED, q=REQUIRED, n=2000, seed=0)

    p = sub.add_parser("validate", help="compare interpolant against tight-tolerance solves")
    p.add_argument("--dataset", required=True)
    common(p, "report.json", cmd_validate, n=300, tol=None, seed=0, workers=None)

    p = sub.add_parser("mpc", help="closed-loop zero-order-hold simulation")
    p.add_argument("--dataset", required=True)
    p.add_argument("--x0", required=True, help="comma-separated initial state")
    common(p, "traj.csv", cmd_mpc, noise=0.0, seed=0, tmax=None, hz=10.0)

    p = sub.add_parser("order-check", help="convergence-order harness for the solver and interpolation")
    common(p, "order.json", cmd_order_check, seed=0)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    run = _Run(argv=argv, out=args.out)
    try:
        cfg = _load_config_file(args.config)
        unread = sorted(set(cfg) - set(args.settings))
        if unread:
            raise HjbSparseError(f"{args.config}: {args.command} reads no config key {', '.join(map(repr, unread))}")
        if args.config:
            run.add_input(args.config)
        for name, default in args.settings.items():
            flag = getattr(args, name)
            value = cfg.get(name, default) if flag is None else flag
            if value is REQUIRED:
                parser.error(f"{args.command} requires --{name}, as a flag or a --config entry")
            run.config[name] = value
            if value is not None or name in cfg:
                value = _read(name, value, _SETTINGS[name][1])
            setattr(args, name, value)
        if "seed" in args.settings:
            run.seeds.append(args.seed)
        code = args.handler(args, run)
        run.write_manifest()
        return code
    except (HjbSparseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
