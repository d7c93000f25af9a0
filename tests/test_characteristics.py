import json
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hamiltonian_oracle import hamiltonian
from scipy.integrate import quad

import hjbsparse.bvp as bvpmod
import hjbsparse.characteristics as chmod
import hjbsparse.problems as problems
from hjbsparse.bvp import BvpStatus, solve as bvp_solve
from hjbsparse.characteristics import (
    CharacteristicRecord,
    ControlProblem,
    GridSolution,
    assemble_bvp,
    fit_feedback,
    load_jsonl,
    map_chunks,
    point_args,
    solve_point,
    sweep,
)
from hjbsparse.exceptions import FitError, OutOfDomainError, SweepError
from hjbsparse.grid import Box, NodeFamily, build_grid
from hjbsparse.problems import make_example2, problem_from_spec

ROOT = Path(__file__).resolve().parent.parent


class ToyLqr(ControlProblem):
    """Scalar integrator with quadratic costs; V(t,x) = x^2 / (2 (1 + T - t))."""

    name = "toylqr"
    n = 1
    m = 1
    horizon = 1.0
    domain = Box((-1.0,), (1.0,))
    time_in_grid = False
    state_labels = ("x",)
    control_labels = ("u",)

    def f(self, t, x, u):
        return u

    def L(self, t, x, u):
        return 0.5 * u[0] ** 2

    def h(self, x):
        return 0.5 * float(x[0]) ** 2

    def h_x(self, x):
        return np.array(x, dtype=float)

    def u_star(self, t, x, lam):
        return -lam

    def H_x(self, t, x, lam, u):
        return np.zeros_like(x)

    @staticmethod
    def value(t, x):
        return x**2 / (2.0 * (1.0 + 1.0 - t))


class PureDecay(ControlProblem):
    """No running cost: V(t, x) = h(x e^{-(T-t)}); the control is inert."""

    name = "puredecay"
    n = 1
    m = 1
    horizon = 2.0
    domain = Box((-1.0,), (1.0,))
    time_in_grid = False
    state_labels = ("x",)
    control_labels = ("u",)

    def f(self, t, x, u):
        return -x

    def L(self, t, x, u):
        return np.zeros(x.shape[1])

    def h(self, x):
        return float(x[0]) ** 2

    def h_x(self, x):
        return 2.0 * np.asarray(x, dtype=float)

    def u_star(self, t, x, lam):
        return np.zeros((1, x.shape[1]))

    def H_x(self, t, x, lam, u):
        return -lam


def test_H_x_has_no_default():
    # a problem supplies its closed form; the finite-difference H_x is a test oracle only
    x = np.zeros((1, 1))
    with pytest.raises(NotImplementedError):
        ControlProblem().H_x(0.0, x, x, x)


class TestAssembleBvp:
    def test_dimension_and_boundary_structure(self, ex3):
        x0 = np.array([0.5, -0.3, 1.0])
        bp = assemble_bvp(ex3, 0.0, x0, tol=1e-8)
        assert bp.ndim == 2 * 3
        ya = np.concatenate([x0, [0.1, 0.2, 0.3]])
        yb = np.concatenate([[1.0, 2.0, 3.0], [0.4, 0.5, 0.6]])
        res = bp.bc(ya, yb)
        assert res.shape == (6,)
        assert np.abs(res[:3]).max() == 0.0          # x(t0) - x0
        # terminal cost is zero, so the costate condition is lam(T) = 0
        assert np.array_equal(res[3:6], yb[3:6])

    def test_rhs_matches_explicit_dynamics(self, ex3):
        x0 = np.array([0.2, 0.4, -1.0])
        bp = assemble_bvp(ex3, 0.0, x0, tol=1e-8)
        s = np.array([0.7, 1.3])
        y = np.vstack([np.tile(x0[:, None], 2) + 0.05, np.full((3, 2), 0.2)])
        got = bp.rhs(s, y)
        x, lam = y[:3], y[3:6]
        u = ex3.u_star(s, x, lam)
        assert got.shape == (6, 2)
        assert np.allclose(got[:3], ex3.f(s, x, u), atol=1e-14)
        assert np.allclose(got[:3][0], -x[0] + x[1], atol=1e-14)
        assert np.allclose(got[3:], -ex3.H_x(s, x, lam, u), atol=1e-14)

    def test_pure_terminal_cost_value(self):
        # L = 0: the running cost integrates to zero and V = h(x(T))
        p = PureDecay()
        rec = solve_point(p, 0.0, np.array([0.8]), tol=1e-10)
        sol = bvp_solve(assemble_bvp(p, 0.0, np.array([0.8]), tol=1e-10))
        assert rec.converged
        x_T = 0.8 * math.exp(-p.horizon)
        assert rec.V == pytest.approx(x_T**2, rel=1e-8)
        assert sol.integrate(lambda s, y: p.L(s, y[:1], p.u_star(s, y[:1], y[1:]))) == 0.0
        assert rec.V == p.h(sol.y[:1, -1])

    def test_toy_lqr_value_and_costate(self):
        p = ToyLqr()
        for x0 in (0.3, -0.9):
            rec = solve_point(p, 0.0, np.array([x0]), tol=1e-10)
            assert rec.converged
            assert rec.V == pytest.approx(ToyLqr.value(0.0, x0), abs=1e-9)
            assert rec.lam[0] == pytest.approx(x0 / 2.0, abs=1e-8)  # V_x at t=0


class TestSolvePoint:
    def test_example3_reference_point(self, ex3):
        rec = solve_point(ex3, 0.0, np.array([0.0, 0.0, 1.0]), tol=1e-9)
        assert rec.converged
        assert rec.V == pytest.approx(0.49995460, abs=1e-6)
        u = ex3.u_star(0.0, np.array([[0.0], [0.0], [1.0]]), rec.lam[:, None])
        assert u[0, 0] == pytest.approx(-0.99990920, abs=1e-6)

    def test_example3_zero_cost_plane(self, ex3):
        rec = solve_point(ex3, 1.0, np.array([0.7, -0.4, 0.0]), tol=1e-9)
        assert rec.converged
        assert abs(rec.V) < 1e-9
        assert np.abs(rec.lam).max() < 1e-7

    def test_example1_origin(self, ex1):
        rec = solve_point(ex1, 0.0, np.zeros(6), tol=1e-12)
        assert rec.converged
        assert abs(rec.V) <= 1e-6

    @pytest.mark.parametrize("pid", [245, 248])
    def test_example3_hard_points_converge(self, ex3, pid):
        # t0 = 0, x = (0, 0, -+1.848) converge only if every Armijo test compares two
        # residual norms under one scale
        t0, *x0 = build_grid(NodeFamily.CGL, 4, 9, ex3.domain).phys[pid]
        assert (t0, x0[0], x0[1]) == (0.0, 0.0, 0.0) and abs(x0[2]) == pytest.approx(1.848, abs=1e-3)
        rec = solve_point(ex3, t0, np.array(x0), tol=1e-8, point_id=pid)
        assert rec.status == BvpStatus.CONVERGED.value
        assert rec.V == pytest.approx(problems.example3_value(t0, *x0), abs=1e-6)

    def test_example1_point_converges_without_continuation(self, ex1, monkeypatch):
        # x = (pi/6, pi/6, 0, 0, pi/8, pi/8) needs the max-norm merit: a 2-norm line search
        # fails it at tol 1e-5..1e-8
        x0 = build_grid(NodeFamily.CGL, 6, 10, ex1.domain).phys[1164]
        assert np.allclose(x0, [math.pi / 6, math.pi / 6, 0.0, 0.0, math.pi / 8, math.pi / 8], rtol=0, atol=1e-15)
        jacobians = []
        jacobian = bvpmod._Collocation.jacobian
        monkeypatch.setattr(bvpmod._Collocation, "jacobian",
                            lambda self, y, f: jacobians.append(1) or jacobian(self, y, f))
        rec = solve_point(ex1, 0.0, x0, tol=1e-6, point_id=1164)
        assert rec.converged and not rec.cont
        assert 0 < len(jacobians) < rec.newton          # some steps ran on kept factors

    @pytest.mark.parametrize("example, d, q, pid", [("ex1", 6, 10, 1164), ("ex3", 4, 9, 245)])
    def test_resolve_is_bit_identical(self, example, d, q, pid, request):
        # criterion 9 needs the refresh decisions of kept-factor Newton to be deterministic
        problem = request.getfixturevalue(example)
        grid = build_grid(NodeFamily.CGL, d, q, problem.domain)
        [(t0, x0)] = point_args(problem, grid.phys[pid : pid + 1])
        first, again = (GridSolution({}, [solve_point(problem, t0, x0, tol=1e-8, point_id=pid)]) for _ in range(2))
        assert first.records[0].converged
        assert first.record_lines(grid) == again.record_lines(grid)

    def test_degenerate_horizon_uses_terminal_data(self, ex3):
        rec = solve_point(ex3, 5.0, np.array([1.0, 1.0, 1.0]), tol=1e-9)
        assert rec.converged
        assert rec.V == 0.0
        assert rec.mesh == 0

    def test_example2_specializes_once(self, monkeypatch):
        p2 = make_example2()
        x0 = np.array([0.1, -0.05, 0.08, 0.02, 0.01, -0.03])
        calls = []
        target = problems.optimal_attitude
        monkeypatch.setattr(problems, "optimal_attitude", lambda *a: calls.append(a) or target(*a))
        rec = solve_point(p2, 0.0, x0, tol=1e-8)
        assert len(calls) == 1
        # the record equals the one built from the unspecialized problem and a second target solve
        sol = bvp_solve(assemble_bvp(p2, 0.0, x0, tol=1e-8))
        assert sol.status is BvpStatus.CONVERGED
        frozen = p2.specialize(0.0, x0)
        cost = sol.integrate(lambda s, y: frozen.L(s, y[:6], frozen.u_star(s, y[:6], y[6:])))
        assert rec.V == float(frozen.h(sol.y[:6, -1]) + cost)
        assert np.array_equal(rec.lam, sol.y[6:12, 0])
        assert (rec.residual, rec.mesh) == (sol.est_residual, sol.n_nodes)

    def test_failure_never_fabricates_value(self, ex3, monkeypatch):
        def bad_solve(problem):
            sol = bvp_solve(problem)
            sol.status = BvpStatus.NEWTON_DIVERGED
            return sol

        monkeypatch.setattr(chmod, "bvp_solve", bad_solve)
        rec = solve_point(ex3, 0.5, np.array([0.1, 0.1, 0.5]), tol=1e-8)
        assert not rec.converged
        assert math.isnan(rec.V)
        assert np.all(np.isnan(rec.lam))

    def test_counters_sum_over_every_solve(self, ex3, monkeypatch):
        solves = []

        def counted(problem):
            sol = bvp_solve(problem)
            solves.append(sol)
            return sol

        monkeypatch.setattr(chmod, "bvp_solve", counted)
        rec = solve_point(ex3, 0.5, np.array([0.1, 0.1, 0.5]), tol=1e-8)
        assert rec.converged and len(solves) == 1 and not rec.cont
        assert (rec.newton, rec.meshes) == (solves[0].newton_iterations, solves[0].meshes_tried)
        assert rec.newton > 0

        def failing(problem):
            sol = counted(problem)
            sol.status = BvpStatus.NEWTON_DIVERGED
            return sol

        solves.clear()
        monkeypatch.setattr(chmod, "bvp_solve", failing)
        rec = solve_point(ex3, 0.5, np.array([0.1, 0.1, 0.5]), tol=1e-8)
        assert rec.cont and len(solves) == 2      # the direct solve and the first continuation stage
        assert rec.newton == sum(s.newton_iterations for s in solves)
        assert rec.meshes == sum(s.meshes_tried for s in solves)

    def test_infeasible_target_gives_a_failed_record(self):
        spec = make_example2().spec()
        spec["params"]["H"] = [0.1, 0.1, 0.05]
        rec = solve_point(problem_from_spec(spec), 0.0, np.array([0.0, 0.0, 0.0, 0.0, 0.0, math.pi / 8]), tol=1e-8)
        assert rec.status == "InfeasibleTarget" and not rec.converged
        assert math.isnan(rec.V) and np.all(np.isnan(rec.lam))
        assert (rec.mesh, rec.newton, rec.meshes, rec.cont) == (0, 0, 0, False)

    def test_value_consistency_along_characteristic(self, ex3):
        # dynamic programming along the characteristic: re-solving from a
        # midpoint reproduces V(t0) minus the running cost up to t_mid, which
        # quad integrates along the collocation polynomial
        t0, x0 = 1.0, np.array([0.8, -0.5, 1.2])
        tol = 1e-9
        rec = solve_point(ex3, t0, x0, tol=tol)
        sol = bvp_solve(assemble_bvp(ex3, t0, x0, tol))
        assert rec.converged and not rec.cont
        t_mid = 2.5

        def running_cost(s):
            y = sol.interpolate([s])
            return float(ex3.L(s, y[:3], ex3.u_star(s, y[:3], y[3:]))[0])

        inner = sol.mesh[(sol.mesh > t0) & (sol.mesh < t_mid)]
        cost_mid = quad(running_cost, t0, t_mid, points=inner, limit=4 * len(sol.mesh), epsabs=1e-13)[0]
        rec_mid = solve_point(ex3, t_mid, sol.interpolate(t_mid)[:3], tol=tol)
        assert rec_mid.converged
        assert rec_mid.V == pytest.approx(rec.V - cost_mid, abs=10 * tol)

    def test_hamiltonian_stationarity_along_trajectory(self, ex3):
        sol = bvp_solve(assemble_bvp(ex3, 0.0, np.array([0.6, 0.2, -1.1]), tol=1e-9))
        assert sol.status is BvpStatus.CONVERGED
        times = np.linspace(0.0, 5.0, 10)
        y = sol.interpolate(times)
        x, lam = y[:3], y[3:6]
        u0 = ex3.u_star(times, x, lam)
        eps = 1e-7
        dh = (hamiltonian(ex3, times, x, lam, u0 + eps) - hamiltonian(ex3, times, x, lam, u0 - eps)) / (2 * eps)
        assert np.abs(dh).max() <= 1e-5


class TestSweep:
    def test_single_point_grid(self):
        p = ToyLqr()
        grid = build_grid(NodeFamily.MODIFIED, 1, 1, p.domain)
        assert len(grid) == 1
        sol = sweep(p, grid, tol=1e-9, workers=1)
        assert len(sol.records) == 1
        assert sol.records[0].V == pytest.approx(ToyLqr.value(0.0, 0.0), abs=1e-9)

    def test_worker_count_invariance(self, ex3):
        grid = build_grid(NodeFamily.CGL, 4, 6, ex3.domain)
        s1 = sweep(ex3, grid, tol=1e-8, workers=1)
        s2 = sweep(ex3, grid, tol=1e-8, workers=2)
        assert s1.record_lines(grid) == s2.record_lines(grid)

    def test_domain_mismatch_rejected(self, ex3):
        grid = build_grid(NodeFamily.CGL, 4, 6, Box((0.0, -1.0, -1.0, -1.0), (5.0, 1.0, 1.0, 1.0)))
        with pytest.raises(SweepError):
            sweep(ex3, grid, tol=1e-8, workers=1)

    def test_failure_threshold(self, ex3, monkeypatch):
        real = chmod.solve_point

        def flaky(problem, t0, x0, tol, point_id=0):
            rec = real(problem, t0, x0, tol, point_id=point_id)
            if point_id % 3 == 0:
                rec = CharacteristicRecord(point_id, float("nan"), np.full(problem.n, np.nan),
                                           BvpStatus.NEWTON_DIVERGED.value, 1.0, rec.mesh)
            return rec

        monkeypatch.setattr(chmod, "solve_point", flaky)
        grid = build_grid(NodeFamily.CGL, 4, 5, ex3.domain)
        with pytest.raises(SweepError):
            sweep(ex3, grid, tol=1e-8, workers=1)
        # a third of the points fail: the limit is the module's failure share
        monkeypatch.setattr(chmod, "_MAX_SWEEP_FAILURES", 0.5)
        assert len(sweep(ex3, grid, tol=1e-8, workers=1).failures) == (len(grid) + 2) // 3

    def test_infeasible_targets_do_not_abort_the_sweep(self, workers, monkeypatch):
        # H = [0.1, 0.1, 0.05]: at 2 of the 13 points of CGL d6 q7 |c0| > |H|
        spec = make_example2().spec()
        spec["params"]["H"] = [0.1, 0.1, 0.05]
        problem = problem_from_spec(spec)
        grid = build_grid(NodeFamily.CGL, 6, 7, problem.domain)
        with pytest.raises(SweepError, match=r"2/13 grid points failed to solve \(InfeasibleTarget 2: "):
            sweep(problem, grid, tol=1e-8, workers=workers)
        monkeypatch.setattr(chmod, "_MAX_SWEEP_FAILURES", 1.0)
        sol = sweep(problem, grid, tol=1e-8, workers=workers)
        statuses = [r.status for r in sol.records]
        assert statuses.count(BvpStatus.CONVERGED.value) == 11
        assert statuses.count("InfeasibleTarget") == 2

    def test_dataset_round_trip(self, tmp_path, ex3):
        grid = build_grid(NodeFamily.CGL, 4, 6, ex3.domain)
        sol = sweep(ex3, grid, tol=1e-8, workers=2)
        path = tmp_path / "ds.jsonl"
        sol.save_jsonl(path, grid)
        header, loaded, grid2 = load_jsonl(path)
        assert header["problem"]["id"] == "example3"
        assert len(loaded.records) == len(grid) == len(grid2)
        for a, b in zip(sol.records, loaded.records):
            assert a.point_id == b.point_id
            assert a.V == b.V
            assert np.array_equal(a.lam, b.lam)
            assert a.status == b.status and a.residual == b.residual and a.mesh == b.mesh
            assert (a.newton, a.meshes, a.cont) == (b.newton, b.meshes, b.cont)

    def test_readme_dataset_example_has_the_written_keys(self, ex3, tmp_path):
        """README's example header and record carry exactly the keys sweep and record_lines write, in order."""
        grid = build_grid(NodeFamily.CGL, 4, 4, ex3.domain)
        path = tmp_path / "ds.jsonl"
        sweep(ex3, grid, tol=1e-8, workers=1).save_jsonl(path, grid)
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        example = readme.split("### Dataset format")[1].split("```")[1].strip().splitlines()
        for documented, written in zip(example, path.read_text().splitlines(), strict=True):
            assert list(json.loads(documented.replace("...", "null"))) == list(json.loads(written))

    def test_causality_freedom_bit_identical_resolve(self, ex3):
        grid = build_grid(NodeFamily.CGL, 4, 6, ex3.domain)
        sol = sweep(ex3, grid, tol=1e-8, workers=2)
        rng = np.random.default_rng(0)
        subset = rng.choice(len(grid), size=max(1, len(grid) // 20), replace=False)
        for pid in subset:
            t0, x0 = (float(grid.phys[pid][0]), grid.phys[pid][1:])
            again = solve_point(ex3, t0, x0, tol=1e-8, point_id=int(pid))
            old = sol.records[pid]
            assert repr(again.V) == repr(old.V)
            assert [repr(v) for v in again.lam] == [repr(v) for v in old.lam]


# Chunk functions of the pool tests, module-level so that workers find them by name.
# map_chunks passes (problem, tol, chunk); these use the problem slot for their own data.

def _pid_chunk(args):
    time.sleep(0.02)                # each chunk holds its worker, so every worker takes one
    return [(item, os.getpid()) for item in args[2]]


def _exit_chunk(args):
    if 0 in args[2]:
        os._exit(1)
    return _pid_chunk(args)


def _raising_chunk(args):
    marks, _, items = args
    if 0 in items:
        raise ValueError("chunk 0")
    (Path(marks) / f"start-{items[0]}").touch()
    time.sleep(0.2)
    (Path(marks) / f"end-{items[0]}").touch()
    return items


class _OtherPool(ProcessPoolExecutor):
    """A pool class bound in place of ProcessPoolExecutor; counts the pools built from it."""

    built = 0

    def __init__(self, *args, **kwargs):
        type(self).built += 1
        super().__init__(*args, **kwargs)


def _running(pid):
    """Whether pid is a process that has not exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


def _map_in_child():
    map_chunks(_pid_chunk, None, 0.0, list(range(8)), 2)


class TestProcessPool:
    """map_chunks keeps one pool per process and worker count."""

    @staticmethod
    def pids(workers):
        out = map_chunks(_pid_chunk, None, 0.0, list(range(8)), workers)
        assert [item for item, _ in out] == list(range(8))
        return {pid for _, pid in out}

    def test_calls_reuse_the_workers(self):
        first, second = self.pids(2), self.pids(2)
        assert os.getpid() not in first
        assert len(first | second) <= 2             # a fresh pool would bring two new pids

    def test_another_worker_count_forks_new_workers(self):
        two = self.pids(2)
        three = self.pids(3)
        assert not three & two
        assert not self.pids(2) & (two | three)

    def test_threads_with_different_worker_counts_take_turns(self):
        failures = []

        def maps(workers):
            try:
                for _ in range(3):
                    self.pids(workers)
            except Exception as exc:                 # a pool dropped under a running map
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=maps, args=(workers,)) for workers in (2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_a_rebound_pool_class_gets_its_own_pool(self, monkeypatch):
        plain = self.pids(2)
        monkeypatch.setattr(chmod, "ProcessPoolExecutor", _OtherPool)
        built = _OtherPool.built
        other = self.pids(2)
        assert _OtherPool.built == built + 1 and not other & plain
        monkeypatch.undo()
        assert not self.pids(2) & other

    def test_a_dead_worker_fails_its_map_and_the_next_gets_a_fresh_pool(self):
        before = self.pids(2)
        with pytest.raises(BrokenProcessPool):
            map_chunks(_exit_chunk, None, 0.0, list(range(8)), 2)
        assert not self.pids(2) & before

    def test_a_worker_killed_between_maps_is_replaced(self):
        before = self.pids(2)
        dead = min(before)
        os.kill(dead, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while _running(dead):                        # map as soon as the worker is gone,
            assert time.monotonic() < deadline       # whether or not the pool has seen it yet
            time.sleep(0.001)
        assert not self.pids(2) & before

    def test_a_raising_chunk_leaves_no_chunk_running(self, tmp_path):
        self.pids(2)
        with pytest.raises(ValueError, match="chunk 0"):
            map_chunks(_raising_chunk, str(tmp_path), 0.0, list(range(8)), 2)
        started = {p.name[6:] for p in tmp_path.glob("start-*")}
        assert started == {p.name[4:] for p in tmp_path.glob("end-*")}
        assert len(started) < 7                      # queued chunks were cancelled
        time.sleep(0.3)
        assert {p.name[6:] for p in tmp_path.glob("start-*")} == started
        assert self.pids(2)

    def test_a_process_exits_with_its_workers(self):
        script = ("import multiprocessing\n"
                  "from hjbsparse.characteristics import sweep\n"
                  "from hjbsparse.grid import NodeFamily, build_grid\n"
                  "from hjbsparse.problems import make_example3\n"
                  "problem = make_example3()\n"
                  "grid = build_grid(NodeFamily.CGL, 4, 5, problem.domain)\n"
                  "first = sweep(problem, grid, tol=1e-6, workers=2).record_lines(grid)\n"
                  "assert sweep(problem, grid, tol=1e-6, workers=2).record_lines(grid) == first\n"
                  "print(*[p.pid for p in multiprocessing.active_children()])\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                             timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        pids = [int(pid) for pid in out.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_a_multiprocessing_child_exits_with_its_workers(self):
        self.pids(2)                                 # the child inherits this process's pool
        child = multiprocessing.get_context("fork").Process(target=_map_in_child)
        child.start()
        child.join(timeout=30)
        alive = child.is_alive()
        if alive:                                    # end the child and the workers it would orphan
            workers = Path(f"/proc/{child.pid}/task/{child.pid}/children").read_text().split()
            for pid in [child.pid, *map(int, workers)]:
                os.kill(pid, signal.SIGKILL)
            child.join(timeout=30)
        assert not alive and child.exitcode == 0


class TestFeedback:
    def test_costate_exact_at_grid_points(self, ex3, ex3_q9):
        grid, sol, law = ex3_q9
        pid = int(np.argmax(np.abs(grid.phys[:, 3])))  # strongest costate
        t0, x0 = float(grid.phys[pid][0]), grid.phys[pid][1:]
        lam_hat = law.costate_at(t0, x0)
        assert np.abs(lam_hat - sol.records[pid].lam).max() < 1e-8
        u = law.control(t0, x0)
        u_direct = ex3.u_star(t0, x0[:, None], sol.records[pid].lam[:, None])[:, 0]
        assert np.abs(u - u_direct).max() < 1e-8

    def test_zero_costate_gives_zero_control(self, ex3, ex3_q9):
        grid, sol, law = ex3_q9
        u = law.control(0.0, np.array([0.3, 0.3, 0.0]))
        # quadratic control cost: u = -D * lam3; lam is small on the zero-cost plane
        assert np.abs(u).max() < 0.05

    def test_out_of_domain_raises(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        with pytest.raises(OutOfDomainError):
            law.control(0.0, np.array([3.0, 0.0, 0.0]))

    def test_fit_refuses_coarse_failures(self, ex3):
        grid = build_grid(NodeFamily.CGL, 4, 6, ex3.domain)
        sol = sweep(ex3, grid, tol=1e-8, workers=2)
        bad = GridSolution(header=sol.header, records=list(sol.records))
        r0 = bad.records[0]
        bad.records[0] = CharacteristicRecord(r0.point_id, float("nan"), np.full(3, np.nan),
                                              BvpStatus.NEWTON_DIVERGED.value, 1.0, r0.mesh)
        with pytest.raises(FitError):
            fit_feedback(ex3, grid, bad)

    def test_fit_zeroes_failed_points_above_coarse_levels(self, ex3, ex3_q9):
        grid, sol, _ = ex3_q9
        level_sum = grid.levels.sum(axis=1)
        rng = np.random.default_rng(3)
        failed = [int(rng.choice(np.flatnonzero(level_sum == l))) for l in range(grid.d + 2, grid.q + 1)]
        patched = GridSolution(header=sol.header, records=list(sol.records))
        for i in failed:
            r = patched.records[i]
            patched.records[i] = CharacteristicRecord(r.point_id, float("nan"), np.full(3, np.nan),
                                                      BvpStatus.NEWTON_DIVERGED.value, 1.0, r.mesh)
        law = fit_feedback(ex3, grid, patched)
        ok = patched.ok_mask()
        for it, samples in ((law.value, patched.value_array()), (law.costate, patched.costate_array())):
            assert np.all(it.surpluses[failed] == 0.0)
            assert np.all(np.isfinite(it.surpluses))
            err = np.abs(np.asarray(it.eval(grid.ref))[ok] - samples[ok]).max()
            assert err <= 1e-12 * np.abs(samples[ok]).max()

    def test_fit_tolerates_deep_failures(self, ex3):
        grid = build_grid(NodeFamily.CGL, 4, 6, ex3.domain)
        sol = sweep(ex3, grid, tol=1e-8, workers=2)
        deep = int(np.nonzero(grid.levels.sum(axis=1) == grid.q)[0][0])
        patched = GridSolution(header=sol.header, records=list(sol.records))
        r = patched.records[deep]
        patched.records[deep] = CharacteristicRecord(r.point_id, float("nan"), np.full(3, np.nan),
                                                     BvpStatus.NEWTON_DIVERGED.value, 1.0, r.mesh)
        law = fit_feedback(ex3, grid, patched)
        other = 1 if deep != 1 else 2
        t0, x0 = float(grid.phys[other][0]), grid.phys[other][1:]
        assert law.value_at(t0, x0) == pytest.approx(patched.records[other].V, abs=1e-7)
