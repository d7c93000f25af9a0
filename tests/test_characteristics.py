import math

import numpy as np
import pytest

import hjbsparse.characteristics as chmod
from hjbsparse.bvp import BvpStatus, solve as bvp_solve
from hjbsparse.characteristics import (
    CharacteristicRecord,
    ControlProblem,
    GridSolution,
    assemble_bvp,
    fit_feedback,
    load_jsonl,
    solve_point,
    sweep,
)
from hjbsparse.exceptions import FitError, OutOfDomainError, SweepError
from hjbsparse.grid import Box, NodeFamily, build_grid


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
        return np.array([float(x[0])])

    def u_star(self, t, x, lam):
        return -lam

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
        return np.array([2.0 * float(x[0])])

    def u_star(self, t, x, lam):
        return np.zeros((1, x.shape[1]))


class TestAssembleBvp:
    def test_dimension_and_boundary_structure(self, ex3):
        x0 = np.array([0.5, -0.3, 1.0])
        bp = assemble_bvp(ex3, 0.0, x0, tol=1e-8)
        assert bp.ndim == 2 * 3 + 1
        ya = np.concatenate([x0, [0.1, 0.2, 0.3], [0.0]])
        yb = np.concatenate([[1.0, 2.0, 3.0], [0.4, 0.5, 0.6], [7.0]])
        res = bp.bc(ya, yb)
        assert np.abs(res[:3]).max() == 0.0          # x(t0) - x0
        # terminal cost is zero, so the costate condition is lam(T) = 0
        assert np.array_equal(res[3:6], yb[3:6])
        assert res[6] == 0.0                          # z(t0)

    def test_rhs_matches_explicit_dynamics(self, ex3):
        x0 = np.array([0.2, 0.4, -1.0])
        bp = assemble_bvp(ex3, 0.0, x0, tol=1e-8)
        s = np.array([0.7, 1.3])
        y = np.vstack([np.tile(x0[:, None], 2) + 0.05, np.full((3, 2), 0.2), np.zeros((1, 2))])
        got = bp.rhs(s, y)
        x, lam = y[:3], y[3:6]
        u = ex3.u_star(s, x, lam)
        assert np.allclose(got[:3], ex3.f(s, x, u), atol=1e-14)
        assert np.allclose(got[:3][0], -x[0] + x[1], atol=1e-14)
        assert np.allclose(got[6], ex3.L(s, x, u), atol=1e-14)

    def test_pure_terminal_cost_value(self):
        # L = 0: z stays zero and V = h(x(T))
        p = PureDecay()
        rec, sol = solve_point(p, 0.0, np.array([0.8]), tol=1e-10, return_solution=True)
        assert rec.converged
        x_T = 0.8 * math.exp(-p.horizon)
        assert rec.V == pytest.approx(x_T**2, rel=1e-8)
        assert abs(sol.y[2, -1]) < 1e-12  # accumulated cost stays zero

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

    def test_degenerate_horizon_uses_terminal_data(self, ex3):
        rec = solve_point(ex3, 5.0, np.array([1.0, 1.0, 1.0]), tol=1e-9)
        assert rec.converged
        assert rec.V == 0.0
        assert rec.mesh == 0

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

    def test_value_consistency_along_characteristic(self, ex3):
        # dynamic programming along the characteristic: re-solving from a
        # midpoint reproduces z(T) + h - z(t_mid)
        t0, x0 = 1.0, np.array([0.8, -0.5, 1.2])
        tol = 1e-9
        rec, sol = solve_point(ex3, t0, x0, tol=tol, return_solution=True)
        assert rec.converged
        t_mid = 2.5
        y_mid = sol.interpolate(t_mid)
        x_mid, z_mid = y_mid[:3], y_mid[6]
        rec_mid = solve_point(ex3, t_mid, x_mid, tol=tol)
        assert rec_mid.converged
        assert rec_mid.V == pytest.approx(rec.V - z_mid, abs=10 * tol)

    def test_hamiltonian_stationarity_along_trajectory(self, ex3):
        rec, sol = solve_point(ex3, 0.0, np.array([0.6, 0.2, -1.1]), tol=1e-9, return_solution=True)
        times = np.linspace(0.0, 5.0, 10)
        y = sol.interpolate(times)
        x, lam = y[:3], y[3:6]
        u0 = ex3.u_star(times, x, lam)
        eps = 1e-7
        dh = (ex3.H(times, x, lam, u0 + eps) - ex3.H(times, x, lam, u0 - eps)) / (2 * eps)
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

        def flaky(problem, t0, x0, tol=1e-8, point_id=0, return_solution=False):
            rec = real(problem, t0, x0, tol, point_id=point_id)
            if point_id % 3 == 0:
                rec = CharacteristicRecord(point_id, float("nan"), np.full(problem.n, np.nan),
                                           BvpStatus.NEWTON_DIVERGED.value, 1.0, rec.mesh)
            return rec

        monkeypatch.setattr(chmod, "solve_point", flaky)
        grid = build_grid(NodeFamily.CGL, 4, 5, ex3.domain)
        with pytest.raises(SweepError):
            sweep(ex3, grid, tol=1e-8, workers=1)

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
