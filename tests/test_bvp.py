from dataclasses import replace

import numpy as np
import pytest

import hjbsparse.bvp as bvpmod
from hjbsparse.bvp import (
    _RES_B,
    _RES_L,
    _RES_THETA,
    _SQRT_EPS,
    BvpProblem,
    BvpStatus,
    _Collocation,
    _condensed_solve,
    _stage_abscissae,
    empirical_order,
    solve,
    solve_fixed_mesh,
)
from hjbsparse.characteristics import assemble_bvp
from hjbsparse.problems import make_example1


def sin_problem(tol=1e-8):
    def rhs(s, y):
        return np.stack([y[1], -y[0]])

    def bc(ya, yb):
        return np.array([ya[0], yb[0] - 1.0])

    return BvpProblem(ndim=2, rhs=rhs, bc=bc, interval=(0.0, np.pi / 2), tol=tol)


def sin_exact(s):
    return np.stack([np.sin(s), np.cos(s)])


def expsin_problem(tol=1e-8):
    # manufactured nonlinear problem with solution y1 = exp(sin s)
    def rhs(s, y):
        return np.stack([y[1], (np.cos(s) ** 2 - np.sin(s)) * y[0] + (y[0] ** 2 - np.exp(2 * np.sin(s)))])

    def bc(ya, yb):
        return np.array([ya[0] - 1.0, yb[0] - np.exp(np.sin(2.0))])

    def guess(s):
        return np.stack([np.ones_like(s), np.zeros_like(s)])

    return BvpProblem(ndim=2, rhs=rhs, bc=bc, interval=(0.0, 2.0), tol=tol, guess=guess)


def expsin_exact(s):
    return np.stack([np.exp(np.sin(s)), np.cos(s) * np.exp(np.sin(s))])


def logistic_problem(tol=1e-6):
    # one left condition and no right one (m_a = M)
    def rhs(s, y):
        return np.stack([y[0] * (1.0 - y[0])])

    def bc(ya, yb):
        return np.array([ya[0] - 0.5])

    def guess(s):
        return np.stack([0.5 + 0.0 * s])

    return BvpProblem(ndim=1, rhs=rhs, bc=bc, interval=(0, 2), tol=tol, guess=guess)


class TestSolve:
    def test_sin_meets_tolerance(self):
        sol = solve(sin_problem(1e-8))
        assert sol.status is BvpStatus.CONVERGED
        ss = np.linspace(0, np.pi / 2, 700)
        assert np.abs(sol.interpolate(ss) - sin_exact(ss)).max() <= 1e-8

    def test_constant_problem_exact(self):
        def rhs(s, y):
            return np.zeros_like(y)

        def bc(ya, yb):
            return np.array([ya[0] - 3.0])

        sol = solve(BvpProblem(ndim=1, rhs=rhs, bc=bc, interval=(0, 2), tol=1e-10))
        assert sol.status is BvpStatus.CONVERGED
        assert np.abs(sol.y - 3.0).max() == 0.0

    def test_interpolate_reproduces_mesh_values(self):
        sol = solve(sin_problem(1e-8))
        got = sol.interpolate(sol.mesh)
        assert np.abs(got - sol.y).max() < 1e-11

    def test_converged_residual_below_tolerance(self):
        sol = solve(sin_problem(1e-8))
        assert sol.est_residual <= 1e-8

    def test_deterministic_bit_identical(self):
        a = solve(sin_problem(1e-9))
        b = solve(sin_problem(1e-9))
        assert np.array_equal(a.mesh, b.mesh)
        assert np.array_equal(a.y, b.y)
        assert a.est_residual == b.est_residual

    def test_mesh_strictly_increasing_keeps_boundaries(self):
        p = sin_problem(1e-10)
        sol = solve(p)
        assert np.all(np.diff(sol.mesh) > 0)
        assert sol.mesh[0] == p.interval[0]
        assert sol.mesh[-1] == p.interval[1]

    def test_max_mesh_status(self, monkeypatch):
        p = sin_problem(1e-13)
        monkeypatch.setattr(bvpmod, "_MAX_NODES", 12)
        sol = solve(p)
        assert sol.status is BvpStatus.MAX_MESH
        assert sol.est_residual > 1e-13

    def test_newton_diverged_status(self):
        # finite-time blow-up inside the interval defeats any mesh
        def rhs(s, y):
            return np.stack([y[0] ** 2])

        def bc(ya, yb):
            return np.array([ya[0] - 2.0])  # blow-up at s = 0.5 < 1

        def guess(s):
            return np.stack([2.0 + 0.0 * s])

        sol = solve(BvpProblem(ndim=1, rhs=rhs, bc=bc, interval=(0.0, 1.0), tol=1e-8, guess=guess))
        assert sol.status in (BvpStatus.NEWTON_DIVERGED, BvpStatus.MAX_MESH)


class TestResidualHonesty:
    def manufactured_problems(self):
        out = [(sin_problem(1e-6), sin_exact), (expsin_problem(1e-6), expsin_exact)]

        def rhs_cubic(s, y):
            return np.stack([y[1], 6.0 * s])

        def bc_cubic(ya, yb):
            return np.array([ya[0], yb[0] - 1.0])

        out.append((BvpProblem(ndim=2, rhs=rhs_cubic, bc=bc_cubic, interval=(0, 1), tol=1e-6),
                    lambda s: np.stack([s**3, 3 * s**2])))

        def rhs_cosh(s, y):
            return np.stack([y[1], y[0]])

        def bc_cosh(ya, yb):
            return np.array([ya[0] - 1.0, yb[0] - np.cosh(1.0)])

        out.append((BvpProblem(ndim=2, rhs=rhs_cosh, bc=bc_cosh, interval=(0, 1), tol=1e-6),
                    lambda s: np.stack([np.cosh(s), np.sinh(s)])))

        out.append((logistic_problem(1e-6), lambda s: np.stack([1.0 / (1.0 + np.exp(-s))])))

        def rhs_rational(s, y):
            return np.stack([-y[0] ** 2])

        def bc_rational(ya, yb):
            return np.array([ya[0] - 1.0])

        def guess_rational(s):
            return np.stack([1.0 + 0.0 * s])

        out.append((BvpProblem(ndim=1, rhs=rhs_rational, bc=bc_rational, interval=(0, 1), tol=1e-6,
                               guess=guess_rational),
                    lambda s: np.stack([1.0 / (1.0 + s)])))
        return out

    def test_estimate_overestimates_true_error(self):
        for p, exact in self.manufactured_problems():
            sol = solve(p)
            assert sol.status is BvpStatus.CONVERGED
            ss = np.linspace(p.interval[0], p.interval[1], 600)
            true_err = np.abs(sol.interpolate(ss) - exact(ss)).max()
            # solutions the quartic represents exactly leave only roundoff on
            # both sides; the overestimate property applies above that floor
            assert sol.est_residual >= true_err or true_err < 5e-14, (sol.est_residual, true_err)


class TestEmpiricalOrder:
    def test_linear_problem_fifth_order(self):
        fit = empirical_order(sin_problem(), sin_exact, [4, 6, 8, 12, 16, 24])
        assert fit.order >= 4.5

    def test_manufactured_nonlinear_order_band(self):
        fit = empirical_order(expsin_problem(), expsin_exact, [6, 8, 12, 16, 24])
        assert 4.5 <= fit.order <= 5.5

    def test_constant_problem_skipped(self):
        def rhs(s, y):
            return np.zeros_like(y)

        def bc(ya, yb):
            return np.array([ya[0] - 1.0])

        p = BvpProblem(ndim=1, rhs=rhs, bc=bc, interval=(0, 1), tol=1e-10)
        fit = empirical_order(p, lambda s: np.stack([np.ones_like(s)]), [4, 8, 16])
        assert np.isnan(fit.order)  # machine-precision errors are excluded from the fit

    def test_fixed_mesh_no_refinement(self):
        mesh = np.linspace(0, np.pi / 2, 9)
        sol = solve_fixed_mesh(sin_problem(), mesh)
        assert sol.status is BvpStatus.CONVERGED
        assert np.array_equal(sol.mesh, mesh)


def column_loop_jacobian(coll, y, f):
    """The forward-difference Jacobian one rhs call per column: the reference for the stacked call."""
    M = coll.M
    J = np.empty((M, M, y.shape[1]))
    step = _SQRT_EPS * np.maximum(np.abs(y), 1.0)
    for m in range(M):
        yp = y.copy()
        yp[m] += step[m]
        J[:, m, :] = (coll.eval_f(yp) - f) / step[m]
    return J


def example1_characteristic_bvp():
    return assemble_bvp(make_example1(), 0.0, np.array([0.3, -0.2, 0.4, 0.1, -0.3, 0.2]), tol=1e-8)


class TestStackedJacobian:
    @pytest.mark.parametrize("make", [example1_characteristic_bvp, expsin_problem],
                             ids=["example1", "expsin"])
    def test_equals_the_column_loop_bit_for_bit(self, make):
        problem = make()
        coll = _Collocation(problem, np.linspace(*problem.interval, 9))
        rng = np.random.default_rng(0)
        y = problem.guess(coll.s) + rng.uniform(-0.5, 0.5, (problem.ndim, len(coll.s)))
        f = coll.eval_f(y)
        assert np.array_equal(coll.fd_jacobian(y, f), column_loop_jacobian(coll, y, f))

    def test_one_rhs_call_per_jacobian(self):
        problem = example1_characteristic_bvp()
        calls = []

        def counted(s, y):
            calls.append(y.shape)
            return problem.rhs(s, y)

        coll = _Collocation(replace(problem, rhs=counted), np.linspace(*problem.interval, 6))
        y = problem.guess(coll.s)
        f = problem.rhs(coll.s, y)
        coll.fd_jacobian(y, f)
        assert calls == [(13, 13 * len(_stage_abscissae(coll.mesh)))]


def perturbed_collocation(problem, intervals):
    coll = _Collocation(problem, np.linspace(*problem.interval, intervals + 1))
    rng = np.random.default_rng(0)
    y = problem.guess(coll.s) + rng.uniform(-0.5, 0.5, (problem.ndim, len(coll.s)))
    return coll, y, coll.eval_f(y)


def dense_residual_jacobian(coll, y):
    """Forward differences of the whole residual, one unknown at a time (unknown p*M + m is y[m, p])."""
    F0 = coll.residual(y, coll.eval_f(y))
    flat = y.T.ravel()
    J = np.empty((len(F0), len(flat)))
    for c in range(len(flat)):
        yp = flat.copy()
        step = _SQRT_EPS * max(abs(flat[c]), 1.0)
        yp[c] += step
        yp = yp.reshape(-1, coll.M).T
        J[:, c] = (coll.residual(yp, coll.eval_f(yp)) - F0) / step
    return J


def dense_jacobian(coll, blocks, dba, dbb):
    """The full collocation Jacobian from _Collocation.jacobian's blocks, rows in residual order."""
    K, M = coll.K, coll.M
    J = np.zeros(((3 * K + 1) * M,) * 2)
    for k in range(K):
        J[3 * k * M : 3 * (k + 1) * M, 3 * k * M : 3 * k * M + 4 * M] = \
            blocks[k].transpose(0, 2, 1, 3).reshape(3 * M, 4 * M)
    J[3 * K * M :, :M] = dba
    J[3 * K * M :, 3 * K * M :] = dbb
    return J


def per_theta_residuals(coll, y, f):
    """Residual sampling with one rhs call per sample offset: the reference for the stacked call."""
    f_stage = f[:, coll.cols]
    y_left = y[:, coll.cols[:, 0]]
    scale = coll.scale(y, f)
    res = np.zeros(coll.K)
    for theta, b, lag in zip(_RES_THETA, _RES_B, _RES_L):
        y_mid = y_left + coll.h * np.einsum("j,mkj->mk", b, f_stage)
        f_mid = coll.eval_f(y_mid, coll.mesh[:-1] + theta * coll.h)
        sprime = np.einsum("j,mkj->mk", lag, f_stage)
        res = np.maximum(res, (np.abs(sprime - f_mid) / scale[:, None]).max(axis=0))
    return res


class TestBlockLayout:
    @pytest.mark.parametrize("make", [example1_characteristic_bvp, expsin_problem],
                             ids=["example1", "expsin"])
    def test_jacobian_matches_finite_differences_of_the_residual(self, make):
        coll, y, f = perturbed_collocation(make(), 4)
        J = dense_jacobian(coll, *coll.jacobian(y, f))
        assert J.shape == (13 * coll.M,) * 2
        assert np.abs(J - dense_residual_jacobian(coll, y)).max() <= 1e-5 * np.abs(J).max()

    @pytest.mark.parametrize("make", [example1_characteristic_bvp, expsin_problem],
                             ids=["example1", "expsin"])
    def test_residual_sampling_equals_the_per_theta_loop(self, make):
        coll, y, f = perturbed_collocation(make(), 8)
        assert np.array_equal(coll.interval_residuals(y, f), per_theta_residuals(coll, y, f))

    def test_one_rhs_call_per_residual_sampling(self):
        problem = example1_characteristic_bvp()
        calls = []

        def counted(s, y):
            calls.append(y.shape)
            return problem.rhs(s, y)

        coll, y, f = perturbed_collocation(replace(problem, rhs=counted), 5)
        calls.clear()
        coll.interval_residuals(y, f)
        assert calls == [(13, 5 * 5)]


def oscillator_with_bc(bc):
    return BvpProblem(ndim=2, rhs=lambda s, y: np.stack([y[1], -y[0]]), bc=bc, interval=(0.0, 1.0), tol=1e-6)


class TestCondensedSolve:
    @pytest.mark.parametrize("intervals", [4, 16])
    @pytest.mark.parametrize("make", [example1_characteristic_bvp, expsin_problem, logistic_problem],
                             ids=["example1", "expsin", "logistic"])
    def test_step_equals_the_dense_solve(self, make, intervals):
        # example1's bc lists x(t0), lambda(T), z(t0): its left rows are not contiguous;
        # logistic has left rows only (m_a = M)
        coll, y, f = perturbed_collocation(make(), intervals)
        blocks, dba, dbb = coll.jacobian(y, f)
        F = coll.residual(y, f)
        want = np.linalg.solve(dense_jacobian(coll, blocks, dba, dbb), -F).reshape(-1, coll.M)
        got = _condensed_solve(blocks, dba, dbb, F)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_coupled_bc_raises(self):
        periodic = oscillator_with_bc(lambda ya, yb: np.array([ya[0] - yb[0], ya[1] - 1.0]))
        with pytest.raises(ValueError, match="separated"):
            solve(periodic)

    def test_bc_row_reading_neither_end_is_newton_diverged(self):
        singular = oscillator_with_bc(lambda ya, yb: np.array([ya[0], 1.0]))
        assert solve(singular).status is BvpStatus.NEWTON_DIVERGED
