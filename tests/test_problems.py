import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from attitude_oracle import column_f, column_H_x, rotation, rotation_cols, slsqp_attitude
from example3_oracle import example3_control, example3_costate, example3_power_H_x
from hamiltonian_oracle import central_difference, fd_H_x, hamiltonian

from hjbsparse.exceptions import InfeasibleTargetError, SingularityError, TargetSolveError
from hjbsparse.problems import (
    AnalyticProblem,
    AttitudeProblem,
    conserved_quantity,
    example3_value,
    make_example1,
    make_example2,
    make_example3,
    make_problem,
    null_direction,
    optimal_attitude,
    problem_from_spec,
)


def rk4_trajectory(problem, x0, u_fn, t_end, dt):
    s = np.asarray(x0, dtype=float).copy()
    t = 0.0
    states = [s.copy()]
    times = [0.0]
    while t < t_end - 1e-12:
        u = u_fn(t)
        k1 = problem.f(t, s, u)
        k2 = problem.f(t + dt / 2, s + dt / 2 * k1, u)
        k3 = problem.f(t + dt / 2, s + dt / 2 * k2, u)
        k4 = problem.f(t + dt, s + dt * k3, u)
        s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        states.append(s.copy())
        times.append(t)
    return np.array(times), np.array(states)


class TestKinematics:
    def test_zero_rotation(self):
        assert np.allclose(rotation_cols(np.zeros((3, 1)))[0], np.eye(3))
        # E(0) = I: at v = 0 the Euler rates are the body rates
        w = np.array([0.3, -0.7, 1.1])
        vdot = make_example1().f(0.0, np.concatenate([np.zeros(3), w]), np.zeros(3))[:3]
        assert np.array_equal(vdot, w)

    def test_rotation_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(1)
        R = rotation_cols(rng.uniform(-math.pi / 3, math.pi / 3, (10_000, 3)).T)
        assert np.abs(R @ R.transpose(0, 2, 1) - np.eye(3)).max() <= 1e-12
        assert np.abs(np.linalg.det(R) - 1.0).max() <= 1e-12

    def test_gimbal_lock_raises(self):
        p = make_example1()
        for theta in (math.pi / 2, -math.pi / 2):
            x, lam = np.array([0.0, theta, 0.0, 0.1, 0.2, 0.3]), np.full(6, 0.1)
            with pytest.raises(SingularityError):
                p.f(0.0, x, np.zeros(3))
            with pytest.raises(SingularityError):
                p.H_x(0.0, x, lam, np.zeros(3))
            # columns raise when any one of them is at lock
            xs = np.random.default_rng(4).uniform(-0.5, 0.5, (6, 5))
            xs[1, 3] = theta
            with pytest.raises(SingularityError):
                p.f(0.0, xs, np.zeros((3, 5)))
            with pytest.raises(SingularityError):
                p.H_x(0.0, xs, np.full((6, 5), 0.1), np.zeros((3, 5)))

    def test_near_gimbal_lock_does_not_raise(self):
        p = make_example1()
        x = np.array([0.0, math.pi / 2 - 1e-6, 0.0, 0.1, 0.2, 0.3])
        assert np.all(np.isfinite(p.f(0.0, x, np.zeros(3))))
        assert np.all(np.isfinite(p.H_x(0.0, x, np.full(6, 0.1), np.zeros(3))))
        xs = np.tile(x[:, None], (1, 5))
        assert p.f(0.0, xs, np.zeros((3, 5))).shape == (6, 5)
        assert p.H_x(0.0, xs, np.full((6, 5), 0.1), np.zeros((3, 5))).shape == (6, 5)

    def test_rotation_rate_consistency(self):
        # d/dt R(v(t)) must equal -[w]x R(v) when v' = E(v) w
        p = make_example1()
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-0.8, 0.8, 3)
            w = rng.uniform(-1, 1, 3)
            vdot = p.f(0.0, np.concatenate([v, w]), np.zeros(3))[:3]
            eps = 1e-6
            Rdot = (rotation(v + eps * vdot) - rotation(v - eps * vdot)) / (2 * eps)
            wx = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
            assert np.abs(Rdot + wx @ rotation(v)).max() < 1e-6


class TestAttitudeDynamics:
    def test_rest_is_equilibrium_in_rates(self):
        p = make_example1()
        v = np.array([0.2, -0.1, 0.3])
        rate = p.f(0.0, np.concatenate([v, np.zeros(3)]), np.zeros(3))
        assert np.abs(rate[:3]).max() == 0.0
        assert np.abs(rate[3:]).max() < 1e-15  # S(0) = 0

    def test_conservation_under_random_controls(self):
        p = make_example2()
        C = null_direction(p.params.B)
        rng = np.random.default_rng(3)
        x0 = np.concatenate([rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.3, 0.3, 3)])
        controls = rng.uniform(-0.5, 0.5, (11, 2))

        def u_fn(t):
            return controls[min(int(t // 3), 10)]

        times, states = rk4_trajectory(p, x0, u_fn, 30.0, 1e-3)
        c = [conserved_quantity(p.params, C, s[:3], s[3:]) for s in states[:: len(states) // 20]]
        assert max(c) - min(c) <= 1e-8

    def test_example1_closed_loop_decays(self):
        # crude proportional feedback based on the problem's control map drives
        # the state toward the origin after a transient
        p = make_example1()
        x0 = np.concatenate([np.full(3, 0.3), np.full(3, 0.2)])

        state = {"x": x0}

        def u_fn(t):
            x = state["x"]
            return -np.linalg.solve(p.params.B, 2.0 * x[:3] + 4.0 * x[3:] * p.params.J)

        s = x0.copy()
        dt = 1e-2
        norms = [np.linalg.norm(s)]
        for k in range(2000):
            u = u_fn(k * dt)
            k1 = p.f(0, s, u)
            k2 = p.f(0, s + dt / 2 * k1, u)
            k3 = p.f(0, s + dt / 2 * k2, u)
            k4 = p.f(0, s + dt * k3, u)
            s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            state["x"] = s
            norms.append(np.linalg.norm(s))
        assert norms[-1] < 0.05 * norms[0]


def _smooth_field():
    """perfbench's SmoothField pattern: Example I's dynamics and cost with horizon 0."""
    return AttitudeProblem(params=replace(make_example1().params, T=0.0), name="smooth-field")


SHAPE_PROBLEMS = {
    "example1": make_example1,
    "example2": lambda: make_example2().specialize(0.0, np.array([0.1, -0.1, 0.2, 0.05, 0.0, -0.05])),
    "example3": make_example3,
    "smooth-field": _smooth_field,
}


SQUARE_TRAP = -0.3902108345010009


def random_inputs(problem, count, seed):
    """(t, x, u) of `count` random points: t in [0, horizon], x in the state box, u in [-1, 1]^m."""
    rng = np.random.default_rng(seed)
    box = problem.state_box
    t = rng.uniform(0.0, problem.horizon, count)
    x = box.lo + rng.uniform(size=(count, problem.n)) * box.width
    return t, x, rng.uniform(-1.0, 1.0, (count, problem.m))


class TestShapeContract:
    """f and L take one point as x (n,) and u (m,), as the MPC plant steps, and equal the column path.

    Slicing x[:3] of a 1-D state and subtracting a (3, 1) target, or dividing
    by J[:, None], broadcasts a point into a (3, 3) matrix; the shapes are
    asserted so that such a trap fails here.  h_x takes columns as well, as
    the boundary Jacobian evaluates it.
    """

    @pytest.mark.parametrize("name", sorted(SHAPE_PROBLEMS))
    def test_point_equals_column(self, name):
        problem = SHAPE_PROBLEMS[name]()
        for t, x, u in zip(*random_inputs(problem, 200, seed=18)):
            f, L = problem.f(t, x, u), problem.L(t, x, u)
            f_col, L_col = problem.f(t, x[:, None], u[:, None]), problem.L(t, x[:, None], u[:, None])
            assert np.shape(f) == (problem.n,) and np.shape(L) == ()
            assert f_col.shape == (problem.n, 1) and L_col.shape == (1,)
            assert np.abs(f - f_col[:, 0]).max() <= 1e-15 * np.abs(f_col).max()
            assert abs(L - L_col[0]) <= 1e-15 * abs(L_col[0])

    @pytest.mark.parametrize("name", sorted(SHAPE_PROBLEMS))
    def test_point_cost_is_the_column_cost_exactly(self, name):
        """L squares by products: numpy's scalar ** rounds through pow(), which here puts
        SQUARE_TRAP**2 one ulp from SQUARE_TRAP * SQUARE_TRAP, while a column squares exactly."""
        problem = SHAPE_PROBLEMS[name]()
        x, u = np.full(problem.n, SQUARE_TRAP), np.full(problem.m, SQUARE_TRAP)
        assert problem.L(0.0, x, u) == problem.L(0.0, x[:, None], u[:, None])[0]

    @pytest.mark.parametrize("name", sorted(SHAPE_PROBLEMS))
    def test_columns_keep_their_axis(self, name):
        problem = SHAPE_PROBLEMS[name]()
        _, x, u = random_inputs(problem, 200, seed=19)
        f, L = problem.f(0.5, x.T, u.T), problem.L(0.5, x.T, u.T)
        assert f.shape == (problem.n, 200) and L.shape == (200,)
        one = problem.f(0.5, x[7], u[7])
        assert np.abs(f[:, 7] - one).max() <= 1e-15 * np.abs(one).max()

    @pytest.mark.parametrize("name", ["example1", "example2", "smooth-field"])
    def test_attitude_f_matches_the_rotation_matrix_oracle(self, name):
        problem = SHAPE_PROBLEMS[name]()
        _, x, u = random_inputs(problem, 200, seed=20)
        f, ref = problem.f(0.0, x.T, u.T), column_f(problem, x.T, u.T)
        assert np.abs(f - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("name", sorted(SHAPE_PROBLEMS))
    def test_h_x_columns_equal_the_per_column_calls(self, name):
        # P = n is where a (n,) result broadcasts against (n, P) without an error;
        # 4n + 1 = 2M + 1 is the boundary Jacobian's column count for the 2n-dimensional BVP
        problem = SHAPE_PROBLEMS[name]()
        for P in (problem.n, 4 * problem.n + 1):
            _, x, _ = random_inputs(problem, P, seed=21)
            got = problem.h_x(x.T)
            assert got.shape == (problem.n, P)
            assert np.array_equal(got, np.stack([problem.h_x(point) for point in x], axis=1))


class TestProblemFactories:
    def test_example1_cost_at_origin(self):
        p = make_example1()
        zero = np.zeros((6, 1))
        assert p.L(0.0, zero, np.zeros((3, 1)))[0] == 0.0
        assert p.h(np.zeros(6)) == 0.0

    def test_example2_cost_centered_at_target(self):
        p = make_example2()
        rng = np.random.default_rng(5)
        x0 = np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.2, 0.2, 3)])
        frozen = p.specialize(0.0, x0)
        state = np.concatenate([frozen.target_attitude, np.zeros(3)])[:, None]
        assert frozen.L(0.0, state, np.zeros((2, 1)))[0] == pytest.approx(0.0, abs=1e-20)

    def test_domains(self):
        assert make_example1("d1").domain.upper[0] == pytest.approx(math.pi / 6)
        assert make_example1("d2").domain.upper[3] == pytest.approx(math.pi / 4)
        assert make_example2().horizon == 30.0
        p3 = make_example3()
        assert p3.domain.as_json() == [[0.0, 5.0], [-2.0, 2.0], [-2.0, 2.0], [-2.0, 2.0]]

    def test_make_problem_ids(self):
        assert make_problem("example1").name == "example1"
        with pytest.raises(ValueError):
            make_problem("example9")

    @pytest.mark.parametrize("maker", [make_example1, make_example2, make_example3])
    def test_u_star_is_stationary(self, maker):
        problem = maker()
        rng = np.random.default_rng(7)
        lo, hi = np.array(problem.state_box.lower), np.array(problem.state_box.upper)
        x = rng.uniform(lo, hi, (5, problem.n)).T
        lam = rng.uniform(-1, 1, (problem.n, 5))
        if problem.name == "example2":
            problem = problem.specialize(0.0, x[:, 0])
        u0 = problem.u_star(0.5, x, lam)
        eps = 1e-7
        for k in range(problem.m):
            up, um = u0.copy(), u0.copy()
            up[k] += eps
            um[k] -= eps
            dH = (hamiltonian(problem, 0.5, x, lam, up) - hamiltonian(problem, 0.5, x, lam, um)) / (2 * eps)
            assert np.abs(dH).max() <= 1e-6


class TestAttitudeHamiltonianGradient:
    @pytest.mark.parametrize("maker", [make_example1, make_example2])
    def test_closed_form_matches_finite_differences(self, maker):
        problem = maker()
        rng = np.random.default_rng(15)
        lo, hi = np.array(problem.state_box.lower), np.array(problem.state_box.upper)
        x = rng.uniform(lo, hi, (200, 6)).T
        if problem.reachable:
            problem = problem.specialize(0.0, x[:, 0])
        lam = rng.uniform(-2, 2, (6, 200))
        u = rng.uniform(-1, 1, (problem.m, 200))
        got = problem.H_x(0.3, x, lam, u)
        ref = fd_H_x(problem, 0.3, x, lam, u)
        assert got.shape == ref.shape == (6, 200)
        assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_closed_form_matches_the_rotation_matrix_oracle(self, name):
        problem = SHAPE_PROBLEMS[name]()
        _, x, u = random_inputs(problem, 5000, seed=22)
        lam = np.random.default_rng(23).uniform(-2, 2, (6, 5000))
        got, ref = problem.H_x(0.0, x.T, lam, u.T), column_H_x(problem, x.T, lam)
        assert got.shape == ref.shape == (6, 5000)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_unspecialized_reachable_target_raises(self):
        problem = make_example2()
        x, lam, u = np.full((6, 1), 0.1), np.ones((6, 1)), np.zeros((2, 1))
        with pytest.raises(ValueError, match="specialize"):
            problem.H_x(0.0, x, lam, u)
        with pytest.raises(ValueError, match="specialize"):
            problem.L(0.0, x, u)
        frozen = problem.specialize(0.0, x[:, 0])
        assert np.all(np.isfinite(frozen.H_x(0.0, x, lam, u))) and np.all(np.isfinite(frozen.L(0.0, x, u)))


class TestProblemSpec:
    @pytest.mark.parametrize("make", [
        lambda: make_example1("d1"),
        lambda: make_example1("d2"),
        make_example2,
        make_example3,
        lambda: problem_from_spec({"id": "example1", "params": {"T": 3.0, "W": [2.0, 1.0, 0.25, 0.0, 0.5]}}),
    ], ids=["example1-d1", "example1-d2", "example2", "example3", "example1-overridden"])
    def test_round_trip(self, make):
        problem = make()
        spec = problem.spec()
        for again in (problem_from_spec(spec), problem_from_spec(json.loads(json.dumps(spec)))):
            assert type(again) is type(problem) and again.name == problem.name
            assert again.domain == problem.domain and again.horizon == problem.horizon
            if hasattr(problem, "params"):
                for key in ("B", "J", "H", "W", "T"):
                    assert np.array_equal(getattr(again.params, key), getattr(problem.params, key))
                assert (again.terminal, again.reachable) == (problem.terminal, problem.reachable)

    def test_example3_has_no_params(self):
        assert make_example3().spec() == {"id": "example3", "params": {}}

    def test_only_fields_the_spec_or_the_factories_set_are_instance_fields(self):
        # spec() records the id and params alone, so any other field would not survive a round trip
        with pytest.raises(TypeError):
            AnalyticProblem(horizon=2.0)
        assert [f.name for f in fields(AnalyticProblem)] == []
        assert {f.name for f in fields(AttitudeProblem)} == {"params", "name", "terminal", "reachable",
                                                              "target_attitude"}

    @pytest.mark.parametrize("spec", [
        "example1",
        {"id": "example1"},
        {"id": "example9", "params": {}},
        {"id": "example1", "params": {"j": [1.0, 2.0, 3.0]}},
        {"id": "example1", "params": {"J": [1.0, 2.0]}},
        {"id": "example1", "params": {"B": [1.0, 2.0, 3.0]}},
        {"id": "example1", "params": {"W": [1.0, 1.0]}},
        {"id": "example1", "params": {"T": "long"}},
        {"id": "example1", "params": {"domain": [[0.0, 1.0]]}},
        {"id": "example3", "params": {"T": 2.0}},
    ])
    def test_rejects_bad_spec(self, spec):
        with pytest.raises(ValueError):
            problem_from_spec(spec)


class TestExample3:
    def test_analytic_hamiltonian_gradient_matches_fd(self):
        p = make_example3()
        rng = np.random.default_rng(8)
        x = rng.uniform(-2, 2, (3, 50))
        lam = rng.uniform(-1, 1, (3, 50))
        u = rng.uniform(-1, 1, (1, 50))
        got = p.H_x(0.7, x, lam, u)
        ref = fd_H_x(p, 0.7, x, lam, u)
        assert np.abs(got - ref).max() < 1e-8

    def test_H_x_matches_the_power_form(self):
        p = make_example3()
        t, x, u = random_inputs(p, 5000, seed=24)
        lam = np.random.default_rng(25).uniform(-1, 1, (3, 5000))
        got, ref = p.H_x(t, x.T, lam, u.T), example3_power_H_x(x.T, lam, u.T)
        assert got.shape == ref.shape == (3, 5000)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_closed_form_satisfies_hjb(self):
        p = make_example3()
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(25):
            t = rng.uniform(0, 4.9)
            xx = rng.uniform(-2, 2, 3)
            eps = 1e-6
            vt = (example3_value(t + eps, *xx) - example3_value(t - eps, *xx)) / (2 * eps)
            lam = example3_costate(t, *xx)[:, None]
            xc = xx[:, None]
            us = p.u_star(t, xc, lam)
            ham = p.L(t, xc, us) + np.einsum("ip,ip->p", lam, p.f(t, xc, us))
            worst = max(worst, abs(float(vt + ham[0])))
        assert worst < 1e-9

    def test_u_star_stationarity_identity(self):
        p = make_example3()
        x = np.array([[0.4], [-1.1], [0.9]])
        lam = np.array([[0.2], [0.1], [-0.3]])
        u = p.u_star(0.0, x, lam)
        D = 1 + x[0, 0] ** 2 + x[1, 0] ** 2
        assert u[0, 0] + D * lam[2, 0] == pytest.approx(0.0, abs=1e-15)

    def test_closed_form_control_consistent_with_costate(self):
        t, xx = 1.2, np.array([0.3, -0.5, 1.4])
        lam = example3_costate(t, *xx)
        p = make_example3()
        u = p.u_star(t, xx[:, None], lam[:, None])
        assert u[0, 0] == pytest.approx(float(example3_control(t, *xx)), rel=1e-12)


class TestOptimalAttitude:
    def test_null_direction(self):
        p = make_example2()
        C = null_direction(p.params.B)
        assert np.abs(C @ p.params.B).max() <= 1e-12
        assert np.linalg.norm(C) == pytest.approx(1.0, rel=1e-14)
        assert C[np.nonzero(np.abs(C) > 1e-12)[0][0]] > 0

    def test_identity_attitude_recovered(self):
        p = make_example2()
        rng = np.random.default_rng(10)
        v = rng.uniform(-0.3, 0.3, 3)
        w = (rotation(v) @ p.params.H - p.params.H) / p.params.J
        target = optimal_attitude(p.params, v, w)
        assert np.abs(target.v_e).max() < 1e-8
        assert target.trace == pytest.approx(3.0, abs=1e-12)

    def test_kkt_and_constraint_residuals(self):
        # grad tr R(v_e) is parallel to grad C.R(v_e)H, by central differences
        p = make_example2()
        rng = np.random.default_rng(11)
        for _ in range(4):
            v = rng.uniform(-0.5, 0.5, 3)
            w = rng.uniform(-0.35, 0.35, 3)
            tgt = optimal_attitude(p.params, v, w)

            def constraint(ve):
                return float(tgt.C @ rotation(ve) @ p.params.H) + tgt.c0

            g_obj = central_difference(lambda ve: -float(np.trace(rotation(ve))), tgt.v_e, 1e-6)
            g_con = central_difference(constraint, tgt.v_e, 1e-6)
            mu = -float(g_obj @ g_con) / float(g_con @ g_con)
            assert np.abs(g_obj + mu * g_con).max() <= 1e-8
            assert abs(constraint(tgt.v_e)) <= 1e-9
            assert tgt.trace == pytest.approx(float(np.trace(rotation(tgt.v_e))), abs=1e-12)

    def test_matches_a_numerical_optimizer(self):
        p = make_example2()
        lo, hi = np.array(p.domain.lower), np.array(p.domain.upper)
        rng = np.random.default_rng(14)
        for x in rng.uniform(lo, hi, (10, 6)):
            tgt = optimal_attitude(p.params, x[:3], x[3:])
            v_ref, trace_ref = slsqp_attitude(p.params, x[:3], x[3:])
            assert tgt.trace >= trace_ref - 1e-12
            assert np.abs(rotation(tgt.v_e) - rotation(v_ref)).max() <= 1e-6

    def test_principal_euler_angles_for_random_params(self):
        # B, H drawn at random: the target is the principal (3,2,1) triple of R*
        base = make_example2()
        lo, hi = np.array(base.domain.lower), np.array(base.domain.upper)
        rng = np.random.default_rng(1)
        solved = 0
        for _ in range(60):
            B, H = rng.uniform(-1, 1, (3, 2)), rng.uniform(-12, 12, 3)
            x = rng.uniform(lo, hi)
            params = replace(base.params, B=B, H=H)
            try:
                tgt = optimal_attitude(params, x[:3], x[3:])
            except InfeasibleTargetError:
                continue
            solved += 1
            assert abs(tgt.v_e[0]) <= math.pi and abs(tgt.v_e[2]) <= math.pi
            assert abs(tgt.v_e[1]) <= math.pi / 2
            assert abs(tgt.C @ rotation(tgt.v_e) @ H + tgt.c0) <= 1e-12 * np.linalg.norm(H)
        assert solved >= 50

    def test_momentum_parallel_to_null_direction(self):
        # H = 10 C: the circle of reachable R H is centred on the axis through H, so
        # every point of it is optimal, unless it shrinks to H itself (R* = I)
        p = make_example2()
        C = null_direction(p.params.B)
        params = replace(p.params, H=10.0 * C)
        with pytest.raises(TargetSolveError):
            optimal_attitude(params, np.zeros(3), C / params.J)
        at_rest = optimal_attitude(params, np.zeros(3), np.zeros(3))
        assert np.array_equal(at_rest.v_e, np.zeros(3)) and at_rest.trace == 3.0

    def test_fixed_point(self):
        p = make_example2()
        rng = np.random.default_rng(12)
        v = rng.uniform(-0.4, 0.4, 3)
        w = rng.uniform(-0.3, 0.3, 3)
        tgt = optimal_attitude(p.params, v, w)
        # choose a rate that puts (v_e, w2) on the same manifold
        C = tgt.C
        lhs = (C * p.params.J)[None, :]
        w2 = np.linalg.lstsq(lhs, [tgt.c0 + float(C @ rotation(tgt.v_e) @ p.params.H)], rcond=None)[0]
        again = optimal_attitude(p.params, tgt.v_e, w2)
        assert np.abs(again.v_e - tgt.v_e).max() <= 1e-9

    def test_invariance_along_trajectory(self):
        p = make_example2()
        rng = np.random.default_rng(13)
        x0 = np.concatenate([rng.uniform(-0.3, 0.3, 3), rng.uniform(-0.2, 0.2, 3)])
        controls = rng.uniform(-0.4, 0.4, (7, 2))
        times, states = rk4_trajectory(p, x0, lambda t: controls[min(int(t // 5), 6)], 30.0, 2e-3)
        targets = [optimal_attitude(p.params, s[:3], s[3:]).v_e for s in states[:: len(states) // 8]]
        drift = max(np.abs(t - targets[0]).max() for t in targets)
        assert drift <= 1e-6

    def test_infeasible_momentum_raises(self):
        p = make_example2()
        with pytest.raises(InfeasibleTargetError):
            optimal_attitude(p.params, np.zeros(3), np.array([50.0, 50.0, 50.0]))
