import json
import math

import numpy as np
import pytest

from hjbsparse.characteristics import ControlProblem
from hjbsparse.exceptions import InfeasibleTargetError, SingularityError
from hjbsparse.problems import (
    attitude_dynamics,
    conserved_quantity,
    euler_rates_matrix,
    example3_control,
    example3_costate,
    example3_value,
    make_example1,
    make_example2,
    make_example3,
    make_problem,
    null_direction,
    optimal_attitude,
    problem_from_spec,
    rotation,
    skew,
)


def rk4_trajectory(params, x0, u_fn, t_end, dt):
    def deriv(t, s, u):
        vd, wd = attitude_dynamics(params, t, s, u)
        return np.concatenate([vd, wd])

    s = np.asarray(x0, dtype=float).copy()
    t = 0.0
    states = [s.copy()]
    times = [0.0]
    while t < t_end - 1e-12:
        u = u_fn(t)
        k1 = deriv(t, s, u)
        k2 = deriv(t + dt / 2, s + dt / 2 * k1, u)
        k3 = deriv(t + dt / 2, s + dt / 2 * k2, u)
        k4 = deriv(t + dt, s + dt * k3, u)
        s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
        states.append(s.copy())
        times.append(t)
    return np.array(times), np.array(states)


class TestKinematics:
    def test_zero_rotation(self):
        assert np.allclose(rotation(np.zeros(3)), np.eye(3))
        assert np.allclose(euler_rates_matrix(np.zeros(3)), np.eye(3))

    def test_skew_annihilates_its_own_vector(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = rng.uniform(-2, 2, 3)
            assert np.abs(skew(w) @ w).max() < 1e-15
            S = skew(w)
            assert np.abs(S + S.T).max() == 0.0

    def test_skew_is_reversed_cross_product(self):
        a, b = np.array([1.0, -2.0, 0.5]), np.array([0.3, 0.7, -1.1])
        assert np.allclose(skew(a) @ b, np.cross(b, a))

    def test_rotation_orthogonal_unit_determinant(self):
        rng = np.random.default_rng(1)
        for _ in range(10_000):
            v = rng.uniform(-math.pi / 3, math.pi / 3, 3)
            R = rotation(v)
            assert np.abs(R @ R.T - np.eye(3)).max() <= 1e-12
            assert abs(np.linalg.det(R) - 1.0) <= 1e-12

    def test_gimbal_lock_raises(self):
        with pytest.raises(SingularityError):
            euler_rates_matrix(np.array([0.0, math.pi / 2, 0.0]))

    def test_rotation_rate_consistency(self):
        # d/dt R(v(t)) must equal -[w]x R(v) when v' = E(v) w
        rng = np.random.default_rng(2)
        for _ in range(20):
            v = rng.uniform(-0.8, 0.8, 3)
            w = rng.uniform(-1, 1, 3)
            vdot = euler_rates_matrix(v) @ w
            eps = 1e-6
            Rdot = (rotation(v + eps * vdot) - rotation(v - eps * vdot)) / (2 * eps)
            wx = np.array([[0, -w[2], w[1]], [w[2], 0, -w[0]], [-w[1], w[0], 0]])
            assert np.abs(Rdot + wx @ rotation(v)).max() < 1e-6


class TestAttitudeDynamics:
    def test_rest_is_equilibrium_in_rates(self):
        p = make_example1()
        v = np.array([0.2, -0.1, 0.3])
        vdot, wdot = attitude_dynamics(p.params, 0.0, np.concatenate([v, np.zeros(3)]), np.zeros(3))
        assert np.abs(vdot).max() == 0.0
        assert np.abs(wdot).max() < 1e-15  # S(0) = 0

    def test_conservation_under_random_controls(self):
        p = make_example2()
        C = null_direction(p.params.B)
        rng = np.random.default_rng(3)
        x0 = np.concatenate([rng.uniform(-0.4, 0.4, 3), rng.uniform(-0.3, 0.3, 3)])
        controls = rng.uniform(-0.5, 0.5, (11, 2))

        def u_fn(t):
            return controls[min(int(t // 3), 10)]

        times, states = rk4_trajectory(p.params, x0, u_fn, 30.0, 1e-3)
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

        def deriv(t, s, u):
            vd, wd = attitude_dynamics(p.params, t, s, u)
            return np.concatenate([vd, wd])

        s = x0.copy()
        dt = 1e-2
        norms = [np.linalg.norm(s)]
        for k in range(2000):
            u = u_fn(k * dt)
            k1 = deriv(0, s, u)
            k2 = deriv(0, s + dt / 2 * k1, u)
            k3 = deriv(0, s + dt / 2 * k2, u)
            k4 = deriv(0, s + dt * k3, u)
            s = s + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            state["x"] = s
            norms.append(np.linalg.norm(s))
        assert norms[-1] < 0.05 * norms[0]


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
            dH = (problem.H(0.5, x, lam, up) - problem.H(0.5, x, lam, um)) / (2 * eps)
            assert np.abs(dH).max() <= 1e-6


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
        ref = ControlProblem.H_x(p, 0.7, x, lam, u)
        assert np.abs(got - ref).max() < 1e-8

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
        p = make_example2()
        rng = np.random.default_rng(11)
        for _ in range(4):
            v = rng.uniform(-0.5, 0.5, 3)
            w = rng.uniform(-0.35, 0.35, 3)
            tgt = optimal_attitude(p.params, v, w)
            assert tgt.kkt_residual <= 1e-8
            assert tgt.constraint_residual <= 1e-9

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
        times, states = rk4_trajectory(p.params, x0, lambda t: controls[min(int(t // 5), 6)], 30.0, 2e-3)
        targets = [optimal_attitude(p.params, s[:3], s[3:]).v_e for s in states[:: len(states) // 8]]
        drift = max(np.abs(t - targets[0]).max() for t in targets)
        assert drift <= 1e-6

    def test_infeasible_momentum_raises(self):
        p = make_example2()
        with pytest.raises(InfeasibleTargetError):
            optimal_attitude(p.params, np.zeros(3), np.array([50.0, 50.0, 50.0]))
