import filecmp

import numpy as np
import pytest
from attitude_oracle import column_f
from example3_oracle import example3_control
from trajectory_csv import read_trajectory

from hjbsparse import problems
from hjbsparse.characteristics import FeedbackLaw
from hjbsparse.errors import validate
from hjbsparse.mpc import (
    _SUBSTEPS,
    HorizonMode,
    MpcConfig,
    Trajectory,
    _rk4_hold,
    emit_trajectory,
    simulate,
)
from hjbsparse.problems import AnalyticProblem, make_example1, make_example2, make_example3


def augmented_rk4_hold(problem, t0, x, u, dt, rate=None):
    """Reference hold: RK4 on the augmented column state (x, z), z' = L, with rate = x' and
    L called on (n, 1) columns; rate defaults to problem.f."""
    rate = rate or problem.f
    uu = u[:, None]

    def deriv(t, xz):
        xc = xz[:-1][:, None]
        return np.concatenate([rate(t, xc, uu)[:, 0], [float(problem.L(t, xc, uu)[0])]])

    h = dt / _SUBSTEPS
    xz = np.concatenate([x, [0.0]])
    t = t0
    for _ in range(_SUBSTEPS):
        k1 = deriv(t, xz)
        k2 = deriv(t + h / 2, xz + h / 2 * k1)
        k3 = deriv(t + h / 2, xz + h / 2 * k2)
        k4 = deriv(t + h, xz + h * k3)
        xz = xz + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return xz[:-1], float(xz[-1])


def per_stage_rk4_hold(problem, t0, x, u, dt):
    """Reference hold: RK4 on the 1-D state with L called on the 1-D state at every stage,
    and z stepped by the same weights as x, as a separate float."""
    f, L = problem.f, problem.L
    h = dt / _SUBSTEPS
    z = 0.0
    t = t0
    for _ in range(_SUBSTEPS):
        k1, l1 = f(t, x, u), L(t, x, u)
        xm = x + h / 2 * k1
        k2, l2 = f(t + h / 2, xm, u), L(t + h / 2, xm, u)
        xm = x + h / 2 * k2
        k3, l3 = f(t + h / 2, xm, u), L(t + h / 2, xm, u)
        xm = x + h * k3
        k4, l4 = f(t + h, xm, u), L(t + h, xm, u)
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        z = z + h / 6 * (l1 + 2 * l2 + 2 * l3 + l4)
        t += h
    return x, float(z)


def random_holds(make, seed, count=10):
    """count seeded (problem specialized at x, x, u) triples inside the middle half of make()'s box."""
    problem, rng = make(), np.random.default_rng(seed)
    box = problem.state_box
    for _ in range(count):
        x = box.center + rng.uniform(-0.5, 0.5, problem.n) * box.width
        u = rng.uniform(-1.0, 1.0, problem.m)
        yield problem.specialize(0.0, x), x, u


def ex3_config(**kw):
    base = dict(dt=1.0 / 7.0, t_max=5.0, noise_fraction=0.025,
                horizon_mode=HorizonMode.TIME_IN_GRID, seed=17)
    base.update(kw)
    return MpcConfig(**base)


class ConstantLaw:
    """A feedback law that returns the same control everywhere."""

    def __init__(self, u):
        self.u = np.array(u, dtype=float)

    def control(self, t, x):
        return self.u.copy()


class TestRk4Hold:
    """_rk4_hold steps the 1-D state with z apart; it equals RK4 on the augmented (x, z) column."""

    @pytest.mark.parametrize("make", [make_example1, make_example2, make_example3])
    def test_equals_the_augmented_column_hold(self, make):
        for frozen, x, u in random_holds(make, 31):
            got_x, got_z = _rk4_hold(frozen, 0.3, x, u, 1.0 / 7.0)
            assert got_x.shape == (frozen.n,) and isinstance(got_z, float)
            if make is make_example3:
                # f and L do the same operations on a point as on a column
                ref_x, ref_z = augmented_rk4_hold(frozen, 0.3, x, u, 1.0 / 7.0)
                assert np.array_equal(got_x, ref_x) and got_z == ref_z
                continue
            # the reference takes x' from the rotation-matrix formulation of f
            ref_x, ref_z = augmented_rk4_hold(frozen, 0.3, x, u, 1.0 / 7.0,
                                              rate=lambda t, xc, uc: column_f(frozen, xc, uc))
            assert np.abs(got_x - ref_x).max() <= 1e-13 * np.abs(ref_x).max()
            assert abs(got_z - ref_z) <= 1e-13 * abs(ref_z)

    @pytest.mark.parametrize("make", [make_example1, make_example2, make_example3])
    def test_bit_equal_to_the_per_stage_hold(self, make):
        """One L call on the stage columns gives the bits of one L call per stage."""
        for frozen, x, u in random_holds(make, 43):
            got_x, got_z = _rk4_hold(frozen, 0.3, x, u, 1.0 / 7.0)
            ref_x, ref_z = per_stage_rk4_hold(frozen, 0.3, x, u, 1.0 / 7.0)
            assert np.array_equal(got_x, ref_x) and got_z == ref_z

    @pytest.mark.parametrize("make", [make_example1, make_example2, make_example3])
    def test_one_running_cost_call_per_hold(self, make, monkeypatch):
        frozen, x, u = next(random_holds(make, 5, count=1))
        calls = {"f": [], "L": []}
        for name in calls:
            method = getattr(frozen, name)

            def counted(t, xx, uu, name=name, method=method):
                calls[name].append(np.shape(xx))
                return method(t, xx, uu)
            monkeypatch.setattr(frozen, name, counted)
        _rk4_hold(frozen, 0.0, x, u, 0.1)
        assert calls["f"] == [(frozen.n,)] * (4 * _SUBSTEPS)
        assert calls["L"] == [(frozen.n, 4 * _SUBSTEPS)]


class TestDivergence:
    """A state outside the 2x box or not finite ends the run as "diverged" before the law sees it."""

    def test_overflowing_control_diverges_example3(self, ex3):
        cfg = ex3_config(noise_fraction=0.0, t_max=1.0)
        with np.errstate(all="ignore"):
            traj = simulate(ex3, ConstantLaw([1e200]), np.array([0.0, 0.0, 1.5]), cfg)
        assert traj.status == "diverged"
        assert not np.all(np.isfinite(traj.states[-1]))
        assert np.all(np.isnan(traj.controls[-1])) and np.isnan(traj.running_cost[-1])
        assert len(traj.times) < 8 and np.all(np.isfinite(traj.states[:-1]))
        assert len(traj.times) - 1 not in traj.clamp_events

    def test_nan_control_diverges_example1(self):
        cfg = MpcConfig(dt=0.1, t_max=1.0)
        traj = simulate(make_example1(), ConstantLaw([np.nan] * 3), np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.0]), cfg)
        assert traj.status == "diverged"
        assert len(traj.times) == 2 and np.all(np.isnan(traj.states[-1]))

    def test_nan_state_is_not_queried_by_a_feedback_law(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        assert isinstance(law, FeedbackLaw)

        class Overflowing(AnalyticProblem):
            """Example III with its control amplified 1e200 times: one hold overflows the state."""

            def f(self, t, x, u):
                return super().f(t, x, 1e200 * u)

        with np.errstate(all="ignore"):
            traj = simulate(Overflowing(), law, np.array([0.0, 0.0, 1.5]), ex3_config(noise_fraction=0.0))
        assert traj.status == "diverged"
        assert len(traj.times) == 2 and not np.all(np.isfinite(traj.states[-1]))


class TestSimulateExample3:
    def test_noisy_run_stabilizes_x3(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        traj = simulate(ex3, law, np.array([1.0, 1.0, 1.0]), ex3_config())
        assert traj.status == "ok"
        assert abs(traj.states[-1][2]) < 0.2
        # the x3-weighted running cost decays
        assert np.mean(traj.running_cost[-5:]) < 0.1 * np.mean(traj.running_cost[:5])

    def test_zero_noise_from_grid_point_tracks_closed_form(self, ex3, ex3_q9):
        grid, _, law = ex3_q9
        at_t0 = np.abs(grid.phys[:, 0]) < 1e-12
        pid = int(np.nonzero(at_t0)[0][np.argmax(np.abs(grid.phys[at_t0, 3]))])
        x0 = grid.phys[pid][1:]
        traj = simulate(ex3, law, x0, ex3_config(noise_fraction=0.0))
        u_true = np.array([
            float(example3_control(t % 5.0, *x)) for t, x in zip(traj.times, traj.states)
        ])
        diffs = np.abs(traj.controls[:, 0] - u_true)
        # the very first sample sits exactly on a grid point
        assert diffs[0] < 1e-6
        # later samples are off-grid; bound derived from the measured q=9
        # validation MAE (~5e-2) times the control map amplification
        assert diffs.max() < 0.5

    def test_time_in_grid_phase_resets(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        traj = simulate(ex3, law, np.array([0.5, 0.5, 0.5]), ex3_config(t_max=7.5, noise_fraction=0.0))
        assert traj.status == "ok"
        assert len(traj.times) == int(round(7.5 / (1 / 7))) + 1

    def test_deterministic_bytes(self, tmp_path, ex3, ex3_q9):
        _, _, law = ex3_q9
        cfg = ex3_config(seed=23)
        t1 = simulate(ex3, law, np.array([1.0, -0.5, 0.8]), cfg)
        t2 = simulate(ex3, law, np.array([1.0, -0.5, 0.8]), cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trajectory(t1, p1, ex3)
        emit_trajectory(t2, p2, ex3)
        assert filecmp.cmp(p1, p2, shallow=False)

    def test_measurements_are_clamped_not_states(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        traj = simulate(ex3, law, np.array([1.99, 1.99, 1.99]), ex3_config(noise_fraction=0.05, seed=3))
        box = ex3.state_box
        assert len(traj.clamp_events) > 0
        assert np.all(np.abs(traj.measured[traj.clamp_events[0]] - box.center) >= 0)

    def test_divergence_guard(self, ex3):
        traj = simulate(ex3, ConstantLaw([30.0]), np.array([0.0, 0.0, 1.5]),
                        ex3_config(noise_fraction=0.0, t_max=5.0))
        assert traj.status == "diverged"
        assert len(traj.times) < 36


class TestSimulateExample1:
    def test_origin_is_noise_free_equilibrium(self, ex1, ex1_q8):
        _, _, law = ex1_q8
        cfg = MpcConfig(dt=0.1, t_max=20.0, noise_fraction=0.0,
                        horizon_mode=HorizonMode.FIXED_INITIAL, seed=0)
        traj = simulate(ex1, law, np.zeros(6), cfg)
        assert traj.status == "ok"
        assert np.abs(traj.states).max() <= 1e-6

    def test_closed_loop_cost_bounded_below_by_value(self, ex1, ex1_q8, workers):
        # the open-loop optimum lower-bounds the realized closed-loop cost,
        # up to interpolation and integration error
        grid, sol, law = ex1_q8
        interior = np.abs(grid.ref - 0.5).max(axis=1) < 0.45
        pid = int(np.nonzero(interior)[0][np.argmax([sol.records[i].V for i in np.nonzero(interior)[0]])])
        x0 = grid.phys[pid]
        cfg = MpcConfig(dt=0.1, t_max=20.0, noise_fraction=0.0,
                        horizon_mode=HorizonMode.FIXED_INITIAL, seed=0)
        traj = simulate(ex1, law, x0, cfg)
        assert traj.status == "ok"
        closed_loop = traj.accumulated_cost[-1] + ex1.h(traj.states[-1])
        rep = validate(ex1, law, n_samples=25, tight_tol=1e-9, seed=9, workers=workers)
        slack = 5.0 * (rep.mae + 1e-6)
        assert closed_loop >= law.value_at(0.0, x0) - slack


class TestSimulateExample2:
    def test_target_attitude_solved_once(self, monkeypatch):
        calls = []
        target = problems.optimal_attitude
        monkeypatch.setattr(problems, "optimal_attitude", lambda *a: calls.append(a) or target(*a))

        x0 = np.array([0.1, -0.1, 0.2, 0.05, 0.0, -0.05])
        traj = simulate(make_example2(), ConstantLaw([0.0, 0.0]), x0, MpcConfig(dt=0.1, t_max=0.1))
        assert traj.status == "ok" and len(traj.times) == 2
        assert len(calls) == 1

    @pytest.mark.parametrize("x0", [[0.1], [0.1, 0.2, 0.3], [0.0] * 5 + [float("nan")]])
    def test_x0_must_be_n_finite_numbers(self, x0):
        with pytest.raises(ValueError, match="x0 must be 6 finite numbers"):
            simulate(make_example2(), None, np.array(x0), MpcConfig(dt=0.1, t_max=0.1))


class TestEmission:
    def test_round_trip(self, tmp_path, ex3, ex3_q9):
        _, _, law = ex3_q9
        traj = simulate(ex3, law, np.array([0.7, -0.2, 0.9]), ex3_config(noise_fraction=0.0))
        path = tmp_path / "traj.csv"
        emit_trajectory(traj, path, ex3)
        header, data = read_trajectory(path)
        assert header == ["t", "x1", "x2", "x3", "u", "cost"]
        assert np.array_equal(data[:, 0], traj.times)
        assert np.array_equal(data[:, 1:4], traj.states)
        assert np.array_equal(data[:, 4], traj.controls[:, 0])
        assert np.array_equal(data[:, 5], traj.accumulated_cost)

    def test_example2_column_layout(self, tmp_path):
        p2 = make_example2()
        traj = Trajectory(
            times=np.array([0.0, 0.1]),
            states=np.zeros((2, 6)),
            measured=np.zeros((2, 6)),
            controls=np.zeros((2, 2)),
            running_cost=np.zeros(2),
            accumulated_cost=np.zeros(2),
            clamp_events=[],
            status="ok",
            seed=0,
        )
        path = tmp_path / "t2.csv"
        emit_trajectory(traj, path, p2)
        header, data = read_trajectory(path)
        assert header == ["t", "phi", "theta", "psi", "w1", "w2", "w3", "u1", "u2", "cost"]
        assert data.shape == (2, 10)

    def test_accumulated_cost_nondecreasing(self, ex3, ex3_q9):
        _, _, law = ex3_q9
        traj = simulate(ex3, law, np.array([1.0, 1.0, 1.0]), ex3_config())
        assert np.all(np.diff(traj.accumulated_cost) >= -1e-15)


class TestConfig:
    def test_validation(self):
        for noise in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MpcConfig(dt=0.1, t_max=1.0, noise_fraction=noise)
        for dt in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MpcConfig(dt=dt, t_max=1.0)
        with pytest.raises(ValueError):
            MpcConfig(dt=0.1, t_max=-1.0)
