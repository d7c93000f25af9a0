import filecmp

import numpy as np
import pytest

from hjbsparse.errors import validate
from hjbsparse.mpc import (
    HorizonMode,
    MpcConfig,
    Trajectory,
    emit_trajectory,
    read_trajectory,
    simulate,
)
from hjbsparse.problems import example3_control, make_example2


def ex3_config(**kw):
    base = dict(dt=1.0 / 7.0, t_max=5.0, noise_fraction=0.025,
                horizon_mode=HorizonMode.TIME_IN_GRID, seed=17)
    base.update(kw)
    return MpcConfig(**base)


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

    def test_divergence_guard(self, ex3, ex3_q9):
        _, _, law = ex3_q9

        class RunawayLaw:
            def control(self, t, x):
                return np.array([30.0])

        traj = simulate(ex3, RunawayLaw(), np.array([0.0, 0.0, 1.5]),
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
        with pytest.raises(ValueError):
            MpcConfig(dt=0.1, t_max=1.0, substeps=0)
        with pytest.raises(ValueError):
            MpcConfig(dt=0.1, t_max=1.0, noise_fraction=-0.1)
        for dt in (0.0, -0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                MpcConfig(dt=dt, t_max=1.0)
        with pytest.raises(ValueError):
            MpcConfig(dt=0.1, t_max=-1.0)
