"""Closed-loop zero-order-hold MPC driven by interpolated feedback.

At every sample instant the measured state (true state plus uniform noise) is
clamped to the domain box for interpolation, the control is computed from the
interpolated costate, and held constant while the true dynamics are integrated
with fixed-step classical 4th-order steps.  The integrator also carries the
accumulated running cost.  Everything is deterministic given the seed.

The plant is stepped on the 1-D state: each hold calls f(t, x, u) 4 * _SUBSTEPS
times, with x of shape (n,) and u of shape (m,), returning (n,).  The running
cost never feeds back into x, so each hold calls L once, on the stage states
as (n, 4 * _SUBSTEPS) columns with u broadcast to (m, 4 * _SUBSTEPS), and sums
it substep by substep; simulate calls L on the 1-D state once per sample for
the recorded running cost.  ControlProblem states this shape contract, under
which a column's L equals the 1-D call; the BVP sweep calls f and L on
(n, P) columns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .characteristics import ControlProblem, FeedbackLaw
from .util import RNG_NAME, make_rng

_SUBSTEPS = 20                          # integrator steps per hold interval


class HorizonMode(Enum):
    FIXED_INITIAL = "fixed-initial"     # always query the t = 0 dataset
    TIME_IN_GRID = "time-in-grid"       # horizon T - t_k; phase resets to 0 at t = T


@dataclass(frozen=True)
class MpcConfig:
    dt: float                           # zero-order-hold sample period
    t_max: float
    noise_fraction: float = 0.0         # uniform noise amplitude, fraction of axis halfwidth
    horizon_mode: HorizonMode = HorizonMode.FIXED_INITIAL
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0 and np.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"need a finite dt > 0 and t_max >= 0, got dt={self.dt}, t_max={self.t_max}")
        if not (np.isfinite(self.noise_fraction) and self.noise_fraction >= 0):
            raise ValueError(f"noise magnitude must be finite and >= 0, got {self.noise_fraction}")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray                  # true states, (S, n)
    measured: np.ndarray                # noisy measurements, (S, n)
    controls: np.ndarray                # applied (held) controls, (S, m); NaN at a diverged sample
    running_cost: np.ndarray            # instantaneous L at each sample; NaN at a diverged sample
    accumulated_cost: np.ndarray        # integral of L from 0 to t_k
    clamp_events: list[int]
    status: str                         # "ok" | "diverged"
    seed: int
    rng: str = RNG_NAME


def _rk4_hold(problem: ControlProblem, t0: float, x: np.ndarray, u: np.ndarray,
              dt: float) -> tuple[np.ndarray, float]:
    """Integrate the true dynamics and running cost over one hold interval.

    x is the 1-D state and u the 1-D held control.  f is called on the 1-D
    state at each of the 4 * _SUBSTEPS RK4 stages, which are kept as columns;
    the running cost never feeds back into x, so L is called once per hold on
    those columns, and z is stepped by the same RK4 weights as x, substep by
    substep.  The column contract makes each stage's L equal to the 1-D call.
    """
    f = problem.f
    h = dt / _SUBSTEPS
    stages = 4 * _SUBSTEPS
    xs = np.empty((problem.n, stages))  # the state at each stage, k1..k4 of each substep in turn
    ts = np.empty(stages)
    t = t0
    for i in range(0, stages, 4):
        xs[:, i], ts[i] = x, t
        k1 = f(t, x, u)
        xs[:, i + 1] = xm = x + h / 2 * k1
        k2 = f(t + h / 2, xm, u)
        xs[:, i + 2] = xm = x + h / 2 * k2
        k3 = f(t + h / 2, xm, u)
        xs[:, i + 3] = xm = x + h * k3
        k4 = f(t + h, xm, u)
        ts[i + 1] = ts[i + 2] = t + h / 2
        ts[i + 3] = t + h
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    l = problem.L(ts, xs, np.broadcast_to(u[:, None], (u.shape[0], stages)))
    z = 0.0
    # one substep at a time, as the old loop rounded: np.sum pairs terms, and sum() compensates on Python >= 3.12
    for dz in (h / 6 * (l[0::4] + 2 * l[1::4] + 2 * l[2::4] + l[3::4])).tolist():
        z = z + dz
    return x, z


def check_x0(problem: ControlProblem, x0) -> np.ndarray:
    """x0 as a float array; ValueError unless it is problem.n finite numbers."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (problem.n,) or not np.all(np.isfinite(x)):
        raise ValueError(f"x0 must be {problem.n} finite numbers, got {x.tolist()}")
    return x


def simulate(problem: ControlProblem, law: FeedbackLaw, x0: np.ndarray, config: MpcConfig) -> Trajectory:
    """Run the closed loop from x0; aborts with status "diverged" once the true
    state is outside the 2x inflated domain box or not finite.

    The state is checked before its measurement is clamped and the law is
    queried at it, so a diverged last sample has NaN control and running cost
    and is no clamp event.

    The problem is specialized once at x0: Example II's target attitude is
    invariant along true trajectories (C^T B = 0), so it is solved for once.
    """
    x0 = check_x0(problem, x0)
    problem = problem.specialize(0.0, x0)
    box = problem.state_box
    rng = make_rng(config.seed)
    noise_amp = config.noise_fraction * 0.5 * box.width

    n_steps = int(round(config.t_max / config.dt))
    times, states, measured, controls, run_cost, acc_cost = [], [], [], [], [], []
    clamp_events: list[int] = []
    status = "ok"

    center, half = box.center, 0.5 * box.width
    x = x0.copy()
    acc = 0.0
    T = problem.horizon
    for k in range(n_steps + 1):
        t_k = k * config.dt
        if config.horizon_mode is HorizonMode.TIME_IN_GRID:
            t_eff = t_k % T  # at t = T the initial time resets to zero
        else:
            t_eff = 0.0
        noise = rng.uniform(-1.0, 1.0, size=problem.n) * noise_amp
        meas = x + noise
        times.append(t_k)
        states.append(x.copy())
        measured.append(meas)
        acc_cost.append(acc)

        # stated positively, so that a NaN state fails it too
        if not np.all(np.abs(x - center) <= 2.0 * half):
            controls.append(np.full(problem.m, np.nan))
            run_cost.append(np.nan)
            status = "diverged"
            break
        clamped = box.clip(meas)
        if np.any(clamped != meas):
            clamp_events.append(k)
        u = law.control(t_eff, clamped)
        controls.append(u.copy())
        run_cost.append(float(problem.L(t_eff, x, u)))
        if k == n_steps:
            break
        x, dz = _rk4_hold(problem, t_k, x, u, config.dt)
        acc += dz

    return Trajectory(
        times=np.array(times), states=np.array(states), measured=np.array(measured),
        controls=np.array(controls), running_cost=np.array(run_cost),
        accumulated_cost=np.array(acc_cost), clamp_events=clamp_events,
        status=status, seed=config.seed,
    )


def emit_trajectory(trajectory: Trajectory, path, problem: ControlProblem) -> None:
    """Plot-ready CSV with columns t, states, controls, accumulated cost."""
    header = ["t", *problem.state_labels, *problem.control_labels, "cost"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(trajectory.times)):
            row = [trajectory.times[i], *trajectory.states[i], *trajectory.controls[i],
                   trajectory.accumulated_cost[i]]
            writer.writerow([repr(float(v)) for v in row])
