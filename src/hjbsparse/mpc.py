"""Closed-loop zero-order-hold MPC driven by interpolated feedback.

At every sample instant the measured state (true state plus uniform noise) is
clamped to the domain box for interpolation, the control is computed from the
interpolated costate, and held constant while the true dynamics are integrated
with fixed-step classical 4th-order steps.  The integrator also carries the
accumulated running cost.  Everything is deterministic given the seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .characteristics import ControlProblem, FeedbackLaw
from .util import RNG_NAME, make_rng


class HorizonMode(Enum):
    FIXED_INITIAL = "fixed-initial"     # always query the t = 0 dataset
    TIME_IN_GRID = "time-in-grid"       # horizon T - t_k; phase resets to 0 at t = T


@dataclass(frozen=True)
class MpcConfig:
    dt: float                           # zero-order-hold sample period
    t_max: float
    noise_fraction: float = 0.0         # uniform noise amplitude, fraction of axis halfwidth
    horizon_mode: HorizonMode = HorizonMode.FIXED_INITIAL
    substeps: int = 20                  # integrator steps per hold interval
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0 and np.isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"need a finite dt > 0 and t_max >= 0, got dt={self.dt}, t_max={self.t_max}")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.noise_fraction < 0:
            raise ValueError("noise magnitude must be >= 0")


@dataclass
class Trajectory:
    times: np.ndarray
    states: np.ndarray                  # true states, (S, n)
    measured: np.ndarray                # noisy measurements, (S, n)
    controls: np.ndarray                # applied (held) controls, (S, m)
    running_cost: np.ndarray            # instantaneous L at each sample
    accumulated_cost: np.ndarray        # integral of L from 0 to t_k
    clamp_events: list[int]
    status: str                         # "ok" | "diverged"
    seed: int
    rng: str = RNG_NAME


def _rk4_hold(problem: ControlProblem, t0: float, x: np.ndarray, u: np.ndarray,
              dt: float, substeps: int) -> tuple[np.ndarray, float]:
    """Integrate the true dynamics and running cost over one hold interval."""
    uu = u[:, None]

    def deriv(t, xz):
        xc = xz[:-1][:, None]
        dx = problem.f(t, xc, uu)[:, 0]
        dz = float(problem.L(t, xc, uu)[0])
        return np.concatenate([dx, [dz]])

    h = dt / substeps
    xz = np.concatenate([x, [0.0]])
    t = t0
    for _ in range(substeps):
        k1 = deriv(t, xz)
        k2 = deriv(t + h / 2, xz + h / 2 * k1)
        k3 = deriv(t + h / 2, xz + h / 2 * k2)
        k4 = deriv(t + h, xz + h * k3)
        xz = xz + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
    return xz[:-1], float(xz[-1])


def simulate(problem: ControlProblem, law: FeedbackLaw, x0: np.ndarray, config: MpcConfig) -> Trajectory:
    """Run the closed loop from x0; aborts with status "diverged" if the true
    state leaves the 2x inflated domain box."""
    box = problem.state_box
    rng = make_rng(config.seed)
    noise_amp = config.noise_fraction * 0.5 * box.width

    n_steps = int(round(config.t_max / config.dt))
    times, states, measured, controls, run_cost, acc_cost = [], [], [], [], [], []
    clamp_events: list[int] = []
    status = "ok"

    x = np.asarray(x0, dtype=float).copy()
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
        clamped = box.clip(meas)
        if np.any(clamped != meas):
            clamp_events.append(k)
        u = law.control(t_eff, clamped)
        lcur = float(problem.L(t_eff, x[:, None], u[:, None])[0])

        times.append(t_k)
        states.append(x.copy())
        measured.append(meas)
        controls.append(u.copy())
        run_cost.append(lcur)
        acc_cost.append(acc)

        center, half = box.center, 0.5 * box.width
        if np.any(np.abs(x - center) > 2.0 * half):
            status = "diverged"
            break
        if k == n_steps:
            break
        x, dz = _rk4_hold(problem, t_k, x, u, config.dt, config.substeps)
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


def read_trajectory(path) -> tuple[list[str], np.ndarray]:
    """Parse an emitted CSV back into (header, data matrix)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = np.array([[float(v) for v in row] for row in reader])
    return header, data
