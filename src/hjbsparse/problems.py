"""Concrete control problems: rigid-body attitude with momentum wheels and a 3-state analytic benchmark.

Attitude conventions (the machine-checkable conservation law below is the
arbiter for every sign choice; see README for the full matrices):

* Euler angles v = (phi, theta, psi), (3,2,1) sequence; R(v) = R1(phi) R2(theta) R3(psi)
  maps inertial to body coordinates, R(0) = I.
* Body angular velocity w; kinematics v' = E(v) w with E the inverse of the
  (3,2,1) rate map; E(0) = I; singular at theta = +-pi/2 (excluded by domains).
* skew(a) b = b x a (= -[a]x b), so the wheel dynamics J w' = skew(w) R(v) H + B u
  conserve C^T (J w - R(v) H) whenever C^T B = 0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize

from .characteristics import ControlProblem
from .exceptions import InfeasibleTargetError, SingularityError, TargetSolveError
from .grid import Box

_GIMBAL_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

def rotation(v: np.ndarray) -> np.ndarray:
    """Inertial-to-body rotation matrix for the (3,2,1) Euler sequence."""
    s1, c1 = math.sin(v[0]), math.cos(v[0])
    s2, c2 = math.sin(v[1]), math.cos(v[1])
    s3, c3 = math.sin(v[2]), math.cos(v[2])
    return np.array([
        [c2 * c3, c2 * s3, -s2],
        [s1 * s2 * c3 - c1 * s3, s1 * s2 * s3 + c1 * c3, s1 * c2],
        [c1 * s2 * c3 + s1 * s3, c1 * s2 * s3 - s1 * c3, c1 * c2],
    ])


def euler_rates_matrix(v: np.ndarray) -> np.ndarray:
    """E(v) with v' = E(v) w; raises at gimbal lock."""
    if abs(abs(float(v[1])) - math.pi / 2) < _GIMBAL_MARGIN:
        raise SingularityError(f"theta = {float(v[1])} is at gimbal lock")
    s1, c1 = math.sin(v[0]), math.cos(v[0])
    t2, c2 = math.tan(v[1]), math.cos(v[1])
    return np.array([
        [1.0, s1 * t2, c1 * t2],
        [0.0, c1, -s1],
        [0.0, s1 / c2, c1 / c2],
    ])


def skew(a: np.ndarray) -> np.ndarray:
    """Matrix S with S(a) b = b x a; skew-symmetric, S(a) a = 0."""
    return np.array([
        [0.0, a[2], -a[1]],
        [-a[2], 0.0, a[0]],
        [a[1], -a[0], 0.0],
    ])


def _rotation_cols(v: np.ndarray) -> np.ndarray:
    """R(v) for v of shape (3, P); returns (P, 3, 3)."""
    s1, c1 = np.sin(v[0]), np.cos(v[0])
    s2, c2 = np.sin(v[1]), np.cos(v[1])
    s3, c3 = np.sin(v[2]), np.cos(v[2])
    R = np.empty((v.shape[1], 3, 3))
    R[:, 0, 0] = c2 * c3
    R[:, 0, 1] = c2 * s3
    R[:, 0, 2] = -s2
    R[:, 1, 0] = s1 * s2 * c3 - c1 * s3
    R[:, 1, 1] = s1 * s2 * s3 + c1 * c3
    R[:, 1, 2] = s1 * c2
    R[:, 2, 0] = c1 * s2 * c3 + s1 * s3
    R[:, 2, 1] = c1 * s2 * s3 - s1 * c3
    R[:, 2, 2] = c1 * c2
    return R


# ---------------------------------------------------------------------------
# Attitude problems (Examples with three and two wheel pairs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AttitudeParams:
    B: np.ndarray            # (3, m) input matrix
    J: np.ndarray            # (3,) diagonal inertia
    H: np.ndarray            # (3,) total angular momentum, inertial frame
    W: tuple[float, ...]     # weights W1..W5 (W4, W5 unused without terminal cost)
    T: float
    domain: Box              # 6-D state box


def attitude_dynamics(params: AttitudeParams, t: float, state: np.ndarray, u: np.ndarray):
    """(v', w') of the wheel-controlled rigid body at a single state."""
    v, w = np.asarray(state[:3], dtype=float), np.asarray(state[3:], dtype=float)
    vdot = euler_rates_matrix(v) @ w
    RH = rotation(v) @ params.H
    wdot = (np.cross(RH, w) + params.B @ np.asarray(u, dtype=float)) / params.J
    return vdot, wdot


@dataclass
class AttitudeProblem(ControlProblem):
    """Quadratic attitude regulation; u* = -(1/W3) B^T J^-1 lam_w in closed form."""

    params: AttitudeParams = None
    name: str = "attitude"
    terminal: bool = True            # quadratic terminal cost W4|v|^2 + W5|w|^2
    reachable: bool = False          # running cost centered at the optimal reachable attitude
    target_attitude: np.ndarray | None = None
    n: int = 6
    time_in_grid: bool = False
    state_labels: tuple[str, ...] = ("phi", "theta", "psi", "w1", "w2", "w3")

    def __post_init__(self):
        self.m = self.params.B.shape[1]
        self.horizon = self.params.T
        self.domain = self.params.domain
        self.control_labels = tuple(f"u{i + 1}" for i in range(self.m))

    def _check_theta(self, theta: np.ndarray) -> None:
        if np.any(np.abs(np.abs(theta) - math.pi / 2) < _GIMBAL_MARGIN):
            raise SingularityError("state at gimbal lock")

    def f(self, t, x, u):
        v, w = x[:3], x[3:]
        self._check_theta(v[1])
        s1, c1 = np.sin(v[0]), np.cos(v[0])
        t2, c2 = np.tan(v[1]), np.cos(v[1])
        vdot = np.stack([
            w[0] + s1 * t2 * w[1] + c1 * t2 * w[2],
            c1 * w[1] - s1 * w[2],
            (s1 * w[1] + c1 * w[2]) / c2,
        ])
        RH = np.einsum("pij,j->ip", _rotation_cols(v), self.params.H)
        gyro = np.stack([
            RH[1] * w[2] - RH[2] * w[1],
            RH[2] * w[0] - RH[0] * w[2],
            RH[0] * w[1] - RH[1] * w[0],
        ])
        wdot = (gyro + self.params.B @ u) / self.params.J[:, None]
        return np.vstack([vdot, wdot])

    def _target(self, x: np.ndarray) -> np.ndarray:
        if not self.reachable:
            return np.zeros((3, 1))
        if self.target_attitude is not None:
            return self.target_attitude[:, None]
        cols = [optimal_attitude(self.params, x[:3, p], x[3:, p]).v_e for p in range(x.shape[1])]
        return np.stack(cols, axis=1)

    def L(self, t, x, u):
        W1, W2, W3 = self.params.W[:3]
        dv = x[:3] - self._target(x)
        return 0.5 * (W1 * (dv**2).sum(axis=0) + W2 * (x[3:] ** 2).sum(axis=0) + W3 * (u**2).sum(axis=0))

    def h(self, x):
        if not self.terminal:
            return 0.0
        W4, W5 = self.params.W[3], self.params.W[4]
        return float(W4 * np.dot(x[:3], x[:3]) + W5 * np.dot(x[3:], x[3:]))

    def h_x(self, x):
        if not self.terminal:
            return np.zeros(6)
        W4, W5 = self.params.W[3], self.params.W[4]
        return np.concatenate([2 * W4 * x[:3], 2 * W5 * x[3:]])

    def u_star(self, t, x, lam):
        return -(1.0 / self.params.W[2]) * (self.params.B.T @ (lam[3:] / self.params.J[:, None]))

    def specialize(self, t0, x0):
        if not self.reachable or self.target_attitude is not None:
            return self
        target = optimal_attitude(self.params, x0[:3], x0[3:]).v_e
        return replace(self, target_attitude=target)

    def spec(self) -> dict:
        p = self.params
        return {"id": self.name, "params": {"B": p.B.tolist(), "J": p.J.tolist(), "H": p.H.tolist(),
                                            "W": list(p.W), "T": p.T, "domain": p.domain.as_json()}}


def make_example1(domain: str = "d1") -> AttitudeProblem:
    """Three wheel pairs, fully actuated; terminal cost W4|v(T)|^2 + W5|w(T)|^2, T = 20."""
    if domain == "d1":
        box = Box((-math.pi / 6,) * 3 + (-math.pi / 8,) * 3, (math.pi / 6,) * 3 + (math.pi / 8,) * 3)
    elif domain == "d2":
        box = Box((-math.pi / 3,) * 3 + (-math.pi / 4,) * 3, (math.pi / 3,) * 3 + (math.pi / 4,) * 3)
    else:
        raise ValueError(f"unknown domain id {domain!r}; expected d1|d2")
    params = AttitudeParams(
        B=np.array([[1.0, 1 / 20, 1 / 10], [1 / 15, 1.0, 1 / 10], [1 / 10, 1 / 15, 1.0]]),
        J=np.array([2.0, 3.0, 4.0]),
        H=np.array([1.0, 1.0, 1.0]),
        W=(1.0, 1.0, 0.5, 1.0, 1.0),
        T=20.0,
        domain=box,
    )
    return AttitudeProblem(params=params, name="example1", terminal=True, reachable=False)


def make_example2() -> AttitudeProblem:
    """Two wheel pairs, uncontrollable; cost centered at the reachable optimal attitude, T = 30."""
    box = Box((-math.pi / 6,) * 3 + (-math.pi / 8,) * 3, (math.pi / 6,) * 3 + (math.pi / 8,) * 3)
    params = AttitudeParams(
        B=np.array([[1.0, 1 / 10], [0.0, 1.0], [1 / 12, 0.0]]),
        J=np.array([2.0, 3.0, 4.0]),
        H=np.array([12.0, 12.0, 6.0]),
        W=(1.0, 2.0, 0.5, 0.0, 0.0),
        T=30.0,
        domain=box,
    )
    return AttitudeProblem(params=params, name="example2", terminal=False, reachable=True)


# ---------------------------------------------------------------------------
# Optimal reachable attitude (two-wheel case)
# ---------------------------------------------------------------------------

@dataclass
class ReachableTarget:
    v_e: np.ndarray
    C: np.ndarray
    c0: float
    trace: float
    kkt_residual: float
    constraint_residual: float


def null_direction(B: np.ndarray) -> np.ndarray:
    """Unit-norm C with C^T B = 0, sign fixed by first nonzero component positive."""
    u_mat, s, _ = np.linalg.svd(B, full_matrices=True)
    C = u_mat[:, -1]
    nz = np.nonzero(np.abs(C) > 1e-12)[0][0]
    if C[nz] < 0:
        C = -C
    return C


def conserved_quantity(params: AttitudeParams, C: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    return float(C @ (params.J * w - rotation(v) @ params.H))


def _fd_grad(fn, v: np.ndarray, step: float = 1e-6) -> np.ndarray:
    g = np.empty(3)
    for i in range(3):
        vp, vm = v.copy(), v.copy()
        vp[i] += step
        vm[i] -= step
        g[i] = (fn(vp) - fn(vm)) / (2 * step)
    return g


def optimal_attitude(params: AttitudeParams, v: np.ndarray, w: np.ndarray) -> ReachableTarget:
    """Attitude maximizing tr R on the reachable manifold through (v, w).

    SLSQP from 8 coarse-grid starts, then a Newton polish of the KKT system;
    multistart guards against local maxima of the trace.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    C = null_direction(params.B)
    c0 = conserved_quantity(params, C, v, w)
    reach = float(np.linalg.norm(C) * np.linalg.norm(params.H))
    if abs(c0) > reach * (1 + 1e-9):
        raise InfeasibleTargetError(f"|c0| = {abs(c0):.6g} exceeds attainable range {reach:.6g}")

    def neg_trace(ve):
        return -float(np.trace(rotation(ve)))

    def constraint(ve):
        return float(C @ rotation(ve) @ params.H) + c0

    best = None
    for corner in itertools.product((-0.6, 0.6), repeat=3):
        res = minimize(neg_trace, np.array(corner), method="SLSQP",
                       constraints=[{"type": "eq", "fun": constraint}],
                       options={"maxiter": 200, "ftol": 1e-12})
        ve = np.asarray(res.x, dtype=float)
        ve, kkt, cres = _kkt_polish(neg_trace, constraint, ve)
        if cres > 1e-9 or kkt > 1e-8:
            continue
        tr = -neg_trace(ve)
        if best is None or tr > best.trace + 1e-12:
            best = ReachableTarget(v_e=ve, C=C, c0=c0, trace=tr, kkt_residual=kkt, constraint_residual=cres)
    if best is None:
        raise TargetSolveError(f"no KKT point found for c0 = {c0:.6g} from any start")
    return best


def _kkt_polish(neg_trace, constraint, v0: np.ndarray, iters: int = 15):
    """Newton iteration on [grad(neg_trace) + mu grad(g); g] with FD derivatives."""
    ve = v0.copy()
    g_obj = _fd_grad(neg_trace, ve)
    g_con = _fd_grad(constraint, ve)
    denom = float(g_con @ g_con)
    mu = -float(g_obj @ g_con) / denom if denom > 1e-14 else 0.0
    z = np.concatenate([ve, [mu]])

    def kkt(zv):
        vv, m = zv[:3], zv[3]
        return np.concatenate([_fd_grad(neg_trace, vv) + m * _fd_grad(constraint, vv), [constraint(vv)]])

    for _ in range(iters):
        F = kkt(z)
        if np.abs(F).max() < 1e-11:
            break
        Jm = np.empty((4, 4))
        for i in range(4):
            zp, zm = z.copy(), z.copy()
            zp[i] += 1e-6
            zm[i] -= 1e-6
            Jm[:, i] = (kkt(zp) - kkt(zm)) / 2e-6
        try:
            step = np.linalg.solve(Jm, -F)
        except np.linalg.LinAlgError:
            break
        if not np.all(np.isfinite(step)):
            break
        z = z + step
    ve, mu = z[:3], z[3]
    g_obj = _fd_grad(neg_trace, ve)
    g_con = _fd_grad(constraint, ve)
    kkt_res = float(np.abs(g_obj + mu * g_con).max())
    return ve, kkt_res, abs(constraint(ve))


# ---------------------------------------------------------------------------
# Analytic 3-state benchmark with time in the grid
# ---------------------------------------------------------------------------

@dataclass
class AnalyticProblem(ControlProblem):
    """3-state problem with known value function, solved over the (t, x) box."""

    name: str = "example3"
    n: int = 3
    m: int = 1
    horizon: float = 5.0
    time_in_grid: bool = True
    state_labels: tuple[str, ...] = ("x1", "x2", "x3")
    control_labels: tuple[str, ...] = ("u",)

    def __post_init__(self):
        self.domain = Box((0.0, -2.0, -2.0, -2.0), (self.horizon, 2.0, 2.0, 2.0))

    def f(self, t, x, u):
        x1, x2, x3 = x
        D = 1.0 + x1**2 + x2**2
        g = -2 * x1**2 + 2 * x1 * x2 - 2 * x2**2 + 2 * x2 * x3 / D
        return np.stack([-x1 + x2, -x2 + x3 / D, g * x3 / D + D * u[0]])

    def L(self, t, x, u):
        x1, x2, x3 = x
        D = 1.0 + x1**2 + x2**2
        return 0.5 * (x3**2 / D**2 + u[0] ** 2)

    def h(self, x):
        return 0.0

    def h_x(self, x):
        return np.zeros(3)

    def u_star(self, t, x, lam):
        D = 1.0 + x[0] ** 2 + x[1] ** 2
        return (-D * lam[2])[None, :]

    def H_x(self, t, x, lam, u):
        x1, x2, x3 = x
        l1, l2, l3 = lam
        uu = u[0]
        D = 1.0 + x1**2 + x2**2
        g = -2 * x1**2 + 2 * x1 * x2 - 2 * x2**2 + 2 * x2 * x3 / D
        dg1 = -4 * x1 + 2 * x2 - 4 * x1 * x2 * x3 / D**2
        dg2 = 2 * x1 - 4 * x2 + 2 * x3 / D - 4 * x2**2 * x3 / D**2
        dg3 = 2 * x2 / D
        h1 = (-2 * x1 * x3**2 / D**3 - l1 - 2 * l2 * x1 * x3 / D**2
              + l3 * (dg1 * x3 / D - 2 * g * x1 * x3 / D**2 + 2 * x1 * uu))
        h2 = (-2 * x2 * x3**2 / D**3 + l1 + l2 * (-1.0 - 2 * x2 * x3 / D**2)
              + l3 * (dg2 * x3 / D - 2 * g * x2 * x3 / D**2 + 2 * x2 * uu))
        h3 = x3 / D**2 + l2 / D + l3 * (dg3 * x3 / D + g / D)
        return np.stack([h1, h2, h3])


def make_example3() -> AnalyticProblem:
    return AnalyticProblem()


def example3_value(t, x1, x2, x3, T: float = 5.0):
    """Closed-form V(t, x) of the benchmark problem."""
    D = 1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    return 0.5 * np.asarray(x3) ** 2 / D**2 * np.tanh(T - np.asarray(t))


def example3_control(t, x1, x2, x3, T: float = 5.0):
    """Closed-form optimal feedback u*(t, x)."""
    D = 1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    return -np.asarray(x3) / D * np.tanh(T - np.asarray(t))


def example3_costate(t, x1, x2, x3, T: float = 5.0):
    """Closed-form costate V_x(t, x)."""
    D = 1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    th = np.tanh(T - np.asarray(t))
    return np.stack([
        -2 * x1 * x3**2 / D**3 * th,
        -2 * x2 * x3**2 / D**3 * th,
        x3 / D**2 * th,
    ])


PROBLEM_IDS = {"example1", "example2", "example3"}


def make_problem(problem_id: str, domain: str = "d1") -> ControlProblem:
    """CLI-facing factory keyed by problem id."""
    if problem_id == "example1":
        return make_example1(domain)
    if problem_id == "example2":
        return make_example2()
    if problem_id == "example3":
        return make_example3()
    raise ValueError(f"unknown problem id {problem_id!r}; expected one of {sorted(PROBLEM_IDS)}")


# AttitudeParams field -> (check of its JSON value as a float array, conversion to the field's type)
_ATTITUDE_FIELDS = {
    "B": (lambda a: a.ndim == 2 and a.shape[0] == 3 and a.shape[1] >= 1, np.asarray),
    "J": (lambda a: a.shape == (3,) and bool(np.all(a > 0)), np.asarray),
    "H": (lambda a: a.shape == (3,), np.asarray),
    "W": (lambda a: a.shape == (5,), lambda a: tuple(a.tolist())),
    "T": (lambda a: a.shape == () and a >= 0, float),
    "domain": (lambda a: a.shape == (6, 2) and bool(np.all(a[:, 0] < a[:, 1])), Box.from_json),
}


def _attitude_field(key: str, value):
    if key not in _ATTITUDE_FIELDS:
        raise ValueError(f"unknown problem param {key!r}; expected one of {sorted(_ATTITUDE_FIELDS)}")
    check, convert = _ATTITUDE_FIELDS[key]
    try:
        a = np.array(value, dtype=float)
        ok = bool(np.all(np.isfinite(a))) and check(a)
    except (TypeError, ValueError):
        ok = False
    if not ok:
        raise ValueError(f"malformed problem param {key}={value!r}")
    return convert(a)


def problem_from_spec(spec) -> ControlProblem:
    """Inverse of ControlProblem.spec(): make_problem(id) with the given AttitudeParams fields replaced.

    Raises ValueError for an unknown id, an unknown or malformed param, or params for a problem that takes none.
    """
    if not (isinstance(spec, dict) and set(spec) == {"id", "params"} and isinstance(spec["params"], dict)):
        raise ValueError(f'a problem spec is {{"id": ..., "params": {{...}}}}, got {spec!r}')
    problem, params = make_problem(spec["id"]), spec["params"]
    if params and not isinstance(problem, AttitudeProblem):
        raise ValueError(f"problem {spec['id']!r} takes no params, got {sorted(params)}")
    fields = {key: _attitude_field(key, value) for key, value in params.items()}
    return replace(problem, params=replace(problem.params, **fields)) if fields else problem
