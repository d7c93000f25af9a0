"""Concrete control problems: rigid-body attitude with momentum wheels and a 3-state analytic benchmark.

Attitude conventions (the machine-checkable conservation law below is the
arbiter for every sign choice; see README for the full matrices):

* Euler angles v = (phi, theta, psi), (3,2,1) sequence; R(v) = R1(phi) R2(theta) R3(psi)
  maps inertial to body coordinates, R(0) = I.
* Body angular velocity w; kinematics v' = E(v) w with E the inverse of the
  (3,2,1) rate map; E(0) = I; singular at theta = +-pi/2 (excluded by domains).
* S(a) b = b x a (= -[a]x b), so the wheel dynamics J w' = S(w) R(v) H + B u
  conserve c0 = C^T (J w - R(v) H) whenever C^T B = 0.
* With two wheel pairs the target attitude v_e maximizes tr R subject to
  C^T R H = -c0 (the attitudes reachable at rest).  It has a closed form
  (optimal_attitude): R* is the least rotation of H onto the nearest point
  of the circle {g : |g| = |H|, C.g = -c0}, so v_e depends only on c0.

AttitudeProblem.f is the one implementation of these dynamics, and _rotate_H
the one of R(v) H, which f, H_x and conserved_quantity share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .characteristics import ControlProblem
from .exceptions import InfeasibleTargetError, SingularityError, TargetSolveError
from .grid import Box

_GIMBAL_MARGIN = 1e-9


# ---------------------------------------------------------------------------
# Kinematics
# ---------------------------------------------------------------------------

def _rotate_H(H, s1, c1, s2, c2, s3, c3):
    """R(v) H = R1(phi) R2(theta) R3(psi) H one elementary rotation at a time, from sin/cos of v.

    Returns R(v) H as (RH0, RH1, RH2) and the intermediates (a0, a1, b2):
    R3(psi) H = (a0, a1, H2), and b2 is the last component of R2(theta) R3(psi) H.
    """
    H0, H1, H2 = H
    a0, a1 = c3 * H0 + s3 * H1, c3 * H1 - s3 * H0
    b0, b2 = c2 * a0 - s2 * H2, s2 * a0 + c2 * H2
    return (b0, c1 * a1 + s1 * b2, c1 * b2 - s1 * a1), (a0, a1, b2)


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


@dataclass
class AttitudeProblem(ControlProblem):
    """Quadratic attitude regulation; u* = -(1/W3) B^T J^-1 lam_w in closed form.

    H_x is closed form too.  With mu = lam_w / J,

        H = L + lam_v . E(v) w + mu . (R(v) H x w) + mu . B u,
        H_w = W2 w + E(v)^T lam_v + mu x R(v) H,
        H_v = W1 (v - v_e) + (d(E w)/dv)^T lam_v + [(dR/dv_k H) . (w x mu)]_k.

    It holds v_e constant, which is true only once specialize has frozen the
    target: on a reachable problem without target_attitude, L and H_x raise
    ValueError.  assemble_bvp always specializes.
    """

    params: AttitudeParams = None
    name: str = "attitude"
    terminal: bool = True            # quadratic terminal cost W4|v|^2 + W5|w|^2
    reachable: bool = False          # running cost centered at the optimal reachable attitude
    target_attitude: np.ndarray | None = None
    n: ClassVar[int] = 6
    time_in_grid: ClassVar[bool] = False
    state_labels: ClassVar[tuple[str, ...]] = ("phi", "theta", "psi", "w1", "w2", "w3")

    def __post_init__(self):
        self.m = self.params.B.shape[1]
        self.horizon = self.params.T
        self.domain = self.params.domain
        self.control_labels = tuple(f"u{i + 1}" for i in range(self.m))
        # J and H as floats, unpacked once here instead of on every f and H_x call
        # (replace() reruns this); float arithmetic rounds as numpy's does
        self._J = tuple(float(j) for j in self.params.J)
        self._H = tuple(float(c) for c in self.params.H)

    def _check_theta(self, theta: np.ndarray) -> None:
        # count_nonzero takes a point's numpy bool and a column's mask alike, cheaper than .any()
        if np.count_nonzero(abs(abs(theta) - math.pi / 2) < _GIMBAL_MARGIN):
            raise SingularityError("state at gimbal lock")

    def f(self, t, x, u):
        v0, v1, v2, w0, w1, w2 = x
        self._check_theta(v1)
        J0, J1, J2 = self._J
        Bu0, Bu1, Bu2 = self.params.B @ u
        s1, c1 = np.sin(v0), np.cos(v0)
        s2, c2 = np.sin(v1), np.cos(v1)
        t2 = np.tan(v1)
        (RH0, RH1, RH2), _ = _rotate_H(self._H, s1, c1, s2, c2, np.sin(v2), np.cos(v2))
        return np.array([
            w0 + s1 * t2 * w1 + c1 * t2 * w2,
            c1 * w1 - s1 * w2,
            (s1 * w1 + c1 * w2) / c2,
            (RH1 * w2 - RH2 * w1 + Bu0) / J0,
            (RH2 * w0 - RH0 * w2 + Bu1) / J1,
            (RH0 * w1 - RH1 * w0 + Bu2) / J2,
        ])

    def H_x(self, t, x, lam, u):
        W1, W2 = self.params.W[:2]
        J0, J1, J2 = self._J
        e0, e1, e2 = self._target()
        v0, v1, v2, w0, w1, w2 = x
        l0, l1, l2, l3, l4, l5 = lam
        self._check_theta(v1)
        s1, c1 = np.sin(v0), np.cos(v0)
        s2, c2 = np.sin(v1), np.cos(v1)
        (RH0, RH1, RH2), (a0, a1, b2) = _rotate_H(self._H, s1, c1, s2, c2, np.sin(v2), np.cos(v2))
        m0, m1, m2 = l3 / J0, l4 / J1, l5 / J2
        sec2 = 1.0 / c2
        # v' = E(v) w: d/dphi and d/dtheta of E(v) w contracted with lam_v, and E(v)^T lam_v, share p
        a, b = s1 * w1 + c1 * w2, c1 * w1 - s1 * w2
        p = sec2 * (s2 * l0 + l2)
        # mu . (R H x w) = (R H) . n with n = w x mu.  For R = R1(phi) R2(theta) R3(psi),
        # dR/dphi H = (0, RH2, -RH1), dR/dtheta H = (-b2, s1 RH0, c1 RH0) and
        # dR/dpsi H = R (H1, -H0, 0) = (c2 a1, s1 s2 a1 - c1 a0, c1 s2 a1 + s1 a0); with
        # RH1 = c1 a1 + s1 b2 and RH2 = c1 b2 - s1 a1, each dot product with n reads
        # (k1, k2) = (s1 n1 + c1 n2, c1 n1 - s1 n2)
        n0, n1, n2 = w1 * m2 - w2 * m1, w2 * m0 - w0 * m2, w0 * m1 - w1 * m0
        k1, k2 = s1 * n1 + c1 * n2, c1 * n1 - s1 * n2
        return np.array([
            W1 * (v0 - e0) + b * p - a * l1 + b2 * k2 - a1 * k1,
            W1 * (v1 - e1) + a * sec2 * sec2 * (l0 + s2 * l2) - b2 * n0 + RH0 * k1,
            W1 * (v2 - e2) + a1 * (c2 * n0 + s2 * k1) - a0 * k2,
            # E(v)^T lam_v + mu x R H
            W2 * w0 + l0 + m1 * RH2 - m2 * RH1,
            W2 * w1 + s1 * p + c1 * l1 + m2 * RH0 - m0 * RH2,
            W2 * w2 + c1 * p - s1 * l1 + m0 * RH1 - m1 * RH0,
        ])

    def _target(self) -> np.ndarray:
        if not self.reachable:
            return np.zeros(3)
        if self.target_attitude is None:
            raise ValueError("the cost is centered at a per-point target attitude; "
                             "call specialize(t0, x0) first to freeze it")
        return self.target_attitude

    def L(self, t, x, u):
        W1, W2, W3 = self.params.W[:3]
        v0, v1, v2, w0, w1, w2 = x
        e0, e1, e2 = self._target()
        d0, d1, d2 = v0 - e0, v1 - e1, v2 - e2
        # products, not scalar **: see AnalyticProblem.f
        return 0.5 * (W1 * (d0 * d0 + d1 * d1 + d2 * d2) + W2 * (w0 * w0 + w1 * w1 + w2 * w2)
                      + W3 * (u * u).sum(axis=0))

    def h(self, x):
        if not self.terminal:
            return 0.0
        W4, W5 = self.params.W[3], self.params.W[4]
        return float(W4 * np.dot(x[:3], x[:3]) + W5 * np.dot(x[3:], x[3:]))

    def h_x(self, x):
        if not self.terminal:
            return np.zeros_like(x)
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


def null_direction(B: np.ndarray) -> np.ndarray:
    """Unit-norm C with C^T B = 0, sign fixed by first nonzero component positive."""
    u_mat, s, _ = np.linalg.svd(B, full_matrices=True)
    C = u_mat[:, -1]
    nz = np.nonzero(np.abs(C) > 1e-12)[0][0]
    if C[nz] < 0:
        C = -C
    return C


def conserved_quantity(params: AttitudeParams, C: np.ndarray, v: np.ndarray, w: np.ndarray) -> float:
    v = np.asarray(v, dtype=float)
    s, c = np.sin(v), np.cos(v)
    RH, _ = _rotate_H(params.H, s[0], c[0], s[1], c[1], s[2], c[2])
    return float(C @ (params.J * w - np.array(RH)))


def optimal_attitude(params: AttitudeParams, v: np.ndarray, w: np.ndarray) -> ReachableTarget:
    """Attitude maximizing tr R on the reachable manifold through (v, w), in closed form.

    At rest the target maps H to g = R H on the circle |g| = |H|, C.g = -c0.
    tr R = 1 + 2 cos(angle of R), and the least angle that moves H onto g is
    angle(H, g), about H x g.  So g* is the circle point nearest H, g* =
    -c0 C + sqrt(|H|^2 - c0^2) P/|P| with P = H - (C.H) C, and R* the rotation
    about H x g* by angle(H, g*).  v_e depends on (v, w) only through c0.
    Raises InfeasibleTargetError for |c0| > |H|, and TargetSolveError when H is
    parallel to C (P = 0) and the optimum is not unique.
    """
    H = params.H
    C = null_direction(params.B)
    c0 = conserved_quantity(params, C, v, w)
    norm_h = float(np.linalg.norm(H))
    if abs(c0) > norm_h * (1 + 1e-9):
        raise InfeasibleTargetError(f"|c0| = {abs(c0):.6g} exceeds attainable range {norm_h:.6g}")
    radius = math.sqrt(max(norm_h**2 - c0**2, 0.0))
    P = H - (C @ H) * C
    norm_p = float(np.linalg.norm(P))
    if norm_p > 1e-9 * norm_h:
        h, g = H / norm_h, (-c0 * C + radius * P / norm_p) / norm_h
        a, c = np.cross(h, g), float(h @ g)
    elif abs(c0 + C @ H) <= 1e-9 * norm_h:  # H parallel to C and the circle is the point H: R* = I
        a, c = np.zeros(3), 1.0
    else:
        raise TargetSolveError(f"H is parallel to the null direction C = {C.tolist()}: "
                               "the optimal attitude is not unique")
    # Rodrigues rotation of the unit vector h onto g: R = c I + [a]x + a a^T / (1 + c)
    a_x = np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])
    R = c * np.eye(3) + a_x + np.outer(a, a) / (1 + c)
    v_e = np.array([math.atan2(R[1, 2], R[2, 2]), -math.asin(min(max(R[0, 2], -1.0), 1.0)),
                    math.atan2(R[0, 1], R[0, 0])])
    return ReachableTarget(v_e=v_e, C=C, c0=c0, trace=1 + 2 * c)


# ---------------------------------------------------------------------------
# Analytic 3-state benchmark with time in the grid
# ---------------------------------------------------------------------------

@dataclass
class AnalyticProblem(ControlProblem):
    """3-state problem with known value function, solved over the (t, x) box.

    It has no fields: spec() records none, so problem_from_spec rebuilds it exactly.
    """

    name: ClassVar[str] = "example3"
    n: ClassVar[int] = 3
    m: ClassVar[int] = 1
    horizon: ClassVar[float] = 5.0
    time_in_grid: ClassVar[bool] = True
    state_labels: ClassVar[tuple[str, ...]] = ("x1", "x2", "x3")
    control_labels: ClassVar[tuple[str, ...]] = ("u",)
    domain: ClassVar[Box] = Box((0.0, -2.0, -2.0, -2.0), (horizon, 2.0, 2.0, 2.0))

    # Squares are products: numpy's scalar ** rounds through pow(), so a 1-D
    # point could differ in the last bit from the same point as a column.
    def f(self, t, x, u):
        x1, x2, x3 = x
        D = 1.0 + x1 * x1 + x2 * x2
        g = -2 * x1 * x1 + 2 * x1 * x2 - 2 * x2 * x2 + 2 * x2 * x3 / D
        return np.array([-x1 + x2, -x2 + x3 / D, g * x3 / D + D * u[0]])

    def L(self, t, x, u):
        x1, x2, x3 = x
        D = 1.0 + x1 * x1 + x2 * x2
        return 0.5 * (x3 * x3 / (D * D) + u[0] * u[0])

    def h(self, x):
        return 0.0

    def h_x(self, x):
        return np.zeros_like(x)

    def u_star(self, t, x, lam):
        D = 1.0 + x[0] ** 2 + x[1] ** 2
        return (-D * lam[2])[None, :]

    def H_x(self, t, x, lam, u):
        x1, x2, x3 = x
        l1, l2, l3 = lam
        uu = u[0]
        r = 1.0 / (1.0 + x1 * x1 + x2 * x2)    # 1 / D
        z = x3 * r                              # x3 / D
        q = z * r                               # x3 / D^2
        g = -2 * x1 * x1 + 2 * x1 * x2 - 2 * x2 * x2 + 2 * x2 * z
        dg1 = -4 * x1 + 2 * x2 - 4 * x1 * x2 * q
        dg2 = 2 * x1 - 4 * x2 + 2 * z - 4 * x2 * x2 * q
        # the terms from dD/dx_i = 2 x_i sum to -2 x_i x3 / D^2 (x3 / D + l2 + l3 g)
        k = q * (z + l2 + l3 * g)
        h1 = -2 * x1 * k - l1 + l3 * (dg1 * z + 2 * x1 * uu)
        h2 = -2 * x2 * k + l1 - l2 + l3 * (dg2 * z + 2 * x2 * uu)
        h3 = q + r * (l2 + l3 * g) + 2 * l3 * x2 * q
        return np.array([h1, h2, h3])


def make_example3() -> AnalyticProblem:
    return AnalyticProblem()


def example3_value(t, x1, x2, x3, T: float = 5.0):
    """Closed-form V(t, x) of the benchmark problem."""
    D = 1.0 + np.asarray(x1) ** 2 + np.asarray(x2) ** 2
    return 0.5 * np.asarray(x3) ** 2 / D**2 * np.tanh(T - np.asarray(t))


PROBLEM_IDS = {"example1", "example2", "example3"}


def make_problem(problem_id: str, domain: str = "d1") -> ControlProblem:
    """CLI-facing factory keyed by problem id; only example1 has a domain other than d1."""
    if problem_id == "example1":
        return make_example1(domain)
    if problem_id in PROBLEM_IDS and domain != "d1":
        raise ValueError(f"problem {problem_id!r} has only domain d1, got {domain!r}")
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
