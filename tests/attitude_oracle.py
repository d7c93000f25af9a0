"""References for the attitude problems: a numerical optimizer for the optimal
reachable attitude, and the rotation-matrix formulation of the dynamics.

slsqp_attitude maximizes tr R(v_e) subject to C.R(v_e)H = -c0 by SLSQP from
the 8 corners of a cube of starting attitudes, moves each result back onto
the constraint (SLSQP leaves it up to ~1e-9 off, which can gain more trace
than the tests allow) and keeps the best.  It shares only the rotation
matrix, the null direction and the conserved quantity with
problems.optimal_attitude.

column_f is AttitudeProblem.f as a (P, 3, 3) rotation tensor contracted with
H: the formulation that f replaced with one elementary rotation at a time.
"""

import itertools

import numpy as np
from hamiltonian_oracle import central_difference
from scipy.optimize import minimize

from hjbsparse.problems import _rotation_cols, conserved_quantity, null_direction


def rotation(v: np.ndarray) -> np.ndarray:
    """R(v) for one state v of shape (3,)."""
    return _rotation_cols(np.asarray(v, dtype=float)[:, None])[0]


def column_f(problem, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x' for columns x of shape (6, P) and u of shape (m, P), through R(v) as a matrix."""
    p = problem.params
    v, w = x[:3], x[3:]
    s1, c1 = np.sin(v[0]), np.cos(v[0])
    t2, c2 = np.tan(v[1]), np.cos(v[1])
    vdot = np.stack([
        w[0] + s1 * t2 * w[1] + c1 * t2 * w[2],
        c1 * w[1] - s1 * w[2],
        (s1 * w[1] + c1 * w[2]) / c2,
    ])
    RH = np.einsum("pij,j->ip", _rotation_cols(v), p.H)
    gyro = np.stack([
        RH[1] * w[2] - RH[2] * w[1],
        RH[2] * w[0] - RH[0] * w[2],
        RH[0] * w[1] - RH[1] * w[0],
    ])
    wdot = (gyro + p.B @ u) / p.J[:, None]
    return np.vstack([vdot, wdot])


def slsqp_attitude(params, v: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, float]:
    """(v_e, tr R(v_e)) of the best SLSQP optimum over the starts."""
    C = null_direction(params.B)
    c0 = conserved_quantity(params, C, v, w)

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
        for _ in range(3):  # Newton steps along the constraint gradient
            grad = central_difference(constraint, ve, 1e-6)
            ve = ve - constraint(ve) * grad / float(grad @ grad)
        if abs(constraint(ve)) > 1e-12:
            continue
        if best is None or -neg_trace(ve) > best[1]:
            best = (ve, -neg_trace(ve))
    return best
