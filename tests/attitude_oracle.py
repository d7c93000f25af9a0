"""References for the attitude problems: a numerical optimizer for the optimal
reachable attitude, and the rotation-matrix formulation of the dynamics.

slsqp_attitude maximizes tr R(v_e) subject to C.R(v_e)H = -c0 by SLSQP from
the 8 corners of a cube of starting attitudes, moves each result back onto
the constraint (SLSQP leaves it up to ~1e-9 off, which can gain more trace
than the tests allow) and keeps the best.  It shares only the rotation
matrix, the null direction and the conserved quantity with
problems.optimal_attitude.

column_f and column_H_x are AttitudeProblem.f and .H_x through R(v) as a
(P, 3, 3) rotation tensor (rotation_cols) contracted with H by einsum, with
np.cross for the gyroscopic terms: the formulation that f and H_x replaced
with one elementary rotation at a time.
"""

import itertools

import numpy as np
from hamiltonian_oracle import central_difference
from scipy.optimize import minimize

from hjbsparse.problems import conserved_quantity, null_direction


def rotation_cols(v: np.ndarray) -> np.ndarray:
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


def rotation(v: np.ndarray) -> np.ndarray:
    """R(v) for one state v of shape (3,)."""
    return rotation_cols(np.asarray(v, dtype=float)[:, None])[0]


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
    RH = np.einsum("pij,j->ip", rotation_cols(v), p.H)
    gyro = np.stack([
        RH[1] * w[2] - RH[2] * w[1],
        RH[2] * w[0] - RH[0] * w[2],
        RH[0] * w[1] - RH[1] * w[0],
    ])
    wdot = (gyro + p.B @ u) / p.J[:, None]
    return np.vstack([vdot, wdot])


def column_H_x(problem, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """H_x for columns x and lam of shape (6, P) (u enters H linearly, so H_x does not read it)."""
    W1, W2 = problem.params.W[:2]
    H, J = problem.params.H, problem.params.J
    v, w, lam_v = x[:3], x[3:], lam[:3]
    mu = lam[3:] / J[:, None]
    s1, c1 = np.sin(v[0]), np.cos(v[0])
    s2, c2 = np.sin(v[1]), np.cos(v[1])
    s3, c3 = np.sin(v[2]), np.cos(v[2])
    R = rotation_cols(v)
    RH = np.einsum("pij,j->ip", R, H)
    # v' = E(v) w: d/dphi and d/dtheta of E(v) w, contracted with lam_v
    a, b = s1 * w[1] + c1 * w[2], c1 * w[1] - s1 * w[2]
    kin = np.stack([b * (s2 / c2 * lam_v[0] + lam_v[2] / c2) - a * lam_v[1],
                    a / c2**2 * (lam_v[0] + s2 * lam_v[2]),
                    np.zeros_like(a)])
    # mu . (R H x w) = (R H) . (w x mu), and for R = R1(phi) R2(theta) R3(psi):
    # dR/dphi H = (0, RH_3, -RH_2), dR/dtheta H = (., s1 RH_1, c1 RH_1), dR/dpsi H = R (H_2, -H_1, 0)
    w_mu = np.cross(w, mu, axis=0)
    dR_theta0 = -s2 * c3 * H[0] - s2 * s3 * H[1] - c2 * H[2]
    gyro = np.stack([
        RH[2] * w_mu[1] - RH[1] * w_mu[2],
        dR_theta0 * w_mu[0] + RH[0] * (s1 * w_mu[1] + c1 * w_mu[2]),
        np.einsum("pi,ip->p", R @ np.array([H[1], -H[0], 0.0]), w_mu),
    ])
    H_v = W1 * (v - problem._target()[:, None]) + kin + gyro
    E_t_lam = np.stack([lam_v[0], s1 * s2 / c2 * lam_v[0] + c1 * lam_v[1] + s1 / c2 * lam_v[2],
                        c1 * s2 / c2 * lam_v[0] - s1 * lam_v[1] + c1 / c2 * lam_v[2]])
    H_w = W2 * w + E_t_lam + np.cross(mu, RH, axis=0)
    return np.vstack([H_v, H_w])


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
