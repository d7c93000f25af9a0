"""A numerical optimizer for the optimal reachable attitude: an independent reference for the closed form.

slsqp_attitude maximizes tr R(v_e) subject to C.R(v_e)H = -c0 by SLSQP from
the 8 corners of a cube of starting attitudes, moves each result back onto
the constraint (SLSQP leaves it up to ~1e-9 off, which can gain more trace
than the tests allow) and keeps the best.  It shares only the rotation
matrix, the null direction and the conserved quantity with
problems.optimal_attitude.
"""

import itertools

import numpy as np
from hamiltonian_oracle import central_difference
from scipy.optimize import minimize

from hjbsparse.problems import _rotation_cols, conserved_quantity, null_direction


def rotation(v: np.ndarray) -> np.ndarray:
    """R(v) for one state v of shape (3,)."""
    return _rotation_cols(np.asarray(v, dtype=float)[:, None])[0]


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
