"""Example III's closed-form optimal feedback and costate, next to problems.example3_value.

With D = 1 + x1^2 + x2^2 and V = x3^2 / (2 D^2) tanh(T - t), the costate is
V_x and the feedback u* = -D lam_3.
"""

import numpy as np


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
