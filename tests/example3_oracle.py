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


def example3_power_H_x(x, lam, u):
    """AnalyticProblem.H_x as first written, with ** and a division per D factor: the reference
    for the product form with one reciprocal of D."""
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
