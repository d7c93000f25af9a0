"""Finite-difference Hamiltonian gradient: an independent reference for the problems' closed-form H_x.

fd_H_x differentiates H = L + lam . f at fixed u by central differences, so it
shares nothing with a problem's H_x but the problem's f and L.
"""

import numpy as np


def central_difference(fn, x: np.ndarray, step) -> np.ndarray:
    """out[i] = (fn(x + step_i e_i) - fn(x - step_i e_i)) / (2 step_i) for each leading index i of x.

    step is a scalar or indexable per i (step[i] broadcasts against x[i]).
    """
    rows = []
    for i in range(len(x)):
        h = step[i] if np.ndim(step) else step
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rows.append((fn(xp) - fn(xm)) / (2.0 * h))
    return np.array(rows)


def hamiltonian(problem, t, x: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """H(t, x, lam, u) = L + lam . f, per point."""
    return problem.L(t, x, u) + np.einsum("ip,ip->p", lam, problem.f(t, x, u))


def fd_H_x(problem, t, x: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Central differences of the Hamiltonian in x at fixed u, step 6e-6 max(1, |x|)."""
    return central_difference(lambda xs: hamiltonian(problem, t, xs, lam, u), x, 6e-6 * np.maximum(1.0, np.abs(x)))
