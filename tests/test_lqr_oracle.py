"""Small-state LQR oracle for the attitude examples.

Near an equilibrium the value function is the LQ value of the linearized
problem: V(x) = e^T P(0) e + O(|e|^3), where e is the state minus the
equilibrium and P solves the Riccati equation

    -P' = Q/2 + A^T P + P A - 2 P B R^-1 B^T P,   P(T) = Q_f,

for running cost (e^T Q e + u^T R u)/2 and terminal cost e^T Q_f e, and the
costate is its gradient, lam(0) = 2 P(0) e + O(|e|^2).  The relative errors
of the solved V and lam(0) are then first order in |x|: they halve when |x|
halves.  A and B come from finite differences of AttitudeProblem.f alone,
so the oracle shares no derivative with the closed-form H_x.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hjbsparse.characteristics import solve_point
from hjbsparse.problems import make_example1, make_example2, optimal_attitude


def linearize(problem, h=1e-6):
    """(A, B): central differences of f at the origin with zero control."""
    x, u = np.zeros((problem.n, 1)), np.zeros((problem.m, 1))

    def column(fn, e):
        return (fn(h * e[:, None]) - fn(-h * e[:, None]))[:, 0] / (2 * h)

    A = np.column_stack([column(lambda dx: problem.f(0.0, x + dx, u), e) for e in np.eye(problem.n)])
    B = np.column_stack([column(lambda du: problem.f(0.0, x, u + du), e) for e in np.eye(problem.m)])
    return A, B


def riccati_p0(problem) -> np.ndarray:
    A, B = linearize(problem)
    W1, W2, W3, W4, W5 = problem.params.W
    Q = np.diag([W1] * 3 + [W2] * 3)
    Qf = np.diag([W4] * 3 + [W5] * 3) if problem.terminal else np.zeros((6, 6))
    gain = 2.0 / W3 * B @ B.T

    def rhs(t, p):
        P = p.reshape(6, 6)
        return -(0.5 * Q + A.T @ P + P @ A - P @ gain @ P).ravel()

    sol = solve_ivp(rhs, (problem.horizon, 0.0), Qf.ravel(), rtol=1e-11, atol=1e-13)
    assert sol.success
    P = sol.y[:, -1].reshape(6, 6)
    return 0.5 * (P + P.T)


def relative_errors(problem, radii, equilibrium) -> tuple[np.ndarray, np.ndarray]:
    """Relative errors of the solved V against e^T P(0) e and of lam(0) against 2 P(0) e, per radius."""
    P = riccati_p0(problem)
    d = np.random.default_rng(3).normal(size=6)
    d /= np.linalg.norm(d)
    errs, lam_errs = [], []
    for r in radii:
        x0 = r * d
        rec = solve_point(problem, 0.0, x0, tol=1e-10)
        assert rec.converged
        e = x0 - equilibrium(x0)
        errs.append(abs(rec.V - e @ P @ e) / (e @ P @ e))
        lam_errs.append(np.linalg.norm(rec.lam - 2 * P @ e) / np.linalg.norm(2 * P @ e))
    return np.array(errs), np.array(lam_errs)


def assert_first_order(errs):
    assert np.all(np.abs(errs[1:] / errs[:-1] - 0.5) <= 0.05), errs


def test_example1_value_error_is_first_order():
    errs, lam_errs = relative_errors(make_example1(), (0.2, 0.1, 0.05, 0.025), lambda x0: np.zeros(6))
    assert errs[0] < 0.05
    assert_first_order(errs)
    assert_first_order(lam_errs)


def test_example2_value_error_is_first_order_about_its_target():
    # The origin is its own target (v_e(0, 0) = 0), so the linearization is at the
    # origin; each point's cost is centred at its own target, (v_e(x0), 0).
    # At |x| = 0.2 the second-order term still shows (ratio 0.58 from 0.2 to 0.1),
    # so the sequence starts at 0.1.
    problem = make_example2()
    assert np.abs(optimal_attitude(problem.params, np.zeros(3), np.zeros(3)).v_e).max() <= 1e-12

    def target(x0):
        return np.concatenate([optimal_attitude(problem.params, x0[:3], x0[3:]).v_e, np.zeros(3)])

    errs, lam_errs = relative_errors(problem, (0.1, 0.05, 0.025, 0.0125), target)
    assert errs[0] < 0.1
    assert_first_order(errs)
    assert_first_order(lam_errs)


@pytest.mark.parametrize("maker", [make_example1, make_example2])
def test_linearization_has_the_input_matrix(maker):
    problem = maker()
    _, B = linearize(problem)
    expected = np.vstack([np.zeros((3, problem.m)), problem.params.B / problem.params.J[:, None]])
    assert np.abs(B - expected).max() <= 1e-9
