"""Two-point boundary-value solver: 4-point Lobatto IIIa collocation.

The tableau and the degree-4 continuous extension are derived at import time
from the collocation definition (integrated Lagrange bases on the Lobatto
abscissae) rather than transcribed from a table.  On every mesh subinterval
the solution polynomial satisfies the ODE exactly at the four Lobatto points;
the resulting global system is solved by a damped Newton iteration with
forward-difference Jacobians, each factored once and kept for as many steps
as contract well.  A solve ends when the sampled residual of the
collocation polynomial is within the tolerance on every interval; until
then, each next mesh is chosen to spread that residual evenly (_select_mesh).

The damping is Armijo backtracking (Deuflhard, Newton Methods for Nonlinear
Problems, Springer 2004, ch. 3) on one merit, the max-norm of the scaled
residual, which is also the stop test.  The scale follows the iterate, so
after each accepted step the norm is re-taken under the new scale: both
sides of every test are the same norm.  The Jacobian's factors are kept
while full steps cut the norm to _REFRESH_RATIO of its value or less (the
fixed-Jacobian iteration of COLNEW: Bader & Ascher, SIAM J. Sci. Stat.
Comput. 8, 1987) and refreshed after any other step; a kept-factor step
that fails its one full-step trial is retried on fresh factors.  A mesh on
which a fresh-Jacobian step fails ends the solve as NewtonDiverged; the
caller's horizon continuation (characteristics.solve_point) is the one
fallback.

The system has one block layout, almost block diagonal (see _Collocation):
each interval owns three block rows of the residual and one dense (3M x 4M)
Jacobian block.  Residual, Jacobian and residual sampling are whole-mesh
array operations, with one stacked rhs call per Jacobian (M perturbed copies
of the states as M x P columns), one stacked bc call per Jacobian (the two
ends and their 2M perturbed copies as 2M + 1 columns) and one rhs call per
residual sampling (5K columns).

The Newton system is condensed, as in COLSYS/COLNEW (Ascher, Mattheij &
Russell, Numerical Solution of BVPs for ODEs, SIAM 1995, ch. 7), and split
into a factor step and an apply step (_Factors).  Factoring inverts every
interval's interior block, which eliminates its two interior collocation
points and leaves one M x 2M block coupling mesh node k to node k+1; with
the left boundary rows first and the right ones last, the system over the
mesh nodes is banded and takes one LAPACK gbtrf call.  Applying the factors
to a residual costs O(K M^2): small matrix-vector products and one gbtrs
call.  This needs separated boundary conditions: every bc component reads
ya only or yb only.

Error control is residual based.  The scaled residual uses a componentwise
mixed absolute/relative scale with floor 1.0:

    scale_m = max(1.0, max_s |y_m(s)|, max_s |y'_m(s)|)

Mesh selection is equidistribution, as in COLNEW (Bader & Ascher, SIAM J.
Sci. Stat. Comput. 8, 1987) and bvp4c (Kierzenka & Shampine, ACM TOMS 27,
2001): with the residual modelled as h^p, the new mesh puts about
(r_k / (sigma tol))^(1/p) intervals where interval k was, so nodes move
towards the large residuals and leave the small ones.

The solver holds no global state; any number of solves may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.linalg import splu  # noqa: F401  unused; perfbench/tracing.py wraps bvp.splu by name

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_MAX_NEWTON = 50                              # Newton iterations per mesh
_REFRESH_RATIO = 0.25                         # a step leaving more of the scaled norm than this refreshes the Jacobian
_MAX_NODES = 10_000                           # mesh nodes before a solve gives up (MaxMesh)
_MESH_P = 4                                   # the residual's assumed order in h, for mesh selection
_MESH_SIGMA = 0.25                            # target residual per new interval, as a fraction of tol
_MESH_CAP = 8                                 # most pieces one interval becomes in one mesh selection
_MAX_MESHES = 30                              # meshes per solve before it gives up (MaxMesh); mesh
                                              # selection may remove nodes, so _MAX_NODES alone does not end the loop
_ORDER_SAMPLES = 400                          # equally spaced points where empirical_order measures the error

# Lobatto abscissae for the 4-point formula on [0, 1]
_C = np.array([0.0, (5.0 - math.sqrt(5.0)) / 10.0, (5.0 + math.sqrt(5.0)) / 10.0, 1.0])


def _lagrange_polys(nodes: np.ndarray) -> list[Polynomial]:
    polys = []
    for j, xj in enumerate(nodes):
        p = Polynomial([1.0])
        for k, xk in enumerate(nodes):
            if k != j:
                p = p * Polynomial([-xk, 1.0]) / (xj - xk)
        polys.append(p)
    return polys


_L = _lagrange_polys(_C)                      # stage interpolation basis
_B = [p.integ() for p in _L]                  # running integrals, B_j(0) = 0
_B_COEF = np.array([b.coef for b in _B]).T    # (5, 4): B_j(theta) = sum_i _B_COEF[i, j] theta^i
_A = np.array([[float(b(c)) for b in _B] for c in _C])  # a_ij = B_j(c_i)

# residual sample offsets: Gauss-Legendre 5, none coincide with Lobatto points
_RES_THETA = 0.5 * (np.polynomial.legendre.leggauss(5)[0] + 1.0)
_RES_L = np.array([[float(p(t)) for p in _L] for t in _RES_THETA])   # (5, 4)
_RES_B = np.array([[float(b(t)) for b in _B] for t in _RES_THETA])   # (5, 4)


class BvpStatus(Enum):
    CONVERGED = "Converged"
    MAX_MESH = "MaxMesh"
    NEWTON_DIVERGED = "NewtonDiverged"


@dataclass
class BvpProblem:
    """First-order system y' = rhs(s, y) with two-point boundary conditions.

    rhs is vectorized: rhs(s: (P,), y: (M, P)) -> (M, P), column p depending
    only on s[p] and y[:, p] (the Jacobian passes M perturbed copies at once).
    bc gives the residuals, zero at the solution, and is vectorized too:
    bc(ya: (M, P), yb: (M, P)) -> (M, P), column p depending only on
    ya[:, p] and yb[:, p] (the Jacobian passes the ends and their 2M
    perturbed copies at once); the residual passes one point,
    bc(ya: (M,), yb: (M,)) -> (M,).  The conditions must be separated: each
    component depends on ya only (a left condition) or on yb only, in any
    order.  The Newton step eliminates every interval's interior points and
    solves one banded system over the mesh nodes, which a component reading
    both ends would couple; solve raises ValueError for one.
    guess maps s: (P,) -> (M, P); defaults to zeros.
    """

    ndim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    bc: Callable[[np.ndarray, np.ndarray], np.ndarray]
    interval: tuple[float, float]
    tol: float
    guess: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be finite and > 0, got {self.tol}")


@dataclass
class BvpSolution:
    mesh: np.ndarray
    y: np.ndarray                   # (M, K+1) values at mesh nodes
    stage_f: np.ndarray             # (M, 4, K) stage derivatives per interval
    status: BvpStatus
    est_residual: float
    newton_iterations: int = 0
    meshes_tried: int = 1

    @property
    def n_nodes(self) -> int:
        return len(self.mesh)

    def interpolate(self, s) -> np.ndarray:
        """Evaluate the collocation polynomial; (M,) for scalar s, else (M, P)."""
        s_arr = np.atleast_1d(np.asarray(s, dtype=float))
        k = np.clip(np.searchsorted(self.mesh, s_arr, side="right") - 1, 0, len(self.mesh) - 2)
        h = self.mesh[k + 1] - self.mesh[k]
        theta = (s_arr - self.mesh[k]) / h
        b = np.zeros((len(theta), 4))          # B_j(theta) by Horner's rule, as Polynomial evaluates it
        for c in _B_COEF[::-1]:
            b = b * theta[:, None] + c
        out = self.y[:, k].copy()
        for j in range(4):
            out += h * b[:, j] * self.stage_f[:, j, k]
        return out[:, 0] if np.ndim(s) == 0 else out

    def integrate(self, g) -> float:
        """Lobatto quadrature of g(s, y(s)) over the mesh: sum_k h_k sum_j a_4j g(s_kj, y(s_kj)).

        g is vectorized like BvpProblem.rhs, g(s: (P,), y: (M, P)) -> (P,).  The
        stage values y(s_kj) come from interval k's collocation polynomial, so
        for g = rhs component m this is the collocation equations' own
        quadrature: y_m(b) - y_m(a) at a converged solution.
        """
        h = np.diff(self.mesh)
        s = self.mesh[:-1] + _C[:, None] * h                                        # (4, K)
        y = self.y[:, None, :-1] + h * np.einsum("ji,mik->mjk", _A, self.stage_f)    # (M, 4, K)
        g_stage = np.asarray(g(s.ravel(), y.reshape(len(y), -1)), dtype=float).reshape(4, -1)
        return float(h @ (_A[3] @ g_stage))


def _stage_abscissae(mesh: np.ndarray) -> np.ndarray:
    """All collocation points; stage 4 of interval k is stage 1 of interval k+1."""
    h = np.diff(mesh)
    s = np.empty(3 * (len(mesh) - 1) + 1)
    s[::3] = mesh
    s[1::3] = mesh[:-1] + _C[1] * h
    s[2::3] = mesh[:-1] + _C[2] * h
    return s


def _initial_y(problem: BvpProblem, s: np.ndarray) -> np.ndarray:
    if problem.guess is None:
        return np.zeros((problem.ndim, len(s)))
    y = np.asarray(problem.guess(s), dtype=float)
    if y.shape != (problem.ndim, len(s)):
        raise ValueError(f"guess returned shape {y.shape}, expected {(problem.ndim, len(s))}")
    return y.copy()


class _Collocation:
    """Residual, Jacobian and residual sampling on one fixed mesh, in one block layout.

    Unknown pM + m is y[m, p] at collocation point p.  Interval k reads points
    3k..3k+3 (columns 3kM..3kM+4M) and owns the rows of its stages 2..4 (rows
    3kM..3kM+3M); the M boundary rows come last.  That (3M x 4M) block, held in
    one (K, 3M, 4M) array, has M x M sub-block (i, j) = delta_i+1,j I -
    delta_j0 I - h_k a_i+1,j Jf(s_kj): the almost-block-diagonal form of
    Ascher, Mattheij & Russell, Numerical Solution of BVPs for ODEs (SIAM 1995), ch. 7.
    """

    def __init__(self, problem: BvpProblem, mesh: np.ndarray):
        self.p = problem
        self.mesh = mesh
        self.h = np.diff(mesh)
        self.K = K = len(mesh) - 1
        self.M = problem.ndim
        self.s = _stage_abscissae(mesh)
        self.cols = 3 * np.arange(K)[:, None] + np.arange(4)[None, :]  # (K, 4)

    def eval_f(self, y: np.ndarray, s: np.ndarray | None = None) -> np.ndarray:
        f = np.asarray(self.p.rhs(self.s if s is None else s, y), dtype=float)
        if f.shape != y.shape:
            raise ValueError(f"rhs returned shape {f.shape}, expected {y.shape}")
        return f

    def residual(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        y_stage = y[:, self.cols]                      # (M, K, 4)
        f_stage = f[:, self.cols]
        quad = np.einsum("ij,mkj->mki", _A[1:], f_stage)
        G = y_stage[:, :, 1:] - y_stage[:, :, :1] - self.h[:, None] * quad   # (M, K, 3)
        return np.concatenate([G.transpose(1, 2, 0).ravel(), self.p.bc(y[:, 0], y[:, -1])])

    def fd_jacobian(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Forward differences, step sqrt(eps) * max(|y|, 1); (M, M, P)."""
        M, P = y.shape
        step = _SQRT_EPS * np.maximum(np.abs(y), 1.0)
        # column block m of the stacked states is y with row m perturbed by step[m]
        yp = np.tile(y, M).reshape(M, M, P)
        yp[np.arange(M), np.arange(M)] += step
        fp = self.eval_f(yp.reshape(M, M * P), np.tile(self.s, M))
        return (fp.reshape(M, M, P) - f[:, None, :]) / step[None, :, :]

    def jacobian(self, y: np.ndarray, f: np.ndarray):
        """Interval blocks (K, 3M, 4M) and the boundary Jacobians d bc/d ya, d bc/d yb (M, M)."""
        M, K = self.M, self.K
        Jf = self.fd_jacobian(y, f)[:, :, self.cols].transpose(2, 0, 3, 1)   # (K, M, 4, M)
        blocks = -(self.h[:, None, None] * _A[1:])[:, :, None, :, None] * Jf[:, None]   # (K, 3, M, 4, M)
        eye = np.eye(M)                 # delta_i+1,j I - delta_j0 I, on those sub-blocks only
        blocks[:, np.arange(3), :, np.arange(1, 4)] += eye
        blocks[:, :, :, 0] -= eye
        # one bc call on 2M + 1 columns: the ends, then ya perturbed in each component, then yb
        ya, yb = np.repeat(y[:, :1], 2 * M + 1, axis=1), np.repeat(y[:, -1:], 2 * M + 1, axis=1)
        da = _SQRT_EPS * np.maximum(np.abs(y[:, 0]), 1.0)
        db = _SQRT_EPS * np.maximum(np.abs(y[:, -1]), 1.0)
        m = np.arange(M)
        ya[m, 1 + m] += da
        yb[m, 1 + M + m] += db
        r = np.asarray(self.p.bc(ya, yb), dtype=float)
        if r.shape != ya.shape:
            raise ValueError(f"bc returned shape {r.shape}, expected {ya.shape}")
        dba = (r[:, 1 : M + 1] - r[:, :1]) / da
        dbb = (r[:, M + 1 :] - r[:, :1]) / db
        return blocks.reshape(K, 3 * M, 4 * M), dba, dbb

    def scale(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.maximum(1.0, np.maximum(np.abs(y).max(axis=1), np.abs(f).max(axis=1)))

    def scaled_norm(self, F: np.ndarray, scale: np.ndarray) -> float:
        M, K = self.M, self.K
        coll = np.abs(F[: 3 * K * M].reshape(3 * K, M)) / scale[None, :]
        bc = np.abs(F[3 * K * M :])
        return max(float(coll.max()) if coll.size else 0.0, float(bc.max()))

    def newton(self, y0: np.ndarray, newton_tol: float, max_iter: int):
        """Damped Newton with Armijo backtracking on the scaled max-norm residual.

        The Jacobian's factors are kept while full steps cut the norm to
        _REFRESH_RATIO of its value or less, and refreshed after any other step.
        A kept-factor step gets one full-step trial; when that trial fails, the
        factors are refreshed at the same iterate.  So only a fresh-Jacobian
        step can end the mesh as failed.
        """
        y = y0.copy()
        f = self.eval_f(y)
        F = self.residual(y, f)
        scale = self.scale(y, f)
        norm = self.scaled_norm(F, scale)
        factors = None
        for it in range(max_iter):
            if norm <= newton_tol:
                return y, f, it, True
            fresh = factors is None
            if fresh:
                try:
                    factors = _Factors(*self.jacobian(y, f))
                except np.linalg.LinAlgError:
                    return y, f, it, False
            step = factors.step(F).T
            if not np.all(np.isfinite(step)):
                if fresh:
                    return y, f, it, False
                factors = None
                continue
            alpha, improved = 1.0, False
            for _ in range(9 if fresh else 1):
                y_try = y + alpha * step
                try:
                    f_try = self.eval_f(y_try)
                    F_try = self.residual(y_try, f_try)
                except (FloatingPointError, ValueError):
                    alpha *= 0.5
                    continue
                norm_try = self.scaled_norm(F_try, scale)
                if np.isfinite(norm_try) and norm_try <= (1.0 - 1e-4 * alpha) * norm:
                    if alpha < 1.0 or norm_try > _REFRESH_RATIO * norm:
                        factors = None
                    y, f, F = y_try, f_try, F_try
                    scale = self.scale(y, f)
                    norm = self.scaled_norm(F, scale)   # under the new scale, as the next test reads it
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                if fresh:
                    return y, f, it + 1, norm <= 10.0 * newton_tol
                factors = None
        return y, f, max_iter, norm <= 10.0 * newton_tol

    def interval_residuals(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Max scaled residual of the collocation polynomial per interval."""
        M, K = self.M, self.K
        f_stage = f[:, self.cols]                                   # (M, K, 4)
        y_left = y[:, self.cols[:, 0]]                              # (M, K)
        # the 5 sample points of every interval side by side: (M, 5, K)
        s_mid = self.mesh[:-1] + _RES_THETA[:, None] * self.h
        y_mid = y_left[:, None] + self.h * np.einsum("tj,mkj->mtk", _RES_B, f_stage)
        sprime = np.einsum("tj,mkj->mtk", _RES_L, f_stage)
        f_mid = self.eval_f(y_mid.reshape(M, 5 * K), s_mid.ravel()).reshape(M, 5, K)
        return (np.abs(sprime - f_mid) / self.scale(y, f)[:, None, None]).max(axis=(0, 1))


@lru_cache(maxsize=4)
def _band_index(K: int, M: int, m_a: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat positions in _Factors' band array, in LAPACK gbtrf's layout, of the left
    bc rows, the K Schur blocks and the right bc rows, each in C order of its values."""
    kl, ku = m_a + M - 1, max(2 * M - 1 - m_a, M - 1)
    ncol, diag = (K + 1) * M, kl + ku        # ab[kl + ku + r - c, c] = J_nodes[r, c]
    i, j, j2 = np.arange(M)[:, None], np.arange(M), np.arange(2 * M)
    at_a = (diag + i[:m_a] - j) * ncol + j
    at_s = (diag + m_a + i - j2) * ncol + M * np.arange(K)[:, None, None] + j2
    at_b = (diag + m_a + i[: M - m_a] - j) * ncol + K * M + j
    out = tuple(a.ravel() for a in (at_a, at_s, at_b))
    for a in out:
        a.flags.writeable = False
    return out


class _Factors:
    """One Newton Jacobian J, given by _Collocation.jacobian, factored for the step J delta = -F.

    Rows 0..2M of blocks[k] are stages 2/3, rows 2M..3M stage 4; columns 0..M
    and 3M..4M are nodes k and k+1.  The factor step (the constructor) keeps
    A^-1 of the stage-2/3 rows' interior columns (A: columns M..3M), X0 =
    A^-1 [A_0 | A_3] (A_0/A_3: the node columns), the stage-4 rows' interior
    columns E, and the band LU of the node system, whose block k is the Schur
    complement [E_0 | E_3] - E X0 coupling node k to node k+1 only.  Left bc
    rows (d bc/d yb exactly zero), then the K blocks, then the right bc rows
    make that system banded: kl = m_a + M - 1, ku = max(2M - 1 - m_a, M - 1)
    for m_a left rows.  Raises LinAlgError when a factorization meets an
    exactly singular matrix, ValueError when a bc row reads both ends.

    The apply step (step) costs O(K M^2) and calls neither rhs nor bc: X_F =
    A^-1 F_23, the Schur right-hand side F_4 - E X_F, one band solve for the
    node steps d, and the interior steps -(X_F + X0 [d_k; d_k+1]).
    """

    def __init__(self, blocks: np.ndarray, dba: np.ndarray, dbb: np.ndarray):
        self.K, self.M = K, M = blocks.shape[0], dba.shape[0]
        self.left = left = ~dbb.any(axis=1)
        if np.any(~left & dba.any(axis=1)):
            raise ValueError("the boundary conditions are not separated: "
                             "a bc component depends on both ya and yb")
        self.A_inv = np.linalg.inv(blocks[:, : 2 * M, M : 3 * M])                          # (K, 2M, 2M)
        self.X0 = self.A_inv @ np.concatenate([blocks[:, : 2 * M, :M], blocks[:, : 2 * M, 3 * M :]], axis=2)
        self.E = blocks[:, 2 * M :, M : 3 * M]                                            # (K, M, 2M)
        S = np.concatenate([blocks[:, 2 * M :, :M], blocks[:, 2 * M :, 3 * M :]], axis=2) - self.E @ self.X0

        m_a = int(left.sum())
        self.kl, self.ku = kl, ku = m_a + M - 1, max(2 * M - 1 - m_a, M - 1)
        ab = np.zeros((2 * kl + ku + 1) * (K + 1) * M)     # rows 0..kl hold gbtrf's fill-in
        at_a, at_s, at_b = _band_index(K, M, m_a)
        ab[at_a] = dba[left].ravel()
        ab[at_s] = S.ravel()
        ab[at_b] = dbb[~left].ravel()
        # unchecked: a non-finite Jacobian gives a non-finite step, which newton rejects
        self.lu, self.piv, info = dgbtrf(ab.reshape(2 * kl + ku + 1, -1), kl, ku, overwrite_ab=True)
        if info > 0:
            raise np.linalg.LinAlgError("singular node system")

    def step(self, F: np.ndarray) -> np.ndarray:
        """The Newton step delta (3K+1, M) for residual F on the factored Jacobian."""
        K, M = self.K, self.M
        F_coll = F[: 3 * K * M].reshape(K, 3 * M)
        X_F = (self.A_inv @ F_coll[:, : 2 * M, None])[:, :, 0]                  # (K, 2M)
        S_F = F_coll[:, 2 * M :] - (self.E @ X_F[:, :, None])[:, :, 0]          # (K, M)
        F_bc = F[3 * K * M :]
        rhs = -np.concatenate([F_bc[self.left], S_F.ravel(), F_bc[~self.left]])
        z = dgbtrs(self.lu, self.kl, self.ku, rhs, self.piv, overwrite_b=True)[0].reshape(K + 1, M)

        nodes = np.concatenate([z[:-1], z[1:]], axis=1)[:, :, None]           # (K, 2M, 1)
        interior = -(X_F + (self.X0 @ nodes)[:, :, 0])                        # (K, 2M)
        delta = np.empty((3 * K + 1, M))
        delta[::3] = z
        delta[1::3] = interior[:, :M]
        delta[2::3] = interior[:, M:]
        return delta


def _select_mesh(mesh: np.ndarray, res: np.ndarray, tol: float) -> np.ndarray:
    """The mesh that spreads the residual evenly, from interval residuals res on mesh.

    Under r ~ h^p, interval k needs w_k = (r_k / (sigma tol))^(1/p) intervals
    where it has one.  w_k is kept within [1/_MESH_CAP, _MESH_CAP]: the model
    holds only for modest changes of h, and the floor keeps every weight
    positive; a non-finite residual takes the cap.  The new mesh has
    ceil(sum w_k) intervals of equal weight: equally spaced targets mapped
    through the cumulative weight, piecewise linear in s.  So nodes move, and
    intervals with r_k well below tol merge.  The ends are kept exactly and
    the nodes increase strictly.
    """
    w = np.maximum(np.fmin((res / (_MESH_SIGMA * tol)) ** (1.0 / _MESH_P), _MESH_CAP), 1.0 / _MESH_CAP)
    cum = np.concatenate([[0.0], np.cumsum(w)])
    n = math.ceil(cum[-1])
    return np.interp(np.linspace(0.0, cum[-1], n + 1), cum, mesh)   # exact at both ends


def _pack_solution(coll: _Collocation, y: np.ndarray, f: np.ndarray, status: BvpStatus,
                   est: float, iters: int, meshes: int) -> BvpSolution:
    return BvpSolution(
        mesh=coll.mesh.copy(),
        y=y[:, ::3].copy(),
        stage_f=f[:, coll.cols].transpose(0, 2, 1).copy(),
        status=status,
        est_residual=float(est),
        newton_iterations=iters,
        meshes_tried=meshes,
    )


def solve(problem: BvpProblem) -> BvpSolution:
    """Solve with adaptive mesh selection until the sampled residual meets tol.

    Deterministic: fixed iteration order, no randomness.  Failure is reported
    through the status field, never silently: NewtonDiverged when Newton fails
    on a mesh (no other mesh is tried), MaxMesh when the mesh budget runs out.
    """
    newton_tol = max(1e-13, 0.01 * problem.tol)
    mesh = np.linspace(problem.interval[0], problem.interval[1], 11)
    y = _initial_y(problem, _stage_abscissae(mesh))
    total_iters = 0
    meshes = 0

    while True:
        meshes += 1
        coll = _Collocation(problem, mesh)
        y_sol, f_sol, iters, ok = coll.newton(y, newton_tol, _MAX_NEWTON)
        total_iters += iters
        res = coll.interval_residuals(y_sol, f_sol)
        est = float(res.max()) if len(res) else 0.0
        if not ok:
            return _pack_solution(coll, y_sol, f_sol, BvpStatus.NEWTON_DIVERGED, est, total_iters, meshes)
        if est <= problem.tol:
            return _pack_solution(coll, y_sol, f_sol, BvpStatus.CONVERGED, est, total_iters, meshes)

        # choose the next mesh from this one's residuals and continue from the
        # current solution; nodes may move or go, so the pass count is capped too
        new_mesh = _select_mesh(mesh, res, problem.tol)
        if len(new_mesh) > _MAX_NODES or meshes >= _MAX_MESHES:
            return _pack_solution(coll, y_sol, f_sol, BvpStatus.MAX_MESH, est, total_iters, meshes)
        mesh = new_mesh
        y = _pack_solution(coll, y_sol, f_sol, BvpStatus.MAX_MESH, est, total_iters, meshes).interpolate(
            _stage_abscissae(mesh))


def solve_fixed_mesh(problem: BvpProblem, mesh: np.ndarray) -> BvpSolution:
    """Newton solve on the given mesh with no adaptivity (verification harness)."""
    mesh = np.asarray(mesh, dtype=float)
    coll = _Collocation(problem, mesh)
    y0 = _initial_y(problem, coll.s)
    newton_tol = max(1e-13, 0.01 * problem.tol)
    y_sol, f_sol, iters, ok = coll.newton(y0, newton_tol, _MAX_NEWTON)
    res = coll.interval_residuals(y_sol, f_sol)
    status = BvpStatus.CONVERGED if ok else BvpStatus.NEWTON_DIVERGED
    return _pack_solution(coll, y_sol, f_sol, status, float(res.max()), iters, 1)


@dataclass
class OrderFit:
    order: float
    mesh_sizes: list[int]
    errors: list[float]


def empirical_order(problem: BvpProblem, exact: Callable[[np.ndarray], np.ndarray], mesh_sizes: list[int]) -> OrderFit:
    """Fitted convergence order on uniform meshes, max interpolant error vs h.

    The error is measured through the collocation polynomial on a dense sample
    between mesh nodes (the uniform, not superconvergent, error).
    """
    a, b = problem.interval
    ss = np.linspace(a, b, _ORDER_SAMPLES)
    errs, hs = [], []
    for n in mesh_sizes:
        mesh = np.linspace(a, b, n + 1)
        sol = solve_fixed_mesh(problem, mesh)
        if sol.status is not BvpStatus.CONVERGED:
            continue
        err = float(np.abs(sol.interpolate(ss) - np.asarray(exact(ss))).max())
        if err < 1e-14:  # at machine precision the fit is meaningless
            continue
        errs.append(err)
        hs.append((b - a) / n)
    if len(errs) < 2:
        return OrderFit(order=float("nan"), mesh_sizes=mesh_sizes, errors=errs)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    return OrderFit(order=float(slope), mesh_sizes=mesh_sizes, errors=errs)
