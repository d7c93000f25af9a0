"""Two-point boundary-value solver: 4-point Lobatto IIIa collocation.

The tableau and the degree-4 continuous extension are derived at import time
from the collocation definition (integrated Lagrange bases on the Lobatto
abscissae) rather than transcribed from a table.  On every mesh subinterval
the solution polynomial satisfies the ODE exactly at the four Lobatto points;
the resulting global system is solved by a damped Newton iteration with
forward-difference Jacobians, and the mesh is refined wherever the sampled
residual of the collocation polynomial exceeds the tolerance.

The system has one block layout, almost block diagonal (see _Collocation):
each interval owns three block rows of the residual and one dense (3M x 4M)
Jacobian block.  Residual, Jacobian and residual sampling are whole-mesh
array operations, with one stacked rhs call per Jacobian (M perturbed copies
of the states as M x P columns) and one per residual sampling (5K columns).

Each Newton step is a condensed solve, as in COLSYS/COLNEW (Ascher, Mattheij
& Russell, Numerical Solution of BVPs for ODEs, SIAM 1995, ch. 7): one
batched dense solve per interval eliminates its two interior collocation
points, which leaves one M x 2M block coupling mesh node k to node k+1.  With
the left boundary rows first and the right ones last, the system over the
mesh nodes is banded and takes one LAPACK gbsv call.  This needs separated
boundary conditions: every bc component reads ya only or yb only.

Error control is residual based.  The scaled residual uses a componentwise
mixed absolute/relative scale with floor 1.0:

    scale_m = max(1.0, max_s |y_m(s)|, max_s |y'_m(s)|)

The solver holds no global state; any number of solves may run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np
from numpy.polynomial import Polynomial
from scipy.linalg import solve_banded
from scipy.sparse.linalg import splu  # noqa: F401  unused; perfbench/tracing.py wraps bvp.splu by name

_SQRT_EPS = math.sqrt(np.finfo(float).eps)
_MAX_NEWTON = 50                              # Newton iterations per mesh
_MAX_NODES = 10_000                           # mesh nodes before a solve gives up (MaxMesh)

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
    bc(ya: (M,), yb: (M,)) -> (M,) residuals, zero at the solution.  The
    conditions must be separated: each component depends on ya only (a left
    condition) or on yb only, in any order.  The Newton step eliminates every
    interval's interior points and solves one banded system over the mesh
    nodes, which a component reading both ends would couple; solve raises
    ValueError for one.
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
        out = self.y[:, k].copy()
        for j in range(4):
            out += h * _B[j](theta) * self.stage_f[:, j, k]
        return out[:, 0] if np.ndim(s) == 0 else out


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
    3kM..3kM+3M); the M boundary rows come last.  Its block (i, j) is
    delta_ij I - delta_j0 I - h_k a_ij Jf(s_kj), all held as one (K, 3, 4, M, M)
    array: the almost-block-diagonal form of Ascher, Mattheij & Russell,
    Numerical Solution of BVPs for ODEs (SIAM 1995), ch. 7.
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
        quad = np.stack([np.einsum("j,mkj->mk", _A[i], f_stage) for i in range(1, 4)], axis=-1)
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
        """Interval blocks (K, 3, 4, M, M) and the boundary Jacobians d bc/d ya, d bc/d yb (M, M)."""
        M = self.M
        Jf = self.fd_jacobian(y, f).transpose(2, 0, 1)[self.cols]     # (K, 4, M, M)
        blocks = -(self.h[:, None, None] * _A[1:])[..., None, None] * Jf[:, None]   # (K, 3, 4, M, M)
        eye = np.eye(M)                 # delta_ij I - delta_j0 I, on those blocks only
        blocks[:, np.arange(3), np.arange(1, 4)] += eye
        blocks[:, :, 0] -= eye
        ya, yb = y[:, 0], y[:, -1]
        r0 = self.p.bc(ya, yb)
        dba = np.empty((M, M))
        dbb = np.empty((M, M))
        for m in range(M):
            da = _SQRT_EPS * max(abs(ya[m]), 1.0)
            ya_p = ya.copy()
            ya_p[m] += da
            dba[:, m] = (self.p.bc(ya_p, yb) - r0) / da
            db = _SQRT_EPS * max(abs(yb[m]), 1.0)
            yb_p = yb.copy()
            yb_p[m] += db
            dbb[:, m] = (self.p.bc(ya, yb_p) - r0) / db
        return blocks, dba, dbb

    def scale(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        return np.maximum(1.0, np.maximum(np.abs(y).max(axis=1), np.abs(f).max(axis=1)))

    def scaled_norm(self, F: np.ndarray, scale: np.ndarray) -> float:
        M, K = self.M, self.K
        coll = np.abs(F[: 3 * K * M].reshape(3 * K, M)) / scale[None, :]
        bc = np.abs(F[3 * K * M :])
        return max(float(coll.max()) if coll.size else 0.0, float(bc.max()))

    def newton(self, y0: np.ndarray, newton_tol: float, max_iter: int):
        """Damped Newton with Armijo backtracking on the residual norm."""
        y = y0.copy()
        f = self.eval_f(y)
        F = self.residual(y, f)
        scale = self.scale(y, f)
        norm = self.scaled_norm(F, scale)
        for it in range(max_iter):
            if norm <= newton_tol:
                return y, f, norm, it, True
            try:
                delta = _condensed_solve(*self.jacobian(y, f), F)
            except np.linalg.LinAlgError:
                return y, f, norm, it, False
            if not np.all(np.isfinite(delta)):
                return y, f, norm, it, False
            step = delta.T
            alpha, improved = 1.0, False
            for _ in range(9):
                y_try = y + alpha * step
                try:
                    f_try = self.eval_f(y_try)
                    F_try = self.residual(y_try, f_try)
                except (FloatingPointError, ValueError):
                    alpha *= 0.5
                    continue
                norm_try = self.scaled_norm(F_try, scale)
                if np.isfinite(norm_try) and norm_try <= (1.0 - 1e-4 * alpha) * norm:
                    y, f, F, norm = y_try, f_try, F_try, norm_try
                    scale = self.scale(y, f)
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                return y, f, norm, it + 1, norm <= 10.0 * newton_tol
        return y, f, norm, max_iter, norm <= 10.0 * newton_tol

    def interval_residuals(self, y: np.ndarray, f: np.ndarray) -> np.ndarray:
        """Max scaled residual of the collocation polynomial per interval."""
        M, K = self.M, self.K
        f_stage = f[:, self.cols]                                   # (M, K, 4)
        y_left = y[:, self.cols[:, 0]]                              # (M, K)
        # the 5 sample points of every interval side by side: (M, 5, K)
        s_mid = self.mesh[:-1] + _RES_THETA[:, None] * self.h
        y_mid = np.stack([y_left + self.h * np.einsum("j,mkj->mk", b, f_stage) for b in _RES_B], axis=1)
        sprime = np.stack([np.einsum("j,mkj->mk", lag, f_stage) for lag in _RES_L], axis=1)
        f_mid = self.eval_f(y_mid.reshape(M, 5 * K), s_mid.ravel()).reshape(M, 5, K)
        return (np.abs(sprime - f_mid) / self.scale(y, f)[:, None, None]).max(axis=(0, 1))


def _condensed_solve(blocks: np.ndarray, dba: np.ndarray, dbb: np.ndarray, F: np.ndarray) -> np.ndarray:
    """The Newton step delta (3K+1, M) of J delta = -F, J given by _Collocation.jacobian.

    With X = A^-1 [A_0 | A_3 | F_23] from each interval's stage-2/3 rows (A:
    its interior-point columns, A_0/A_3: its node columns), the interior step
    is -(X_F + X_0 d_k + X_3 d_k+1) and the stage-4 rows' Schur complement
    S = [E_0 | E_3 | F_4] - E X couples node k to node k+1 only.  Left bc
    rows (d bc/d yb exactly zero), then the K blocks S, then the right bc rows
    make the node system banded: kl = m_a + M - 1, ku = max(2M - 1 - m_a, M - 1)
    for m_a left rows.  Raises LinAlgError when a solve meets an exactly
    singular matrix, ValueError when a bc row reads both ends.
    """
    K, M = blocks.shape[0], blocks.shape[-1]
    left = ~dbb.any(axis=1)
    if np.any(~left & dba.any(axis=1)):
        raise ValueError("the boundary conditions are not separated: "
                         "a bc component depends on both ya and yb")
    B = blocks.transpose(0, 1, 3, 2, 4).reshape(K, 3 * M, 4 * M)
    BF = np.concatenate([B[:, :, :M], B[:, :, 3 * M:], F[: 3 * K * M].reshape(K, 3 * M, 1)], axis=2)
    X = np.linalg.solve(B[:, : 2 * M, M : 3 * M], BF[:, : 2 * M])          # (K, 2M, 2M+1)
    S = BF[:, 2 * M :] - B[:, 2 * M :, M : 3 * M] @ X                     # (K, M, 2M+1)

    m_a = int(left.sum())
    kl, ku = m_a + M - 1, max(2 * M - 1 - m_a, M - 1)
    ab = np.zeros((kl + ku + 1, (K + 1) * M))          # ab[ku + r - c, c] = J_nodes[r, c]
    i, j = np.arange(M)[:, None], np.arange(M)
    ab[ku + i[:m_a] - j, j] = dba[left]
    j2 = np.arange(2 * M)
    ab[ku + m_a + i - j2, M * np.arange(K)[:, None, None] + j2] = S[:, :, : 2 * M]
    ab[ku + m_a + i[: M - m_a] - j, K * M + j] = dbb[~left]
    F_bc = F[3 * K * M :]
    rhs = -np.concatenate([F_bc[left], S[:, :, 2 * M].ravel(), F_bc[~left]])
    # unchecked: a non-finite Jacobian gives a non-finite step, which newton rejects
    z = solve_banded((kl, ku), ab, rhs, overwrite_ab=True, overwrite_b=True,
                     check_finite=False).reshape(K + 1, M)

    nodes = np.concatenate([z[:-1], z[1:]], axis=1)[:, :, None]           # (K, 2M, 1)
    interior = -(X[:, :, 2 * M] + (X[:, :, : 2 * M] @ nodes)[:, :, 0])    # (K, 2M)
    delta = np.empty((3 * K + 1, M))
    delta[::3] = z
    delta[1::3] = interior[:, :M]
    delta[2::3] = interior[:, M:]
    return delta


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
    """Solve with adaptive mesh refinement until the sampled residual meets tol.

    Deterministic: fixed iteration order, no randomness.  Failure is reported
    through the status field (NewtonDiverged / MaxMesh), never silently.
    """
    newton_tol = max(1e-13, 0.01 * problem.tol)
    mesh = np.linspace(problem.interval[0], problem.interval[1], 11)
    y = _initial_y(problem, _stage_abscissae(mesh))
    total_iters = 0
    meshes = 0
    restarts = 0

    while True:
        meshes += 1
        coll = _Collocation(problem, mesh)
        y_sol, f_sol, norm, iters, ok = coll.newton(y, newton_tol, _MAX_NEWTON)
        total_iters += iters
        if not ok:
            # restart on a uniformly doubled mesh from the original guess
            restarts += 1
            if restarts > 3 or 2 * (len(mesh) - 1) + 1 > _MAX_NODES:
                est = float(coll.interval_residuals(y_sol, f_sol).max())
                return _pack_solution(coll, y_sol, f_sol, BvpStatus.NEWTON_DIVERGED, est, total_iters, meshes)
            fine = np.empty(2 * (len(mesh) - 1) + 1)
            fine[::2] = mesh
            fine[1::2] = 0.5 * (mesh[:-1] + mesh[1:])
            mesh = fine
            y = _initial_y(problem, _stage_abscissae(mesh))
            continue

        res = coll.interval_residuals(y_sol, f_sol)
        est = float(res.max()) if len(res) else 0.0
        if est <= problem.tol:
            return _pack_solution(coll, y_sol, f_sol, BvpStatus.CONVERGED, est, total_iters, meshes)

        # subdivide offending intervals, keeping every existing node
        pieces = []
        for k in range(coll.K):
            pieces.append(mesh[k])
            if res[k] > problem.tol:
                nsplit = int(np.clip(math.ceil((res[k] / problem.tol) ** 0.2), 2, 4))
                pieces.extend(mesh[k] + (np.arange(1, nsplit) / nsplit) * coll.h[k])
        pieces.append(mesh[-1])
        new_mesh = np.array(pieces)
        if len(new_mesh) > _MAX_NODES:
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
    y_sol, f_sol, norm, iters, ok = coll.newton(y0, newton_tol, _MAX_NEWTON)
    res = coll.interval_residuals(y_sol, f_sol)
    status = BvpStatus.CONVERGED if ok else BvpStatus.NEWTON_DIVERGED
    return _pack_solution(coll, y_sol, f_sol, status, float(res.max()), iters, 1)


@dataclass
class OrderFit:
    order: float
    mesh_sizes: list[int]
    errors: list[float]


def empirical_order(problem: BvpProblem, exact: Callable[[np.ndarray], np.ndarray],
                    mesh_sizes: list[int], n_samples: int = 400) -> OrderFit:
    """Fitted convergence order on uniform meshes, max interpolant error vs h.

    The error is measured through the collocation polynomial on a dense sample
    between mesh nodes (the uniform, not superconvergent, error).
    """
    a, b = problem.interval
    ss = np.linspace(a, b, n_samples)
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
