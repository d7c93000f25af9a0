"""Per-point characteristic BVPs, the causality-free sweep, and sweep datasets.

For a control problem with state dimension n the characteristic system couples
state, costate and accumulated cost into a first-order system of size 2n+1:

    x' = f(s, x, u*),   lam' = -H_x(s, x, lam, u*)^T,   z' = L(s, x, u*),

with boundary conditions x(t0) = x0, lam(T) = h_x(x(T))^T, z(t0) = 0, where
u* = u_star(s, x, lam) is substituted everywhere.  The value and costate at
(t0, x0) are V = z(T) + h(x(T)) and lam(t0).

Every grid point is solved independently from the same cold start (no
neighbor warm-starting), so re-solving any subset reproduces its records
bit-identically and the sweep result does not depend on the worker count.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .bvp import BvpProblem, BvpSolution, BvpStatus, solve as bvp_solve
from .exceptions import FitError, SweepError
from .grid import Box, NodeFamily, SparseGrid, build_grid
from .interp import Interpolant, fit_hierarchical
from .util import jsonable

_DEGENERATE_HORIZON = 1e-13


class ControlProblem:
    """Base class for finite-horizon problems with a closed-form Hamiltonian minimizer.

    Subclasses define f, L, h, h_x and u_star; everything is vectorized over a
    trailing point axis (x: (n, P), u: (m, P), t scalar or (P,)).  H_x falls
    back to central finite differences of the Hamiltonian at fixed u unless a
    subclass provides the closed form.
    """

    name: str = "problem"
    n: int = 0
    m: int = 0
    horizon: float = 0.0
    domain: Box = None  # includes the time axis when time_in_grid
    time_in_grid: bool = False
    state_labels: tuple[str, ...] = ()
    control_labels: tuple[str, ...] = ()

    # -- problem data ------------------------------------------------------
    def f(self, t, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def L(self, t, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def h(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def h_x(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def u_star(self, t, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def specialize(self, t0: float, x0: np.ndarray) -> "ControlProblem":
        """Per-point frozen variant (e.g. a fixed target attitude); default self."""
        return self

    # -- derived -----------------------------------------------------------
    def H(self, t, x: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.L(t, x, u) + np.einsum("ip,ip->p", lam, self.f(t, x, u))

    def H_x(self, t, x: np.ndarray, lam: np.ndarray, u: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        for i in range(self.n):
            step = 6e-6 * np.maximum(1.0, np.abs(x[i]))
            xp = x.copy()
            xp[i] += step
            xm = x.copy()
            xm[i] -= step
            out[i] = (self.H(t, xp, lam, u) - self.H(t, xm, lam, u)) / (2.0 * step)
        return out

    @property
    def state_box(self) -> Box:
        """The state-space part of the domain (time axis stripped)."""
        if not self.time_in_grid:
            return self.domain
        return Box(self.domain.lower[1:], self.domain.upper[1:])

    def grid_coords(self, t0: float, x0: np.ndarray) -> np.ndarray:
        return np.concatenate([[t0], x0]) if self.time_in_grid else np.asarray(x0, dtype=float)

    def spec(self) -> dict:
        """JSON-ready {"id", "params"}; problems.problem_from_spec rebuilds the problem from it."""
        return {"id": self.name, "params": {}}


def _cols(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def assemble_bvp(problem: ControlProblem, t0: float, x0: np.ndarray, tol: float = 1e-8) -> BvpProblem:
    """Characteristic two-point BVP of dimension 2n+1 at one grid point.

    Cold start: x(s) = x0, lam(s) = h_x(x0)^T, z = 0 on an 11-node uniform mesh.
    """
    x0 = np.asarray(x0, dtype=float)
    n = problem.n
    prob = problem.specialize(t0, x0)
    lam_guess = np.asarray(prob.h_x(x0), dtype=float)

    def rhs(s, y):
        x, lam = y[:n], y[n : 2 * n]
        u = prob.u_star(s, x, lam)
        return np.vstack([prob.f(s, x, u), -prob.H_x(s, x, lam, u), prob.L(s, x, u)[None, :]])

    def bc(ya, yb):
        return np.concatenate([ya[:n] - x0, yb[n : 2 * n] - prob.h_x(yb[:n]), [ya[2 * n]]])

    def guess(s):
        P = len(s)
        return np.vstack([
            np.repeat(x0[:, None], P, axis=1),
            np.repeat(lam_guess[:, None], P, axis=1),
            np.zeros((1, P)),
        ])

    return BvpProblem(ndim=2 * n + 1, rhs=rhs, bc=bc, interval=(t0, problem.horizon), tol=tol, guess=guess)


@dataclass
class CharacteristicRecord:
    point_id: int
    V: float
    lam: np.ndarray
    status: str
    residual: float
    mesh: int

    @property
    def converged(self) -> bool:
        return self.status == BvpStatus.CONVERGED.value


def _continuation_solve(prob: ControlProblem, t0: float, x0: np.ndarray, tol: float,
                        stages: int = 4) -> BvpSolution:
    """Backward horizon continuation: solve on [t_m, T] for shrinking t_m,
    warm-starting each stage from the previous solution (clipped-constant
    extension to the left).  Uses nothing but this point's own data, so the
    causality-free contract is preserved."""
    T = prob.horizon
    prev: BvpSolution | None = None
    sol: BvpSolution | None = None
    for k in range(1, stages + 1):
        tm = t0 if k == stages else T - (T - t0) * (k / stages)
        bp = assemble_bvp(prob, tm, x0, tol)
        if prev is not None:
            left = float(prev.mesh[0])
            pr = prev
            bp = replace(bp, guess=lambda s, pr=pr, left=left: pr.interpolate(np.clip(s, left, T)))
        sol = bvp_solve(bp)
        if sol.status is not BvpStatus.CONVERGED:
            return sol
        prev = sol
    return sol


def solve_point(problem: ControlProblem, t0: float, x0: np.ndarray, tol: float = 1e-8,
                point_id: int = 0, return_solution: bool = False):
    """Value and costate at one point; failures are reported, never fabricated."""
    x0 = np.asarray(x0, dtype=float)
    n = problem.n
    if problem.horizon - t0 <= _DEGENERATE_HORIZON:
        prob = problem.specialize(t0, x0)
        rec = CharacteristicRecord(point_id, float(prob.h(x0)),
                                   np.asarray(prob.h_x(x0), dtype=float), BvpStatus.CONVERGED.value, 0.0, 0)
        return (rec, None) if return_solution else rec
    sol = bvp_solve(assemble_bvp(problem, t0, x0, tol))
    if sol.status is not BvpStatus.CONVERGED:
        sol = _continuation_solve(problem.specialize(t0, x0), t0, x0, tol)
    if sol.status is BvpStatus.CONVERGED:
        prob = problem.specialize(t0, x0)
        x_T = sol.y[:n, -1]
        V = float(sol.y[2 * n, -1] + prob.h(x_T))
        lam0 = sol.y[n : 2 * n, 0].copy()
    else:
        V = float("nan")
        lam0 = np.full(n, np.nan)
    rec = CharacteristicRecord(point_id, V, lam0, sol.status.value, sol.est_residual, sol.n_nodes)
    return (rec, sol) if return_solution else rec


# ---------------------------------------------------------------------------
# Sweep
# ---------------------------------------------------------------------------

def point_args(problem: ControlProblem, points) -> list[tuple[float, np.ndarray]]:
    """(t0, x0) of each physical grid-coordinate point; the inverse of ControlProblem.grid_coords."""
    if problem.time_in_grid:
        return [(float(p[0]), p[1:]) for p in points]
    return [(0.0, p) for p in points]


def _solve_chunk(args):
    problem, tol, items = args
    return [solve_point(problem, t0, x0, tol, point_id=pid) for pid, t0, x0 in items]


def map_chunks(chunk_fn, problem: ControlProblem, tol: float, items: list, workers: int | None) -> list:
    """chunk_fn((problem, tol, chunk)) over round-robin chunks of items on a process pool
    (in-process for one worker or fewer than 4 items); one result per item, in item order."""
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1 or len(items) < 4:
        return chunk_fn((problem, tol, items))
    nchunks = min(len(items), 4 * workers)
    out = [None] * len(items)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(chunk_fn, [(problem, tol, items[i::nchunks]) for i in range(nchunks)])
        for i, part in enumerate(parts):
            out[i::nchunks] = part
    return out


@dataclass
class GridSolution:
    header: dict
    records: list[CharacteristicRecord]

    @property
    def failures(self) -> list[int]:
        return [r.point_id for r in self.records if not r.converged]

    def value_array(self) -> np.ndarray:
        return np.array([r.V for r in self.records])

    def costate_array(self) -> np.ndarray:
        return np.stack([r.lam for r in self.records])

    def ok_mask(self) -> np.ndarray:
        return np.array([r.converged for r in self.records])

    def record_lines(self, grid: SparseGrid) -> list[str]:
        """Deterministic JSON record lines (the dataset body)."""
        lines = []
        for r in self.records:
            i = r.point_id
            obj = {
                "id": i,
                "mi": [int(v) for v in grid.levels[i]],
                "off": [int(v) for v in grid.offsets[i]],
                "x": [float(v) for v in grid.phys[i]],
                "V": float(r.V) if np.isfinite(r.V) else None,
                "lam": [float(v) if np.isfinite(v) else None for v in r.lam],
                "status": r.status,
                "res": float(r.residual),
                "mesh": int(r.mesh),
            }
            lines.append(json.dumps(obj, separators=(",", ":")))
        return lines

    def save_jsonl(self, path, grid: SparseGrid) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(jsonable(self.header), separators=(",", ":")) + "\n")
            for line in self.record_lines(grid):
                fh.write(line + "\n")


def load_jsonl(path) -> tuple[dict, GridSolution, SparseGrid]:
    """Parse a sweep dataset; rebuilds the grid from the header."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        records = []
        for line in fh:
            obj = json.loads(line)
            lam = np.array([np.nan if v is None else float(v) for v in obj["lam"]])
            records.append(CharacteristicRecord(
                point_id=int(obj["id"]),
                V=np.nan if obj["V"] is None else float(obj["V"]),
                lam=lam,
                status=obj["status"],
                residual=float(obj["res"]),
                mesh=int(obj["mesh"]),
            ))
    grid = build_grid(NodeFamily.parse(header["family"]), int(header["d"]), int(header["q"]),
                      Box.from_json(header["domain"]))
    if len(records) != len(grid):
        raise SweepError(f"dataset has {len(records)} records for a {len(grid)}-point grid")
    return header, GridSolution(header=header, records=records), grid


def sweep(problem: ControlProblem, grid: SparseGrid, tol: float = 1e-8,
          workers: int | None = None, failure_threshold: float = 0.01) -> GridSolution:
    """Solve the characteristic BVP at every grid point, embarrassingly parallel.

    Results are keyed by point id, so the dataset body is identical for any
    worker count.  Raises SweepError if more than failure_threshold of the
    points fail; individual failures otherwise land in the failure list.
    """
    if problem.domain.as_json() != grid.domain.as_json():
        raise SweepError("grid domain does not match problem domain")
    items = [(pid, t0, x0) for pid, (t0, x0) in enumerate(point_args(problem, grid.phys))]
    records = map_chunks(_solve_chunk, problem, tol, items, workers)

    n_fail = sum(not r.converged for r in records)
    if n_fail > failure_threshold * len(records):
        raise SweepError(f"{n_fail}/{len(records)} grid points failed to solve")
    header = {
        "problem": problem.spec(),
        "family": grid.family.value,
        "d": grid.d,
        "q": grid.q,
        "domain": grid.domain.as_json(),
        "T": float(problem.horizon),
        "tolerance": float(tol),
        "version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return GridSolution(header=header, records=records)


# ---------------------------------------------------------------------------
# Interpolated feedback
# ---------------------------------------------------------------------------

@dataclass
class FeedbackLaw:
    """Value/costate interpolants over a swept grid, queried in physical coordinates."""

    problem: ControlProblem
    grid: SparseGrid
    value: Interpolant
    costate: Interpolant

    def _ref(self, t: float, x: np.ndarray) -> np.ndarray:
        return self.grid.domain.to_ref(self.problem.grid_coords(t, np.asarray(x, dtype=float)))

    def costate_at(self, t: float, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.costate.eval(self._ref(t, x)))

    def value_at(self, t: float, x: np.ndarray) -> float:
        return float(self.value.eval(self._ref(t, x)))

    def control(self, t: float, x: np.ndarray) -> np.ndarray:
        lam = self.costate_at(t, x)
        u = self.problem.u_star(t, _cols(np.asarray(x, dtype=float)), _cols(lam))
        return np.asarray(u)[:, 0]


def fit_feedback(problem: ControlProblem, grid: SparseGrid, solution: GridSolution) -> FeedbackLaw:
    """Fit V and each costate component over the grid; failed points get no surplus.

    Refuses if any failed point sits at a coarse cell (|i| <= d+1), where a
    missing correction would poison the whole interpolant.
    """
    mask = solution.ok_mask()
    if not np.all(mask):
        bad_levels = grid.levels[~mask].sum(axis=1)
        if np.any(bad_levels <= grid.d + 1):
            ids = [int(i) for i in np.nonzero(~mask)[0] if grid.levels[i].sum() <= grid.d + 1]
            raise FitError(f"failed points at coarse levels |i| <= d+1: ids {ids}")
    v = fit_hierarchical(grid, solution.value_array(), mask=mask)
    lam = fit_hierarchical(grid, solution.costate_array(), mask=mask)
    return FeedbackLaw(problem=problem, grid=grid, value=v, costate=lam)

