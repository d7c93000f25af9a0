"""Sparse-grid interpolation: basis functions, hierarchical surpluses, combination formula.

The interpolant is kept in hierarchical form: one surplus w^i_j per grid
point, the coefficient of its cell's tensor delta basis
a^i1_j1(x_1) * ... * a^id_jd(x_d).  One kernel evaluates it.  For a block of
query rows it lays out, per axis, the delta bases of levels 1..q-d+1 side by
side in one 1-D table, gathers every grid point's column from each table,
multiplies the gathered columns across the axes and takes one product with
the surpluses.  The same kernel fits the surpluses: points are stored in
ascending |i|, so the cells fitted before level l are a prefix of the points.

eval_combination evaluates the combination formula -- the signed binomial
combination of full tensor-product interpolants over the top d levels,
|i| in [q-d+1, q] -- straight from the samples.  It is the same polynomial,
so it is the reference the hierarchical form is tested against, and it is
the error functional that errors.mc_ebvp samples.

The piecewise-linear families use hat functions; the CGL family uses Lagrange
polynomials over X^i evaluated in barycentric form with the analytically known
Chebyshev-Lobatto weights.

Surpluses within one level may be computed in any order: cells of equal |i|
contain disjoint new nodes, and each cell's delta bases vanish at every other
same-level cell's new nodes, so same-level cells never interact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import FitError, GridSpecError, OutOfDomainError
from .grid import (
    NodeFamily,
    SparseGrid,
    delta_count,
    delta_nodes,
    delta_positions,
    node_count,
    node_ids,
    nodes_1d,
)

_NODE_HIT = 1e-14
# Entries (query rows x grid points) per block of the evaluation kernel.  A
# larger budget buys little speed and costs resident memory: fitting and
# querying 1,000 points on CGL d=6 q=10 peaks at 81 MB with 2**16 and at
# 99 MB with 2**20.
_CHUNK = 2**16
# Query rows per block of eval_combination.
_COMBINATION_ROWS = 2048


# ---------------------------------------------------------------------------
# 1-D basis evaluation
# ---------------------------------------------------------------------------

def _cgl_bary_weights(n_nodes: int) -> np.ndarray:
    # Chebyshev-Lobatto barycentric weights: (-1)^k, halved at both ends.
    w = np.ones(n_nodes)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def x_basis_matrix(family: NodeFamily, i: int, x: np.ndarray) -> np.ndarray:
    """All nodal basis functions u^i_k evaluated at x; shape (len(x), N_i).

    Column k (0-based) is the basis attached to the k-th ascending node of X^i.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = nodes_1d(family, i)
    n = len(nodes)
    if n == 1:
        return np.ones((len(x), 1))
    if family is NodeFamily.CGL:
        diff = x[:, None] - nodes[None, :]
        hit = np.abs(diff) < _NODE_HIT
        on_node = hit.any(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = _cgl_bary_weights(n) / diff
            out = t / t.sum(axis=1)[:, None]
        if np.any(on_node):
            out[on_node] = hit[on_node].astype(float)
        return out
    # uniform hats, halfwidth 2^-(i-1); boundary hats are clipped to [0,1]
    halfwidth = 1.0 / 2 ** (i - 1)
    out = 1.0 - np.abs(x[:, None] - nodes[None, :]) / halfwidth
    return np.maximum(out, 0.0)


def delta_basis_matrix(family: NodeFamily, i: int, x: np.ndarray) -> np.ndarray:
    """Basis functions of the new nodes DX^i, columns in ascending node order."""
    return x_basis_matrix(family, i, x)[:, delta_positions(family, i) - 1]


def basis_node(family: NodeFamily, i: int, j: int) -> float:
    """Node at which the published basis a^i_j peaks (Kronecker node).

    For the classic family at level 1 the published labels are a^1_1 = x and
    a^1_2 = 1 - x, i.e. swapped relative to ascending node order; everywhere
    else label order and ascending delta-node order coincide.
    """
    dn = delta_nodes(family, i)
    if not 1 <= j <= len(dn):
        raise GridSpecError(f"basis index {j} out of range for level {i}")
    if family is NodeFamily.CLASSIC and i == 1:
        return float(dn[2 - j])
    return float(dn[j - 1])


def eval_basis(family: NodeFamily, i: int, j: int, x: float) -> float:
    """Delta-indexed basis a^i_j(x) on [0, 1], published label order."""
    if not 0.0 <= x <= 1.0:
        raise OutOfDomainError(f"x={x} outside [0, 1]")
    dn = delta_nodes(family, i)
    if not 1 <= j <= len(dn):
        raise GridSpecError(f"basis index {j} out of range for level {i}")
    col = (2 - j) if (family is NodeFamily.CLASSIC and i == 1) else (j - 1)
    return float(delta_basis_matrix(family, i, np.array([x]))[0, col])


def eval_nodal_basis(family: NodeFamily, i: int, k: int, x: float) -> float:
    """X-indexed basis u^i_k(x), k counted 1..N_i in ascending node order."""
    if not 0.0 <= x <= 1.0:
        raise OutOfDomainError(f"x={x} outside [0, 1]")
    if not 1 <= k <= node_count(family, i):
        raise GridSpecError(f"nodal index {k} out of range for level {i}")
    return float(x_basis_matrix(family, i, np.array([x]))[0, k - 1])


def delta_position(family: NodeFamily, i: int, j: int) -> int:
    """1-based position of the j-th ascending delta node within X^i."""
    pos = delta_positions(family, i)
    if not 1 <= j <= len(pos):
        raise GridSpecError(f"delta index {j} out of range for level {i}")
    return int(pos[j - 1])


# ---------------------------------------------------------------------------
# Lebesgue constants
# ---------------------------------------------------------------------------

def lebesgue_constant(family: NodeFamily, i: int, samples_per_interval: int = 4096) -> float:
    """Lebesgue constant of level-i nodal interpolation on [0, 1].

    Hat bases form a partition of unity, so the uniform families return
    exactly 1.  For CGL the Lebesgue function is sampled densely on every
    subinterval and the best maximum is polished by golden-section refinement;
    the tiny final inflation keeps the result an overestimate.
    """
    if family is not NodeFamily.CGL:
        return 1.0
    nodes = nodes_1d(family, i)
    if len(nodes) == 1:
        return 1.0

    def leb(x):
        return np.abs(x_basis_matrix(family, i, np.atleast_1d(x))).sum(axis=1)

    best_x, best_v = 0.0, 1.0
    for a, b in zip(nodes[:-1], nodes[1:]):
        xs = np.linspace(a, b, samples_per_interval)
        vals = leb(xs)
        k = int(np.argmax(vals))
        if vals[k] > best_v:
            best_v, best_x = float(vals[k]), float(xs[k])
            lo = xs[max(k - 1, 0)]
            hi = xs[min(k + 1, len(xs) - 1)]
            gr = (math.sqrt(5) - 1) / 2
            c, d_ = hi - gr * (hi - lo), lo + gr * (hi - lo)
            for _ in range(80):
                fc, fd = float(leb(c)[0]), float(leb(d_)[0])
                best_v = max(best_v, fc, fd)
                if fc > fd:
                    hi, d_ = d_, c
                    c = hi - gr * (hi - lo)
                else:
                    lo, c = c, d_
                    d_ = lo + gr * (hi - lo)
                if hi - lo < 1e-13:
                    break
    return best_v * (1.0 + 1e-10)


def lebesgue_bound(i: int) -> float:
    """Logarithmic upper bound for the CGL Lebesgue constant at level i."""
    n = 2 ** (i - 1)
    gamma = float(np.euler_gamma)
    return (2 / math.pi) * (math.log(n) + gamma + math.log(4 / math.pi) + math.log(2.0))


# ---------------------------------------------------------------------------
# Interpolants
# ---------------------------------------------------------------------------

def _check_ref_points(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != d:
        raise GridSpecError(f"expected points of dimension {d}, got shape {x.shape}")
    if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
        raise OutOfDomainError("evaluation point outside the reference cube")
    return np.clip(pts, 0.0, 1.0), single


def _unwrap(out: np.ndarray, single: bool) -> np.ndarray | float:
    if not single:
        return out
    out = out[0]
    return float(out) if np.ndim(out) == 0 else out


def _delta_table(family: NodeFamily, ref_level: int, x: np.ndarray) -> np.ndarray:
    """Delta bases of levels 1..ref_level at x, side by side; shape (len(x), N_ref_level)."""
    return np.hstack([delta_basis_matrix(family, lvl, x) for lvl in range(1, ref_level + 1)])


def _eval_surpluses(grid: SparseGrid, surpluses: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sum of surplus x tensor delta basis over the first len(surpluses) grid points, at pts.

    In axis k's table a point of level l and offset j reads column
    base[l] + j - 1, where base[l] counts the delta nodes of the levels below l.
    """
    n = surpluses.shape[0]
    R = grid.ref_level
    base = np.cumsum([0] + [delta_count(grid.family, lvl) for lvl in range(1, R)])
    cols = base[grid.levels[:n] - 1] + grid.offsets[:n] - 1
    out = np.empty((pts.shape[0],) + surpluses.shape[1:])
    rows = max(16, _CHUNK // n)
    for lo in range(0, pts.shape[0], rows):
        block = pts[lo : lo + rows]
        prod = _delta_table(grid.family, R, block[:, 0])[:, cols[:, 0]]
        for k in range(1, grid.d):
            prod *= _delta_table(grid.family, R, block[:, k])[:, cols[:, k]]
        out[lo : lo + rows] = prod @ surpluses
    return out


@dataclass
class Interpolant:
    """Sparse-grid interpolant in hierarchical form: one surplus (scalar or vector) per grid point."""

    grid: SparseGrid
    surpluses: np.ndarray

    def eval(self, x) -> np.ndarray | float:
        """Evaluate at reference point(s) in [0,1]^d; vector fields componentwise."""
        pts, single = _check_ref_points(x, self.grid.d)
        return _unwrap(_eval_surpluses(self.grid, self.surpluses, pts), single)


def fit_hierarchical(grid: SparseGrid, samples: np.ndarray, mask: np.ndarray | None = None) -> Interpolant:
    """Compute hierarchical surpluses level by level in ascending |i|.

    samples has one row per grid point, scalar or vector.  Without a mask,
    any non-finite sample raises FitError listing the offending point ids.
    With a mask, excluded points get surplus zero (the interpolant simply is
    not corrected there); the caller is responsible for level-based policy.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != len(grid):
        raise FitError(f"expected {len(grid)} samples, got {samples.shape[0]}")
    if mask is None:
        bad = np.nonzero(~np.isfinite(samples if samples.ndim == 1 else samples.sum(axis=1)))[0]
        if bad.size:
            raise FitError(f"non-finite samples at grid point ids {bad.tolist()}")
        mask = np.ones(len(grid), dtype=bool)
    else:
        mask = np.asarray(mask, dtype=bool)

    surpluses = np.zeros_like(samples)
    # points are stored in ascending |i|: level l is the slice [start, stop)
    bounds = np.searchsorted(grid.levels.sum(axis=1), np.arange(grid.d, grid.q + 2))
    for start, stop in zip(bounds[:-1], bounds[1:]):
        pred = _eval_surpluses(grid, surpluses[:start], grid.ref[start:stop]) if start else 0.0
        w = samples[start:stop] - pred
        w[~mask[start:stop]] = 0.0
        surpluses[start:stop] = w
    return Interpolant(grid=grid, surpluses=surpluses)


# ---------------------------------------------------------------------------
# Combination formula
# ---------------------------------------------------------------------------

def _cell_einsum(tensor: np.ndarray, mats: list[np.ndarray], vector: bool) -> np.ndarray:
    # einsum sublists, so any d works: tensor axis k is label k, points are d, components d + 1
    d = len(mats)
    tail = [d + 1] if vector else []
    pairs = [x for k, mat in enumerate(mats) for x in (mat, [d, k])]
    return np.einsum(tensor, list(range(d)) + tail, *pairs, [d] + tail, optimize=True)


def eval_combination(grid: SparseGrid, samples: np.ndarray, x) -> np.ndarray | float:
    """Signed binomial combination of full tensor-product interpolants of the samples at x.

    Sums C(d-1, q-|i|) (-1)^(q-|i|) times the tensor interpolant on
    X^i1 x ... x X^id over |i| in [q-d+1, q], one einsum per cell.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != len(grid):
        raise FitError(f"expected {len(grid)} samples, got {samples.shape[0]}")
    pts, single = _check_ref_points(x, grid.d)
    d, q, R = grid.d, grid.q, grid.ref_level
    stride = 2 ** (R - 1) + 1
    keys = grid.point_keys()
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]

    cells = []
    for mi in grid.cells:
        l = sum(mi)
        if l < q - d + 1:
            continue
        # the cell's full tensor grid X^i1 x ... x X^id, as grid point ids
        key = np.zeros((1,) * d, dtype=np.int64)
        for k, lvl in enumerate(mi):
            shape = [1] * d
            shape[k] = node_count(grid.family, lvl)
            key = key * stride + node_ids(grid.family, lvl, R).reshape(shape)
        gather = order[np.searchsorted(sorted_keys, key.ravel())].reshape(key.shape)
        cells.append((mi, float((-1) ** (q - l) * math.comb(d - 1, q - l)), samples[gather]))

    vector = samples.ndim == 2
    out = np.zeros((pts.shape[0],) + samples.shape[1:])
    for lo in range(0, pts.shape[0], _COMBINATION_ROWS):
        chunk = pts[lo : lo + _COMBINATION_ROWS]
        bases = [[x_basis_matrix(grid.family, lvl, chunk[:, k]) for lvl in range(1, R + 1)] for k in range(d)]
        for mi, coeff, tensor in cells:
            mats = [bases[k][lvl - 1] for k, lvl in enumerate(mi)]
            out[lo : lo + _COMBINATION_ROWS] += coeff * _cell_einsum(tensor, mats, vector)
    return _unwrap(out, single)
