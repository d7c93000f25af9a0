"""Sparse-grid interpolation: basis functions, hierarchical surpluses, combination technique.

Two algebraically equivalent evaluation routes are provided:

* hierarchical  -- surpluses w^i_j attached to the new nodes of each tensor
  cell, summed over all cells with |i| <= q;
* combination   -- signed binomial combination of full tensor-product
  interpolants over the top d levels, |i| in [q-d+1, q].

The piecewise-linear families use hat functions; the CGL family uses Lagrange
polynomials over X^i evaluated in barycentric form with the analytically known
Chebyshev-Lobatto weights.

Surpluses within one level may be computed in any order: cells of equal |i|
contain disjoint new nodes, and each cell's delta bases vanish at every other
same-level cell's new nodes, so same-level cells never interact.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from enum import Enum

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
_CHUNK = 2048


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

class InterpolantMode(Enum):
    HIERARCHICAL = "hierarchical"
    COMBINATION = "combination"


def _check_ref_points(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != d:
        raise GridSpecError(f"expected points of dimension {d}, got shape {x.shape}")
    if np.any(pts < -1e-12) or np.any(pts > 1.0 + 1e-12):
        raise OutOfDomainError("evaluation point outside the reference cube")
    return np.clip(pts, 0.0, 1.0), single


def _cell_einsum(tensor: np.ndarray, mats: list[np.ndarray], vector: bool) -> np.ndarray:
    # einsum sublists, so any d works: tensor axis k is label k, points are d, components d + 1
    d = len(mats)
    tail = [d + 1] if vector else []
    pairs = [x for k, mat in enumerate(mats) for x in (mat, [d, k])]
    return np.einsum(tensor, list(range(d)) + tail, *pairs, [d] + tail, optimize=True)


def _eval_cells(grid: SparseGrid, weights: np.ndarray, cell_idx: list[int], pts: np.ndarray) -> np.ndarray:
    """Sum of surplus x tensor-basis over the given cells at reference points."""
    vector = weights.ndim == 2
    out = np.zeros((pts.shape[0], weights.shape[1]) if vector else pts.shape[0])
    for lo in range(0, pts.shape[0], _CHUNK):
        sl_p = slice(lo, min(lo + _CHUNK, pts.shape[0]))
        chunk = pts[sl_p]
        cache: dict[tuple[int, int], np.ndarray] = {}
        for c in cell_idx:
            mi = grid.cells[c]
            mats = []
            for k, lvl in enumerate(mi):
                key = (k, lvl)
                if key not in cache:
                    cache[key] = delta_basis_matrix(grid.family, lvl, chunk[:, k])
                mats.append(cache[key])
            sl = grid.cell_slice(c)
            shape = tuple(delta_count(grid.family, lvl) for lvl in mi)
            tensor = weights[sl].reshape(shape + ((weights.shape[1],) if vector else ()))
            out[sl_p] += _cell_einsum(tensor, mats, vector)
    return out


@dataclass
class Interpolant:
    """Sparse-grid interpolant of a scalar or vector field sampled on the grid."""

    grid: SparseGrid
    values: np.ndarray
    mode: InterpolantMode
    surpluses: np.ndarray | None = None

    def eval(self, x) -> np.ndarray | float:
        """Evaluate at reference point(s) in [0,1]^d; vector fields componentwise."""
        pts, single = _check_ref_points(x, self.grid.d)
        if self.mode is InterpolantMode.HIERARCHICAL:
            out = _eval_cells(self.grid, self.surpluses, range(len(self.grid.cells)), pts)
        else:
            out = _combination_engine(self.grid).eval(self.values, pts)
        if single:
            out = out[0]
            return float(out) if np.ndim(out) == 0 else out
        return out


def _group_cells_by_level(grid: SparseGrid) -> list[list[int]]:
    groups: dict[int, list[int]] = {}
    for c, mi in enumerate(grid.cells):
        groups.setdefault(sum(mi), []).append(c)
    return [groups[l] for l in sorted(groups)]


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
    done: list[int] = []
    for level_cells in _group_cells_by_level(grid):
        idx = np.concatenate([np.arange(grid.cell_start[c], grid.cell_start[c + 1]) for c in level_cells])
        pts = grid.ref[idx]
        pred = _eval_cells(grid, surpluses, done, pts) if done else np.zeros(
            (len(idx), samples.shape[1]) if samples.ndim == 2 else len(idx)
        )
        w = samples[idx] - pred
        w[~mask[idx]] = 0.0
        surpluses[idx] = w
        done.extend(level_cells)
    return Interpolant(grid=grid, values=samples, mode=InterpolantMode.HIERARCHICAL, surpluses=surpluses)


# ---------------------------------------------------------------------------
# Combination technique
# ---------------------------------------------------------------------------

class _CombinationEngine:
    """Per-grid cache of the signed tensor-product combination formula."""

    def __init__(self, grid: SparseGrid):
        self.grid = grid
        d, q = grid.d, grid.q
        R = grid.ref_level
        stride = 2 ** (R - 1) + 1
        order = np.argsort(grid.point_keys(), kind="stable")
        self._sorted_keys = grid.point_keys()[order]
        self._order = order

        self.cells: list[tuple[tuple[int, ...], float, np.ndarray]] = []
        for c, mi in enumerate(grid.cells):
            l = sum(mi)
            if l < q - d + 1:
                continue
            coeff = (-1) ** (q - l) * math.comb(d - 1, q - l)
            ids = [node_ids(grid.family, lvl, R) for lvl in mi]
            key = np.zeros((1,) * d, dtype=np.int64)
            for k in range(d):
                shape = [1] * d
                shape[k] = len(ids[k])
                key = key * stride + ids[k].reshape(shape)
            pos = np.searchsorted(self._sorted_keys, key.ravel())
            gather = order[pos].astype(np.int64).reshape(key.shape)
            self.cells.append((mi, float(coeff), gather))

    def eval(self, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        vector = values.ndim == 2
        out = np.zeros((pts.shape[0], values.shape[1]) if vector else pts.shape[0])
        for lo in range(0, pts.shape[0], _CHUNK):
            sl_p = slice(lo, min(lo + _CHUNK, pts.shape[0]))
            chunk = pts[sl_p]
            cache: dict[tuple[int, int], np.ndarray] = {}
            for mi, coeff, gather in self.cells:
                mats = []
                for k, lvl in enumerate(mi):
                    key = (k, lvl)
                    if key not in cache:
                        cache[key] = x_basis_matrix(self.grid.family, lvl, chunk[:, k])
                    mats.append(cache[key])
                tensor = values[gather]
                out[sl_p] += coeff * _cell_einsum(tensor, mats, vector)
        return out


_engines: "weakref.WeakKeyDictionary[SparseGrid, _CombinationEngine]" = weakref.WeakKeyDictionary()


def _combination_engine(grid: SparseGrid) -> _CombinationEngine:
    eng = _engines.get(grid)
    if eng is None:
        eng = _CombinationEngine(grid)
        _engines[grid] = eng
    return eng


def make_combination(grid: SparseGrid, samples: np.ndarray) -> Interpolant:
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != len(grid):
        raise FitError(f"expected {len(grid)} samples, got {samples.shape[0]}")
    return Interpolant(grid=grid, values=samples, mode=InterpolantMode.COMBINATION)


def eval_combination(grid: SparseGrid, samples: np.ndarray, x) -> np.ndarray | float:
    """Signed binomial combination of tensor-product interpolants at x."""
    return make_combination(grid, samples).eval(x)
