"""Sparse-grid interpolation: basis functions, the hierarchical fit and its evaluation kernel.

The interpolant is kept in hierarchical form: one surplus w^i_j per grid
point, the coefficient of its cell's tensor delta basis
a^i1_j1(x_1) * ... * a^id_jd(x_d).  The grid owns the layout: every axis
reads the 1-D table of the delta nodes of levels 1..q-d+1 side by side
(``grid.table_nodes``), and ``SparseGrid.cols`` holds each point's column in
it.  One kernel evaluates the interpolant.  For a block of query rows it
evaluates the basis of every table column at every coordinate of the block
in one pass (``_delta_table`` on all d axes stacked), gathers each point's
factors, multiplies them and takes one product with the surpluses.  For the
CGL and modified families the level-1 basis is the constant 1, and a
point's factor on an axis at level 1 is never gathered: ``SparseGrid.factors``
orders the points by their number of non-constant factors, most first, so
that the points with a j-th factor are a prefix of that order and each
factor is one gather into a buffer and one multiply.  The centre point keeps
one constant factor, and the classic family, with no constant column, keeps
all d.  Each ``Interpolant`` keeps its surpluses in that order too.

The surpluses are fitted by unidirectional hierarchization (Bungartz &
Griebel, "Sparse grids", Acta Numerica 13, 2004).  Along axis k, the points
that share their table columns on the other axes form a pole.  The grid
is downward closed, so every pole is a whole 1-D node set X^L, and a level-l
surplus is the value minus the nodal interpolant on X^(l-1): that is the 1-D
map from a pole's values to its surpluses, applied along every pole, axis by
axis.  The combination formula gives the same polynomial; the test suite
keeps it as the reference for the fit.

The piecewise-linear families use hat functions; the CGL family uses Lagrange
polynomials over X^i evaluated in barycentric form with the analytically known
Chebyshev-Lobatto weights (Berrut & Trefethen, "Barycentric Lagrange
interpolation", SIAM Review 46, 2004), every level's formula at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .exceptions import FitError, GridSpecError, OutOfDomainError
from .grid import NodeFamily, SparseGrid, delta_count, delta_positions, node_count, nodes_1d, table_nodes

_NODE_HIT = 1e-14
# Entries (query rows x grid points) per block of the evaluation kernel.  A
# block's buffers and table must stay small enough for the allocator to
# reuse them across calls: fitting and querying 1,000 points on CGL d=6 q=10
# (6 components, single-threaded BLAS, 2-core Xeon) peaks at 64 MB with
# 2**15, 65 MB with 2**16 and 84 MB with 2**20, and the query takes 5.0,
# 4.5 and 8.5 ms; on d=4 q=7 (137 points, 3 components), where a block
# holds hundreds of rows, it takes 1.0, 1.6 and 1.9 ms.
_CHUNK = 2**15
_LEBESGUE_SAMPLES = 4096           # Lebesgue function samples per node interval


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


# ---------------------------------------------------------------------------
# Lebesgue constants
# ---------------------------------------------------------------------------

def lebesgue_constant(family: NodeFamily, i: int) -> float:
    """Lebesgue constant of level-i nodal interpolation on [0, 1].

    Hat bases form a partition of unity, and a single node interpolates by a
    constant, so both give exactly 1.  Otherwise the Lebesgue function is
    sampled on every node interval of [0, 0.5] only: the upper half of X^i is
    the exact mirror 1 - x of the lower half (``nodes_1d``), so the function is
    symmetric about 0.5.  The bracket around the best sample is re-sampled
    twice in the same way, and the tiny final inflation keeps the result an
    overestimate.
    """
    nodes = nodes_1d(family, i)
    if family is not NodeFamily.CGL or len(nodes) == 1:
        return 1.0

    def best_sample(a: float, b: float) -> tuple[float, float, float]:
        # the largest sample on [a, b] and the bracket of its two neighbours
        xs = np.linspace(a, b, _LEBESGUE_SAMPLES)
        vals = np.abs(x_basis_matrix(family, i, xs)).sum(axis=1)
        k = int(np.argmax(vals))
        return float(vals[k]), xs[max(k - 1, 0)], xs[min(k + 1, len(xs) - 1)]

    half = nodes[: len(nodes) // 2 + 1]
    best = max(best_sample(a, b) for a, b in zip(half[:-1], half[1:]))
    for _ in range(2):
        best = max(best, best_sample(best[1], best[2]))
    return best[0] * (1.0 + 1e-10)


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
    if not np.all((pts >= -1e-12) & (pts <= 1.0 + 1e-12)):
        raise OutOfDomainError("evaluation point outside the reference cube")
    return np.clip(pts, 0.0, 1.0), single


def _unwrap(out: np.ndarray, single: bool) -> np.ndarray | float:
    if not single:
        return out
    out = out[0]
    return float(out) if np.ndim(out) == 0 else out


def _column_levels(family: NodeFamily, ref_level: int) -> np.ndarray:
    """Level - 1 of every table_nodes column."""
    counts = [delta_count(family, lvl) for lvl in range(1, ref_level + 1)]
    return np.repeat(np.arange(ref_level), counts)


@lru_cache(maxsize=None)
def _barycentric_layout(ref_level: int) -> tuple[np.ndarray, ...]:
    """The CGL table's read-only layout: the nodes of X^1..X^ref_level side by side, their
    barycentric weights, each level's start in that array, and per table column its index
    there and its level - 1."""
    sets = [nodes_1d(NodeFamily.CGL, lvl) for lvl in range(1, ref_level + 1)]
    starts = np.cumsum([0] + [len(s) for s in sets[:-1]])
    select = np.concatenate([starts[lvl - 1] + delta_positions(NodeFamily.CGL, lvl) - 1
                             for lvl in range(1, ref_level + 1)])
    layout = (np.concatenate(sets), np.concatenate([_cgl_bary_weights(len(s)) for s in sets]),
              starts, select, _column_levels(NodeFamily.CGL, ref_level))
    for a in layout:
        a.setflags(write=False)
    return layout


@lru_cache(maxsize=None)
def _hat_slopes(family: NodeFamily, ref_level: int) -> np.ndarray:
    """Per table column, the slope 2^(level-1) of its hat; 0 for the modified family's constant level 1."""
    slopes = 2.0 ** _column_levels(family, ref_level)
    if family is NodeFamily.MODIFIED:
        slopes[0] = 0.0
    slopes.setflags(write=False)
    return slopes


def _delta_table(family: NodeFamily, ref_level: int, x: np.ndarray) -> np.ndarray:
    """The basis of every table_nodes column at x (1-D); shape (len(x), N_ref_level).

    One pass over every column of every level.  A hat column is
    max(0, 1 - slope |x - node|).  A CGL column of level l is the barycentric
    formula over X^l: t_k = w_k / (x - x_k) over the nodes of every level
    side by side, each level's t summed with one reduceat, and the column's
    t divided by its level's sum.  Where x is within _NODE_HIT of a node of
    level l, level l's columns are the indicator of that node instead.
    """
    if family is not NodeFamily.CGL:
        distance = np.abs(x[:, None] - table_nodes(family, ref_level))
        return np.maximum(1.0 - distance * _hat_slopes(family, ref_level), 0.0)
    nodes, weights, starts, select, level = _barycentric_layout(ref_level)
    diff = x[:, None] - nodes
    with np.errstate(divide="ignore", invalid="ignore"):
        t = weights / diff
        out = t[:, select] / np.add.reduceat(t, starts, axis=1)[:, level]
    hit = np.abs(diff) < _NODE_HIT
    if hit.any():
        on_node = np.logical_or.reduceat(hit, starts, axis=1)[:, level]
        out[on_node] = hit[:, select][on_node]
    return out


def _eval_surpluses(grid: SparseGrid, surpluses: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Sum of surplus x tensor delta basis over the grid points, at pts.

    The surpluses are in the order of grid.factors.  Each block of query rows
    gets one table of every axis's columns, stacked factor-major: row
    k * N_R + c holds column c of axis k at every query of the block, so each
    factor gather copies whole rows.  The points' first factors fill the
    product buffer, each later factor is gathered for the points that have
    it, a prefix of the order, and multiplied in, and one matrix product
    with the surpluses finishes the block.  The constant level-1 factors are
    never gathered.
    """
    layout = grid.factors
    first, later = layout.entries[0], layout.entries[1:]
    n, d = len(grid), grid.d
    out = np.empty((pts.shape[0],) + surpluses.shape[1:])
    rows = min(max(16, _CHUNK // n), max(pts.shape[0], 1))
    # allocated once per call: fresh (rows x n) arrays per block cost a page fault per 4 kB
    prod = np.empty(rows * n)
    gathered = np.empty(rows * len(later[0]) if later else 0)
    for lo in range(0, pts.shape[0], rows):
        block = pts[lo : lo + rows]
        b = len(block)
        table = _delta_table(grid.family, grid.ref_level, block.T.ravel())
        table = table.reshape(d, b, -1).transpose(0, 2, 1).reshape(-1, b)
        p = prod[: b * n].reshape(n, b)
        # mode="clip": with the default "raise" numpy gathers into a temporary and copies it to out
        np.take(table, first, axis=0, out=p, mode="clip")
        for entries in later:
            g = gathered[: b * len(entries)].reshape(len(entries), b)
            np.take(table, entries, axis=0, out=g, mode="clip")
            p[: len(entries)] *= g
        np.matmul(p.T, surpluses, out=out[lo : lo + b])
    return out


@dataclass
class Interpolant:
    """Sparse-grid interpolant in hierarchical form: one surplus (scalar or vector) per grid point."""

    grid: SparseGrid
    surpluses: np.ndarray

    @cached_property
    def _grouped(self) -> np.ndarray:
        """The surpluses in the kernel's point order, grid.factors.order; taken at the first evaluation."""
        return self.surpluses[self.grid.factors.order]

    def eval(self, x) -> np.ndarray | float:
        """Evaluate at reference point(s) in [0,1]^d; vector fields componentwise."""
        pts, single = _check_ref_points(x, self.grid.d)
        return _unwrap(_eval_surpluses(self.grid, self._grouped, pts), single)


@lru_cache(maxsize=None)
def _hierarchization_matrix(family: NodeFamily, ref_level: int) -> np.ndarray:
    """The 1-D map from values to surpluses in table column order, whose leading N_L block maps X^L alone:
    a level-l surplus is the value minus the nodal interpolant on X^(l-1), the first N_(l-1) columns."""
    nodes = table_nodes(family, ref_level)
    inv = np.eye(len(nodes))
    for lvl in range(2, ref_level + 1):
        lo, hi = node_count(family, lvl - 1), node_count(family, lvl)
        order = np.searchsorted(nodes_1d(family, lvl - 1), nodes[:lo])  # exact: nested nodes are bit-identical
        inv[lo:hi, :lo] = -x_basis_matrix(family, lvl - 1, nodes[lo:hi])[:, order]
    inv.setflags(write=False)
    return inv


def _poles(grid: SparseGrid) -> list[np.ndarray]:
    """Point ids of the poles of more than one point: one (N_L, poles) array per axis and length N_L.

    An axis-k pole is the set of points that share their columns on the other
    axes.  The grid is downward closed, so a pole holds columns 0..N_L-1
    along axis k; sorted by the other columns, then by column k, every pole
    is a run that starts at column 0.
    """
    cols = grid.cols
    poles = []
    for k in range(grid.d):
        # lexsort, not one packed integer key: N_R^(d-1) overflows int64 at large d and R
        order = np.lexsort([cols[:, k]] + [cols[:, j] for j in range(grid.d) if j != k])
        starts = np.flatnonzero(cols[order, k] == 0)
        sizes = np.diff(starts, append=len(grid))
        for size in np.unique(sizes[sizes > 1]):
            poles.append(order[starts[sizes == size] + np.arange(size)[:, None]])
    return poles


def _hierarchize(inv: np.ndarray, poles: list[np.ndarray], values: np.ndarray) -> np.ndarray:
    """Apply the 1-D transform along every pole, axis by axis."""
    w = values.copy()
    for ids in poles:
        block = w[ids]
        w[ids] = (inv[: len(ids), : len(ids)] @ block.reshape(len(ids), -1)).reshape(block.shape)
    return w


def fit_hierarchical(grid: SparseGrid, samples: np.ndarray, mask: np.ndarray | None = None) -> Interpolant:
    """Compute hierarchical surpluses by unidirectional hierarchization.

    samples has one row per grid point, scalar or vector.  Points the mask
    excludes get surplus zero (the interpolant simply is not corrected there);
    the caller is responsible for level-based policy.  A non-finite sample at
    any point the mask keeps raises FitError listing the offending point ids.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape[0] != len(grid):
        raise FitError(f"expected {len(grid)} samples, got {samples.shape[0]}")
    mask = np.ones(len(grid), dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    bad = np.nonzero(mask & ~np.isfinite(samples.reshape(len(grid), -1)).all(axis=1))[0]
    if bad.size:
        raise FitError(f"non-finite samples at grid point ids {bad.tolist()}")

    inv = _hierarchization_matrix(grid.family, grid.ref_level)
    poles = _poles(grid)
    # masked samples may be NaN, which the transform would spread along every pole through them
    values = samples.copy()
    values[~mask] = 0.0
    surpluses = _hierarchize(inv, poles, values)
    # A surplus is the value minus the prediction from the points below it.
    # Setting a masked value to its prediction zeroes its surplus; the
    # prediction depends on the masked values below, so go up in |i|.
    level_sum = grid.levels.sum(axis=1)
    for l in np.unique(level_sum[~mask]):
        hit = ~mask & (level_sum == l)
        values[hit] -= surpluses[hit]
        surpluses = _hierarchize(inv, poles, values)
    surpluses[~mask] = 0.0  # exactly, not to rounding
    return Interpolant(grid=grid, surpluses=surpluses)
