"""Nested 1-D node families and d-dimensional sparse grids.

Three nested families on [0, 1]:

* ``classic``  -- equally spaced, N_i = 2^(i-1)+1 for every level (N_1 = 2).
* ``modified`` -- same dyadic nodes but the first level is the single midpoint.
* ``cgl``      -- Chebyshev Gauss-Lobatto nodes, first level is the midpoint.

A sparse grid of depth q in d dimensions is the union of the tensor cells
``DX^i1 x ... x DX^id`` over all multi-indices with ``|i| <= q``, where DX^i
is the set of nodes new at level i.  Node identity across levels is tracked
through closed-form index rules (never floating-point set difference), and
node values are generated so that nested nodes are bit-identical across
levels.

Every axis of a grid reads one 1-D table, ``table_nodes``: the delta nodes of
levels 1..q-d+1 side by side.  The grid describes each point by its column
in that table on every axis (``SparseGrid.cols``); its levels, offsets and
reference coordinates are lookups of those columns, and the interpolation
kernel and the hierarchization read the same columns.  The kernel reads them
through ``SparseGrid.factors``, built at the first evaluation: each point's
non-constant columns, with the points grouped by how many they have.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import chain, combinations

import numpy as np

from .exceptions import GridSpecError, OutOfDomainError

_BOUNDARY_TOL = 1e-12


class NodeFamily(Enum):
    CLASSIC = "classic"
    MODIFIED = "modified"
    CGL = "cgl"

    @classmethod
    def parse(cls, name: str) -> "NodeFamily":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise GridSpecError(f"unknown node family {name!r}; expected classic|modified|cgl")


def node_count(family: NodeFamily, i: int) -> int:
    """N_i, the number of nodes in X^i."""
    if i < 1:
        raise GridSpecError(f"level must be >= 1, got {i}")
    if i == 1:
        return 2 if family is NodeFamily.CLASSIC else 1
    return 2 ** (i - 1) + 1


def delta_count(family: NodeFamily, i: int) -> int:
    """Number of nodes new at level i."""
    if i == 1:
        return node_count(family, 1)
    return node_count(family, i) - node_count(family, i - 1)


@lru_cache(maxsize=None)
def nodes_1d(family: NodeFamily, i: int) -> np.ndarray:
    """Sorted nodes X^i in [0, 1], per the defining formula of the family.

    CGL nodes are generated from sin^2 on the lower half and mirrored, so the
    midpoint is exactly 0.5 and nested nodes are bit-identical across levels.
    """
    if i < 1:
        raise GridSpecError(f"level must be >= 1, got {i}")
    n = node_count(family, i)
    if family is not NodeFamily.CGL:
        if n == 1:
            x = np.array([0.5])
        else:
            x = np.arange(n) / 2 ** (i - 1)
    else:
        if n == 1:
            x = np.array([0.5])
        else:
            m = np.arange(n)
            x = np.sin(m * np.pi / 2**i) ** 2
            x[n // 2] = 0.5
            x[n // 2 + 1 :] = 1.0 - x[n // 2 - 1 :: -1]
    x.setflags(write=False)
    return x


@lru_cache(maxsize=None)
def delta_positions(family: NodeFamily, i: int) -> np.ndarray:
    """1-based positions of the DX^i nodes within the sorted X^i.

    Closed-form index rules: level 1 is all of X^1; the level where the
    midpoint families acquire the boundary points contributes the odd
    positions {1, 3}; every later level contributes the even positions.
    """
    if i == 1:
        pos = np.arange(1, node_count(family, 1) + 1)
    elif i == 2:
        pos = np.array([2]) if family is NodeFamily.CLASSIC else np.array([1, 3])
    else:
        pos = np.arange(2, node_count(family, i) + 1, 2)
    pos.setflags(write=False)
    return pos


def delta_nodes(family: NodeFamily, i: int) -> np.ndarray:
    """DX^i = X^i \\ X^(i-1), ascending, values bit-identical to nodes_1d."""
    return nodes_1d(family, i)[delta_positions(family, i) - 1]


@lru_cache(maxsize=None)
def table_nodes(family: NodeFamily, ref_level: int) -> np.ndarray:
    """The 1-D table: the delta nodes of levels 1..ref_level side by side.

    Column base_l + j - 1 holds the j-th ascending node of DX^l, where base_l
    counts the delta nodes of the levels below l; the first N_L columns are
    therefore exactly the nodes of X^L.
    """
    x = np.concatenate([delta_nodes(family, lvl) for lvl in range(1, ref_level + 1)])
    x.setflags(write=False)
    return x


@dataclass(frozen=True)
class Box:
    """Axis-aligned physical domain with affine maps to/from the unit cube."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise GridSpecError("domain lower/upper length mismatch")
        for lo, hi in zip(self.lower, self.upper):
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise GridSpecError(f"domain axis [{lo}, {hi}] has a bound that is not finite")
            if not lo < hi:
                raise GridSpecError(f"domain axis [{lo}, {hi}] is empty")

    @property
    def d(self) -> int:
        return len(self.lower)

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.lower)

    @property
    def hi(self) -> np.ndarray:
        return np.asarray(self.upper)

    @property
    def width(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def _check_axes(self, pts: np.ndarray) -> None:
        if pts.ndim == 0 or pts.shape[-1] != self.d:
            raise GridSpecError(f"expected points with {self.d} coordinates, got shape {pts.shape}")

    def to_ref(self, phys: np.ndarray) -> np.ndarray:
        phys = np.asarray(phys, dtype=float)
        self._check_axes(phys)
        ref = (phys - self.lo) / self.width
        if not np.all((ref >= -_BOUNDARY_TOL) & (ref <= 1.0 + _BOUNDARY_TOL)):
            raise OutOfDomainError(f"point {phys} outside domain box")
        return np.clip(ref, 0.0, 1.0)

    def clip(self, phys: np.ndarray) -> np.ndarray:
        return np.clip(np.asarray(phys, dtype=float), self.lo, self.hi)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(n, self.d))

    def as_json(self) -> list[list[float]]:
        return [[float(lo), float(hi)] for lo, hi in zip(self.lower, self.upper)]

    @classmethod
    def from_json(cls, data) -> "Box":
        return cls(tuple(float(a[0]) for a in data), tuple(float(a[1]) for a in data))


def unit_box(d: int) -> Box:
    return Box((0.0,) * d, (1.0,) * d)


def level_set(d: int, q: int) -> np.ndarray:
    """The cells' multi-indices i, |i| = d..q, as rows of a (C, d) int64 array in (|i|, i) lex order.

    i is the differences of its partial sums c_1 < ... < c_d = |i| <= q, and
    itertools.combinations yields those sums in lex order, which is i's lex
    order; a stable sort by |i| = c_d puts the levels in turn.
    """
    sums = np.fromiter(chain.from_iterable(combinations(range(1, q + 1), d)), dtype=np.int64,
                       count=math.comb(q, d) * d).reshape(-1, d)
    sums = sums[np.argsort(sums[:, -1], kind="stable")]
    return np.diff(sums, axis=1, prepend=0)


@dataclass(frozen=True)
class FactorLayout:
    """Each grid point's non-constant factors, grouped for the evaluation kernel.

    A point's basis is the product over the axes k of the delta basis of its
    table column c_k, which the kernel reads at row k * N_R + c_k of a table
    of the d axes' columns stacked (N_R = node_count(family, ref_level)).
    For the midpoint families column 0 is level 1's single node, whose basis
    is the constant 1, so a point's factors are its axes at another column,
    in axis order; the centre point, at column 0 on every axis, keeps axis
    0's constant entry 0, so that every point has at least one factor.
    ``order`` lists the point ids by their number of factors, most first
    (stable, so ids ascend within a group), and ``entries[j]`` holds the
    j-th factor of the first len(entries[j]) points of that order: the
    points with more than j factors.  The classic family has no constant
    column, and its layout is every axis of every point in grid order.
    """

    order: np.ndarray
    entries: tuple[np.ndarray, ...]


class SparseGrid:
    """Enumerated sparse grid with deterministic (|i|, i, j) lexicographic order.

    Point p is ``cols[p]``, its column in the 1-D table on every axis.  The
    read-only (n, d) arrays ``levels``, ``offsets`` (1-based within DX^i),
    ``ref`` and ``phys`` are derived from it.  Within each cell the offsets
    run in row-major (last axis fastest) order, which coincides with
    ascending lexicographic offset order.

    The points are enumerated in bulk from the cells as one (C, d) level
    array, ``level_set``.  On each axis of a cell the delta count of its
    level is a radix; the cell holds the product of its radices, and its
    points follow those of the cells before it.  A point's rank within its
    cell, written in row-major mixed-radix digits, is its 0-based offset on
    every axis: digit k is ``rank // stride_k % radix_k``, with stride_k the
    product of the radices after axis k.
    """

    def __init__(self, family: NodeFamily, d: int, q: int, domain: Box):
        if d < 1:
            raise GridSpecError(f"dimension must be >= 1, got {d}")
        if q < d:
            raise GridSpecError(f"depth q={q} must be >= dimension d={d}")
        if domain.d != d:
            raise GridSpecError(f"domain has {domain.d} axes, expected {d}")
        self.family = family
        self.d = d
        self.q = q
        self.domain = domain

        levels = level_set(d, q)
        self.cells = list(map(tuple, levels.tolist()))

        # the table columns of level i run from first[i - 1] to first[i] - 1
        counts = np.array([delta_count(family, i) for i in range(1, self.ref_level + 1)], dtype=np.int64)
        first = np.concatenate([[0], np.cumsum(counts)])
        radix = counts[levels - 1]
        stride = np.ones_like(radix)
        stride[:, :-1] = np.cumprod(radix[:, :0:-1], axis=1)[:, ::-1]
        size = stride[:, 0] * radix[:, 0]
        rank = np.arange(size.sum(), dtype=np.int64) - np.repeat(np.cumsum(size) - size, size)
        digit = rank[:, None] // np.repeat(stride, size, axis=0) % np.repeat(radix, size, axis=0)
        self.cols = np.repeat(first[levels - 1], size, axis=0) + digit
        self.levels = np.repeat(levels, size, axis=0)
        self.offsets = digit + 1
        self.ref = table_nodes(family, self.ref_level)[self.cols]
        # ref is in [0, 1] by construction, so the affine map needs no bounds check
        self.phys = domain.lo + self.ref * domain.width
        for arr in (self.cols, self.levels, self.offsets, self.ref, self.phys):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.ref.shape[0]

    @cached_property
    def factors(self) -> FactorLayout:
        """The evaluation kernel's layout (FactorLayout), built at the first evaluation, not with the grid."""
        n, d = self.cols.shape
        width = node_count(self.family, self.ref_level)
        active = self.cols != 0 if node_count(self.family, 1) == 1 else np.ones((n, d), dtype=bool)
        active[:, 0] |= ~active.any(axis=1)              # the centre point keeps axis 0
        count = active.sum(axis=1)
        order = np.argsort(-count, kind="stable")
        # k * width + column rises with k, so a sort puts a point's factors first, in axis order
        compact = np.sort(np.where(active, self.cols + width * np.arange(d), d * width), axis=1)[order]
        more_than = n - np.cumsum(np.bincount(count, minlength=d + 1))[:-1]  # points with > j factors
        entries = tuple(compact[:size, j].copy() for j, size in enumerate(more_than.tolist()) if size)
        for a in (order, *entries):
            a.setflags(write=False)
        return FactorLayout(order, entries)

    @property
    def ref_level(self) -> int:
        """Largest per-axis level that can occur: q - d + 1."""
        return self.q - self.d + 1

    def info(self) -> dict:
        return {
            "family": self.family.value,
            "d": self.d,
            "q": self.q,
            "domain": self.domain.as_json(),
            "count": len(self),
        }


def build_grid(family: NodeFamily, d: int, q: int, domain: Box | None = None) -> SparseGrid:
    if domain is None:
        domain = unit_box(d)
    return SparseGrid(family, d, q, domain)


def grid_size(family: NodeFamily, d: int, q: int) -> int:
    """Exact point count via the composition sum, without enumeration."""
    if q < d or d < 1:
        raise GridSpecError(f"need q >= d >= 1, got q={q}, d={d}")
    poly = level_sum_coefficients([delta_count(family, i) for i in range(1, q - d + 2)], d, q)
    return sum(c for deg, c in poly.items() if d <= deg <= q)


def level_sum_coefficients(weights, d: int, q: int) -> dict:
    """Nonzero coefficients {l: c_l} of (sum_i w_i t^i)^d up to t^q, weights[0] = w_1.

    c_l sums prod_k w_{i_k} over the compositions i_1 + ... + i_d = l: integer
    weights give exact integers, float weights floats.
    """
    poly = {0: 1}
    for _ in range(d):
        new = {}
        for deg, c in poly.items():
            for i, w in enumerate(weights, start=1):
                if deg + i <= q:
                    new[deg + i] = new.get(deg + i, 0) + c * w
        poly = new
    return poly


def dense_size(family: NodeFamily, d: int, q: int) -> int:
    """Size of the full tensor grid on X^(q-d+1), exact big-integer arithmetic."""
    if q < d:
        raise GridSpecError(f"need q >= d, got q={q}, d={d}")
    return node_count(family, q - d + 1) ** d
