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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Iterator

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


def node_ids(family: NodeFamily, i: int, ref_level: int) -> np.ndarray:
    """Integer identity of each X^i node on the dyadic ladder of ref_level.

    Node k of level i maps to an integer in [0, 2^(ref_level-1)] that is equal
    for the same geometric node seen from any level (CGL shares the dyadic
    index ladder of the uniform families).
    """
    if i > ref_level:
        raise GridSpecError(f"level {i} exceeds reference level {ref_level}")
    n = node_count(family, i)
    if n == 1:
        return np.array([2 ** (ref_level - 2)]) if ref_level >= 2 else np.array([0])
    return np.arange(n) * 2 ** (ref_level - i)


def delta_node_ids(family: NodeFamily, i: int, ref_level: int) -> np.ndarray:
    return node_ids(family, i, ref_level)[delta_positions(family, i) - 1]


@dataclass(frozen=True)
class Box:
    """Axis-aligned physical domain with affine maps to/from the unit cube."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise GridSpecError("domain lower/upper length mismatch")
        for lo, hi in zip(self.lower, self.upper):
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

    def to_phys(self, ref: np.ndarray) -> np.ndarray:
        ref = np.asarray(ref, dtype=float)
        if np.any(ref < -_BOUNDARY_TOL) or np.any(ref > 1.0 + _BOUNDARY_TOL):
            raise OutOfDomainError(f"reference point {ref} outside [0,1]^d")
        return self.lo + ref * self.width

    def to_ref(self, phys: np.ndarray) -> np.ndarray:
        phys = np.asarray(phys, dtype=float)
        ref = (phys - self.lo) / self.width
        if np.any(ref < -_BOUNDARY_TOL) or np.any(ref > 1.0 + _BOUNDARY_TOL):
            raise OutOfDomainError(f"point {phys} outside domain box")
        return np.clip(ref, 0.0, 1.0)

    def contains(self, phys: np.ndarray) -> bool:
        phys = np.asarray(phys, dtype=float)
        ref = (phys - self.lo) / self.width
        return bool(np.all(ref >= -_BOUNDARY_TOL) and np.all(ref <= 1.0 + _BOUNDARY_TOL))

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


def compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All positive integer d-tuples summing to `total`, ascending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True)
class GridPoint:
    index: tuple[int, ...]
    offset: tuple[int, ...]
    ref: tuple[float, ...]
    phys: tuple[float, ...]


class SparseGrid:
    """Enumerated sparse grid with deterministic (|i|, i, j) lexicographic order.

    Points are stored as arrays; within each cell the offsets run in row-major
    (last axis fastest) order, which coincides with ascending lexicographic
    offset order.
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

        cells = []
        for l in range(d, q + 1):
            cells.extend(compositions(l, d))
        self.cells = cells
        self.cell_levels = np.array(cells, dtype=np.int64)

        start = [0]
        ref_blocks = []
        off_blocks = []
        for mi in cells:
            nodes = [delta_nodes(family, i) for i in mi]
            counts = [len(nd) for nd in nodes]
            mesh = np.meshgrid(*nodes, indexing="ij")
            ref_blocks.append(np.stack([m.ravel() for m in mesh], axis=1))
            offs = np.meshgrid(*[np.arange(1, c + 1) for c in counts], indexing="ij")
            off_blocks.append(np.stack([o.ravel() for o in offs], axis=1))
            start.append(start[-1] + int(np.prod(counts)))
        self.cell_start = np.array(start, dtype=np.int64)
        self.ref = np.vstack(ref_blocks)
        self.offsets = np.vstack(off_blocks).astype(np.int64)
        self.levels = np.repeat(self.cell_levels, np.diff(self.cell_start), axis=0)
        self.phys = domain.lo + self.ref * domain.width
        for arr in (self.ref, self.offsets, self.levels, self.phys):
            arr.setflags(write=False)

    def __len__(self) -> int:
        return self.ref.shape[0]

    @property
    def ref_level(self) -> int:
        """Largest per-axis level that can occur: q - d + 1."""
        return self.q - self.d + 1

    def point(self, idx: int) -> GridPoint:
        return GridPoint(
            index=tuple(int(v) for v in self.levels[idx]),
            offset=tuple(int(v) for v in self.offsets[idx]),
            ref=tuple(float(v) for v in self.ref[idx]),
            phys=tuple(float(v) for v in self.phys[idx]),
        )

    def cell_slice(self, cell_idx: int) -> slice:
        return slice(int(self.cell_start[cell_idx]), int(self.cell_start[cell_idx + 1]))

    def point_keys(self) -> np.ndarray:
        """int64 key per point, unique across the grid, shared across levels."""
        return self._keys_from(self.levels, self.offsets)

    def _keys_from(self, levels: np.ndarray, offsets: np.ndarray) -> np.ndarray:
        R = self.ref_level
        stride = 2 ** (R - 1) + 1
        keys = np.zeros(levels.shape[0], dtype=np.int64)
        for k in range(self.d):
            ids = np.empty(levels.shape[0], dtype=np.int64)
            for lvl in range(1, R + 1):
                sel = levels[:, k] == lvl
                if np.any(sel):
                    ids[sel] = delta_node_ids(self.family, lvl, R)[offsets[sel, k] - 1]
            keys = keys * stride + ids
        return keys

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
    counts = {i: delta_count(family, i) for i in range(1, q - d + 2)}
    # coefficients of (sum_i dN_i t^i)^d up to t^q, exact integers
    poly = {0: 1}
    for _ in range(d):
        new: dict[int, int] = {}
        for deg, c in poly.items():
            for i, dn in counts.items():
                if deg + i <= q:
                    new[deg + i] = new.get(deg + i, 0) + c * dn
        poly = new
    return sum(c for deg, c in poly.items() if d <= deg <= q)


def dense_size(family: NodeFamily, d: int, q: int) -> int:
    """Size of the full tensor grid on X^(q-d+1), exact big-integer arithmetic."""
    if q < d:
        raise GridSpecError(f"need q >= d, got q={q}, d={d}")
    return node_count(family, q - d + 1) ** d
