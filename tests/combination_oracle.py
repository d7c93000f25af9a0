"""The combination formula: an independent reference for the hierarchical interpolant.

eval_combination evaluates the signed binomial combination of full
tensor-product interpolants over the top d levels, |i| in [q-d+1, q],
straight from the samples.  It is the same polynomial as the hierarchical
form, computed without surpluses, so the tests compare the fit against it.
"""

import math

import numpy as np

from hjbsparse.grid import SparseGrid, nodes_1d
from hjbsparse.interp import x_basis_matrix

# Query rows per block.
_COMBINATION_ROWS = 2048


def _cell_einsum(tensor: np.ndarray, mats: list[np.ndarray], vector: bool) -> np.ndarray:
    # einsum sublists, so any d works: tensor axis k is label k, points are d, components d + 1
    d = len(mats)
    tail = [d + 1] if vector else []
    pairs = [x for k, mat in enumerate(mats) for x in (mat, [d, k])]
    return np.einsum(tensor, list(range(d)) + tail, *pairs, [d] + tail, optimize=True)


def eval_combination(grid: SparseGrid, samples: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed binomial combination of full tensor-product interpolants of the samples at pts (n, d).

    Sums C(d-1, q-|i|) (-1)^(q-|i|) times the tensor interpolant on
    X^i1 x ... x X^id over |i| in [q-d+1, q], one einsum per cell.  A cell's
    tensor-grid points are found by their reference coordinates, which are
    bit-identical to the grid's rows because nested nodes are generated
    bit-identical across levels.
    """
    samples = np.asarray(samples, dtype=float)
    d, q, R = grid.d, grid.q, grid.ref_level
    row_of = {row.tobytes(): i for i, row in enumerate(grid.ref)}

    cells = []
    for mi in grid.cells:
        l = sum(mi)
        if l < q - d + 1:
            continue
        mesh = np.stack(np.meshgrid(*[nodes_1d(grid.family, lvl) for lvl in mi], indexing="ij"), axis=-1)
        gather = np.array([row_of[row.tobytes()] for row in mesh.reshape(-1, d)]).reshape(mesh.shape[:-1])
        cells.append((mi, float((-1) ** (q - l) * math.comb(d - 1, q - l)), samples[gather]))

    vector = samples.ndim == 2
    out = np.zeros((pts.shape[0],) + samples.shape[1:])
    for lo in range(0, pts.shape[0], _COMBINATION_ROWS):
        chunk = pts[lo : lo + _COMBINATION_ROWS]
        bases = [[x_basis_matrix(grid.family, lvl, chunk[:, k]) for lvl in range(1, R + 1)] for k in range(d)]
        for mi, coeff, tensor in cells:
            mats = [bases[k][lvl - 1] for k, lvl in enumerate(mi)]
            out[lo : lo + _COMBINATION_ROWS] += coeff * _cell_einsum(tensor, mats, vector)
    return out
