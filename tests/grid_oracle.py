"""The per-cell enumeration: an independent reference for SparseGrid's point arrays.

enumerate_grid lists the cells with a recursive composition generator and
the points cell by cell, one np.meshgrid over the table columns of each
cell's delta levels, the way SparseGrid enumerated them before it derived
the level array from combinations of partial sums and every point's columns
from that array at once.  The tests require the two to agree byte for byte.
"""

import numpy as np

from hjbsparse.grid import delta_count, table_nodes


def compositions(total: int, parts: int):
    """All positive integer d-tuples summing to `total`, ascending lex order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_grid(family, d: int, q: int, domain) -> dict:
    """cells, cols, levels, offsets, ref and phys of the grid, one cell at a time."""
    ref_level = q - d + 1
    cells = [mi for l in range(d, q + 1) for mi in compositions(l, d)]
    counts = [delta_count(family, i) for i in range(1, ref_level + 1)]
    first = np.cumsum([0] + counts)
    blocks = []
    for mi in cells:
        mesh = np.meshgrid(*[np.arange(first[i - 1], first[i]) for i in mi], indexing="ij")
        blocks.append(np.stack([m.ravel() for m in mesh], axis=1))
    cols = np.vstack(blocks).astype(np.int64, copy=False)
    column_level = np.repeat(np.arange(1, ref_level + 1, dtype=np.int64), counts)
    column_offset = np.concatenate([np.arange(1, c + 1, dtype=np.int64) for c in counts])
    ref = table_nodes(family, ref_level)[cols]
    out = {"cells": cells, "cols": cols, "levels": column_level[cols], "offsets": column_offset[cols],
           "ref": ref, "phys": domain.lo + ref * domain.width}
    for name in ("cols", "levels", "offsets", "ref", "phys"):
        out[name].setflags(write=False)
    return out
