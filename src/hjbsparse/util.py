"""Shared helpers: seeded counter-based RNG, central differences, file digests, JSON-safe conversion."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

RNG_NAME = "philox4x64"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator; every stochastic routine takes an explicit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def central_difference(fn, x: np.ndarray, step) -> np.ndarray:
    """out[i] = (fn(x + step_i e_i) - fn(x - step_i e_i)) / (2 step_i) for each leading index i of x.

    step is a scalar or indexable per i (step[i] broadcasts against x[i]).
    """
    rows = []
    for i in range(len(x)):
        h = step[i] if np.ndim(step) else step
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        rows.append((fn(xp) - fn(xm)) / (2.0 * h))
    return np.array(rows)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json.dumps emits plain Python types.

    Floats go through float() and are therefore printed by json with the
    shortest round-trip representation.
    """
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: a Python bool is an int
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj
