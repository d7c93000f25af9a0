"""Shared helpers: seeded counter-based RNG, file digests, numpy-aware JSON encoding."""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

RNG_NAME = "philox4x64"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based 64-bit generator; every stochastic routine takes an explicit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed)))


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        while True:
            block = f.read(1 << 20)
            if not block:
                break
            h.update(block)
    return h.hexdigest()


def json_default(obj):
    """The default= hook of json.dump/json.dumps: a numpy array becomes a list, a numpy scalar its Python value.

    Anything else raises TypeError, as json itself does.  np.float64 is a float,
    so json prints it with the shortest round-trip representation directly.
    """
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
