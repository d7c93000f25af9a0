"""The machine's speed during a run, read from a fixed calibration kernel.

The virtual machine the benchmark runs on changes speed by up to ~1.7x, in
stretches that can outlast a whole run (NOTES.md), so no statistic taken
inside one run removes it.  The benchmark therefore times this kernel after
every stage and reports each timing at the reference speed:

    timing at reference speed = measured timing * REF_KERNEL_S / median kernel time of the run

The kernel is benchmark code and never changes with the program, so a change
in the program moves the scaled timing as much as the measured one, while a
change in the machine's speed moves the stages and the kernel together.  It
mixes what the pipeline spends its time on: interpreted Python arithmetic,
small numpy products and a sparse LU factorization.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# The kernel's usual time on the 2-vCPU machine described in NOTES.md.  It only
# sets the unit: timings are in seconds at the speed where the kernel takes this.
REF_KERNEL_S = 0.010

_rng = np.random.default_rng(0)
_A = (sp.random(200, 200, density=0.03, random_state=1) + 4.0 * sp.eye(200)).tocsc()
_b = _rng.standard_normal(200)
_M = 0.3 * _rng.standard_normal((6, 6))


def _kernel() -> float:
    s = 0.0
    for i in range(8000):
        s += (i % 7) * 0.5
    v = np.zeros(6)
    for _ in range(120):
        v = np.tanh(_M @ v + 0.1)
    for _ in range(4):
        s += float(spla.splu(_A).solve(_b)[0])
    return s + float(v[0])


def kernel_s() -> float:
    """Wall time of one kernel run."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


_kernel()   # the first run pays for imports and first-call set-up
