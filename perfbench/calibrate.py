"""Host speed, from a fixed reference kernel timed in the benchmark process.

The 2-vCPU VM this benchmark was built on changes speed by up to half over
minutes (the same pass took 4.0 s and 6.5 s ten minutes apart), with no
steal time: the cores themselves run slower.  A run therefore times this
kernel next to the program and reports its times rescaled to a host on which
the kernel takes ``KERNEL_REF_S``:

    reference seconds = measured seconds * KERNEL_REF_S / median kernel time

The kernel uses only Python, ``fractions`` and numpy, never ``oneside_levy``,
so a change to the program cannot change the kernel's work.  It mixes what
the workloads do: dict and float loops, rational arithmetic, numpy passes
over 8192 floats, small dense products, and the lockstep engine's step of
table lookups and masked updates over 4096 paths.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

KERNEL_REF_S = 0.040    # the kernel's median time on the baseline host
KERNEL_EVERY_S = 0.5    # between tasks of a timed pass, a kernel run this often
SETUP_KERNEL_RUNS = 5   # kernel runs right after each set-up

_RNG = np.random.default_rng(0)
_VEC = _RNG.random(8192)
_MAT = _RNG.random((120, 120))
_FLOATS = [float(v) for v in _RNG.random(3000)]
_CUM = np.cumsum(_RNG.random(16384))
_CUM /= _CUM[-1]
_U = _RNG.random(4096)


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = time.perf_counter()
    acc = {}
    for _ in range(6):
        for i, v in enumerate(_FLOATS):
            acc[i % 97] = acc.get(i % 97, 0.0) + 0.5 * v
    f = Fraction(0)
    for i in range(1, 1500):
        f += Fraction(i, 3 * i + 1)
    x = _VEC.copy()
    for _ in range(80):
        x = np.where(x > 0.5, 0.9 * x, x + 0.01)
        x.sort()
        np.cumsum(x)
    for _ in range(30):
        _MAT @ _MAT
    pos = np.zeros(_U.size, dtype=np.int64)
    for _ in range(20):
        j = np.searchsorted(_CUM, _U, side="right")
        odd = (j & 1).astype(bool)
        step = np.zeros(_U.size, dtype=np.int64)
        step[odd] = j[odd]
        pos += step
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """Reference seconds per measured second, from kernel times."""
    return KERNEL_REF_S / statistics.median(samples)
