"""A fixed exact-arithmetic probe that measures how fast the host runs now.

A shared host runs this process at a speed that drifts by a third within
minutes, so raw times of the same code differ more between runs than most
changes to the code would move them.  The probe is a fixed job that belongs
to the benchmark and calls nothing in hklab: Gauss-Jordan elimination over
``Fraction`` on a constant integer matrix, and row reduction modulo a prime
with numpy on a constant matrix, the two kinds of arithmetic hklab spends its
time in.  Its time moves with the host's speed and never with hklab's code.

``run.py`` takes one probe before every op and scales its times by
``REFERENCE_S`` over the median probe of the run: a time is reported in
seconds on a host that runs the probe in ``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

import numpy as np

# About the probe's median time on a shared 2-vCPU x86-64 host with Python
# 3.11.7 and numpy 2.4.6; it sets only the scale of the reported times.
REFERENCE_S = 0.04

_PRIME = 32003
_rng = random.Random(20210803)
_FRACTION_MATRIX = [[_rng.randint(-9, 9) for _ in range(16)]
                    for _ in range(16)]
_MODP_MATRIX = np.array([[_rng.randrange(_PRIME) for _ in range(1200)]
                         for _ in range(60)], dtype=np.int64)


def _fraction_rref() -> list:
    a = [[Fraction(x) for x in row] for row in _FRACTION_MATRIX]
    n = len(a)
    for c in range(n):
        p = next((r for r in range(c, n) if a[r][c] != 0), None)
        if p is None:
            continue
        a[c], a[p] = a[p], a[c]
        inv = 1 / a[c][c]
        a[c] = [x * inv for x in a[c]]
        for r in range(n):
            if r != c and a[r][c] != 0:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return a


def _modp_reduce() -> int:
    """Rows inserted one by one into a reduced echelon form mod a prime,
    the shape of ``hklab._modp.ModpReducer.insert``: the matrix grows by a
    row per step and is rewritten in full, so memory traffic counts."""
    rows = np.zeros((0, _MODP_MATRIX.shape[1]), dtype=np.int64)
    pivots = []
    for row in _MODP_MATRIX:
        c = row % _PRIME
        if pivots:
            c = (c - c[pivots] @ rows) % _PRIME
        nz = np.nonzero(c)[0]
        if not nz.size:
            continue
        j = int(nz[0])
        c = c * pow(int(c[j]), -1, _PRIME) % _PRIME
        if pivots:
            rows = (rows - np.outer(rows[:, j], c)) % _PRIME
        rows = np.vstack([rows, c[None, :]])
        pivots.append(j)
    return len(pivots)


def probe_seconds() -> float:
    """Time of one run of the probe."""
    t0 = time.perf_counter()
    _fraction_rref()
    _modp_reduce()
    return time.perf_counter() - t0
