"""Modular screening and rational reconstruction for big exact row reductions.

No hklab module calls these routines; the module stays importable because
perfbench/spans.py traces ModpReducer by name for its modp.* metrics.  The
pipeline it implements is:

1. reduce candidate rows incrementally modulo a fixed word-size prime with
   numpy int64 arithmetic to find the rank profile (pivot / free columns),
2. read the reduced rows modulo p straight off the reducer state,
3. lift to exact rationals by rational reconstruction (CRT over more primes
   when a single prime is not enough).

A reconstructed value is only a candidate: a caller must certify it exactly.
"""

from __future__ import annotations

# Primes just below 2**26: dot products of up to 2048 residue pairs then fit
# int64 without intermediate reduction (2048 * (2**26)**2 < 2**63).
PRIMES = (
    67108859, 67108837, 67108819, 67108777, 67108763,
    67108757, 67108753, 67108747, 67108739, 67108729,
    67108721, 67108709, 67108693, 67108669, 67108667,
)

MAX_COLS = 2048

# Raw integer row entries must be representable in int64 with headroom.
MAX_ENTRY = 2 ** 62


class EntryOverflowError(OverflowError):
    """An integer row entry exceeds the modular-backend safety bound."""


class ModpReducer:
    """Incremental reduced row echelon form modulo a prime.

    Rows are inserted one at a time; rows dependent on the current state are
    rejected.  The accepted state is kept fully reduced (unit pivots, zeros
    above and below), so once the row space is saturated the state *is* the
    canonical RREF of everything inserted so far.
    """

    def __init__(self, ncols: int, p: int):
        if ncols > MAX_COLS:
            raise ValueError(f"reducer supports at most {MAX_COLS} columns")
        import numpy as np  # here, so that `import hklab` skips numpy
        self.p = p
        self.ncols = ncols
        self.rows = np.zeros((0, ncols), dtype=np.int64)
        self.pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivot_cols)

    def _reduce(self, row: np.ndarray) -> np.ndarray:
        import numpy as np
        c = np.mod(row, self.p)
        if self.rank:
            coeffs = c[self.pivot_cols]
            if coeffs.any():
                c = np.mod(c - coeffs @ self.rows, self.p)
        return c

    def insert(self, row: np.ndarray) -> bool:
        """Insert a row; True if it increased the rank."""
        import numpy as np
        if row.shape != (self.ncols,):
            raise ValueError("row length mismatch")
        if np.abs(row).max(initial=0) >= MAX_ENTRY:
            raise EntryOverflowError("row entry too large for int64 reduction")
        c = self._reduce(row)
        nz = np.nonzero(c)[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        inv = pow(int(c[j]), self.p - 2, self.p)
        c = np.mod(c * inv, self.p)
        if self.rank:
            col = self.rows[:, j].copy()
            if col.any():
                self.rows = np.mod(self.rows - np.outer(col, c), self.p)
        self.rows = np.vstack([self.rows, c[None, :]])
        self.pivot_cols.append(j)
        return True

    def in_rowspace(self, row: np.ndarray) -> bool:
        return not self._reduce(row).any()

    def sorted_state(self) -> tuple:
        """(pivot_cols sorted, reduced rows in pivot order)."""
        order = sorted(range(self.rank), key=self.pivot_cols.__getitem__)
        return ([self.pivot_cols[i] for i in order], self.rows[order])


def rational_reconstruct(u: int, m: int):
    """Unique r/s with u*s = r mod m, |r| <= N, 0 < s <= D, gcd(s,m)=1.

    Uses the balanced bound N = D = floor(sqrt(m/2)).  Returns None when no
    such fraction exists (signal to add another prime).
    """
    u %= m
    if u == 0:
        return (0, 1)
    bound = int((m // 2) ** 0.5)
    r0, r1 = m, u
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        return None
    from math import gcd
    if gcd(abs(s1), m) != 1:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    if gcd(abs(r1), s1) != 1:
        return None
    return (r1 if s1 > 0 else -r1, s1)


def crt_combine(res_a: int, mod_a: int, res_b: int, mod_b: int) -> int:
    """Residue modulo mod_a*mod_b matching both inputs (moduli coprime)."""
    inv = pow(mod_a % mod_b, -1, mod_b)
    t = ((res_b - res_a) * inv) % mod_b
    return res_a + mod_a * t
