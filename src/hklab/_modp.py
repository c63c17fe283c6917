"""Modular screening for big exact row reductions.

No hklab module calls these routines; the module stays importable because
perfbench/spans.py traces ModpReducer by name for its modp.* metrics.
ModpReducer reduces candidate rows incrementally modulo a fixed word-size
prime with numpy int64 arithmetic, to find the rank profile (pivot and
free columns), and the reduced rows modulo p are read straight off its
state.  Values read modulo p are only candidates: a caller must certify
them exactly.
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

