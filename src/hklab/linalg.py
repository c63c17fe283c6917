"""Exact linear algebra over the rationals.

Everything downstream computes on these primitives.  Values are exact
rationals (gmpy2.mpq, with a fractions.Fraction fallback) and pivoting is
deterministic (first nonzero), so every basis produced anywhere in the
package is reproducible across runs.  A matrix stores integer numerators
over one denominator, with a per-row index of the nonzero numerators only;
the operator blocks this package computes on are mostly zeros, so products,
sums, scaling, comparisons and elimination input run on Python ints over the
index, and rational values are built only at the boundary (dense views,
entries, times_vec's and form's results).  Vectors pass between matrices
and subspaces as integer rows: times_row returns den times the image as
ints, and a subspace hands out its reduced integer rows.  Matrices are
immutable (the index is tuples and attributes cannot be rebound), and all
operations are pure.

Every span elimination (rref, rank, kernels, images, solves, inverses,
subspaces and IncrementalRref) is forward insertion (_insert) of integer
rows: a matrix's numerators (scaling rows does not change a row space), or a
vector scaled by the lcm of its denominators.  Rows are combined as
p*row - f*lead and kept primitive (divided by the gcd of their entries).
Where a reduced form is needed, back-substitution (_back) follows, and a
rational result is formed once at the end by dividing each row by its
pivot.  Since the reduced row echelon form of a matrix is unique, this gives
the same values as elimination in the rationals, with no rational arithmetic
per entry.  Mat.det, not a span, runs its own fraction-free loop.  A
Subspace stores only the primitive reduced rows, pivots positive, and forms
its rational basis when vectors() is called.

Brackets D X - X D' with diagonal D and D' are read off the diagonals,
entry by entry, with no product (diagonal_bracket).  An identity between
matrices is checked by accumulating and comparing, never by building the
left side: lincomb_equals accumulates sum c_i a_i b_i as lincomb does and
compares each row with the target's numerators by cross-multiplying, and
diagonal_bracket_equals reads D X - X D' = c X off the diagonals at the
nonzeros of X.  Joint eigenspaces of
diagonal operators are read off their diagonals; other commuting
operators are refined eigenspace by eigenspace.  Eigenvalues are keyed as
ints when integral and as QQ otherwise, so no lookup hashes an int
against a QQ.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

try:
    from gmpy2 import mpq as QQ
except ImportError:  # gmpy2 is optional; Fraction gives the same values
    from fractions import Fraction as QQ

_ZERO = QQ(0)
_ONE = QQ(1)


class LinalgError(ValueError):
    """Shape mismatch or violated precondition in a linear-algebra routine."""


class NotNilpotentError(LinalgError):
    """Operator failed to power to zero within the dimension bound."""


class EigenDefectError(LinalgError):
    """Joint eigenspaces do not fill the ambient space (non-semisimple input)."""


def qq(x) -> QQ:
    """Coerce ints, strings like '3/2', Fractions and mpqs to the scalar type."""
    return QQ(x)


def vec(entries: Iterable) -> list:
    return [e if type(e) is QQ else QQ(e) for e in entries]


class Mat:
    """Exact rational matrix, immutable.

    The one stored form is integer numerators over one denominator: `num`
    holds, per row, the (column, int) pairs of its nonzero entries in
    ascending column order, and the matrix is num / den, with den > 0 and
    gcd(den, every numerator) == 1.  The form is canonical, so equality and
    hashing compare the fields.  Products, sums, scaling, comparison and
    elimination run on the integers; `data`, `row`, `col`, `columns`,
    `m[i, j]`, `trace` and `repr` build rational values when called.
    Attributes cannot be rebound.
    """

    __slots__ = ("rows", "cols", "num", "den")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise LinalgError(f"bad data shape for {rows}x{cols} matrix")
        # Most zeros are the shared _ZERO; the identity test skips their
        # (slow) truth test.
        _init(self, rows, cols, *_integers(
            [[(j, e) for j, e in enumerate(r) if e is not _ZERO and e]
             for r in data]))

    def __setattr__(self, *_):
        raise AttributeError("Mat is immutable")

    __delattr__ = __setattr__

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        data = [vec(r) for r in rows]
        ncols = len(data[0]) if data else 0
        return Mat(len(data), ncols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        if not cols:
            return Mat(0, 0, [])
        n = len(cols[0])
        data = [vec(c[i] for c in cols) for i in range(n)]
        return Mat(n, len(cols), data)

    @staticmethod
    def from_sparse(rows: int, cols: int, entries: Sequence[dict]) -> "Mat":
        """The matrix whose row i holds the entries {column: value} of
        entries[i]; values must be scalars, zero values are dropped and
        missing entries are zero."""
        if len(entries) != rows:
            raise LinalgError(f"bad data shape for {rows}x{cols} matrix")
        return _raw(rows, cols, *_integers(
            [sorted((j, v) for j, v in e.items() if v) for e in entries]))

    @staticmethod
    def from_num(rows: int, cols: int, num: Sequence, den: int = 1) -> "Mat":
        """The matrix num / den, for num holding per row the (column, int)
        pairs of its nonzero entries in ascending column order and a
        positive int den; their common factor is divided out."""
        if len(num) != rows:
            raise LinalgError(f"bad data shape for {rows}x{cols} matrix")
        return _lowest(rows, cols, tuple(map(tuple, num)), den)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return _raw(rows, cols, ((),) * rows, 1)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _raw(n, n, tuple([((i, 1),) for i in range(n)]), 1)

    @staticmethod
    def diagonal(entries: Sequence) -> "Mat":
        entries = vec(entries)
        return _raw(len(entries), len(entries), *_integers(
            [((i, e),) if e else () for i, e in enumerate(entries)]))

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple:
        """The dense rows, as tuples."""
        return tuple(tuple(_over(r, self.cols, self.den)) for r in self.num)

    def __getitem__(self, ij) -> QQ:
        i, j = ij
        x = dict(self.num[i]).get(range(self.cols)[j])
        return QQ(x, self.den) if x else _ZERO

    def row(self, i: int) -> list:
        return _over(self.num[i], self.cols, self.den)

    def col(self, j: int) -> list:
        return _over(self.transpose().num[j], self.rows, self.den)

    def columns(self) -> list:
        return [_over(r, self.rows, self.den) for r in self.transpose().num]

    def transpose(self) -> "Mat":
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self.num):
            for j, x in r:
                out[j].append((i, x))
        return _raw(self.cols, self.rows, tuple(map(tuple, out)), self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_diagonal(self) -> bool:
        """Whether every nonzero entry lies on the diagonal."""
        return all(not r or (len(r) == 1 and r[0][0] == i)
                   for i, r in enumerate(self.num))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.shape == other.shape and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.rows, self.cols, self.num, self.den))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, -1)

    def _plus(self, other: "Mat", sign: int) -> "Mat":
        """self + sign * other."""
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} vs {other.shape}")
        return lincomb(self.rows, self.cols,
                       [(1, self, None), (sign, other, None)])

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = QQ(c)
        p = int(c.numerator)
        if not p:
            return Mat.zeros(self.rows, self.cols)
        return Mat.from_num(self.rows, self.cols,
                            [[(j, p * x) for j, x in r] for r in self.num],
                            self.den * int(c.denominator))

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise LinalgError(f"cannot multiply {self.shape} by {other.shape}")
        return lincomb(self.rows, other.cols, [(1, self, other)])

    def times_vec(self, v: Sequence) -> list:
        iv, d = _int_row(v)
        d *= self.den
        return [QQ(s, d) if s else _ZERO for s in self.times_row(iv)]

    def times_row(self, row: Sequence) -> list:
        """den * (self * row) as ints, for an integer row: a positive
        multiple of the image, which is all a span or a membership needs."""
        if len(row) != self.cols:
            raise LinalgError("vector length does not match column count")
        out = []
        for r in self.num:
            s = 0
            for j, a in r:
                s += a * row[j]
            out.append(s)
        return out

    def form(self, v: Sequence, w: Sequence) -> QQ:
        """v^T self w: one integer contraction, over the product of the
        three denominators."""
        if len(v) != self.rows:
            raise LinalgError("vector length does not match row count")
        iv, dv = _int_row(v)
        iw, dw = _int_row(w)
        s = sum([a * b for a, b in zip(iv, self.times_row(iw)) if a])
        return QQ(s, dv * dw * self.den)

    def power(self, k: int) -> "Mat":
        if self.rows != self.cols:
            raise LinalgError("power of a non-square matrix")
        if k < 0:
            raise LinalgError("negative power")
        acc = Mat.identity(self.rows)
        for _ in range(k):
            acc = acc * self
        return acc

    def trace(self) -> QQ:
        if self.rows != self.cols:
            raise LinalgError("trace of a non-square matrix")
        return QQ(sum(dict(r).get(i, 0) for i, r in enumerate(self.num)),
                  self.den)

    def det(self) -> QQ:
        """Determinant by fraction-free elimination of the numerators
        (Bareiss, Math. Comp. 22, 1968): below each pivot p every row
        becomes (p*row - f*lead) / prev, an exact division by the previous
        pivot, so the last pivot is the determinant of the numerators times
        the sign of the row swaps; the determinant is that over den^n."""
        if self.rows != self.cols:
            raise LinalgError("determinant of a non-square matrix")
        n = self.rows
        a = [_dense(r, n) for r in self.num]
        sign, prev = 1, 1
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                return _ZERO
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                sign = -sign
            lead = a[c]
            p = lead[c]
            for r in range(c + 1, n):
                row, f = a[r], a[r][c]
                a[r] = ([(p * x - f * y) // prev for x, y in zip(row, lead)]
                        if f else [p * x // prev for x in row])
            prev = p
        return QQ(sign * prev, self.den ** n)


def _init(m: Mat, rows: int, cols: int, num: tuple, den: int) -> None:
    set_ = object.__setattr__
    set_(m, "rows", rows)
    set_(m, "cols", cols)
    set_(m, "num", num)
    set_(m, "den", den)


def _raw(rows: int, cols: int, num: tuple, den: int) -> Mat:
    """The matrix with the given canonical fields (no checks); num is a
    tuple of row tuples."""
    m = object.__new__(Mat)
    _init(m, rows, cols, num, den)
    return m


def _lowest(rows: int, cols: int, num: tuple, den: int) -> Mat:
    """The matrix num / den, num a tuple of row tuples of (column, int)
    pairs in ascending column order, with the common factor of den and
    every numerator divided out: one gcd over all numerators, taken only
    when den != 1."""
    if den != 1:
        g = gcd(den, *[x for r in num for _, x in r])
        if g > 1:
            den //= g
            num = tuple([tuple([(j, x // g) for j, x in r]) for r in num])
    return _raw(rows, cols, num, den)


def _integers(pairs: Sequence) -> tuple:
    """(num, den) for rows of nonzero (column, rational) pairs: den is the
    lcm of the denominators, which leaves the numerators with no factor in
    common with it, and num the tuple of row tuples of (column, value * den)
    pairs."""
    den = lcm(*[int(e.denominator) for r in pairs for _, e in r])
    return tuple([tuple([(j, int(e.numerator) * (den // int(e.denominator)))
                         for j, e in r]) for r in pairs]), den


def _accumulate(rows: int, terms: Sequence) -> tuple:
    """(acc, den) for the sum c * a * b over the terms (c, a, b) of lincomb:
    acc[i] maps a column j to the numerator of entry (i, j) over den, the
    lcm of the terms' denominators.  A numerator may be zero."""
    dens = [int(c.denominator) * a.den * (b.den if b is not None else 1)
            for c, a, b in terms]
    den = lcm(*dens)
    acc = [{} for _ in range(rows)]
    for (c, a, b), d in zip(terms, dens):
        f = int(c.numerator) * (den // d)
        if b is None:
            for arow, ra in zip(acc, a.num):
                for j, x in ra:
                    x *= f
                    arow[j] = arow[j] + x if j in arow else x
            continue
        bnum = b.num
        for arow, ra in zip(acc, a.num):
            for k, x in ra:
                x *= f
                for j, y in bnum[k]:
                    arow[j] = arow[j] + x * y if j in arow else x * y
    return acc, den


def lincomb(rows: int, cols: int, terms: Sequence) -> Mat:
    """The rows x cols matrix sum c * a * b over the terms (c, a, b), where
    c is rational and b is a matrix or None (for c * a).

    Every term is accumulated in integers over the lcm of the terms'
    denominators, so no rational matrix is formed in between.
    """
    acc, den = _accumulate(rows, terms)
    return _lowest(rows, cols, tuple([
        tuple([(j, x) for j in sorted(r) if (x := r[j])]) if r else ()
        for r in acc]), den)


def lincomb_equals(rows: int, cols: int, terms: Sequence, c=1,
                   t: Optional[Mat] = None) -> bool:
    """Whether the rows x cols sum over the terms (c_i, a_i, b_i) of lincomb
    equals c * t, t None for zero.

    The sum is accumulated as lincomb accumulates it and compared with t
    row by row, cross-multiplying against t's numerators; no matrix is
    formed, sorted or reduced.
    """
    if t is not None and t.shape != (rows, cols):
        raise LinalgError(
            f"target of shape {t.shape}, expected {(rows, cols)}")
    acc, den = _accumulate(rows, terms)
    return _rows_equal(acc, den, c, t)


def _rows_equal(acc: list, den: int, c, t: Optional[Mat]) -> bool:
    """Whether the matrix whose row i maps column j to acc[i][j] / den (a
    missing column or a zero numerator is a zero entry) is c * t, t None
    for zero.  Consumes acc."""
    c = QQ(c)
    p = int(c.numerator)
    if t is None or not p:
        return not any(any(r.values()) for r in acc)
    lf, rf = int(c.denominator) * t.den, p * den
    for r, tr in zip(acc, t.num):
        for j, x in tr:
            if r.pop(j, 0) * lf != x * rf:
                return False
        if any(r.values()):
            return False
    return True


def _dense(pairs: Sequence, n: int) -> list:
    """The length-n integer row with the given nonzero (index, int) pairs."""
    out = [0] * n
    for j, x in pairs:
        out[j] = x
    return out


def _over(pairs: Sequence, n: int, den: int) -> list:
    """The length-n rational vector of the (index, int) pairs over den."""
    out = [_ZERO] * n
    for j, x in pairs:
        out[j] = QQ(x, den)
    return out


def commutator(a: Mat, b: Mat) -> Mat:
    if not a.rows == a.cols == b.rows == b.cols:
        raise LinalgError(f"commutator of {a.shape} and {b.shape}")
    return lincomb(a.rows, a.cols, [(1, a, b), (-1, b, a)])


def _diagonals(left: Mat, right: Mat, x: Mat) -> tuple:
    """(lv, rv, den): the diagonals of left and right, for a bracket with x,
    as numerators over den = left.den * right.den."""
    if left.shape != (x.rows, x.rows) or right.shape != (x.cols, x.cols):
        raise LinalgError(
            f"diagonal bracket of {left.shape}, {x.shape} and {right.shape}")
    p, q = left.den, right.den
    return ([r[0][1] * q if r else 0 for r in left.num],
            [r[0][1] * p if r else 0 for r in right.num], p * q)


def diagonal_bracket(left: Mat, right: Mat, x: Mat, sign: int = 1) -> Mat:
    """sign * (left * x - x * right) for diagonal left and right, with no
    product: entry (i, j) is sign * (left[i] - right[j]) * x[i, j], formed
    in integers over the product of the three denominators and reduced, so
    the result is the canonical form lincomb would give."""
    lv, rv, den = _diagonals(left, right, x)
    return Mat.from_num(x.rows, x.cols,
                        [[(j, sign * (a - rv[j]) * y) for j, y in r
                          if a != rv[j]] for a, r in zip(lv, x.num)],
                        den * x.den)


def diagonal_bracket_equals(left: Mat, right: Mat, x: Mat, c=1,
                            t: Optional[Mat] = None) -> bool:
    """Whether left * x - x * right == c * t for diagonal left and right,
    t None for zero, with no product and no matrix formed.

    When t is x itself only the diagonals are read, at x's nonzeros: each
    needs left[i] - right[j] == c.  Otherwise the entries (left[i] - right[j])
    x[i, j] are compared with t's row by row, as lincomb_equals does."""
    lv, rv, den = _diagonals(left, right, x)
    if t is x:
        # (lv[i] - rv[j]) / den == p / q, cross-multiplied.
        c = QQ(c)
        q = int(c.denominator)
        k = int(c.numerator) * den
        rq = [y * q for y in rv]
        return all(all(rq[j] == need for j, _ in r)
                   for need, r in zip([a * q - k for a in lv], x.num) if r)
    if t is not None and t.shape != x.shape:
        raise LinalgError(f"target of shape {t.shape}, expected {x.shape}")
    return _rows_equal([{j: (a - rv[j]) * y for j, y in r if a != rv[j]}
                        for a, r in zip(lv, x.num)], den * x.den, c, t)


# -- row reduction ----------------------------------------------------------

def _int_row(v: Sequence) -> tuple:
    """(row, d): the vector v of ints, QQ values or whatever QQ() parses,
    times d, the lcm of its denominators, as ints."""
    # Most zeros are the shared _ZERO; the identity test skips their
    # (slow) truth test.
    num, d = _integers([[(j, e if type(e) is QQ else QQ(e))
                         for j, e in enumerate(v) if e is not _ZERO and e]])
    return _dense(num[0], len(v)), d


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def primitive_vector(v: Sequence) -> list:
    """v times the positive rational that makes it a primitive integer
    vector, as QQ entries; the zero vector stays zero."""
    return [QQ(x) for x in _primitive(_int_row(v)[0])]


def _divided(rows: int, cols: int, parts: Sequence, f: int = 1) -> Mat:
    """The matrix whose row i is f * r / p for each (i, r, p) in parts, r
    an integer row and p a nonzero int; the other rows are zero."""
    den = lcm(*[p for _, _, p in parts])
    num = [()] * rows
    for i, r, p in parts:
        g = f * (den // p)
        num[i] = [(j, g * x) for j, x in enumerate(r) if x]
    return Mat.from_num(rows, cols, num, den)


def _insert(a: list, pivots: list, rows: Iterable, ncols: int) -> int:
    """Forward insertion: append to the echelon state (a, pivots) each
    integer row of `rows` independent of it; return how many were appended.

    A row is reduced against the accepted rows in order of acceptance: at
    each pivot c where it is nonzero it becomes the primitive part of
    p*row - f*lead, p = lead[c] and f = row[c].  If anything is left, it is
    accepted, pivot at its first nonzero column.  So each accepted row is
    zero at the pivots before it, and the pivots are the leading positions
    of the span.  Insertion stops once the rank reaches ncols.
    """
    k = len(a)
    cols = range(ncols)
    for c in rows:
        if len(a) == ncols:
            break
        for lead, piv in zip(a, pivots):
            f = c[piv]
            if f:
                p = lead[piv]
                c = _primitive([p * x - f * y for x, y in zip(c, lead)])
        piv = next(compress(cols, c), None)
        if piv is not None:
            a.append(c)
            pivots.append(piv)
    return len(a) - k


def _back(a: list, pivots: list, k: int) -> set:
    """Back-substitution after forward insertion, in place: the pivot of
    each row past the first k (which must be zero at each other's pivots)
    is cleared from the rows before it, last row first.  That row is then
    zero at every other pivot, so the result is a reduced row echelon form
    in the order of acceptance.  Returns the indices of the rows combined."""
    touched = set()
    for j in range(len(a) - 1, k - 1, -1):
        lead, c = a[j], pivots[j]
        p = lead[c]
        for r in range(j):
            row = a[r]
            f = row[c]
            if f:
                a[r] = _primitive([p * x - f * y for x, y in zip(row, lead)])
                touched.add(r)
    return touched


def _reduced(rows: Iterable, ncols: int) -> tuple:
    """(rows, pivots) of the reduced row echelon form of the span of the
    integer rows, in the order of acceptance, each row a multiple of its
    canonical one: _insert, then _back."""
    a, pivots = [], []
    _insert(a, pivots, rows, ncols)
    _back(a, pivots, 0)
    return a, pivots


def rref(m: Mat) -> tuple:
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot choice is the first nonzero
    entry in each column scan, so the output is canonical for a given row
    space.
    """
    a, pivots = _reduced((_dense(r, m.cols) for r in m.num), m.cols)
    order = sorted(range(len(a)), key=pivots.__getitem__)
    return (_divided(m.rows, m.cols, [(i, a[r], a[r][pivots[r]])
                                      for i, r in enumerate(order)]),
            sorted(pivots), len(pivots))


def rank(m: Mat) -> int:
    return _insert([], [], (_dense(r, m.cols) for r in m.num), m.cols)


def solve(a: Mat, b: Sequence) -> Optional[list]:
    """One solution of a*x = b, or None if the system is inconsistent."""
    if len(b) != a.rows:
        raise LinalgError("right-hand side length does not match row count")
    x = solve_matrix(a, Mat(a.rows, 1, [[QQ(e)] for e in b]))
    return None if x is None else x.col(0)


def solve_matrix(a: Mat, b: Mat) -> Optional[Mat]:
    """Solve a*X = b column by column; None if any column is inconsistent.

    Y solving num(a) Y = num(b) gives X = Y * den(a) / den(b)."""
    if b.rows != a.rows:
        raise LinalgError("shape mismatch in solve_matrix")
    k, n = a.cols, a.cols + b.cols
    red, pivots = _reduced((_dense(ra + tuple((k + j, x) for j, x in rb), n)
                            for ra, rb in zip(a.num, b.num)), n)
    if max(pivots, default=-1) >= k:
        return None
    return _divided(k, b.cols, [(c, row[k:], row[c] * b.den)
                                for row, c in zip(red, pivots)], a.den)


def invert(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise LinalgError("inverse of a non-square matrix")
    out = solve_matrix(m, Mat.identity(m.rows))
    if out is None:
        raise LinalgError("matrix is singular")
    return out


class IncrementalRref:
    """Row echelon state accepting one row at a time.

    Rows dependent on the current state are rejected.  The state is that
    of forward insertion (_insert): each accepted row is an integer row
    zero at the pivots of the rows accepted before it, so insertion and
    membership both cost one reduction pass in integers.  The rows and
    pivots of a Subspace are such a state.
    """

    def __init__(self, ncols: int, rows: Sequence = (), pivots: Sequence = ()):
        self.ncols = ncols
        self.rows: list = list(rows)
        self.pivots: list = list(pivots)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence) -> bool:
        return not _insert(list(self.rows), list(self.pivots),
                           (_int_row(v)[0],), self.ncols)

    def insert(self, v: Sequence) -> bool:
        return self.insert_row(_int_row(v)[0])

    def insert_row(self, row: Sequence) -> bool:
        """insert for an integer row of length ncols."""
        return bool(_insert(self.rows, self.pivots, (row,), self.ncols))


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient, stored as its reduced row echelon form.

    The one stored form is `rows`, the nonzero rows of the reduced row
    echelon form of the span, each as the primitive integer tuple with a
    positive pivot entry, and their pivot columns `pivots`.  The form is
    canonical, so equality and hashing of subspaces are those of the
    fields.  `vectors()` builds the rational basis (each row over its pivot
    entry) when called; membership, sums and intersections run on the
    integer rows.
    """

    ambient_dim: int
    rows: tuple
    pivots: tuple

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        if any(len(v) != ambient_dim for v in vectors):
            raise LinalgError("vector length does not match ambient dimension")
        return Subspace.from_rows(ambient_dim, (_int_row(v)[0] for v in vectors))

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        """The span of integer rows of length ambient_dim."""
        return Subspace.zero(ambient_dim).plus(rows)

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return _unit_span(ambient_dim, range(ambient_dim))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def vectors(self) -> list:
        """The canonical basis: each row divided by its pivot entry."""
        return [[QQ(x, row[c]) if x else _ZERO for x in row]
                for row, c in zip(self.rows, self.pivots)]

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise LinalgError("vector length does not match ambient dimension")
        return self._holds(_int_row(v)[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        """Whether other <= self, on the canonical forms: the pivots of a
        subspace are the leading positions of its vectors, so other's must
        be self's, and then a row r lies in self exactly when it is
        sum_c (r[c] / s_c[c]) s_c over self's rows s_c, c their pivots,
        since each s_c is zero at the other pivots.  A row with one such
        term lies in self exactly when it is that row, as both are
        primitive with a positive pivot."""
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient dimension mismatch")
        at = dict(zip(self.pivots, self.rows))
        if not all(c in at for c in other.pivots):
            return False
        cols = range(self.ambient_dim)
        for r in other.rows:
            terms = [(r[c], at[c], c) for c in compress(cols, r) if c in at]
            if len(terms) == 1:
                if r != terms[0][1]:
                    return False
                continue
            den = lcm(*[s[c] for _, s, c in terms])
            acc = [den * x for x in r]
            for f, s, c in terms:
                g = f * (den // s[c])
                acc = [a - g * y for a, y in zip(acc, s)]
            if any(acc):
                return False
        return True

    def plus(self, rows: Iterable[Sequence]) -> "Subspace":
        """The span of the subspace and integer rows of length ambient_dim.

        The rows are inserted (_insert) after this subspace's rows, which
        are never eliminated again, and back-substituted (_back); only the
        rows so combined and the accepted ones are made canonical.  With no
        row accepted the subspace itself is returned."""
        a, pivots = list(self.rows), list(self.pivots)
        k = len(a)
        if not _insert(a, pivots, rows, self.ambient_dim):
            return self
        for r in _back(a, pivots, k).union(range(k, len(a))):
            a[r] = _canonical(a[r], pivots[r])
        order = sorted(range(len(a)), key=pivots.__getitem__)
        return Subspace(self.ambient_dim, tuple(a[r] for r in order),
                        tuple(pivots[r] for r in order))

    def _holds(self, row: Sequence) -> bool:
        """Whether the integer row lies in the subspace: inserting it into
        a copy of the rows accepts nothing."""
        return not _insert(list(self.rows), list(self.pivots), (row,),
                           self.ambient_dim)


def _canonical(row: Sequence, c: int) -> tuple:
    """The integer row with pivot column c as a Subspace row: primitive,
    with a positive pivot."""
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return tuple(row) if g == 1 else tuple([x // g for x in row])


def _unit_span(n: int, ks: Iterable) -> Subspace:
    """Span of the e_k, k in ks ascending: unit rows are the reduced form."""
    ks, zero = tuple(ks), (0,) * n
    return Subspace(n, tuple(zero[:k] + (1,) + zero[k + 1:] for k in ks), ks)


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """The common kernel of the rows orthogonal to a and to b."""
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("ambient dimension mismatch")
    n = a.ambient_dim
    # A subspace's rows are reduced, so they give its orthogonal directly.
    rows = _kernel_rows(a.rows, a.pivots, n) + _kernel_rows(b.rows, b.pivots, n)
    return _kernel(rows, n)


def _kernel_rows(red: Sequence, pivots: Sequence, ncols: int) -> list:
    """Integer rows spanning the kernel of integer rows in reduced form
    (each zero at the pivots of the others), one per free column f:
    e_f - sum_i (red[i][f] / p_i) e_{pivots[i]}, scaled to integers."""
    pivset = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in pivset:
            continue
        terms = [(row[f], row[c], c) for row, c in zip(red, pivots) if row[f]]
        scale = lcm(*[p for _, p, _ in terms])
        v = [0] * ncols
        v[f] = scale
        for x, p, c in terms:
            v[c] = -x * (scale // p)
        vecs.append(v)
    return vecs


def _kernel(rows: Iterable, n: int) -> Subspace:
    """The kernel of the integer rows of length n, from one elimination of
    the rows with their columns reversed: the kernel row of each free
    column f then leads at f and is zero at the other free columns, so the
    kernel rows, read back in column order and made primitive, are already
    the kernel's reduced row echelon form."""
    red, pivots = _reduced((r[::-1] for r in rows), n)
    out = [tuple(_primitive(v[::-1]))
           for v in reversed(_kernel_rows(red, pivots, n))]
    return Subspace(n, tuple(out), tuple(sorted(
        set(range(n)).difference(n - 1 - c for c in pivots))))


def kernel_basis(m: Mat) -> Subspace:
    """Basis of {v : m v = 0} as a Subspace of QQ^cols, from one
    elimination of m with its columns reversed (_kernel)."""
    return _kernel((_dense(r, m.cols) for r in m.num), m.cols)


def image_basis(m: Mat) -> Subspace:
    """Column space of m as a Subspace of QQ^rows: the columns of m at the
    pivots of its rows, which forward insertion finds."""
    pivots = []
    _insert([], pivots, (_dense(r, m.cols) for r in m.num), m.cols)
    cols = m.transpose().num
    return Subspace.from_rows(m.rows, (_dense(cols[c], m.rows) for c in pivots))


def eigenspace(op: Mat, lam) -> Subspace:
    if op.rows != op.cols:
        raise LinalgError("eigenspace of a non-square matrix")
    return kernel_basis(op - Mat.identity(op.rows).scale(lam))


def restrict_operator(op: Mat, sub: Subspace) -> Mat:
    """Matrix of op on an invariant subspace, in the basis sub.vectors()."""
    img = [op.times_vec(v) for v in sub.vectors()]
    if not all(sub.contains(w) for w in img):
        raise LinalgError("subspace is not invariant under the operator")
    # Basis vector t is 1 at pivot t and 0 at the other pivots, so the
    # coordinates of a vector in the span are its pivot entries.
    return Mat.from_cols([[w[c] for c in sub.pivots] for w in img])


def simultaneous_eigenspaces(ops: Sequence[Mat], values: Sequence[tuple]) -> list:
    """Joint eigenspaces of commuting operators for the given value tuples.

    When every operator is diagonal, the joint eigenspace of a tuple is the
    span of the coordinate vectors whose diagonal entries match it; no
    product is formed, since diagonal matrices commute.  Otherwise the
    inputs are checked to commute and eigenspaces are refined operator by
    operator.  Either way the pieces are keyed by value tuples normalised
    as _value_key does it, the candidates are normalised the same way, and
    each candidate is one lookup.  The joint pieces must fill the ambient
    space; a defect means some operator is not semisimple with integer
    spectrum over the candidate values and raises EigenDefectError.
    """
    if not ops:
        raise LinalgError("need at least one operator")
    n = ops[0].rows
    for op in ops:
        if op.shape != (n, n):
            raise LinalgError("operators must share a square shape")
    for t in values:
        if len(t) != len(ops):
            raise LinalgError("value tuple length does not match operator count")
    values = [tuple(map(_value_key, t)) for t in values]
    if all(op.is_diagonal() for op in ops):
        pieces = _diagonal_pieces(ops)
    else:
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not lincomb_equals(n, n, [(1, ops[i], ops[j]),
                                             (-1, ops[j], ops[i])]):
                    raise LinalgError("operators do not commute")
        pieces = _refined_pieces(ops, values)

    out = []
    total = 0
    zero = Subspace.zero(n)
    for t in values:
        sub = pieces.get(t, zero)
        out.append(sub)
        total += sub.dim
    if total != n:
        raise EigenDefectError(
            f"joint eigenspaces span {total} of {n} dimensions; "
            "operator is defective or the value grid is incomplete")
    return out


def _value_key(x):
    """The eigenvalue x as a lookup key: an int when it is integral, a QQ
    otherwise, so equal values give equal keys of one type and no lookup
    hashes an int against a QQ."""
    if type(x) is int:
        return x
    x = QQ(x)
    return int(x.numerator) if x.denominator == 1 else x


def _diagonal_pieces(ops: Sequence[Mat]) -> dict:
    """Diagonal tuple, keyed as _value_key keys it -> span of the
    coordinate vectors that carry it."""
    n = ops[0].rows
    coords: dict = {}
    for k in range(n):
        key = []
        for op in ops:
            x = op.num[k][0][1] if op.num[k] else 0
            v, r = divmod(x, op.den)
            key.append(QQ(x, op.den) if r else v)
        coords.setdefault(tuple(key), []).append(k)
    return {key: _unit_span(n, ks) for key, ks in coords.items()}


def _refined_pieces(ops: Sequence[Mat], values: Sequence[tuple]) -> dict:
    """Value prefix -> joint eigenspace, refined level by level; distinct
    prefixes index disjoint invariant pieces.  A piece stops trying
    eigenvalues once its eigenspaces fill it."""
    pieces = {(): Subspace.full(ops[0].rows)}
    for level, op in enumerate(ops):
        nxt = {}
        lams = sorted({t[level] for t in values})
        for prefix, sub in pieces.items():
            if sub.is_zero():
                continue
            basis = Mat.from_cols(sub.vectors())
            rest = restrict_operator(op, sub)
            filled = 0
            for lam in lams:
                es = eigenspace(rest, lam)
                if es.is_zero():
                    continue
                vecs = [basis.times_vec(w) for w in es.vectors()]
                nxt[prefix + (lam,)] = Subspace.from_vectors(sub.ambient_dim,
                                                             vecs)
                filled += es.dim
                if filled == sub.dim:
                    break
        pieces = nxt
    return pieces
