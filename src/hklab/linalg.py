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

Every elimination (rref, kernels, images, solves, inverses, determinants,
subspaces and IncrementalRref) runs on integer rows: a matrix's numerators
(scaling rows does not change a row space), or a vector scaled by the lcm of
its denominators; rows are combined as p*row - f*lead and kept primitive
(divided by the gcd of their entries), and a rational result is formed once
at the end by dividing each row by its pivot.  Since the reduced row echelon
form of a matrix is unique, this gives the same values as elimination in the
rationals, with no rational arithmetic per entry.  A Subspace stores only the
primitive reduced rows, pivots positive, and forms its rational basis when
vectors() is called.

Joint eigenspaces of diagonal operators are read off their diagonals;
other commuting operators are refined eigenspace by eigenspace.
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
        if den != 1:
            g = gcd(den, *[x for r in num for _, x in r])
            if g > 1:
                den //= g
                num = [[(j, x // g) for j, x in r] for r in num]
        return _raw(rows, cols, num, den)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return _raw(rows, cols, ((),) * rows, 1)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _raw(n, n, [((i, 1),) for i in range(n)], 1)

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
        return _raw(self.cols, self.rows, out, self.den)

    def is_zero(self) -> bool:
        return not any(self.num)

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
        """Determinant by fraction-free (Bareiss) elimination of the
        numerators: sign * last_pivot / den^n."""
        if self.rows != self.cols:
            raise LinalgError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return _ONE
        a = [_dense(r, n) for r in self.num]
        pivots, sign = _echelon(a, n, bareiss=True)
        if len(pivots) < n:
            return _ZERO
        return QQ(sign * a[n - 1][n - 1], self.den ** n)


def _init(m: Mat, rows: int, cols: int, num: Sequence, den: int) -> None:
    set_ = object.__setattr__
    set_(m, "rows", rows)
    set_(m, "cols", cols)
    set_(m, "num", tuple(map(tuple, num)))
    set_(m, "den", den)


def _raw(rows: int, cols: int, num: Sequence, den: int) -> Mat:
    """The matrix with the given canonical fields (no checks)."""
    m = object.__new__(Mat)
    _init(m, rows, cols, num, den)
    return m


def _integers(pairs: Sequence) -> tuple:
    """(num, den) for rows of nonzero (column, rational) pairs: den is the
    lcm of the denominators, which leaves the numerators with no factor in
    common with it, and num the rows of (column, value * den) pairs."""
    den = lcm(*[int(e.denominator) for r in pairs for _, e in r])
    return [[(j, int(e.numerator) * (den // int(e.denominator)))
             for j, e in r] for r in pairs], den


def lincomb(rows: int, cols: int, terms: Sequence) -> Mat:
    """The rows x cols matrix sum c * a * b over the terms (c, a, b), where
    c is rational and b is a matrix or None (for c * a).

    Every term is accumulated in integers over the lcm of the terms'
    denominators, so no rational matrix is formed in between.
    """
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
    return Mat.from_num(rows, cols, [sorted((j, x) for j, x in r.items() if x)
                                     for r in acc], den)


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


# -- row reduction ----------------------------------------------------------

def _int_row(v: Sequence) -> tuple:
    """(row, d): the vector v of ints, QQ values or whatever QQ() parses,
    times d, the lcm of its denominators, as ints."""
    # Most zeros are the shared _ZERO; the identity test skips their
    # (slow) truth test.
    num, d = _integers([[(j, e if type(e) is QQ else QQ(e))
                         for j, e in enumerate(v) if e is not _ZERO and e]])
    return _dense(num[0], len(v)), d


def _combine(row: list, lead: list, c: int) -> list:
    """lead[c]*row - row[c]*lead: row with column c cleared by the pivot row."""
    p, f = lead[c], row[c]
    return [p * x - f * y for x, y in zip(row, lead)]


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


def _echelon(a: list, ncols: int, bareiss: bool = False) -> tuple:
    """Gauss-Jordan elimination of the integer rows `a`, in place.

    The one elimination loop here; IncrementalRref and Subspace.contains
    apply its row step to one row at a time.  Pivots are the first nonzero
    entry in each column scan, with the same row swaps as elimination in the
    rationals, so row i of the result is a nonzero multiple of row i of the
    reduced row echelon form and rows past the rank are zero.  Updated rows
    are made primitive; with `bareiss` they are instead divided exactly by
    the previous pivot (Bareiss, Math. Comp. 22, 1968), every row is updated
    at every step, and the last pivot of a nonsingular square matrix is its
    determinant times the sign of the row permutation.

    Returns (pivot_cols, sign of the row permutation).
    """
    nr = len(a)
    pivots = []
    sign = 1
    prev = 1
    prow = 0
    for c in range(ncols):
        piv = next((r for r in range(prow, nr) if a[r][c]), None)
        if piv is None:
            continue
        if piv != prow:
            a[prow], a[piv] = a[piv], a[prow]
            sign = -sign
        lead = a[prow]
        p = lead[c]
        for r in range(nr):
            row = a[r]
            if r == prow:
                continue
            if row[c]:
                row = _combine(row, lead, c)
                a[r] = [x // prev for x in row] if bareiss else _primitive(row)
            elif bareiss:
                a[r] = [p * x // prev for x in row]
        if bareiss:
            prev = p
        pivots.append(c)
        prow += 1
        if prow == nr:
            break
    return pivots, sign


def _reduced(num: Sequence, ncols: int) -> tuple:
    """(integer rows, pivot_cols) of the elimination of the rows with the
    nonzero (column, int) pairs num; scaling the rows of a matrix does not
    change its row space, so a matrix's numerators stand for it."""
    a = [_dense(r, ncols) for r in num]
    pivots, _ = _echelon(a, ncols)
    return a, pivots


def rref(m: Mat) -> tuple:
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot choice is the first nonzero
    entry in each column scan, so the output is canonical for a given row
    space.
    """
    a, pivots = _reduced(m.num, m.cols)
    return (_divided(m.rows, m.cols,
                     [(i, a[i], a[i][c]) for i, c in enumerate(pivots)]),
            pivots, len(pivots))


def rank(m: Mat) -> int:
    return len(_reduced(m.num, m.cols)[1])


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
    k = a.cols
    red, pivots = _reduced([ra + tuple((k + j, x) for j, x in rb)
                            for ra, rb in zip(a.num, b.num)], k + b.cols)
    if pivots and pivots[-1] >= k:
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


def _reduce_against(c: list, rows: list, pivots: list) -> list:
    """Integer row c with every pivot column cleared, given rows that are
    each zero in the pivot columns of the rows before them."""
    for row, piv in zip(rows, pivots):
        if c[piv]:
            c = _primitive(_combine(c, row, piv))
    return c


class IncrementalRref:
    """Row echelon state accepting one row at a time.

    Rows dependent on the current state are rejected.  Each accepted row is
    kept as a primitive integer row reduced against the rows accepted before
    it, so it is zero in their pivot columns; reducing a vector against the
    rows in order of acceptance then clears every pivot column, and
    insertion and membership both cost one reduction pass in integers.  The
    rows and pivots of a Subspace are such a state.
    """

    def __init__(self, ncols: int, rows: Sequence = (), pivots: Sequence = ()):
        self.ncols = ncols
        self.rows: list = list(rows)
        self.pivots: list = list(pivots)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v: Sequence) -> bool:
        return not any(_reduce_against(_int_row(v)[0], self.rows, self.pivots))

    def insert(self, v: Sequence) -> bool:
        return self.insert_row(_int_row(v)[0])

    def insert_row(self, row: Sequence) -> bool:
        """insert for an integer row of length ncols."""
        c = _reduce_against(row, self.rows, self.pivots)
        piv = next((j for j, x in enumerate(c) if x), None)
        if piv is None:
            return False
        self.rows.append(c)
        self.pivots.append(piv)
        return True


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
        return Subspace.from_rows(ambient_dim, [_int_row(v)[0] for v in vectors])

    @staticmethod
    def from_rows(ambient_dim: int, rows: Iterable[Sequence]) -> "Subspace":
        """The span of integer rows of length ambient_dim."""
        rows = list(rows)
        pivots, _ = _echelon(rows, ambient_dim)
        # _echelon leaves a row it never combined as it was given, so each
        # row is made primitive with a positive pivot here.
        return Subspace(ambient_dim, tuple(map(_canonical, rows, pivots)),
                        tuple(pivots))

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

        The rows are inserted into an IncrementalRref seeded with this
        subspace's rows, which are never eliminated again.  Each accepted
        row is zero at the pivots before it, so clearing the pivot of each
        accepted row from the rows before it, last accepted first, leaves
        the reduced form; only the rows so combined and the accepted ones
        are made primitive with a positive pivot.  With no row accepted
        the subspace itself is returned."""
        k = self.dim
        state = IncrementalRref(self.ambient_dim, self.rows, self.pivots)
        for row in rows:
            state.insert_row(row)
        if state.rank == k:
            return self
        a, pivots = state.rows, state.pivots
        touched = set(range(k, len(a)))
        for j in range(len(a) - 1, k - 1, -1):
            lead, c = a[j], pivots[j]
            for r in range(j):
                if a[r][c]:
                    a[r] = _primitive(_combine(a[r], lead, c))
                    touched.add(r)
        for r in touched:
            a[r] = _canonical(a[r], pivots[r])
        order = sorted(range(len(a)), key=pivots.__getitem__)
        return Subspace(self.ambient_dim, tuple(a[r] for r in order),
                        tuple(pivots[r] for r in order))

    def _holds(self, row: Sequence) -> bool:
        """Whether the integer row lies in the subspace."""
        return not any(_reduce_against(row, self.rows, self.pivots))


def _canonical(row: Sequence, c: int) -> tuple:
    """The integer row with pivot column c as a Subspace row: primitive,
    with a positive pivot."""
    g = gcd(*row) if row[c] > 0 else -gcd(*row)
    return tuple(row) if g == 1 else tuple(x // g for x in row)


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
    pivots, _ = _echelon(rows, n)
    return Subspace.from_rows(n, _kernel_rows(rows, pivots, n))


def _kernel_rows(red: Sequence, pivots: Sequence, ncols: int) -> list:
    """Integer rows spanning the kernel of integer rows in the reduced
    form _echelon leaves (rows past the rank are zero)."""
    pivset = set(pivots)
    vecs = []
    for f in range(ncols):
        if f in pivset:
            continue
        # e_f - sum_i (red[i][f] / p_i) e_{pivots[i]}, scaled to integers
        terms = [(row[f], row[c], c) for row, c in zip(red, pivots) if row[f]]
        scale = lcm(*[p for _, p, _ in terms])
        v = [0] * ncols
        v[f] = scale
        for x, p, c in terms:
            v[c] = -x * (scale // p)
        vecs.append(v)
    return vecs


def kernel_basis(m: Mat) -> Subspace:
    """Basis of {v : m v = 0} as a Subspace of QQ^cols.

    m is eliminated with its columns reversed.  The kernel row of each free
    column f then leads at f and is zero at the other free columns, so the
    rows, read back in column order and made primitive, are already the
    kernel's reduced row echelon form: one elimination, not two."""
    n = m.cols
    red, pivots = _reduced([[(n - 1 - j, x) for j, x in reversed(r)]
                            for r in m.num], n)
    rows = [tuple(_primitive(v[::-1]))
            for v in reversed(_kernel_rows(red, pivots, n))]
    return Subspace(n, tuple(rows), tuple(sorted(
        set(range(n)).difference(n - 1 - c for c in pivots))))


def image_basis(m: Mat) -> Subspace:
    """Column space of m as a Subspace of QQ^rows."""
    pivots = _reduced(m.num, m.cols)[1]
    cols = m.transpose().num
    return Subspace.from_rows(m.rows, [_dense(cols[c], m.rows) for c in pivots])


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
    operator.  Either way the joint pieces must fill the ambient space; a
    defect means some operator is not semisimple with integer spectrum over
    the candidate values and raises EigenDefectError.
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
    if all(_is_diagonal(op) for op in ops):
        pieces = _diagonal_pieces(ops)
    else:
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if not commutator(ops[i], ops[j]).is_zero():
                    raise LinalgError("operators do not commute")
        pieces = _refined_pieces(ops, values)

    out = []
    total = 0
    zero = Subspace.zero(n)
    for t in values:
        sub = pieces.get(tuple(QQ(x) for x in t), zero)
        if sub.is_zero():
            sub = pieces.get(tuple(t), zero)
        out.append(sub)
        total += sub.dim
    if total != n:
        raise EigenDefectError(
            f"joint eigenspaces span {total} of {n} dimensions; "
            "operator is defective or the value grid is incomplete")
    return out


def _is_diagonal(m: Mat) -> bool:
    return all(not r or (len(r) == 1 and r[0][0] == i)
               for i, r in enumerate(m.num))


def _diagonal_pieces(ops: Sequence[Mat]) -> dict:
    """Diagonal tuple -> span of the coordinate vectors that carry it."""
    n = ops[0].rows
    coords: dict = {}
    for k in range(n):
        key = tuple(QQ(op.num[k][0][1], op.den) if op.num[k] else _ZERO
                    for op in ops)
        coords.setdefault(key, []).append(k)
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
