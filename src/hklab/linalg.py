"""Exact linear algebra over the rationals.

Everything downstream computes on these primitives.  Entries are exact
rationals (gmpy2.mpq, with a fractions.Fraction fallback) and pivoting is
deterministic (first nonzero), so every basis produced anywhere in the
package is reproducible across runs.  A matrix stores only a per-row index
of its nonzero entries; the operator blocks this package computes on are
mostly zeros, so products, sums, scaling, comparisons and elimination input
run over the index only, and dense rows are built only when asked for.
Matrices are immutable (the index is tuples and attributes cannot be
rebound), and all operations are pure.

Every elimination (rref, kernels, images, solves, inverses, determinants,
subspaces and IncrementalRref) runs on integer rows: each row is scaled by
the lcm of its denominators, rows are combined as p*row - f*lead and kept
primitive (divided by the gcd of their entries), and the rational result is
formed once at the end by dividing each row by its pivot.  Since the reduced
row echelon form of a matrix is unique, this gives the same values as
elimination in the rationals, with no rational arithmetic per entry.  A
Subspace stores only the primitive reduced rows, pivots positive, and forms
its rational basis when vectors() is called.  integer_index scales a whole
matrix (or tensor) to integers over one common denominator, for integer
products outside elimination.

Joint eigenspaces of diagonal operators are read off their diagonals;
other commuting operators are refined eigenspace by eigenspace.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    The one stored form is `nonzeros`: per row, a tuple of the (column,
    value) pairs of its nonzero entries in ascending column order.
    Products, sums, scaling, comparison, hashing and elimination visit only
    these; `data`, `row`, `col`, `columns`, `m[i, j]` and `repr` build
    dense values from them when called.  Attributes cannot be rebound.
    """

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise LinalgError(f"bad data shape for {rows}x{cols} matrix")
        # Most zeros are the shared _ZERO; the identity test skips their
        # (slow) truth test.
        _init(self, rows, cols,
              tuple(tuple((j, e) for j, e in enumerate(r)
                          if e is not _ZERO and e) for r in data))

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
        return _from_index(rows, cols, [_row_index(e) for e in entries])

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return _from_index(rows, cols, ((),) * rows)

    @staticmethod
    def identity(n: int) -> "Mat":
        return _from_index(n, n, [((i, _ONE),) for i in range(n)])

    @staticmethod
    def diagonal(entries: Sequence) -> "Mat":
        entries = vec(entries)
        return _from_index(len(entries), len(entries),
                           [((i, e),) if e else ()
                            for i, e in enumerate(entries)])

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    @property
    def data(self) -> tuple:
        """The dense rows, as tuples."""
        return tuple(tuple(_dense(r, self.cols)) for r in self.nonzeros)

    def __getitem__(self, ij) -> QQ:
        i, j = ij
        return dict(self.nonzeros[i]).get(range(self.cols)[j], _ZERO)

    def row(self, i: int) -> list:
        return _dense(self.nonzeros[i], self.cols)

    def col(self, j: int) -> list:
        return _dense(self.transpose().nonzeros[j], self.rows)

    def columns(self) -> list:
        return [_dense(r, self.rows) for r in self.transpose().nonzeros]

    def transpose(self) -> "Mat":
        out = [[] for _ in range(self.cols)]
        for i, r in enumerate(self.nonzeros):
            for j, e in r:
                out[j].append((i, e))
        return _from_index(self.cols, self.rows, out)

    def is_zero(self) -> bool:
        return not any(self.nonzeros)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return self.shape == other.shape and self.nonzeros == other.nonzeros

    def __hash__(self):
        return hash((self.rows, self.cols, self.nonzeros))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        return self._plus(other, False)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._plus(other, True)

    def _plus(self, other: "Mat", negate: bool) -> "Mat":
        """self + other, or self - other when negate is set."""
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} vs {other.shape}")
        out = []
        for ra, rb in zip(self.nonzeros, other.nonzeros):
            if negate:
                rb = [(j, -b) for j, b in rb]
            if not (ra and rb):
                out.append(ra or rb)
                continue
            acc = dict(ra)
            for j, b in rb:
                acc[j] = acc[j] + b if j in acc else b
            out.append(_row_index(acc))
        return _from_index(self.rows, self.cols, out)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = QQ(c)
        if not c:
            return Mat.zeros(self.rows, self.cols)
        return _from_index(self.rows, self.cols,
                           [tuple((j, c * e) for j, e in r)
                            for r in self.nonzeros])

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise LinalgError(f"cannot multiply {self.shape} by {other.shape}")
        bnz = other.nonzeros
        out = []
        for ra in self.nonzeros:
            acc = {}
            for k, a in ra:
                for j, b in bnz[k]:
                    acc[j] = acc[j] + a * b if j in acc else a * b
            out.append(_row_index(acc))
        return _from_index(self.rows, other.cols, out)

    def times_vec(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise LinalgError("vector length does not match column count")
        out = []
        for r in self.nonzeros:
            s = _ZERO
            for j, a in r:
                x = v[j]
                if x:
                    s += a * x
            out.append(s)
        return out

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
        return sum((self[i, i] for i in range(self.rows)), _ZERO)

    def det(self) -> QQ:
        """Determinant by fraction-free (Bareiss) elimination: the last pivot.

        Row i is scaled by the lcm d_i of its denominators, so the result is
        sign * last_pivot / prod(d_i).
        """
        if self.rows != self.cols:
            raise LinalgError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return _ONE
        scaled = [_int_row_of(r, n) for r in self.nonzeros]
        a = [row for row, _ in scaled]
        pivots, sign = _echelon(a, n, bareiss=True)
        if len(pivots) < n:
            return _ZERO
        denom = 1
        for _, d in scaled:
            denom *= d
        return QQ(sign * a[n - 1][n - 1], denom)


def _init(m: Mat, rows: int, cols: int, nz: tuple) -> None:
    set_ = object.__setattr__
    set_(m, "rows", rows)
    set_(m, "cols", cols)
    set_(m, "nonzeros", nz)


def _row_index(entries: dict) -> tuple:
    """The nonzero (column, value) pairs of a row, columns ascending."""
    return tuple(sorted((j, v) for j, v in entries.items() if v))


def _from_index(rows: int, cols: int, nz: Sequence) -> Mat:
    """The matrix with the given nonzero index (valid rows, no checks)."""
    m = object.__new__(Mat)
    _init(m, rows, cols, tuple(map(tuple, nz)))
    return m


def _dense(pairs: Sequence, n: int) -> list:
    """The length-n vector with the given nonzero (index, value) pairs."""
    out = [_ZERO] * n
    for j, e in pairs:
        out[j] = e
    return out


def commutator(a: Mat, b: Mat) -> Mat:
    return a * b - b * a


# -- row reduction ----------------------------------------------------------

def _int_row_of(pairs: Sequence, ncols: int) -> tuple:
    """(row, d): the length-ncols row with the nonzero (column, value)
    pairs given, times d, as ints, for d the lcm of the denominators."""
    d = lcm(*[int(e.denominator) for _, e in pairs])
    row = [0] * ncols
    for j, e in pairs:
        row[j] = int(e.numerator) * (d // int(e.denominator))
    return row, d


def _int_row(v: Sequence) -> tuple:
    """_int_row_of for a dense vector of ints, QQ values or whatever QQ()
    parses."""
    return _int_row_of([(j, e) for j, e in enumerate(vec(v))
                        if e is not _ZERO and e], len(v))


def integer_index(nz: Iterable) -> tuple:
    """(rows, d): rows of (column, value) pairs times d, the lcm of the
    denominators of all their values, as rows of (column, int) pairs, so a
    whole matrix or tensor shares one denominator."""
    nz = [tuple(r) for r in nz]
    d = lcm(*[int(e.denominator) for r in nz for _, e in r])
    return [tuple((j, int(e.numerator) * (d // int(e.denominator)))
                  for j, e in r) for r in nz], d


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


def _qq_pairs(row: list, p: int) -> tuple:
    """The nonzero entries of the integer row divided by p, as (column, QQ)
    pairs."""
    return tuple((j, QQ(x, p)) for j, x in enumerate(row) if x)


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


def _reduced(nz: Sequence, ncols: int) -> tuple:
    """(integer rows, pivot_cols) of the elimination of the rows with
    nonzero index nz."""
    a = [_int_row_of(r, ncols)[0] for r in nz]
    pivots, _ = _echelon(a, ncols)
    return a, pivots


def rref(m: Mat) -> tuple:
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot choice is the first nonzero
    entry in each column scan, so the output is canonical for a given row
    space.
    """
    a, pivots = _reduced(m.nonzeros, m.cols)
    rk = len(pivots)
    nz = [_qq_pairs(a[i], a[i][c]) for i, c in enumerate(pivots)]
    nz += [()] * (m.rows - rk)
    return _from_index(m.rows, m.cols, nz), pivots, rk


def rank(m: Mat) -> int:
    return len(_reduced(m.nonzeros, m.cols)[1])


def solve(a: Mat, b: Sequence) -> Optional[list]:
    """One solution of a*x = b, or None if the system is inconsistent."""
    if len(b) != a.rows:
        raise LinalgError("right-hand side length does not match row count")
    x = solve_matrix(a, Mat(a.rows, 1, [[QQ(e)] for e in b]))
    return None if x is None else x.col(0)


def solve_matrix(a: Mat, b: Mat) -> Optional[Mat]:
    """Solve a*X = b column by column; None if any column is inconsistent."""
    if b.rows != a.rows:
        raise LinalgError("shape mismatch in solve_matrix")
    k = a.cols
    red, pivots = _reduced([ra + tuple((k + j, e) for j, e in rb)
                            for ra, rb in zip(a.nonzeros, b.nonzeros)],
                           k + b.cols)
    if pivots and pivots[-1] >= k:
        return None
    nz = [()] * k
    for row, c in zip(red, pivots):
        nz[c] = _qq_pairs(row[k:], row[c])
    return _from_index(k, b.cols, nz)


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

    def reduce(self, v: Sequence) -> list:
        """v minus its part in the span, with zeros in every pivot column."""
        c, scale = _int_row(v)
        for row, piv in zip(self.rows, self.pivots):
            if c[piv]:
                scale *= row[piv]
                c = _combine(c, row, piv)
        return _dense(_qq_pairs(c, scale), self.ncols)

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
        reduced = []
        for row, c in zip(rows, pivots):
            g = gcd(*row) if row[c] > 0 else -gcd(*row)
            reduced.append(tuple(row) if g == 1 else tuple(x // g for x in row))
        return Subspace(ambient_dim, tuple(reduced), tuple(pivots))

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, (), ())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace.from_rows(
            ambient_dim, [[int(i == j) for j in range(ambient_dim)]
                          for i in range(ambient_dim)])

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
        if other.ambient_dim != self.ambient_dim:
            raise LinalgError("ambient dimension mismatch")
        return all(self._holds(r) for r in other.rows)

    def _holds(self, row: Sequence) -> bool:
        """Whether the integer row lies in the subspace."""
        return not any(_reduce_against(row, self.rows, self.pivots))


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("ambient dimension mismatch")
    return Subspace.from_rows(a.ambient_dim, a.rows + b.rows)


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
    """Basis of {v : m v = 0} as a Subspace of QQ^cols."""
    red, pivots = _reduced(m.nonzeros, m.cols)
    return Subspace.from_rows(m.cols, _kernel_rows(red, pivots, m.cols))


def image_basis(m: Mat) -> Subspace:
    """Column space of m as a Subspace of QQ^rows."""
    pivots = _reduced(m.nonzeros, m.cols)[1]
    cols = m.transpose().nonzeros
    return Subspace.from_rows(
        m.rows, [_int_row_of(cols[c], m.rows)[0] for c in pivots])


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
               for i, r in enumerate(m.nonzeros))


def _diagonal_pieces(ops: Sequence[Mat]) -> dict:
    """Diagonal tuple -> span of the coordinate vectors that carry it."""
    n = ops[0].rows
    coords: dict = {}
    for k in range(n):
        key = tuple(op.nonzeros[k][0][1] if op.nonzeros[k] else _ZERO
                    for op in ops)
        coords.setdefault(key, []).append(k)
    # Unit rows in ascending order are already the reduced form.
    return {key: Subspace(n, tuple(tuple(int(i == k) for i in range(n))
                                   for k in ks), tuple(ks))
            for key, ks in coords.items()}


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
