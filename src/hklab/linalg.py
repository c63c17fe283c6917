"""Dense exact linear algebra over the rationals.

Everything downstream computes on these primitives.  Matrices are dense,
entries are exact rationals (gmpy2.mpq, with a fractions.Fraction fallback),
pivoting is deterministic (first nonzero), so every basis produced anywhere
in the package is reproducible across runs.  All values are immutable by
convention and all operations are pure.

Every elimination (rref, kernels, images, solves, inverses, determinants,
subspaces and IncrementalRref) runs on integer rows: each row is scaled by
the lcm of its denominators, rows are combined as p*row - f*lead and kept
primitive (divided by the gcd of their entries), and the rational result is
formed once at the end by dividing each row by its pivot.  Since the reduced
row echelon form of a matrix is unique, this gives the same values as
elimination in the rationals, with no rational arithmetic per entry.
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
    return [QQ(e) for e in entries]


class Mat:
    """Immutable-by-convention dense rational matrix (row-major)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: list):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise LinalgError(f"bad data shape for {rows}x{cols} matrix")
        self.rows = rows
        self.cols = cols
        self.data = data

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        data = [[QQ(e) for e in r] for r in rows]
        ncols = len(data[0]) if data else 0
        return Mat(len(data), ncols, data)

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Mat":
        if not cols:
            return Mat(0, 0, [])
        n = len(cols[0])
        data = [[QQ(c[i]) for c in cols] for i in range(n)]
        return Mat(n, len(cols), data)

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, [[_ZERO] * cols for _ in range(rows)])

    @staticmethod
    def identity(n: int) -> "Mat":
        data = [[_ZERO] * n for _ in range(n)]
        for i in range(n):
            data[i][i] = _ONE
        return Mat(n, n, data)

    @staticmethod
    def diagonal(entries: Sequence) -> "Mat":
        n = len(entries)
        m = Mat.zeros(n, n)
        for i, e in enumerate(entries):
            m.data[i][i] = QQ(e)
        return m

    # -- basics ------------------------------------------------------------

    @property
    def shape(self) -> tuple:
        return (self.rows, self.cols)

    def __getitem__(self, ij) -> QQ:
        i, j = ij
        return self.data[i][j]

    def row(self, i: int) -> list:
        return list(self.data[i])

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> list:
        return [self.col(j) for j in range(self.cols)]

    def copy(self) -> "Mat":
        return Mat(self.rows, self.cols, [list(r) for r in self.data])

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   [[self.data[i][j] for i in range(self.rows)]
                    for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(e == 0 for r in self.data for e in r)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat):
            return NotImplemented
        return (self.shape == other.shape
                and all(self.data[i][j] == other.data[i][j]
                        for i in range(self.rows) for j in range(self.cols)))

    def __hash__(self):
        return hash((self.rows, self.cols,
                     tuple(tuple(r) for r in self.data)))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Mat({self.rows}x{self.cols}: {body})"

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [[a + b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)])

    def __sub__(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   [[a - b for a, b in zip(ra, rb)]
                    for ra, rb in zip(self.data, other.data)])

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def scale(self, c) -> "Mat":
        c = QQ(c)
        return Mat(self.rows, self.cols,
                   [[c * e for e in r] for r in self.data])

    def __mul__(self, other: "Mat") -> "Mat":
        if not isinstance(other, Mat):
            return NotImplemented
        if self.cols != other.rows:
            raise LinalgError(f"cannot multiply {self.shape} by {other.shape}")
        bt = other.transpose().data
        out = []
        for arow in self.data:
            nz = [(j, a) for j, a in enumerate(arow) if a]
            orow = []
            for bcol in bt:
                s = _ZERO
                for j, a in nz:
                    b = bcol[j]
                    if b:
                        s += a * b
                orow.append(s)
            out.append(orow)
        return Mat(self.rows, other.cols, out)

    def times_vec(self, v: Sequence) -> list:
        if len(v) != self.cols:
            raise LinalgError("vector length does not match column count")
        out = []
        for r in self.data:
            s = _ZERO
            for a, x in zip(r, v):
                if a and x:
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
        return sum((self.data[i][i] for i in range(self.rows)), _ZERO)

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
        scaled = [_int_row(r) for r in self.data]
        a = [row for row, _ in scaled]
        pivots, sign = _echelon(a, n, bareiss=True)
        if len(pivots) < n:
            return _ZERO
        denom = 1
        for _, d in scaled:
            denom *= d
        return QQ(sign * a[n - 1][n - 1], denom)

    def _same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} vs {other.shape}")


def commutator(a: Mat, b: Mat) -> Mat:
    return a * b - b * a


# -- row reduction ----------------------------------------------------------

def _int_row(v: Sequence) -> tuple:
    """(row, d): the entries of v times d, as ints, for d the lcm of their
    denominators.  Accepts ints, QQ values and whatever QQ() parses."""
    qs = [e if type(e) is QQ else QQ(e) for e in v]
    d = lcm(*[int(e.denominator) for e in qs])
    if d == 1:
        return [int(e.numerator) for e in qs], 1
    return [int(e.numerator) * (d // int(e.denominator)) for e in qs], d


def _combine(row: list, lead: list, c: int) -> list:
    """lead[c]*row - row[c]*lead: row with column c cleared by the pivot row."""
    p, f = lead[c], row[c]
    return [p * x - f * y for x, y in zip(row, lead)]


def _primitive(row: list) -> list:
    """row divided by the gcd of its entries."""
    g = gcd(*row)
    return row if g <= 1 else [x // g for x in row]


def _qq_row(row: list, p: int) -> list:
    """The integer row divided by p, as QQ entries."""
    return [QQ(x, p) if x else _ZERO for x in row]


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


def _reduced(m: Mat) -> tuple:
    """(integer rows, pivot_cols) of the elimination of m."""
    a = [_int_row(r)[0] for r in m.data]
    pivots, _ = _echelon(a, m.cols)
    return a, pivots


def rref(m: Mat) -> tuple:
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot choice is the first nonzero
    entry in each column scan, so the output is canonical for a given row
    space.
    """
    a, pivots = _reduced(m)
    rk = len(pivots)
    data = [_qq_row(a[i], a[i][c]) for i, c in enumerate(pivots)]
    data += [[_ZERO] * m.cols for _ in range(rk, m.rows)]
    return Mat(m.rows, m.cols, data), pivots, rk


def rank(m: Mat) -> int:
    return len(_reduced(m)[1])


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
    red, pivots = _reduced(Mat(a.rows, a.cols + b.cols,
                               [ra + rb for ra, rb in zip(a.data, b.data)]))
    if pivots and pivots[-1] >= a.cols:
        return None
    data = [[_ZERO] * b.cols for _ in range(a.cols)]
    for row, c in zip(red, pivots):
        data[c] = _qq_row(row[a.cols:], row[c])
    return Mat(a.cols, b.cols, data)


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
    insertion and membership both cost one reduction pass in integers.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list = []
        self.pivots: list = []

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
        return _qq_row(c, scale)

    def contains(self, v: Sequence) -> bool:
        return not any(_reduce_against(_int_row(v)[0], self.rows, self.pivots))

    def insert(self, v: Sequence) -> bool:
        c = _reduce_against(_int_row(v)[0], self.rows, self.pivots)
        piv = next((j for j, x in enumerate(c) if x), None)
        if piv is None:
            return False
        self.rows.append(c)
        self.pivots.append(piv)
        return True


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient, stored by a canonical basis.

    The basis matrix holds basis vectors as *columns* and is canonicalised on
    construction (columns are the transposed nonzero rows of the row-reduced
    span), so equality of subspaces is plain equality of bases.  The same
    rows are kept as integer rows with their pivot columns, built once per
    subspace, for membership tests.
    """

    ambient_dim: int
    basis: Mat

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        rows = []
        for v in vectors:
            if len(v) != ambient_dim:
                raise LinalgError("vector length does not match ambient dimension")
            rows.append(_int_row(v)[0])
        return Subspace._from_int_rows(ambient_dim, rows)

    @staticmethod
    def _from_int_rows(ambient_dim: int, rows: list) -> "Subspace":
        """The span of integer rows of length ambient_dim (consumes rows)."""
        pivots, _ = _echelon(rows, ambient_dim)
        reduced = rows[:len(pivots)]
        qrows = [_qq_row(row, row[c]) for row, c in zip(reduced, pivots)]
        data = ([list(col) for col in zip(*qrows)] if qrows
                else [[] for _ in range(ambient_dim)])
        sub = Subspace(ambient_dim, Mat(ambient_dim, len(qrows), data))
        object.__setattr__(sub, "_int_basis", (reduced, pivots))
        return sub

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace.from_vectors(ambient_dim, [])

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Mat.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.cols

    def is_zero(self) -> bool:
        return self.dim == 0

    def vectors(self) -> list:
        return self.basis.columns()

    def _echelon_rows(self) -> tuple:
        """(integer rows, pivot columns) of the canonical basis."""
        cached = self.__dict__.get("_int_basis")
        if cached is None:
            rows = [_int_row(v)[0] for v in self.vectors()]
            cached = (rows, [next(i for i, x in enumerate(r) if x)
                             for r in rows])
            object.__setattr__(self, "_int_basis", cached)
        return cached

    def pivot_rows(self) -> list:
        """Per basis column, the row index of its leading one.

        The canonical basis columns are transposed reduced rows, so each
        column j has a unit entry at its pivot row and zeros there in all
        other columns; membership tests reduce against these directly.
        """
        return list(self._echelon_rows()[1])

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise LinalgError("vector length does not match ambient dimension")
        rows, pivots = self._echelon_rows()
        return not any(_reduce_against(_int_row(v)[0], rows, pivots))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.vectors())

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_subspace(self)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("ambient dimension mismatch")
    return Subspace.from_vectors(a.ambient_dim, a.vectors() + b.vectors())


def subspace_intersection(a: Subspace, b: Subspace) -> Subspace:
    """Intersection via the kernel of [A | -B]."""
    if a.ambient_dim != b.ambient_dim:
        raise LinalgError("ambient dimension mismatch")
    if a.is_zero() or b.is_zero():
        return Subspace.zero(a.ambient_dim)
    stacked = Mat(a.ambient_dim, a.dim + b.dim,
                  [ra + [-x for x in rb]
                   for ra, rb in zip(a.basis.data, b.basis.data)])
    ker = kernel_basis(stacked)
    vecs = []
    for w in ker.vectors():
        coeffs = w[:a.dim]
        vecs.append(a.basis.times_vec(coeffs))
    return Subspace.from_vectors(a.ambient_dim, vecs)


def kernel_basis(m: Mat) -> Subspace:
    """Basis of {v : m v = 0} as a Subspace of QQ^cols."""
    red, pivots = _reduced(m)
    pivset = set(pivots)
    vecs = []
    for f in range(m.cols):
        if f in pivset:
            continue
        # e_f - sum_i (red[i][f] / p_i) e_{pivots[i]}, scaled to integers
        terms = [(row[f], row[c], c) for row, c in zip(red, pivots) if row[f]]
        scale = lcm(*[p for _, p, _ in terms])
        v = [0] * m.cols
        v[f] = scale
        for x, p, c in terms:
            v[c] = -x * (scale // p)
        vecs.append(v)
    return Subspace._from_int_rows(m.cols, vecs)


def image_basis(m: Mat) -> Subspace:
    """Column space of m as a Subspace of QQ^rows."""
    pivots = _reduced(m)[1]
    return Subspace.from_vectors(m.rows, [m.col(c) for c in pivots])


def eigenspace(op: Mat, lam) -> Subspace:
    if op.rows != op.cols:
        raise LinalgError("eigenspace of a non-square matrix")
    lam = QQ(lam)
    shifted = Mat(op.rows, op.cols,
                  [[op.data[i][j] - (lam if i == j else _ZERO)
                    for j in range(op.cols)]
                   for i in range(op.rows)])
    return kernel_basis(shifted)


def restrict_operator(op: Mat, sub: Subspace) -> Mat:
    """Matrix of op on an invariant subspace, in the subspace basis."""
    img = Mat.from_cols([op.times_vec(v) for v in sub.vectors()])
    coeffs = solve_matrix(sub.basis, img)
    if coeffs is None:
        raise LinalgError("subspace is not invariant under the operator")
    return coeffs


def simultaneous_eigenspaces(ops: Sequence[Mat], values: Sequence[tuple]) -> list:
    """Joint eigenspaces of commuting operators for the given value tuples.

    Refines eigenspaces operator by operator, verifies that the inputs
    commute, and checks that the joint pieces fill the ambient space;
    a defect means some operator is not semisimple with integer spectrum
    over the candidate values and raises EigenDefectError.
    """
    if not ops:
        raise LinalgError("need at least one operator")
    n = ops[0].rows
    for op in ops:
        if op.shape != (n, n):
            raise LinalgError("operators must share a square shape")
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not commutator(ops[i], ops[j]).is_zero():
                raise LinalgError("operators do not commute")
    for t in values:
        if len(t) != len(ops):
            raise LinalgError("value tuple length does not match operator count")

    # Refine level by level; distinct prefixes index disjoint invariant pieces.
    pieces = {(): Subspace.full(n)}
    for level, op in enumerate(ops):
        nxt = {}
        lams = sorted({t[level] for t in values})
        for prefix, sub in pieces.items():
            if sub.is_zero():
                continue
            rest = restrict_operator(op, sub)
            for lam in lams:
                es = eigenspace(rest, lam)
                if es.is_zero():
                    continue
                vecs = [sub.basis.times_vec(w) for w in es.vectors()]
                nxt[prefix + (lam,)] = Subspace.from_vectors(n, vecs)
        pieces = nxt

    out = []
    total = 0
    for t in values:
        sub = pieces.get(tuple(QQ(x) for x in t), Subspace.zero(n))
        if sub.is_zero():
            sub = pieces.get(tuple(t), Subspace.zero(n))
        out.append(sub)
        total += sub.dim
    if total != n:
        raise EigenDefectError(
            f"joint eigenspaces span {total} of {n} dimensions; "
            "operator is defective or the value grid is incomplete")
    return out


def nilpotence_index(m: Mat) -> int:
    """Largest i with m^i != 0; 0 for the zero map.

    Raises NotNilpotentError if m^(dim+1) is still nonzero.
    """
    if m.rows != m.cols:
        raise LinalgError("nilpotence index of a non-square matrix")
    if m.rows == 0 or m.is_zero():
        return 0
    acc = m.copy()
    for i in range(1, m.rows + 2):
        if acc.is_zero():
            return i - 1
        acc = acc * m
    raise NotNilpotentError("operator is not nilpotent within the dimension bound")
