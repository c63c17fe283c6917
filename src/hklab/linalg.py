"""Dense exact linear algebra over the rationals.

Everything downstream computes on these primitives.  Matrices are dense,
entries are exact rationals (gmpy2.mpq, with a fractions.Fraction fallback),
pivoting is deterministic (first nonzero), so every basis produced anywhere
in the package is reproducible across runs.  All values are immutable by
convention and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
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
        """Determinant by fraction Gaussian elimination with row swaps."""
        if self.rows != self.cols:
            raise LinalgError("determinant of a non-square matrix")
        a = [list(r) for r in self.data]
        n = self.rows
        sign = 1
        acc = _ONE
        for c in range(n):
            piv = next((r for r in range(c, n) if a[r][c]), None)
            if piv is None:
                return _ZERO
            if piv != c:
                a[c], a[piv] = a[piv], a[c]
                sign = -sign
            acc *= a[c][c]
            inv = 1 / a[c][c]
            prow = a[c]
            for r in range(c + 1, n):
                f = a[r][c]
                if f:
                    f *= inv
                    arow = a[r]
                    for j in range(c, n):
                        arow[j] -= f * prow[j]
        return acc if sign == 1 else -acc

    def _same_shape(self, other: "Mat") -> None:
        if self.shape != other.shape:
            raise LinalgError(f"shape mismatch {self.shape} vs {other.shape}")


def commutator(a: Mat, b: Mat) -> Mat:
    return a * b - b * a


# -- row reduction ----------------------------------------------------------

def rref(m: Mat) -> tuple:
    """Reduced row echelon form.

    Returns (reduced, pivot_cols, rank).  Pivot choice is the first nonzero
    entry in each column scan, so the output is canonical for a given row
    space.
    """
    a = [list(r) for r in m.data]
    nr, nc = m.rows, m.cols
    pivots = []
    prow = 0
    for c in range(nc):
        piv = next((r for r in range(prow, nr) if a[r][c]), None)
        if piv is None:
            continue
        a[prow], a[piv] = a[piv], a[prow]
        inv = 1 / a[prow][c]
        a[prow] = [e * inv for e in a[prow]]
        lead = a[prow]
        for r in range(nr):
            if r != prow and a[r][c]:
                f = a[r][c]
                a[r] = [x - f * y for x, y in zip(a[r], lead)]
        pivots.append(c)
        prow += 1
        if prow == nr:
            break
    return Mat(nr, nc, a), pivots, len(pivots)


def rank(m: Mat) -> int:
    return rref(m)[2]


def solve(a: Mat, b: Sequence) -> Optional[list]:
    """One solution of a*x = b, or None if the system is inconsistent."""
    if len(b) != a.rows:
        raise LinalgError("right-hand side length does not match row count")
    aug = Mat(a.rows, a.cols + 1,
              [list(r) + [QQ(x)] for r, x in zip(a.data, b)])
    red, pivots, _ = rref(aug)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for i, c in enumerate(pivots):
        x[c] = red.data[i][a.cols]
    return x


def solve_matrix(a: Mat, b: Mat) -> Optional[Mat]:
    """Solve a*X = b column by column; None if any column is inconsistent."""
    if b.rows != a.rows:
        raise LinalgError("shape mismatch in solve_matrix")
    cols = []
    aug = Mat(a.rows, a.cols + b.cols,
              [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)])
    red, pivots, _ = rref(aug)
    if any(p >= a.cols for p in pivots):
        return None
    for j in range(b.cols):
        x = [_ZERO] * a.cols
        for i, c in enumerate(pivots):
            x[c] = red.data[i][a.cols + j]
        cols.append(x)
    return Mat.from_cols(cols)


def invert(m: Mat) -> Mat:
    if m.rows != m.cols:
        raise LinalgError("inverse of a non-square matrix")
    out = solve_matrix(m, Mat.identity(m.rows))
    if out is None:
        raise LinalgError("matrix is singular")
    return out


class IncrementalRref:
    """Reduced row echelon state accepting one row at a time.

    Rows dependent on the current state are rejected; accepted state keeps
    unit pivots with zeros above and below, so insertion and membership
    both cost one reduction pass.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list = []
        self.pivots: list = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: Sequence) -> list:
        c = [QQ(x) for x in v]
        for row, piv in zip(self.rows, self.pivots):
            f = c[piv]
            if f:
                c = [a - f * b for a, b in zip(c, row)]
        return c

    def contains(self, v: Sequence) -> bool:
        return not any(self.reduce(v))

    def insert(self, v: Sequence) -> bool:
        c = self.reduce(v)
        piv = next((j for j, x in enumerate(c) if x), None)
        if piv is None:
            return False
        inv = 1 / c[piv]
        c = [x * inv for x in c]
        for i, row in enumerate(self.rows):
            f = row[piv]
            if f:
                self.rows[i] = [a - f * b for a, b in zip(row, c)]
        self.rows.append(c)
        self.pivots.append(piv)
        return True


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class Subspace:
    """A subspace of QQ^ambient, stored by a canonical basis.

    The basis matrix holds basis vectors as *columns* and is canonicalised on
    construction (columns are the transposed nonzero rows of the row-reduced
    span), so equality of subspaces is plain equality of bases.
    """

    ambient_dim: int
    basis: Mat

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        vecs = [v for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise LinalgError("vector length does not match ambient dimension")
        if not vecs:
            return Subspace(ambient_dim, Mat.zeros(ambient_dim, 0))
        red, _, rk = rref(Mat.from_rows(vecs))
        rows = [red.row(i) for i in range(rk)]
        return Subspace(ambient_dim, Mat.from_cols(rows))

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

    def pivot_rows(self) -> list:
        """Per basis column, the row index of its leading one.

        The canonical basis columns are transposed reduced rows, so each
        column j has a unit entry at its pivot row and zeros there in all
        other columns; membership tests reduce against these directly.
        """
        out = []
        for j in range(self.basis.cols):
            piv = next(i for i in range(self.ambient_dim)
                       if self.basis.data[i][j])
            out.append(piv)
        return out

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise LinalgError("vector length does not match ambient dimension")
        if self.dim == 0:
            return not any(QQ(x) for x in v)
        c = [QQ(x) for x in v]
        for j, piv in enumerate(self.pivot_rows()):
            f = c[piv]
            if f:
                col = self.basis.col(j)
                c = [a - f * b for a, b in zip(c, col)]
        return not any(c)

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
    red, pivots, rk = rref(m)
    pivset = set(pivots)
    free = [c for c in range(m.cols) if c not in pivset]
    vecs = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for i, c in enumerate(pivots):
            v[c] = -red.data[i][f]
        vecs.append(v)
    return Subspace.from_vectors(m.cols, vecs)


def image_basis(m: Mat) -> Subspace:
    """Column space of m as a Subspace of QQ^rows."""
    _, pivots, _ = rref(m)
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
