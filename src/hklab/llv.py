"""Lefschetz-type operator algebra on a graded module.

Builds multiplication operators, the counting operator h with h = (d - 2n)
on degree d, dual Lefschetz operators as sl2 completions, their linear
extension to the whole degree-2 space, the model monodromy commutator
M = [L_beta, Lambda_sbar] attached to a hyperbolic frame, and the joint
eigenspace bigrading (p, q, i) refining every graded piece.

Graded operators are stored blockwise.  GradedPowers holds the powers of
one operator from each source degree, their kernels and the per-degree
nilpotence index, and is the only code that multiplies out powers of a
graded operator: the sl2 completion reads its primitive spaces from it,
as do the weight and perverse filtrations and the nilpotence profile of M.

Scalar conventions.  The sl2 completion Lambda_x of (L_x, h) scales like
1/x, so the assignment x -> Lambda_x is not linear; what is linear is
x -> (q(x)/2) * Lambda_x, which agrees with Lambda_x exactly on the quadric
q(x) = 2.  linear_dual_table implements that linear extension as its
values on the unit vectors.  It completes only the first vector x0 of an
anisotropic basis; the double bracket of the LLV relations (Looijenga-Lunts,
Verbitsky)

    T(x) = ([[L_x, Lambda_lin(x0)], Lambda_lin(x0)]
            + 2 q(x0, x) Lambda_lin(x0)) / q(x0)

is linear in x, so its values T_s on the unit vectors, one per unit
operator L_s, are the table.  T(x0) = Lambda_lin(x0) once the completion
is certified, as [h, .] = -2 on every degree -2 operator; every other
basis vector x is certified by [L_x, T(x)] = (q(x)/2) h, accumulated over
the terms x_s x_t [L_s, T_t] (so T(x) is the completion, by sl2
uniqueness).  A vector that fails is completed instead, and only then is
the basis inverted, to correct the table by
sum_i (B^-1)_{i,s} (v_i - T(x_i)) over the completed x_i.  Every
vector y of a second, differently chosen basis is then certified by the
same accumulated identity [L_y, Lambda_lin(y)] = (q(y)/2) h, which holds
exactly when the extension does not depend on the basis.

The derivation check verify_derivation samples random pairs and
computes both sides as integer vectors over one denominator each (the
structure tensors are scaled to integers once per call, and the operator's
blocks are integers over one denominator already); only a failing pair is
turned into rational AlgebraElements.

Every sum of graded operators is a list of terms (w, x, y), meaning w x y,
or w x when y is None; bracket(a, b, w) is [(w, a, b), (-w, b, a)].  One
reader (_block_terms) turns a term list into the linalg.lincomb terms of
one block, and three consumers read it, one kernel call per block:
operator_sum forms the sum (commutators, combinations, + and -),
sum_equals decides sum == c T (every operator identity: the Lambda
table's certificates, the declared Lambdas of a module, the sl2 weights
and a module's commutation checks) and sum_ratio reads the c of the M
triple's bracket.  The bigrading splits a degree by the diagonal of the
Cartan blocks when they are diagonal (the canonical frame) and refines
eigenspaces otherwise (see linalg.simultaneous_eigenspaces).

The frame calculus and the bigrading take an operator module (see
module_io.LLVModuleSpec): a built algebra is analysed as the module
module_io.algebra_module exports, so built and ingested inputs share one
code path and one cached Lambda table per module.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import islice
from typing import TYPE_CHECKING, Optional, Sequence

from hklab.linalg import (
    QQ,
    EigenDefectError,
    Mat,
    NotNilpotentError,
    Subspace,
    _insert,
    invert,
    kernel_basis,
    lincomb,
    lincomb_equals,
    lincomb_ratio,
    rref,
    simultaneous_eigenspaces,
    vec,
)
from hklab.quadforms import (
    QuadraticSpace, hyperbolic_pair, orthogonal_complement)
from hklab.verbitsky import AlgebraElement, GradedAlgebra, contract

if TYPE_CHECKING:
    from hklab.module_io import LLVModuleSpec

_ZERO = QQ(0)


class OperatorError(ValueError):
    """Violated precondition in operator construction."""


class NotLefschetzError(OperatorError):
    """The chosen degree-2 class does not generate a full sl2 ladder."""


# -- graded operators ---------------------------------------------------------

class GradedOperator:
    """Degree-homogeneous endomorphism stored blockwise.

    degrees maps cohomological degree to dimension; blocks[d] is the matrix
    of the map from degree d to degree d + offset.  Missing blocks (or
    blocks whose target degree is absent) are zero maps.  The constructor
    copies degrees and checks every block's shape; operators derived from
    others (brackets, combinations, scalings) are built by _derived, whose
    shapes follow from the inputs, and share their inputs' degrees, which
    nothing mutates.
    """

    __slots__ = ("degrees", "offset", "blocks")

    def __init__(self, degrees: dict, offset: int, blocks: dict):
        self.degrees = dict(degrees)
        self.offset = offset
        self.blocks = {}
        for d, m in blocks.items():
            exp = (self.dim(d + offset), self.dim(d))
            if m.shape != exp:
                raise OperatorError(
                    f"block at degree {d} has shape {m.shape}, expected {exp}")
            self.blocks[d] = m

    def dim(self, d: int) -> int:
        return self.degrees.get(d, 0)

    def block(self, d: int) -> Mat:
        m = self.blocks.get(d)
        if m is None:
            m = Mat.zeros(self.dim(d + self.offset), self.dim(d))
        return m

    # -- algebra of operators ------------------------------------------------

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        return operator_sum([(1, self, None), (1, other, None)])

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return operator_sum([(1, self, None), (-1, other, None)])

    def scale(self, c) -> "GradedOperator":
        return _derived(self.degrees, self.offset,
                        {d: m.scale(c) for d, m in self.blocks.items()})

    def is_zero(self) -> bool:
        return all(m.is_zero() for m in self.blocks.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedOperator):
            return NotImplemented
        if self.degrees != other.degrees or self.offset != other.offset:
            return False
        return all(self.block(d) == other.block(d) for d in self.degrees)

    def __hash__(self):
        return hash((self.offset, tuple(sorted(self.degrees.items()))))


class GradedPowers:
    """Powers op^e of a graded operator from each source degree, their
    kernels and the nilpotence index per degree, each computed once on
    first use.  This is the only place where powers of a graded operator
    are multiplied out.  `sums` memoises the kernel sums of
    filtrations._kernel_sum, keyed (degree, l)."""

    def __init__(self, op: GradedOperator):
        self.op = op
        self._powers: dict = {}
        self._kernels: dict = {}
        self._indices: dict = {}
        self.sums: dict = {}

    def power(self, src_degree: int, e: int) -> Mat:
        """Matrix of op^e starting at src_degree (zero map if targets vanish).

        The powers from each source degree are multiplied out in a loop,
        from the highest one built, and only until one is zero: every
        higher power is then the zero map of its shape."""
        op = self.op
        chain = self._powers.get(src_degree)
        if chain is None:
            chain = self._powers[src_degree] = [
                Mat.identity(op.dim(src_degree))]
        while len(chain) <= e and not chain[-1].is_zero():
            chain.append(op.block(src_degree + op.offset * (len(chain) - 1))
                         * chain[-1])
        if e < len(chain):
            return chain[e]
        return Mat.zeros(op.dim(src_degree + op.offset * e), op.dim(src_degree))

    def kernel(self, src_degree: int, e: int) -> Subspace:
        key = (src_degree, e)
        ker = self._kernels.get(key)
        if ker is None:
            ker = (kernel_basis(self.power(src_degree, e)) if e
                   else Subspace.zero(self.op.dim(src_degree)))
            self._kernels[key] = ker
        return ker

    def index(self, src_degree: int) -> int:
        """Largest i with op^i nonzero on src_degree.

        Raises NotNilpotentError if op^i is still nonzero once i exceeds
        the total dimension.
        """
        s = self._indices.get(src_degree)
        if s is None:
            total = sum(self.op.degrees.values())
            s = 0
            while not self.power(src_degree, s + 1).is_zero():
                s += 1
                if s > total:
                    raise NotNilpotentError(
                        "operator is not nilpotent within the dimension bound")
            self._indices[src_degree] = s
        return s


def _derived(degrees: dict, offset: int, blocks: dict) -> GradedOperator:
    """The operator with these fields, not copied or checked: for results
    whose block shapes follow from operators already built."""
    op = object.__new__(GradedOperator)
    op.degrees, op.offset, op.blocks = degrees, offset, blocks
    return op


def bracket(a: GradedOperator, b: GradedOperator, w=1) -> list:
    """The terms of w [a, b] = w a b - w b a."""
    return [(w, a, b), (-w, b, a)]


def _grading(terms: Sequence) -> tuple:
    """(degrees, offset) of the sum of the terms (w, x, y); raises
    OperatorError unless every operator has the first one's grading and
    every term, x.offset plus y.offset, the first one's offset."""
    _, x0, y0 = terms[0]
    degrees, off = x0.degrees, x0.offset + (0 if y0 is None else y0.offset)
    for _, x, y in terms:
        if x.degrees != degrees or y is not None and y.degrees != degrees:
            raise OperatorError("operators live on different graded spaces")
        if x.offset + (0 if y is None else y.offset) != off:
            raise OperatorError("cannot combine operators of different offsets")
    return degrees, off


def _live(degrees: dict, off: int) -> list:
    """The degrees whose source and target d + off are both nonzero: the
    blocks a formed sum stores."""
    return [d for d, m in degrees.items() if m and degrees.get(d + off)]


def _block_terms(terms: Sequence, d: int) -> list:
    """The lincomb terms of the block at degree d of the sum of the terms
    (w, x, y): (w, x's block at d + y.offset, y's block at d), or
    (w, x's block at d, None) for y None.  A zero weight or a missing
    (zero) block leaves its term out."""
    out = []
    for w, x, y in terms:
        ym = None if y is None else y.blocks.get(d)
        xm = x.blocks.get(d if y is None else d + y.offset)
        if w and xm is not None and (y is None or ym is not None):
            out.append((w, xm, ym))
    return out


def operator_sum(terms: Sequence) -> GradedOperator:
    """The sum of the terms (w, x, y), w x y or w x for y None, one lincomb
    per block.  Every operator shares one grading and every term one
    offset (else OperatorError).  A block is stored at every degree whose
    source and target are nonzero, and none when every weight is zero."""
    degrees, off = _grading(terms)
    if not any(w for w, _, _ in terms):
        return _derived(degrees, off, {})
    return _derived(degrees, off, {
        d: lincomb(degrees[d + off], degrees[d], _block_terms(terms, d))
        for d in _live(degrees, off)})


def sum_equals(terms: Sequence, c=1,
               t: Optional[GradedOperator] = None) -> bool:
    """Whether operator_sum(terms) == c * t exactly, t None for zero, with
    no sum formed: one lincomb_equals per block.  Raises as operator_sum
    does; a t of another grading or offset is never equal."""
    degrees, off = _grading(terms)
    if t is not None and (t.degrees != degrees or t.offset != off):
        return False
    target = {} if t is None else t.blocks
    return all(lincomb_equals(degrees[d + off], degrees[d],
                              _block_terms(terms, d), c, target.get(d))
               for d in _live(degrees, off))


def sum_ratio(terms: Sequence, t: GradedOperator):
    """The c with operator_sum(terms) == c * t exactly, or None when there
    is none or t is zero, with no sum formed: c is read off t's first
    nonzero block in ascending degree (linalg.lincomb_ratio) and certified
    by sum_equals.  Raises as operator_sum does."""
    degrees, off = _grading(terms)
    d = next((d for d in sorted(t.blocks) if not t.blocks[d].is_zero()),
             None)
    if d is None or t.degrees != degrees or t.offset != off:
        return None
    c = lincomb_ratio(degrees[d + off], degrees[d], _block_terms(terms, d),
                      t.blocks[d])
    return None if c is None or not sum_equals(terms, c, t) else c


def commutator_op(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """[a, b], formed by operator_sum; the name stays because perfbench
    traces it."""
    return operator_sum(bracket(a, b))


def combine(coeffs: Sequence, ops: Sequence) -> GradedOperator:
    """The linear combination sum_i coeffs[i] * ops[i], in one pass."""
    return operator_sum([(c, op, None) for c, op in zip(coeffs, ops)])


# -- basic operators ----------------------------------------------------------

def lefschetz(alg: GradedAlgebra, x: Sequence) -> GradedOperator:
    """Multiplication by the degree-2 class with coordinate vector x."""
    x = vec(x)
    support = [(s, xs) for s, xs in enumerate(x) if xs]
    degrees = alg.dims()
    blocks = {}
    for k in range(0, 2 * alg.n):
        tensor = alg.tensors[(1, k)] if k >= 1 else None
        src, tgt = alg.level_dim(k), alg.level_dim(k + 1)
        rows = [{} for _ in range(tgt)]
        for j in range(src):
            if k == 0:
                for t, val in enumerate(x):
                    rows[t][j] = val
                continue
            for s, xs in support:
                entry = tensor.get((s, j))
                if not entry:
                    continue
                for t, val in entry.items():
                    row = rows[t]
                    row[j] = row[j] + xs * val if j in row else xs * val
        blocks[2 * k] = Mat.from_sparse(tgt, src, rows)
    return GradedOperator(degrees, 2, blocks)


def grading(alg_or_degrees, n: Optional[int] = None) -> GradedOperator:
    """Counting operator: (d - 2n) times the identity on degree d."""
    if isinstance(alg_or_degrees, GradedAlgebra):
        degrees = alg_or_degrees.dims()
        n = alg_or_degrees.n
    else:
        degrees = dict(alg_or_degrees)
        if n is None:
            raise OperatorError("grading needs n for a bare degree map")
    blocks = {d: Mat.identity(m).scale(d - 2 * n)
              for d, m in degrees.items() if m}
    return GradedOperator(degrees, 0, blocks)


# -- sl2 completion -----------------------------------------------------------

def sl2_complete(lop: GradedOperator, n: int) -> GradedOperator:
    """The unique degree -2 operator F with (lop, F, h) an sl2 triple.

    Decomposes the module into ladders generated by primitive vectors
    (the integer rows of ker lop^(lam+1) on each degree of weight
    -lam <= 0, from a GradedPowers of lop) and applies the lowering formula
    F(L^j p) = j(lam - j + 1) L^{j-1} p.  Step j is the integer row
    c_j L^j p, c_j the product of the block denominators passed, so its
    image is j(lam - j + 1) den_{j-1} step_{j-1}; F is unique, so every
    block is the one the rational ladders give.  Raises NotLefschetzError
    when the ladders fail to span, i.e. when lop is not a Lefschetz-type
    raising operator.
    """
    degrees = lop.degrees
    powers = GradedPowers(lop)
    adapted = {d: [] for d in degrees if degrees[d]}  # rows [step | image]
    for d in sorted(adapted):
        lam = 2 * n - d
        if lam < 0:
            continue
        for p in powers.kernel(d, lam + 1).rows:
            step, img = p, [0] * degrees.get(d - 2, 0)
            for j in range(lam + 1):
                e = d + 2 * j
                if j:
                    block = lop.block(e - 2)
                    c = j * (lam - j + 1) * block.den
                    step, img = block.times_row(step), [c * x for x in step]
                if e not in adapted:
                    raise NotLefschetzError(
                        f"a ladder from degree {d} leaves the module's "
                        f"degrees at {e}")
                adapted[e].append([*step, *img])

    blocks = {}
    for e, rows in adapted.items():
        dim_e, dim_t = degrees[e], degrees.get(e - 2, 0)
        if len(rows) != dim_e:
            raise NotLefschetzError(
                f"ladders span {len(rows)} of {dim_e} dimensions in degree {e}")
        # The block X solves X B = img for the ladder basis B (columns the
        # steps), i.e. B^T X^T = img^T: one elimination of [B^T | img^T].
        red, pivots, _ = rref(Mat.from_num(
            dim_e, dim_e + dim_t,
            [[(j, x) for j, x in enumerate(r) if x] for r in rows]))
        if pivots[:dim_e] != list(range(dim_e)):
            raise NotLefschetzError(
                f"ladder vectors are dependent in degree {e}")
        if dim_t:
            blocks[e] = Mat.from_num(
                dim_e, dim_t, [[(j - dim_e, x) for j, x in r if j >= dim_e]
                               for r in red.num], red.den).transpose()
    return GradedOperator(degrees, -2, blocks)


def dual_lefschetz(alg: GradedAlgebra, x: Sequence) -> GradedOperator:
    """sl2 dual of multiplication by x; requires q(x) != 0 and hard Lefschetz."""
    x = vec(x)
    if alg.space.quad(x) == 0:
        raise NotLefschetzError("dual Lefschetz needs an anisotropic class")
    return _completion(lefschetz(alg, x), alg.n, grading(alg))


def _completion(lop: GradedOperator, n: int,
                h: GradedOperator) -> GradedOperator:
    """sl2_complete(lop, n), certified by [lop, Lambda] = h; raises
    NotLefschetzError when the identity fails."""
    lam = sl2_complete(lop, n)
    if not sum_equals(bracket(lop, lam), 1, h):
        raise NotLefschetzError("sl2 completion failed the bracket identity")
    return lam


# -- linear extension of the dual Lefschetz -----------------------------------

def anisotropic_basis(space: QuadraticSpace, variant: int = 0) -> list:
    """Deterministic basis of anisotropic vectors.

    The two variants prefer different coefficient patterns (plain and
    positive combinations versus negative combinations first), so on any
    space of dimension at least two they produce genuinely different bases;
    the linear extension completes the first and is certified on the second.
    Each candidate is e_i + c e_j (c = 0 for e_i alone), and its norm
    g_ii + 2c g_ij + c^2 g_jj is read off the Gram numerators: only whether
    it vanishes matters.
    """
    n = space.dim
    coeff_order = (1, 2, -1, -2, 3) if variant == 0 else (-1, -2, 1, 2, 3)
    g = [dict(row) for row in space.gram.num]

    def candidates(i):
        """(c, j, numerator of the norm of e_i + c e_j), in preference order."""
        gii = g[i].get(i, 0)
        if not variant:
            yield 0, i, gii
        for c in coeff_order:
            for shift in range(1, n):
                j = (i + shift) % n
                yield c, j, gii + 2 * c * g[i].get(j, 0) + c * c * g[j].get(j, 0)
        yield 0, i, gii

    # _insert accepts the integer row e_i + c e_j exactly when it is
    # independent of the rows chosen so far.
    rows: list = []
    pivots: list = []
    chosen: list = []
    for i in range(n):
        for c, j, norm in candidates(i):
            if not norm:
                continue
            row = [0] * n
            row[i] = 1
            if c:
                row[j] = c
            if _insert(rows, pivots, (row,), n):
                chosen.append([QQ(x) if x else _ZERO for x in row])
                break
        else:
            raise OperatorError("could not assemble an anisotropic basis")
    return chosen


def _double_bracket_dual(lop: GradedOperator, lam0: GradedOperator,
                         q0, q0x) -> GradedOperator:
    """The candidate Lambda_lin(x) = ([[L_x, Lambda_lin(x0)], Lambda_lin(x0)]
    + 2 q(x0, x) Lambda_lin(x0)) / q(x0), from lop = L_x, lam0 =
    Lambda_lin(x0), q0 = q(x0) and q0x = q(x0, x): first C = [L_x, lam0],
    then (C lam0 - lam0 C + 2 q0x lam0) / q0, one operator_sum each."""
    c = operator_sum(bracket(lop, lam0))
    inv = 1 / QQ(q0)
    return operator_sum([*bracket(c, lam0, inv), (2 * q0x * inv, lam0, None)])


def _certified(x: Sequence, l_actions: list, y: Sequence, lams: list,
               h: GradedOperator, c) -> bool:
    """Whether [sum_s x_s l_actions[s], sum_t y_t lams[t]] == c h, decided
    by sum_equals over the brackets x_s y_t [l_actions[s], lams[t]], so
    neither combination is formed.  With no terms (x or y zero) it holds
    exactly when c = 0."""
    terms = [term for s, xs in enumerate(x) if xs
             for t, yt in enumerate(y) if yt
             for term in bracket(l_actions[s], lams[t], xs * yt)]
    return sum_equals(terms, c, h) if terms else c == 0


def linear_dual_table(space: QuadraticSpace, n: int, l_actions: list) -> list:
    """Linear dual-Lefschetz operators for the unit vectors of the space.

    l_actions[s] is the raising operator L_s of the unit vector e_s.  The
    table is the linear extension of Lambda_lin(x) = (q(x)/2) Lambda_x,
    Lambda_x the sl2 completion of L_x, from the variant-0 anisotropic
    basis x0, x1, ...  Only x0 is completed, and certified by
    [L_x0, Lambda_x0] = h.  The double bracket T(x) (_double_bracket_dual)
    is linear in x, so the table is its values T_s on the unit vectors.
    T(x0) = Lambda_lin(x0) needs no check: [[L_x0, Lam0], Lam0] =
    (q(x0)/2) [h, Lam0] = -q(x0) Lam0 once the completion is certified.
    Every other x is certified by [L_x, T(x)] = (q(x)/2) h; the lowering
    operator of an sl2 triple is unique given e and h, so T(x) is then
    exactly Lambda_lin(x).  A vector that fails is completed as x0 is, so a
    module that is not an LLV module gets the same table, or the same
    error, in the same order; only then is the basis matrix B inverted, to
    correct the table to table[s] = T_s + sum_i (B^-1)_{i,s} (v_i - T(x_i))
    over the completed x_i and their values v_i (x0's term is zero).

    Well-definedness is certified on the variant-1 basis by the same
    identity, which by the same uniqueness holds exactly when the table
    built from the second basis would agree with this one.  Each
    certificate accumulates x_s x_t [L_s, table_t] (_certified), so no L_x
    and no Lambda_lin(x) is formed.
    """
    basis, checks = _table_bases(space)
    h = grading(l_actions[0].degrees, n)

    def completion(x):
        return _completion(combine(x, l_actions), n, h).scale(space.quad(x) / 2)

    x0 = basis[0]
    completed = {0: completion(x0)}
    units = [_double_bracket_dual(lop, completed[0], space.quad(x0), q0x)
             for lop, q0x in zip(l_actions, space.gram.times_vec(x0))]
    for i, x in enumerate(basis[1:], 1):
        if not _certified(x, l_actions, x, units, h, space.quad(x) / 2):
            completed[i] = completion(x)
    table = units
    if len(completed) > 1:
        # Column s of B^-1 holds the coordinates of the unit vector e_s.
        binv = invert(Mat.from_cols(basis))
        fixes = [v - combine(basis[i], units) for i, v in completed.items()]
        table = [combine([1, *(binv[i, s] for i in completed)], [t, *fixes])
                 for s, t in enumerate(units)]
    for y in checks:
        if not _certified(y, l_actions, y, table, h, space.quad(y) / 2):
            raise OperatorError(
                "linear extension of the dual Lefschetz is basis-dependent")
    return table


def _table_bases(space: QuadraticSpace) -> tuple:
    """The basis linear_dual_table extends from and the basis it certifies
    well-definedness on."""
    return anisotropic_basis(space, variant=0), anisotropic_basis(space, variant=1)


def table_certified_at(space: QuadraticSpace, n: int, l_actions: list,
                       h: GradedOperator) -> list:
    """The vectors x at which the table T = linear_dual_table(space, n,
    l_actions) is certified to satisfy [L_x, T(x)] = (q(x)/2) h: every
    vector of both of its bases (_table_bases) when h is the grading its
    certificates run against, and none otherwise."""
    if h != grading(l_actions[0].degrees, n):
        return []
    basis, checks = _table_bases(space)
    return basis + checks


# -- frames -------------------------------------------------------------------

@dataclass(frozen=True)
class HodgeFrame:
    """Two marked hyperbolic pairs (s, sbar) and (beta, eta).

    Invariants: all four vectors isotropic, q(s, sbar) = q(beta, eta) = 1,
    the two planes mutually orthogonal.  The frame holds these vectors and
    nothing derived from them; the orthogonal complement of all four is
    orthogonal_complement(space, frame.vectors()).
    """

    space: QuadraticSpace
    s: list
    sbar: list
    beta: list
    eta: list

    def __post_init__(self):
        sp = self.space
        for name in ("s", "sbar", "beta", "eta"):
            object.__setattr__(self, name, vec(getattr(self, name)))
        vs = [self.s, self.sbar, self.beta, self.eta]
        if any(sp.quad(v) != 0 for v in vs):
            raise OperatorError("frame vectors must be isotropic")
        if sp.bilinear(self.s, self.sbar) != 1 or sp.bilinear(self.beta, self.eta) != 1:
            raise OperatorError("frame pairs must have unit pairing")
        for a in (self.s, self.sbar):
            for b in (self.beta, self.eta):
                if sp.bilinear(a, b) != 0:
                    raise OperatorError("frame planes must be orthogonal")

    def vectors(self) -> list:
        return [self.s, self.sbar, self.beta, self.eta]


def build_frame(space: QuadraticSpace, seed: int = 0) -> HodgeFrame:
    """Deterministic frame; seed 0 is the canonical one, other seeds shuffle
    it by a product of two reflections (a special isometry), so every seed
    yields a valid frame and different seeds yield genuinely different ones.
    """
    s, sbar = hyperbolic_pair(space)
    comp = orthogonal_complement(space, [s, sbar]).vectors()
    sub = _restricted_space(space, comp)
    e2, f2 = hyperbolic_pair(sub)
    beta = _unrestrict(comp, e2)
    eta = _unrestrict(comp, f2)
    vs = [s, sbar, beta, eta]
    if seed:
        rng = random.Random(seed)
        while True:
            u1 = [QQ(rng.randint(-2, 2)) for _ in range(space.dim)]
            u2 = [QQ(rng.randint(-2, 2)) for _ in range(space.dim)]
            if space.quad(u1) != 0 and space.quad(u2) != 0:
                break
        # The isometry R(u1) R(u2), applied vector by vector.
        for u in (u2, u1):
            k = 2 / space.quad(u)
            vs = [_reflect(space, v, u, k) for v in vs]
    return HodgeFrame(space, *vs)


def _reflect(space: QuadraticSpace, v: list, u: list, k) -> list:
    """v - k q(v, u) u, the reflection of v in u for k = 2 / q(u)."""
    c = k * space.bilinear(v, u)
    return [x - c * y for x, y in zip(v, u)] if c else v


def _restricted_space(space: QuadraticSpace, basis: list) -> QuadraticSpace:
    """The form on the span of basis, in that basis: C G C^T for C the
    matrix whose rows are the basis vectors."""
    c = Mat.from_rows(basis)
    return QuadraticSpace(c * space.gram * c.transpose())


def _unrestrict(basis: list, coords: list) -> list:
    out = [_ZERO] * len(basis[0])
    for c, b in zip(coords, basis):
        if c:
            out = [o + c * x for o, x in zip(out, b)]
    return out


def transport_frame(frame: HodgeFrame, isometry) -> HodgeFrame:
    """Apply an isometry to every frame vector."""
    return HodgeFrame(frame.space,
                      *[isometry.apply(v) for v in frame.vectors()])


# -- the model monodromy operator and its sl2 ---------------------------------

@dataclass(frozen=True)
class SL2Triple:
    e: GradedOperator
    f: GradedOperator
    h: GradedOperator


def verify_sl2(t: SL2Triple) -> bool:
    """Exact check of [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return sum_equals(bracket(t.e, t.f), 1, t.h) and _weights_hold(t)


def _weights_hold(t: SL2Triple) -> bool:
    """Exact check of [h,e] = 2e and [h,f] = -2f, the identities of an sl2
    triple besides [e,f] = h."""
    return (sum_equals(bracket(t.h, t.e), 2, t.e)
            and sum_equals(bracket(t.h, t.f), -2, t.f))


@dataclass(frozen=True)
class FrameCalculus:
    """All frame operators of one operator module, computed exactly."""

    frame: HodgeFrame
    L_s: GradedOperator
    L_sbar: GradedOperator
    L_beta: GradedOperator
    L_eta: GradedOperator
    Lam_s: GradedOperator
    Lam_sbar: GradedOperator
    Lam_beta: GradedOperator
    Lam_eta: GradedOperator
    h: GradedOperator
    H_s: GradedOperator
    H_sbar: GradedOperator
    H_beta: GradedOperator
    M: GradedOperator
    E_M: GradedOperator
    F_M: GradedOperator
    H_M: GradedOperator
    m_bracket_scalar: QQ


def frame_calculus(module: "LLVModuleSpec", frame: HodgeFrame) -> FrameCalculus:
    """Assemble L, Lambda, the Cartan operators and the M triple of a module.

    The module supplies n, degrees, l_of and lambda_of; a built algebra
    enters as module_io.algebra_module(alg).  E_M = 2M and
    F_M = 2[Lam_s, L_eta] follow the conventional doubling; with the linear
    Lambda normalisation their bracket is a *multiple* of
    H_M = H_beta - H_s, and the realised scalar (4 with these conventions)
    is recorded in m_bracket_scalar (read by sum_ratio over the terms of
    [E_M, F_M]) rather than silently rescaled.
    """
    names = ("s", "sbar", "beta", "eta")
    L = {v: module.l_of(getattr(frame, v)) for v in names}
    Lam = {v: module.lambda_of(getattr(frame, v)) for v in names}
    H_s = commutator_op(L["s"], Lam["sbar"])
    H_sbar = commutator_op(L["sbar"], Lam["s"])
    H_beta = commutator_op(L["beta"], Lam["eta"])
    M = commutator_op(L["beta"], Lam["sbar"])
    E_M = M.scale(2)
    F_M = operator_sum(bracket(Lam["s"], L["eta"], 2))
    H_M = H_beta - H_s
    kappa = sum_ratio(bracket(E_M, F_M), H_M)
    if kappa is None:
        raise OperatorError("[E_M, F_M] is not proportional to H_beta - H_s")
    return FrameCalculus(frame, L["s"], L["sbar"], L["beta"], L["eta"],
                         Lam["s"], Lam["sbar"], Lam["beta"], Lam["eta"],
                         grading(module.degrees, module.n),
                         H_s, H_sbar, H_beta, M, E_M, F_M, H_M, kappa)


def frame_triples(fc: FrameCalculus) -> dict:
    """The named sl2 triples attached to a frame.

    The M triple uses the bracket-normalised lowering operator
    F_M / m_bracket_scalar so that it is an honest sl2 triple; the raw
    doubled pair is kept in the calculus for reporting.
    """
    return {
        "sigma": SL2Triple(fc.L_s, fc.Lam_sbar, fc.H_s),
        "sigma_bar": SL2Triple(fc.L_sbar, fc.Lam_s, fc.H_sbar),
        "beta": SL2Triple(fc.L_beta, fc.Lam_eta, fc.H_beta),
        "eta": SL2Triple(fc.L_eta, fc.Lam_beta,
                         commutator_op(fc.L_eta, fc.Lam_beta)),
        "m": SL2Triple(fc.E_M, fc.F_M.scale(1 / fc.m_bracket_scalar), fc.H_M),
    }


# -- derivation checks ---------------------------------------------------------

@dataclass
class DerivationReport:
    trials: int
    passed: bool
    failures: list


def _sample_pairs(alg: GradedAlgebra, offset: int, seed: int):
    """The random homogeneous pairs (ka, kb, a, b) of verify_derivation,
    endlessly: levels ka and kb whose product an operator of this offset
    maps into the algebra, and coordinate vectors a and b with entries in
    -3..3.

    The draws are those of r = random.Random(seed) calling
    r.randint(0, 2n), r.randint(0, 2n - ka) and r.randint(-3, 3), made by
    the rejection loop randint runs (draw m.bit_length() bits until the
    value is below m) without its call overhead.
    """
    bits = random.Random(seed).getrandbits
    n, dims = alg.n, alg.dims()

    def draws(m: int, count: int, low: int = 0) -> list:
        """count draws of randint(low, low + m - 1)."""
        k = m.bit_length()
        out = []
        for _ in range(count):
            r = bits(k)
            while r >= m:
                r = bits(k)
            out.append(low + r)
        return out

    while True:
        ka, = draws(2 * n + 1, 1)
        kb, = draws(2 * n - ka + 1, 1)
        if 2 * (ka + kb) + offset not in dims:
            continue
        yield (ka, kb, draws(7, alg.level_dim(ka), -3),
               draws(7, alg.level_dim(kb), -3))


def verify_derivation(alg: GradedAlgebra, op: GradedOperator,
                      trials: int = 100, seed: int = 0) -> DerivationReport:
    """Exact test of op(ab) = op(a) b + a op(b) on random homogeneous pairs.

    Each side is an integer coordinate vector over one denominator: the
    structure tensors are scaled to integers on first use within the call,
    the blocks of op are read as their numerators over their denominators,
    and the sides are compared by cross-multiplying.
    A failing pair is reported as the AlgebraElements a, b, lhs and rhs,
    read off the same integer vectors.
    """
    failures = []
    dims = alg.dims()
    half = op.offset // 2
    tensors: dict = {}   # (k, l) -> alg.scaled_tensor(k, l)

    def product(k: int, a: list, l: int, b: list) -> tuple:
        """(ints, denominator) of the product of a in level k, b in level l."""
        if k > l:
            a, b, k, l = b, a, l, k
        if (k, l) not in tensors:
            tensors[(k, l)] = alg.scaled_tensor(k, l)
        rows, d = tensors[(k, l)]
        return contract(rows, a, b, alg.level_dim(k + l)), d

    def apply(k: int, v: list) -> tuple:
        """(ints, denominator) of op applied to v in level k."""
        m = op.block(2 * k)
        return m.times_row(v), m.den

    count = 0
    for ka, kb, a, b in islice(_sample_pairs(alg, op.offset, seed), trials):
        count += 1
        da, db = 2 * ka, 2 * kb
        ab, d_ab = product(ka, a, kb, b)
        lhs, d_lhs = apply(ka + kb, ab)
        d_lhs *= d_ab
        rhs, d_rhs = [0] * len(lhs), 1
        for k, v, l, w in ((ka, a, kb, b), (kb, b, ka, a)):
            if 2 * k + op.offset in dims:
                ov, d_ov = apply(k, v)
                # op(b) a is a op(b): the algebra is commutative
                term, d_t = product(k + half, ov, l, w)
                d_t *= d_ov
                rhs = [x * d_t + y * d_rhs for x, y in zip(rhs, term)]
                d_rhs *= d_t
        if any(x * d_rhs != y * d_lhs for x, y in zip(lhs, rhs)):
            dl = da + db + op.offset
            failures.append({
                "a": alg.element(da, a), "b": alg.element(db, b),
                "lhs": AlgebraElement(dl, tuple(QQ(x, d_lhs) for x in lhs)),
                "rhs": AlgebraElement(dl, tuple(QQ(x, d_rhs) for x in rhs))})
            if len(failures) >= 3:
                break
    return DerivationReport(trials=count, passed=not failures,
                            failures=failures)


# -- the bigrading ------------------------------------------------------------

@dataclass(frozen=True)
class Bigrading:
    """Joint eigenspace decomposition indexed by (p, q, i) per degree."""

    n: int
    degrees: dict
    components: dict  # (p, q, i) -> Subspace of the degree p+q piece

    def dim(self, p: int, q: int, i: int) -> int:
        sub = self.components.get((p, q, i))
        return sub.dim if sub else 0

    def dims_table(self) -> dict:
        return {k: s.dim for k, s in sorted(self.components.items())}

    def degree_components(self, d: int) -> dict:
        return {k: s for k, s in self.components.items() if k[0] + k[1] == d}

    def hodge_dim(self, p: int, q: int) -> int:
        return sum(s.dim for (pp, qq_, _), s in self.components.items()
                   if pp == p and qq_ == q)

    def hodge_piece(self, p: int, q: int) -> Subspace:
        return Subspace.from_rows(
            self.degrees.get(p + q, 0),
            [r for (pp, qq_, _), s in self.components.items()
             if pp == p and qq_ == q for r in s.rows])

    def level(self, d: int) -> int:
        """Largest |p - q| over nonzero components in degree d (-1 if empty)."""
        lv = -1
        for (p, q, _i), s in self.components.items():
            if p + q == d and s.dim:
                lv = max(lv, abs(p - q))
        return lv


def bigrading_from_operators(degrees: dict, n: int, H_s: GradedOperator,
                             H_sbar: GradedOperator,
                             H_beta: GradedOperator) -> Bigrading:
    """Simultaneous eigenspaces of the three Cartan operators.

    p = eig(H_s) + n, q = eig(H_sbar) + n, i = p + q - n - eig(H_beta).
    Integer, semisimple spectra are verified degree by degree; a defect is
    a hard error since it would falsify the sl2 structure.
    """
    components = {}
    for d in sorted(degrees):
        if degrees[d] == 0:
            continue
        cands = []
        for p in range(0, d + 1):
            q = d - p
            for i in range(0, d + 1):
                cands.append((p - n, q - n, d - i - n))
        ops = [H_s.block(d), H_sbar.block(d), H_beta.block(d)]
        try:
            subs = simultaneous_eigenspaces(ops, cands)
        except EigenDefectError as exc:
            raise EigenDefectError(
                f"degree {d}: {exc} (spectrum not integral/semisimple)") from exc
        for (ps, qs, bs), sub in zip(cands, subs):
            if sub.dim == 0:
                continue
            p, q = ps + n, qs + n
            i = p + q - n - bs
            components[(p, q, i)] = sub
    return Bigrading(n, dict(degrees), components)


def bigrading(module: "LLVModuleSpec", fc: FrameCalculus) -> Bigrading:
    """The (p, q, i) bigrading of a module, fc its frame calculus."""
    return bigrading_from_operators(module.degrees, module.n,
                                    fc.H_s, fc.H_sbar, fc.H_beta)
