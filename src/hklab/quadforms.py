"""Rational quadratic spaces, isotropic geometry and Witt transport.

Models the degree-2 piece of the cohomology together with its
Beauville-Bogomolov-type pairing as a nondegenerate symmetric bilinear form
over the rationals.  Provides deterministic isotropic sampling, hyperbolic
extension, and an explicit reflection-chain implementation of Witt's
extension theorem used to move isotropic planes into each other inside the
special orthogonal group.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Optional, Sequence

from hklab.linalg import (
    QQ, Mat, Subspace, kernel_basis, primitive_vector, qq, rank, solve, vec)

_ZERO = QQ(0)
_ONE = QQ(1)


class QuadFormError(ValueError):
    """Violated quadratic-space precondition."""


def json_fields(obj, what: str, names: Sequence, error=QuadFormError) -> None:
    """Raise `error`, naming `what`, unless obj (read from outside) is a
    JSON object with the named fields."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object")
    missing = [name for name in names if name not in obj]
    if missing:
        raise error(f"{what}: missing field {missing[0]!r}")


def json_scalar(x, what: str, error=QuadFormError) -> QQ:
    """x, read from outside, as a scalar: raise `error`, naming `what`,
    unless x is a JSON number or a string that QQ() parses."""
    if type(x) in (int, float, str):        # type() rejects bools
        try:
            return qq(x)
        except (ValueError, ArithmeticError):   # "1/0", NaN, Infinity
            pass
    raise error(f"{what}: {json.dumps(x):.40} is not a rational number")


class TwoOrbitObstruction(QuadFormError):
    """The two isotropic planes lie in different special-orthogonal orbits.

    In a 4-dimensional space the isotropic planes form two families; planes
    from different families (equivalently, non-transverse distinct planes)
    are exchanged only by improper isometries, so a determinant-one transport
    does not exist.
    """


@dataclass(frozen=True)
class QuadraticSpace:
    """(dimension, Gram matrix) with a symmetric nondegenerate Gram."""

    gram: Mat

    def __post_init__(self):
        g = self.gram
        if g.rows != g.cols:
            raise QuadFormError("Gram matrix must be square")
        if g != g.transpose():
            raise QuadFormError("Gram matrix must be symmetric")
        if g.det() == 0:
            raise QuadFormError("Gram matrix must be nondegenerate")

    @property
    def dim(self) -> int:
        return self.gram.rows

    def bilinear(self, v: Sequence, w: Sequence) -> QQ:
        if len(v) != self.dim or len(w) != self.dim:
            raise QuadFormError("vector length does not match space dimension")
        return self.gram.form(v, w)

    def quad(self, v: Sequence) -> QQ:
        return self.bilinear(v, v)

    def to_json(self) -> dict:
        return {"dim": self.dim,
                "gram": [[str(e) for e in row] for row in self.gram.data]}

    @staticmethod
    def from_json(obj: dict) -> "QuadraticSpace":
        json_fields(obj, "space", ("gram",))
        if not (isinstance(obj["gram"], list)
                and all(isinstance(r, list) for r in obj["gram"])):
            raise QuadFormError("space: gram must be a list of rows")
        g = Mat.from_rows([[json_scalar(x, f"space: gram[{i}][{j}]")
                            for j, x in enumerate(r)]
                           for i, r in enumerate(obj["gram"])])
        if g.rows != obj.get("dim", g.rows):
            raise QuadFormError("dim field does not match Gram size")
        return QuadraticSpace(g)


def make_standard_space(b2: int, tail: Sequence = ()) -> QuadraticSpace:
    """Gram = U + U + diag(tail): two orthogonal hyperbolic planes up front.

    Requires b2 >= 4; a smaller space carries no isotropic plane, so nothing
    downstream could be built on it.
    """
    tail = [qq(t) for t in tail]
    if b2 < 4:
        raise QuadFormError("b2 must be at least 4 (no isotropic plane otherwise)")
    if len(tail) != b2 - 4:
        raise QuadFormError(f"tail must have length b2-4 = {b2 - 4}")
    if any(t == 0 for t in tail):
        raise QuadFormError("tail entries must be nonzero")
    g = [[_ZERO] * b2 for _ in range(b2)]
    for k in (0, 2):
        g[k][k + 1] = _ONE
        g[k + 1][k] = _ONE
    for i, t in enumerate(tail):
        g[4 + i][4 + i] = t
    return QuadraticSpace(Mat(b2, b2, g))


def standard_tail(b2: int) -> list:
    """Default diagonal tail used by the CLI and the verification grid."""
    return [QQ(2)] * (b2 - 4)


def mukai_extension(space: QuadraticSpace) -> QuadraticSpace:
    """Orthogonal direct sum with one extra hyperbolic plane."""
    n = space.dim
    g = [list(r) + [_ZERO, _ZERO] for r in space.gram.data]
    g.append([_ZERO] * (n + 1) + [_ONE])
    g.append([_ZERO] * n + [_ONE, _ZERO])
    return QuadraticSpace(Mat(n + 2, n + 2, g))


# -- isotropic vectors --------------------------------------------------------

def hyperbolic_pair(space: QuadraticSpace) -> tuple:
    """Some (e, f) with q(e)=q(f)=0 and q(e,f)=1.

    Fast path: recognise a literal hyperbolic block at coordinates (0, 1).
    Otherwise search for an isotropic vector over a small integer box and
    complete it; raises if the box holds none (e.g. definite forms).
    """
    g = space.gram
    n = space.dim
    e0 = [_ONE if i == 0 else _ZERO for i in range(n)]
    f0 = [_ONE if i == 1 else _ZERO for i in range(n)]
    if (space.quad(e0) == 0 and space.quad(f0) == 0
            and space.bilinear(e0, f0) == 1):
        return e0, f0
    iso = None
    rng = random.Random(20210)
    for trial in range(4000):
        v = [QQ(rng.randint(-4, 4)) for _ in range(n)]
        if any(v) and space.quad(v) == 0:
            iso = primitive_vector(v)
            break
    if iso is None:
        raise QuadFormError("no rational isotropic vector found in the search box")
    return iso, _dual_isotropic(space, iso, [])


def _dual_isotropic(space: QuadraticSpace, v: list, orth_to: list) -> list:
    """Isotropic w with q(v,w)=1 and w orthogonal to the given vectors."""
    n = space.dim
    rows = [space.gram.times_vec(v)]
    rhs = [_ONE]
    for u in orth_to:
        rows.append(space.gram.times_vec(u))
        rhs.append(_ZERO)
    u = solve(Mat.from_rows(rows), rhs)
    if u is None:
        raise QuadFormError("cannot complete vector to a hyperbolic pair")
    c = space.quad(u) / 2
    return [a - c * b for a, b in zip(u, v)]


def sample_isotropic(space: QuadraticSpace, count: int, seed: int = 0,
                     pair: Optional[tuple] = None) -> list:
    """Deterministic isotropic integer vectors z + lam*e - (q(z)/(2 lam))*f.

    z ranges over the orthogonal complement of the hyperbolic pair (e, f);
    the combination is scaled to a primitive integer vector, so q(v) = 0
    holds exactly for every output.
    """
    if pair is None:
        pair = hyperbolic_pair(space)
    e, f = pair
    n = space.dim
    comp = orthogonal_complement(space, [e, f]).vectors()
    rng = random.Random(seed)
    out = []
    guard = 0
    while len(out) < count and guard < 50 * (count + 1):
        guard += 1
        lam = QQ(rng.randint(1, 3))
        z = [_ZERO] * n
        for b in comp:
            c = rng.randint(-3, 3)
            if c:
                z = [zi + c * bi for zi, bi in zip(z, b)]
        mu = -space.quad(z) / (2 * lam)
        v = [zi + lam * ei + mu * fi for zi, ei, fi in zip(z, e, f)]
        if not any(v):
            continue
        v = primitive_vector(v)
        assert space.quad(v) == 0
        out.append(v)
    if len(out) < count:
        raise QuadFormError("isotropic sampling failed to produce enough vectors")
    return out


def orthogonal_complement(space: QuadraticSpace, vectors: list) -> Subspace:
    """The vectors orthogonal to every given vector under the pairing."""
    return kernel_basis(Mat.from_rows([space.gram.times_vec(v)
                                       for v in vectors]))


# -- isometries ---------------------------------------------------------------

@dataclass(frozen=True)
class IsotropicPlane:
    """Two independent vectors spanning a totally isotropic plane."""

    space: QuadraticSpace
    v1: list
    v2: list

    def __post_init__(self):
        s = self.space
        object.__setattr__(self, "v1", vec(self.v1))
        object.__setattr__(self, "v2", vec(self.v2))
        if s.quad(self.v1) != 0 or s.quad(self.v2) != 0 \
                or s.bilinear(self.v1, self.v2) != 0:
            raise QuadFormError("plane is not totally isotropic")
        if rank(Mat.from_cols([self.v1, self.v2])) != 2:
            raise QuadFormError("plane vectors are linearly dependent")

    def span(self) -> Subspace:
        return Subspace.from_vectors(self.space.dim, [self.v1, self.v2])


@dataclass(frozen=True)
class Isometry:
    """Gram-preserving matrix with determinant one."""

    space: QuadraticSpace
    matrix: Mat

    def __post_init__(self):
        g = self.space.gram
        m = self.matrix
        if m.transpose() * g * m != g:
            raise QuadFormError("matrix does not preserve the Gram form")
        if m.det() != 1:
            raise QuadFormError("isometry must have determinant one")

    def apply(self, v: Sequence) -> list:
        return self.matrix.times_vec(vec(v))

    def to_json(self) -> dict:
        return {"matrix": [[str(e) for e in row] for row in self.matrix.data]}


def reflection(space: QuadraticSpace, u: Sequence) -> Mat:
    """Reflection x -> x - 2 q(x,u)/q(u) u in an anisotropic vector."""
    u = vec(u)
    qu = space.quad(u)
    if qu == 0:
        raise QuadFormError("cannot reflect in an isotropic vector")
    n = space.dim
    gu = space.gram.times_vec(u)
    return Mat(n, n, [[(_ONE if i == j else _ZERO) - 2 * u[i] * gu[j] / qu
                       for j in range(n)] for i in range(n)])


def _move_vector(space: QuadraticSpace, x: list, y: list) -> list:
    """Reflections (as matrices) whose product maps x to y; needs q(x)=q(y)!=0.

    Classical Witt step: reflect in x-y when that is anisotropic; otherwise
    q(x+y) = 4q(y) != 0, so reflecting in x+y (sending x to -y) and then in
    y does the job.  Both fallback vectors pair to zero with anything x and
    y both pair to zero with, which is what the induction in
    _extend_partial_isometry relies on.
    """
    if x == y:
        return []
    d = [a - b for a, b in zip(x, y)]
    if space.quad(d) != 0:
        return [reflection(space, d)]
    if space.quad(y) == 0:
        raise QuadFormError("cannot move an isotropic vector by this chain")
    s = [a + b for a, b in zip(x, y)]
    return [reflection(space, y), reflection(space, s)]


def _extend_partial_isometry(space: QuadraticSpace,
                             srcs: list, dsts: list) -> tuple:
    """Orthogonal matrix g with g(src_i) = dst_i, as (matrix, det).

    Requires the src and dst tuples to be *orthogonal anisotropic* bases of
    their spans with matching norms.  Induction step k moves the current
    image of src_k onto dst_k; because src_k pairs to zero with src_0..k-1,
    every reflection vector used is orthogonal to dst_0..k-1, so earlier
    matches survive.
    """
    for k, (a, b) in enumerate(zip(srcs, dsts)):
        if space.quad(a) != space.quad(b) or space.quad(a) == 0:
            raise QuadFormError("extension basis must be anisotropic with matching norms")
        for j in range(k):
            if space.bilinear(a, srcs[j]) != 0 or space.bilinear(b, dsts[j]) != 0:
                raise QuadFormError("extension basis must be orthogonal")
    n = space.dim
    g = Mat.identity(n)
    det = 1
    for k, dst in enumerate(dsts):
        cur = g.times_vec(list(srcs[k]))
        refls = _move_vector(space, cur, list(dst))
        for r in refls:
            g = r * g
            det = -det
    return g, det


def _hyperbolic_closure(space: QuadraticSpace, plane: IsotropicPlane) -> list:
    """(v1, w1, v2, w2) with unit pairings q(v_i, w_i)=1 and all else zero."""
    v1, v2 = plane.v1, plane.v2
    w1 = _dual_isotropic(space, v1, [v2])
    w2 = _dual_isotropic(space, v2, [v1, w1])
    return [v1, w1, v2, w2]


def _orthogonalized_closure(space: QuadraticSpace, plane: IsotropicPlane) -> list:
    """Orthogonal anisotropic basis (norms 2,-2,2,-2) of the closure span."""
    v1, w1, v2, w2 = _hyperbolic_closure(space, plane)
    return [
        [a + b for a, b in zip(v1, w1)],
        [a - b for a, b in zip(v1, w1)],
        [a + b for a, b in zip(v2, w2)],
        [a - b for a, b in zip(v2, w2)],
    ]


def witt_transport(space: QuadraticSpace, p1: IsotropicPlane,
                   p2: IsotropicPlane) -> Isometry:
    """Special-orthogonal map sending span(p1) onto span(p2).

    The partial isometry v_i -> v_i' is extended across hyperbolic closures
    by a chain of reflections.  If the chain has determinant -1 it is fixed
    by composing with a reflection in an anisotropic vector orthogonal to
    the target plane; in dimension 4 no such vector exists and the sign is
    an honest invariant separating the two plane families, reported as a
    TwoOrbitObstruction.
    """
    if p1.space is not space and p1.space.gram != space.gram:
        raise QuadFormError("plane p1 lives in a different space")
    if p2.space is not space and p2.space.gram != space.gram:
        raise QuadFormError("plane p2 lives in a different space")
    if p1.span() == p2.span():
        return Isometry(space, Mat.identity(space.dim))

    frame1 = _orthogonalized_closure(space, p1)
    frame2 = _orthogonalized_closure(space, p2)
    g, det = _extend_partial_isometry(space, frame1, frame2)
    if det == -1:
        fix = _plane_fixing_reflection(space, p2)
        if fix is None:
            raise TwoOrbitObstruction(
                "planes lie in different determinant-one orbits (b2 = 4: "
                "the two families of isotropic planes are exchanged only by "
                "improper isometries)")
        g = fix * g
    out = Isometry(space, g)
    span2 = p2.span()
    if not (span2.contains(out.apply(p1.v1))
            and span2.contains(out.apply(p1.v2))):
        raise QuadFormError("transport failed to map the plane span")
    return out


def _plane_fixing_reflection(space: QuadraticSpace,
                             plane: IsotropicPlane) -> Optional[Mat]:
    """Reflection fixing the plane pointwise, if one exists (needs dim >= 5)."""
    comp = orthogonal_complement(space, [plane.v1, plane.v2]).vectors()
    for b in comp:
        if space.quad(b) != 0:
            return reflection(space, b)
    for i in range(len(comp)):
        for j in range(i + 1, len(comp)):
            s = [a + b for a, b in zip(comp[i], comp[j])]
            if space.quad(s) != 0:
                return reflection(space, s)
    return None
