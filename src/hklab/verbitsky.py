"""The degree-2-generated graded algebra of a rational quadratic space.

For a space (V, q) of dimension b2 and a half-dimension parameter n, the
algebra built here is Sym(V) modulo the ideal generated by the (n+1)-st
powers of isotropic vectors.  Its graded dimensions reproduce
dim Sym^min(k, 2n-k)(V) in cohomological degree 2k, it satisfies hard
Lefschetz for anisotropic classes, and the top degree is one-dimensional
with a Fujiki-type evaluation top(x^{2n}) = c * q(x)^n.

The algebra is Gorenstein: its socle functional is x^{2n} -> c q(x)^n, so
SH = Sym(V) / Ann(Q^n) with Q(xi) = xi^T G xi acting by differentiation
(Macaulay inverse system; Verbitsky, GAFA 6, 1996; Iarrobino-Kanev, LNM
1721).  Each quotient degree is therefore read off one exact catalecticant
matrix of Q^n.  Its rank is checked against the closed-form dimension, and
a shortfall is a hard error.  A monomial m has the integer code
sum_s m_s (2n+1)^s; no exponent exceeds 2n, so a product's code is the sum
of the codes.  Monomials are listed only in degrees k <= n, where each is a
basis monomial.  Above n the work follows the support of Q^n: the weight at
alpha fills the catalecticant cell (alpha - g, g) for each sub-multiset g
of alpha of degree 2n - k, so only the nonzero rows are ever made, and a
structure constant comes from splitting a monomial of nonzero coset into
its divisors.  The cosets are then dropped: the algebra, built or loaded
from JSON, keeps its levels and structure constants only, which hold every
coset (see GradedAlgebra).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import (chain, combinations, combinations_with_replacement,
                       repeat)
from math import factorial, prod
from typing import Optional, Sequence

from hklab.linalg import (QQ, LinalgError, Mat, _dense, _insert, _int_row,
                          _integers, invert, qq, vec)
from hklab.quadforms import QuadraticSpace, json_fields, json_scalar

_ZERO = QQ(0)
_ONE = QQ(1)

ALGEBRA_FORMAT = "hklab-graded-algebra"
ALGEBRA_VERSION = 1


class BuildError(RuntimeError):
    """Construction of the graded algebra failed."""


# -- monomial bookkeeping -----------------------------------------------------

def _multisets(place: list, degree: int) -> list:
    """The monomials of the given degree as multisets of the place values
    place[s] = radix^s: m_s copies of each, so the code sum_s m_s radix^s of
    m is the sum of its multiset.  With radix above every exponent the
    order is ascending code, i.e. descending grevlex, the order of each
    quotient degree's basis; the build sorts catalecticant rows by code to
    keep it.  Drawn from the places last first,
    combinations_with_replacement yields exactly the reverse order, so no
    sort is needed."""
    if degree < 0:
        return []
    out = list(combinations_with_replacement(place[::-1], degree))
    out.reverse()
    return out


def multinomial(total: int, parts: Sequence[int]) -> int:
    num = factorial(total)
    for p in parts:
        num //= factorial(p)
    return num


# -- the graded algebra -------------------------------------------------------

@dataclass(frozen=True)
class AlgebraElement:
    """Homogeneous element: cohomological degree plus coordinates."""

    degree: int
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(vec(self.coords)))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def scale(self, c) -> "AlgebraElement":
        c = qq(c)
        return AlgebraElement(self.degree, tuple(c * x for x in self.coords))

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if self.degree != other.degree or len(self.coords) != len(other.coords):
            raise LinalgError("cannot add elements of different degrees")
        return AlgebraElement(
            self.degree, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self + other.scale(-1)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.degree == other.degree and self.coords == other.coords


class GradedAlgebra:
    """Graded commutative algebra with monomial-coset bases.

    levels maps k (cohomological degree 2k) to the list of exponent tuples
    labelling the basis; tensors maps an ordered level pair (k, l), k <= l,
    to {(i, j): {t: value}} structure constants.  A built and a loaded
    algebra hold the same fields and nothing derived from them.  They fix
    every coset: a monomial of degree m with a nonzero coset is the product
    of monomials of degrees m // 2 and m - m // 2, both at most n and so
    basis monomials, and tensors[(m // 2, m - m // 2)] holds the coset of
    that product.
    A build shares one coset dict among the entries of a monomial, so the
    tensors are read-only.
    """

    def __init__(self, space: QuadraticSpace, n: int, levels: dict,
                 tensors: dict, build_meta: Optional[dict] = None):
        self.space = space
        self.n = n
        self.levels = levels
        self.tensors = tensors
        self.build_meta = dict(build_meta or {})

    # -- shape ---------------------------------------------------------------

    @property
    def b2(self) -> int:
        return self.space.dim

    @property
    def top_degree(self) -> int:
        return 4 * self.n

    def level_dim(self, k: int) -> int:
        return len(self.levels[k])

    def dims(self) -> dict:
        """Cohomological degree -> dimension."""
        return {2 * k: len(ms) for k, ms in sorted(self.levels.items())}

    # -- elements --------------------------------------------------------------

    def zero(self, degree: int) -> AlgebraElement:
        return AlgebraElement(degree, (_ZERO,) * len(self.levels[degree // 2]))

    def unit(self) -> AlgebraElement:
        return AlgebraElement(0, (_ONE,))

    def element(self, degree: int, coords: Sequence) -> AlgebraElement:
        if degree % 2 or degree // 2 not in self.levels:
            raise LinalgError(f"no homogeneous piece in degree {degree}")
        if len(coords) != self.level_dim(degree // 2):
            raise LinalgError("coordinate length does not match degree dimension")
        return AlgebraElement(degree, tuple(coords))

    def degree2(self, v: Sequence) -> AlgebraElement:
        """Degree-2 element from a vector of the quadratic space."""
        return self.element(2, list(v))

    # -- multiplication ---------------------------------------------------------

    def scaled_tensor(self, k: int, l: int) -> tuple:
        """(rows, d) for the structure constants of levels k <= l: rows[i]
        lists the pairs (j, [(t, c), ...]) for the nonzero products of basis
        elements i of level k and j of level l, with c the constant times
        d, the lcm of all their denominators, as an int."""
        tensor = self.tensors[(k, l)]
        scaled, d = _integers([entry.items() for entry in tensor.values()])
        rows = [[] for _ in range(self.level_dim(k))]
        for (i, j), entry in zip(tensor, scaled):
            rows[i].append((j, entry))
        return rows, d

    def multiply(self, a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
        ka, kb = a.degree // 2, b.degree // 2
        if a.degree + b.degree > self.top_degree:
            raise LinalgError(
                f"degree overflow: {a.degree} + {b.degree} exceeds {self.top_degree}")
        if ka > kb:
            a, b, ka, kb = b, a, kb, ka
        rows, d = self.scaled_tensor(ka, kb)
        va, da = _int_row(a.coords)
        vb, db = _int_row(b.coords)
        d *= da * db
        out = contract(rows, va, vb, self.level_dim(ka + kb))
        return AlgebraElement(2 * (ka + kb), tuple(QQ(x, d) for x in out))

    def power(self, x: AlgebraElement, k: int) -> AlgebraElement:
        if x.degree != 2:
            raise LinalgError("power is defined for degree-2 elements")
        if k > 2 * self.n or k < 0:
            raise LinalgError("degree overflow in power")
        acc = self.unit()
        for _ in range(k):
            acc = self.multiply(acc, x)
        return acc

    def top_functional(self, a: AlgebraElement) -> QQ:
        if a.degree != self.top_degree:
            raise LinalgError("top functional needs a top-degree element")
        return a.coords[0]

    # -- serialisation -----------------------------------------------------------

    def to_json(self) -> dict:
        tensors = {}
        for (k, l), entries in sorted(self.tensors.items()):
            quads = []
            for (i, j), entry in sorted(entries.items()):
                for t, val in sorted(entry.items()):
                    quads.append([i, j, t, str(val)])
            tensors[f"{k},{l}"] = quads
        return {
            "format": ALGEBRA_FORMAT,
            "version": ALGEBRA_VERSION,
            "n": self.n,
            "space": self.space.to_json(),
            "levels": {str(k): {"dim": len(ms),
                                "monomials": [list(m) for m in ms]}
                       for k, ms in sorted(self.levels.items())},
            "tensors": tensors,
            "build": self.build_meta,
        }

    @staticmethod
    def from_json(obj: dict) -> "GradedAlgebra":
        if not isinstance(obj, dict) or obj.get("format") != ALGEBRA_FORMAT:
            raise BuildError("not a graded-algebra JSON document")
        json_fields(obj, "graded-algebra document",
                    ("space", "n", "levels", "tensors"), BuildError)
        space = QuadraticSpace.from_json(obj["space"])
        n = obj["n"]
        if type(n) is not int:      # type() rejects bools, floats, strings
            raise BuildError(f"n: {json.dumps(n):.40} is not an integer")
        if n < 1:
            raise BuildError("n: must be at least 1")
        top = 2 * n
        json_fields(obj["levels"], "levels", (), BuildError)
        json_fields(obj["tensors"], "tensors", (), BuildError)
        levels = {}
        for key, level in obj["levels"].items():
            what = f'levels["{key}"]'
            if (k := _level_of(key, top)) is None:
                raise BuildError(f"{what}: not a level 0..{top}")
            json_fields(level, what, ("monomials", "dim"), BuildError)
            ms = level["monomials"]
            if not (isinstance(ms, list) and all(
                    isinstance(m, list) and len(m) == space.dim for m in ms)):
                raise BuildError(f"{what}: monomials must be lists of "
                                 f"length b2 = {space.dim}")
            first = {}      # monomial -> its first position, in order
            for pos, m in enumerate(ms):
                where = f"{what}: monomials[{pos}]"
                # type() rejects bools, floats, strings
                if not all(type(e) is int and e >= 0 for e in m):
                    raise BuildError(f"{where}: {json.dumps(m):.40} is not a "
                                     "list of integers >= 0")
                if sum(m) != k:
                    raise BuildError(f"{where}: {m} does not sum to {k}")
                if (seen := first.setdefault(tuple(m), pos)) != pos:
                    raise BuildError(f"{where} repeats monomials[{seen}]")
            ms = levels[k] = list(first)
            if len(ms) != level["dim"]:
                raise BuildError(f"{what}: level dimension does not match "
                                 "basis list")
        tensors = {}
        for key, quads in obj["tensors"].items():
            k, _, l = key.partition(",")
            k, l = _level_of(k, top), _level_of(l, top)
            if None in (k, l) or k > l or k + l > top:
                raise BuildError(f'tensors["{key}"]: not a level pair k,l '
                                 f"with k <= l and k + l <= {top}")
            entries = {}
            for pos, quad in enumerate(quads):
                where = f'tensors["{key}"][{pos}]'
                if not (isinstance(quad, list) and len(quad) == 4):
                    raise BuildError(f"{where}: expected [i, j, t, value]")
                i, j, t, val = quad
                # an index into a missing level reports that level below
                for name, x, lv in (("i", i, k), ("j", j, l), ("t", t, k + l)):
                    if lv in levels and not (type(x) is int
                                             and 0 <= x < len(levels[lv])):
                        raise BuildError(f"{where}: {name} = {x!r} is not an "
                                         f"index of level {lv}")
                entries.setdefault((i, j), {})[t] = json_scalar(
                    val, f"{where}: value", BuildError)
            tensors[(k, l)] = entries
        # each search stops at its first gap, so it is bounded by the document
        for k in range(top + 1):
            if k not in levels:
                raise BuildError(f"levels: missing field '{k}'")
        for k in range(n + 1):
            for l in range(k, top + 1 - k):
                if (k, l) not in tensors:
                    raise BuildError(f"tensors: missing field '{k},{l}'")
        # canonical JSON orders the keys as strings, "10" before "2"
        return GradedAlgebra(space, n, dict(sorted(levels.items())),
                             dict(sorted(tensors.items())),
                             build_meta=obj.get("build", {}))

    def dump_canonical(self) -> str:
        return canonical_json(self.to_json())


def _level_of(key: str, top: int) -> Optional[int]:
    """k for the key str(k) of a level 0 <= k <= top, else None."""
    k = int(key) if key.isdecimal() else -1
    return k if 0 <= k <= top and str(k) == key else None


def contract(rows: list, a: Sequence, b: Sequence, dim: int) -> list:
    """The integer vector sum_(i,j) a_i b_j c_ij of length dim, for the rows
    of a scaled tensor (GradedAlgebra.scaled_tensor) and integer coordinate
    vectors a of its first level and b of its second."""
    out = [0] * dim
    for ca, row in zip(a, rows):
        if not ca:
            continue
        for j, entry in row:
            cb = b[j]
            if not cb:
                continue
            c = ca * cb
            for t, val in entry:
                out[t] += c * val
    return out


def canonical_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


# -- construction -------------------------------------------------------------

def build_verbitsky(space: QuadraticSpace, n: int,
                    seed: int = 0) -> GradedAlgebra:
    """Build the quotient algebra for (space, n).

    The construction is deterministic; seed is only recorded in the build
    metadata.  A quotient degree whose catalecticant falls short of the
    closed-form dimension raises BuildError.
    """
    if n < 1:
        raise BuildError("n must be at least 1")
    place = [(2 * n + 1) ** s for s in range(space.dim)]
    weights = []
    for alpha, w in _apolar_weights(space, n).items():
        ms = tuple(chain.from_iterable(map(repeat, place, alpha)))
        weights.append((ms, sum(ms), w))
    # shapes[k] and cosets[k] map the code of each monomial of Sym^k with a
    # nonzero coset to its multiset and its coset; basis[k] maps the code of
    # each basis monomial to its index.  Up to degree n every monomial is a
    # basis monomial; above n, basis[2n-k] indexes the catalecticant columns.
    shapes, cosets, basis, levels = {}, {}, {}, {}
    for k in range(2 * n + 1):
        if k <= n:
            shapes[k] = {sum(ms): ms for ms in _multisets(place, k)}
            free = list(shapes[k])
            cosets[k] = {c: {i: _ONE} for i, c in enumerate(free)}
        else:
            free, shapes[k], cosets[k] = _ideal_projection(
                weights, basis[2 * n - k], n, k)
        basis[k] = {c: i for i, c in enumerate(free)}
        levels[k] = [tuple(map(shapes[k][c].count, place)) for c in free]
    # a product of basis monomials i, j is a monomial (multiset, code) of
    # degree k+l with a nonzero coset, and j's code is its code minus i's
    tensors = {}
    for k in range(2 * n + 1):
        for l in range(k, 2 * n + 1 - k):
            found = {}
            for m, coset in cosets[k + l].items():
                for sub in set(combinations(shapes[k + l][m], k)):
                    ci = sum(sub)
                    i, j = basis[k].get(ci), basis[l].get(m - ci)
                    if i is not None and j is not None:
                        found[i, j] = coset
            tensors[(k, l)] = {key: found[key] for key in sorted(found)}
    return GradedAlgebra(space, n, levels, tensors, build_meta={"seed": seed})


def _apolar_weights(space: QuadraticSpace, n: int) -> dict:
    """alpha -> den^n d^alpha Q^n (an int) for |alpha| = 2n, Q = xi^T G xi
    and G = num / den the Gram matrix.

    den^n Q^n is expanded over num: a multiset of n terms of Q, t_s taken
    c_s times, contributes multinomial(n, c) prod t_s^(c_s) to the monomial
    that is the product of its terms; d^alpha xi^alpha = alpha!.
    """
    b2 = space.dim
    terms = [(i, j, x if i == j else 2 * x)
             for i, row in enumerate(space.gram.num) for j, x in row if j >= i]
    qn = {}
    for picked in combinations_with_replacement(range(len(terms)), n):
        alpha = [0] * b2
        c = 1
        for t in picked:
            i, j, x = terms[t]
            alpha[i] += 1
            alpha[j] += 1
            c *= x
        alpha = tuple(alpha)
        c *= multinomial(n, [picked.count(t) for t in set(picked)])
        qn[alpha] = qn.get(alpha, 0) + c
    return {alpha: c * prod(factorial(a) for a in alpha)
            for alpha, c in qn.items() if c}


def _ideal_projection(weights: list, columns: dict, n: int, k: int) -> tuple:
    """Quotient basis and cosets for Sym^k -> SH^{2k}, k > n.

    SH is Gorenstein with socle functional x^{2n} -> c q(x)^n, so the ideal
    in degree k is the kernel of the catalecticant C_k[m][g] = d^(m+g) Q^n
    (rows m in Sym^k; columns maps the code of each g in Sym^(2n-k) to its
    column; weights lists the triples (multiset, code, d^alpha Q^n) of the
    support of Q^n, whose weights may carry one positive factor, which
    changes no span and no coset).  Only the nonzero rows are made:
    cell (m, g) is nonzero iff m + g = alpha is in the support, so each
    distinct sub-multiset g of size 2n-k of alpha puts alpha's weight in
    column g of row alpha - g, the complement of g, whose code is
    code(alpha) - code(g).  Sorted by code, the rows are in the order of
    _multisets, and each row is sorted by column.  Monomial c is a basis
    monomial iff row C_c is not in the span of the later rows, which
    reproduces the non-pivot columns of the ideal's canonical RREF; a zero
    row never is.  The coset of c is then C_c C_F^{-1}; the cosets of the
    nonzero non-basis rows are one sparse product, and a monomial with a
    zero row lies in the ideal.

    Returns (free, shapes, cosets): the codes of the quotient basis
    monomials, ascending, and code -> multiset and code -> coset for every
    monomial with a nonzero row, which is exactly the monomials with a
    nonzero coset.
    """
    rows, shapes = {}, {}
    for ms, cw, w in weights:
        for g in set(combinations(ms, 2 * n - k)):
            cg = sum(g)
            c = cw - cg
            if c not in rows:
                rows[c] = []
                shapes[c] = _complement(ms, g)
            rows[c].append((columns[cg], w))
    nonzero = sorted(rows)
    for c in nonzero:
        rows[c].sort()
    target = len(columns)
    echelon: list = []
    pivots: list = []
    free = []
    for c in reversed(nonzero):
        if _insert(echelon, pivots, (_dense(rows[c], target),), target):
            free.append(c)
            if len(echelon) == target:
                break
    if len(echelon) < target:
        raise BuildError(f"degree {2 * k}: catalecticant rank {len(echelon)} "
                         f"is below the target {target}")
    free.reverse()
    cosets = {c: {j: _ONE} for j, c in enumerate(free)}
    rest = [c for c in nonzero if c not in cosets]
    product = (Mat.from_num(len(rest), target, [rows[c] for c in rest])
               * invert(Mat.from_num(target, target, [rows[c] for c in free])))
    for c, entry in zip(rest, product.num):
        cosets[c] = {j: QQ(x, product.den) for j, x in entry}
    return free, shapes, cosets


def _complement(ms: tuple, sub: tuple) -> tuple:
    """The multiset ms minus its sub-multiset sub."""
    rest = list(ms)
    for p in sub:
        rest.remove(p)
    return tuple(rest)
