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
a shortfall is a hard error.  Each monomial m is listed once per build with
the integer code sum_s m_s (2n+1)^s; no exponent exceeds 2n, so a product's
code is the sum of the codes, and a catalecticant cell or a structure
constant is one lookup at a code sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations_with_replacement
from math import comb, factorial, prod
from typing import Optional, Sequence

from hklab.linalg import (QQ, IncrementalRref, LinalgError, Mat, _int_row,
                          _integers, invert, qq, vec)
from hklab.quadforms import QuadraticSpace, json_fields

_ZERO = QQ(0)
_ONE = QQ(1)

ALGEBRA_FORMAT = "hklab-graded-algebra"
ALGEBRA_VERSION = 1


class BuildError(RuntimeError):
    """Construction of the graded algebra failed."""


# -- monomial bookkeeping -----------------------------------------------------

def monomials(nvars: int, degree: int) -> list:
    """Exponent tuples of the given total degree, descending grevlex order."""
    return [m for m, _ in _coded_monomials(nvars, degree, degree + 1)]


def _coded_monomials(nvars: int, degree: int, radix: int) -> list:
    """Pairs (m, code(m)), code(m) = sum_s m_s radix^s, for the monomials
    of the given degree in the order of monomials(): ascending in the
    reversed tuple.  Drawn from the variables last first, the multisets of
    combinations_with_replacement come in exactly the reverse order, so no
    sort is needed.  With every exponent below the radix, the code of a
    product is the sum of the codes.
    """
    if degree < 0:
        return []
    place = [radix ** s for s in range(nvars)]
    zero = [0] * nvars
    out = []
    for multiset in reversed(list(combinations_with_replacement(
            range(nvars - 1, -1, -1), degree))):
        m, code = zero[:], 0
        for s in multiset:
            m[s] += 1
            code += place[s]
        out.append((tuple(m), code))
    return out


def monomial_count(nvars: int, degree: int) -> int:
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


def multinomial(total: int, parts: Sequence[int]) -> int:
    num = factorial(total)
    for p in parts:
        num //= factorial(p)
    return num


def _power_coeffs(v: Sequence, m: int) -> dict:
    """Coefficients of (sum v_s z_s)^m in the monomial basis."""
    nvars = len(v)
    out = {}
    for mono in monomials(nvars, m):
        c = 1
        ok = True
        for vs, a in zip(v, mono):
            if a == 0:
                continue
            if vs == 0:
                ok = False
                break
            c *= vs ** a
        if not ok:
            continue
        out[mono] = multinomial(m, mono) * c
    return out


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
    to {(i, j): {t: value}} structure constants; proj (present on freshly
    built instances, absent after a JSON round trip) maps each full
    symmetric-power monomial to its coset coordinates.  A build shares the
    coset dicts between tensors and proj, so both are read-only.
    """

    def __init__(self, space: QuadraticSpace, n: int, levels: dict,
                 tensors: dict, proj: Optional[dict] = None,
                 build_meta: Optional[dict] = None):
        self.space = space
        self.n = n
        self.levels = levels
        self.tensors = tensors
        self.proj = proj
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

    def project_symmetric(self, k: int, dense: Sequence) -> AlgebraElement:
        """Coset of a full Sym^k coordinate vector (needs proj tables)."""
        if self.proj is None:
            raise LinalgError("projection tables unavailable on a loaded algebra")
        table = self.proj[k]
        if len(dense) != len(table):
            raise LinalgError("Sym^k coordinate length mismatch")
        out = [_ZERO] * self.level_dim(k)
        for c, entry in zip(dense, table):
            if not c:
                continue
            c = qq(c)
            for t, val in entry.items():
                out[t] += c * val
        return AlgebraElement(2 * k, tuple(out))

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
        n = int(obj["n"])
        json_fields(obj["levels"], "levels", (), BuildError)
        json_fields(obj["tensors"], "tensors", (), BuildError)
        levels = {}
        for key, level in obj["levels"].items():
            what = f'levels["{key}"]'
            json_fields(level, what, ("monomials", "dim"), BuildError)
            ms = levels[int(key)] = [tuple(m) for m in level["monomials"]]
            if len(ms) != level["dim"]:
                raise BuildError(f"{what}: level dimension does not match "
                                 "basis list")
        tensors = {}
        for key, quads in obj["tensors"].items():
            k, l = (int(x) for x in key.split(","))
            entries = {}
            for pos, quad in enumerate(quads):
                if not (isinstance(quad, list) and len(quad) == 4):
                    raise BuildError(f'tensors["{key}"][{pos}]: expected '
                                     "[i, j, t, value]")
                i, j, t, val = quad
                entries.setdefault((i, j), {})[t] = qq(val)
            tensors[(k, l)] = entries
        return GradedAlgebra(space, n, levels, tensors,
                             proj=None, build_meta=obj.get("build", {}))

    def dump_canonical(self) -> str:
        return canonical_json(self.to_json())


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
    graded = [_coded_monomials(space.dim, k, 2 * n + 1)
              for k in range(2 * n + 1)]
    codes = [[c for _, c in ms] for ms in graded]
    top = dict(graded[2 * n])
    # the weights as ints, times one positive int (see _ideal_projection)
    num, _ = _integers([_apolar_weights(space, n).items()])
    weights = {top[alpha]: w for alpha, w in num[0]}
    levels, proj, basis_codes = {}, {}, {}
    for k, ms in enumerate(graded):
        if k <= n:
            free = range(len(ms))
            proj[k] = [{i: _ONE} for i in free]
        else:
            free, proj[k] = _ideal_projection(weights, codes[k],
                                              codes[2 * n - k], k)
        levels[k] = [ms[c][0] for c in free]
        basis_codes[k] = [codes[k][c] for c in free]
    tensors = {}
    for k in range(0, 2 * n + 1):
        for l in range(k, 2 * n + 1 - k):
            # the coset of the product xi^m xi^m' is read at code(m) + code(m')
            coset = dict(zip(codes[k + l], proj[k + l]))
            tensors[(k, l)] = {
                (i, j): entry
                for i, ci in enumerate(basis_codes[k])
                for j, cj in enumerate(basis_codes[l])
                if (entry := coset[ci + cj])}
    return GradedAlgebra(space, n, levels, tensors, proj=proj,
                         build_meta={"seed": seed})


def _apolar_weights(space: QuadraticSpace, n: int) -> dict:
    """alpha -> d^alpha Q^n (a constant) for |alpha| = 2n, Q = xi^T G xi.

    Q^n is expanded by treating the terms of Q as the variables of
    _power_coeffs; d^alpha xi^alpha = alpha!.
    """
    b2 = space.dim
    g = space.gram.data
    pairs = [(i, j) for i in range(b2) for j in range(i, b2) if g[i][j]]
    coeffs = [g[i][j] if i == j else 2 * g[i][j] for i, j in pairs]
    qn = {}
    for powers, c in _power_coeffs(coeffs, n).items():
        alpha = [0] * b2
        for p, (i, j) in zip(powers, pairs):
            alpha[i] += p
            alpha[j] += p
        alpha = tuple(alpha)
        qn[alpha] = qn.get(alpha, 0) + c
    return {alpha: c * prod(factorial(a) for a in alpha)
            for alpha, c in qn.items() if c}


def _ideal_projection(weights: dict, codes: list, duals: list,
                      k: int) -> tuple:
    """Quotient basis and projection table for Sym^k -> SH^{2k}.

    SH is Gorenstein with socle functional x^{2n} -> c q(x)^n, so the ideal
    in degree k is the kernel of the catalecticant C_k[m][g] = d^(m+g) Q^n
    (rows m in Sym^k, columns g in Sym^(2n-k), both given by their codes,
    so that a cell is the weight at code(m) + code(g); the weights are
    d^alpha Q^n times one positive int, which changes no span and no coset).
    Monomial c is a basis monomial iff row C_c is not in the span of the
    later rows, which reproduces the non-pivot columns of the ideal's
    canonical RREF; a zero row never is.  The coset of c is then
    table[c] = C_c C_F^{-1}; the cosets of the nonzero non-basis rows are
    one sparse product.

    Returns (free, table): the positions in Sym^k of the quotient basis
    monomials, and per monomial of Sym^k its coset coefficients.
    """
    rows = [[weights.get(cm + cg, 0) for cg in duals] for cm in codes]
    target = len(duals)
    echelon = IncrementalRref(target)
    free = []
    for c in range(len(rows) - 1, -1, -1):
        if any(rows[c]) and echelon.insert_row(rows[c]):
            free.append(c)
            if echelon.rank == target:
                break
    if echelon.rank < target:
        raise BuildError(f"degree {2 * k}: catalecticant rank {echelon.rank} "
                         f"is below the target {target}")
    free.reverse()
    table = [{} for _ in rows]
    for j, c in enumerate(free):
        table[c] = {j: _ONE}
    rest = [c for c, row in enumerate(rows) if any(row) and not table[c]]

    def nonzeros(cs: list) -> list:
        return [[(j, x) for j, x in enumerate(rows[c]) if x] for c in cs]

    cosets = (Mat.from_num(len(rest), target, nonzeros(rest))
              * invert(Mat.from_num(target, target, nonzeros(free))))
    for c, entry in zip(rest, cosets.num):
        table[c] = {j: QQ(x, cosets.den) for j, x in entry}
    return free, table
