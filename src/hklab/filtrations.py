"""Weight filtrations of nilpotent operators and the perverse filtration.

The weight filtration centred at k of a nilpotent operator N is the unique
increasing chain W_0 <= ... <= W_{2k} with N W_i <= W_{i-2} and with N^i
inducing bijections Gr_{k+i} -> Gr_{k-i}.  It is constructed here from
Jordan chains (every chain of length l contributes the standard ladder of
weights k+l-1, k+l-3, ..., k-l+1) and then re-verified against both
defining properties, so the construction is self-certifying.

Every operator is graded: N maps degree d to d + offset, with offset 0 for
the monodromy M and 2 for multiplication L_x by a degree-2 class.  One
routine each builds the Jordan chains, the filtration and its verification
for any offset; a single square matrix is the graded operator with one
degree and offset 0.

The perverse chain of an isotropic degree-2 class beta on degree d is
computed by the kernel-sum formula

    P_i H^d = sum_j beta^j . Ker(beta^{n-(d-2j)+i+1} : H^{d-2j} -> ...)

with Ker(beta^e) read as 0 for e <= 0, and is cross-checked against the
weight filtration of multiplication by beta on the total space under the
reindexing W_i  with H^d  =  P_{d+i-2n} H^d.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from hklab.linalg import (
    IncrementalRref,
    Mat,
    NotNilpotentError,
    Subspace,
    kernel_basis,
    subspace_sum,
)
from hklab.llv import Bigrading, GradedOperator, lefschetz
from hklab.verbitsky import GradedAlgebra


class FiltrationError(ValueError):
    """Violated precondition in a filtration computation."""


# -- weight filtrations ---------------------------------------------------------

def _complement_in(sub: Subspace, within: Subspace) -> list:
    """Vectors of `within` completing a basis of `sub` inside `within`."""
    state = IncrementalRref(sub.ambient_dim)
    for v in sub.vectors():
        state.insert(v)
    out = []
    for v in within.vectors():
        if state.insert(v):
            out.append(v)
    return out


@dataclass(frozen=True)
class GradedWeightFiltration:
    """Weight filtration of a graded nilpotent operator, stored per degree.

    The operator maps degree d to d + offset (offset 0 for the monodromy M,
    2 for a Lefschetz operator L_x), so its kernels are graded and the whole
    filtration can be computed and stored degreewise; step(d, i) is the
    degree-d slice of W_i.
    """

    centre: int
    degrees: dict
    slices: dict  # degree -> tuple of Subspaces, indices 0..2*centre

    def step(self, d: int, i: int) -> Subspace:
        if d not in self.slices or i < 0:
            return Subspace.zero(self.degrees.get(d, 0))
        chain = self.slices[d]
        if i >= len(chain):
            return chain[-1]
        return chain[i]

    def graded_dims(self, d: int) -> dict:
        out = {}
        for i in range(0, 2 * self.centre + 1):
            v = self.step(d, i).dim - self.step(d, i - 1).dim
            if v:
                out[i] = v
        return out


class GradedPowers:
    """Powers op^e of a graded operator from each source degree, their
    kernels and the nilpotence index per degree, each computed once on
    first use."""

    def __init__(self, op: GradedOperator):
        self.op = op
        self._powers: dict = {}
        self._kernels: dict = {}
        self._indices: dict = {}

    def power(self, src_degree: int, e: int) -> Mat:
        """Matrix of op^e starting at src_degree (zero map if targets vanish)."""
        key = (src_degree, e)
        m = self._powers.get(key)
        if m is None:
            if e == 0:
                m = Mat.identity(self.op.dim(src_degree))
            else:
                m = (self.op.block(src_degree + self.op.offset * (e - 1))
                     * self.power(src_degree, e - 1))
            self._powers[key] = m
        return m

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


def graded_nilpotence_index(op: GradedOperator,
                            powers: GradedPowers | None = None) -> int:
    """Largest i with op^i nonzero, for a graded operator of any offset.

    Raises NotNilpotentError if op^i is still nonzero once i exceeds the
    total dimension.  The powers come from `powers` when given.
    """
    powers = powers or GradedPowers(op)
    return max((powers.index(d) for d, m in op.degrees.items() if m),
               default=0)


def graded_jordan_chains(op: GradedOperator,
                         powers: GradedPowers | None = None) -> list:
    """Homogeneous Jordan chains of a graded nilpotent operator.

    Returns triples (start_degree, length, vectors); vector j lives in
    degree start_degree + j * op.offset.  Chains are extracted longest
    first: at each length l the new heads complete ker op^{l-1} plus the
    descended tails of longer chains inside ker op^l.  Kernels of powers
    are graded, so heads can be chosen inside single degrees and every
    chain is homogeneous.  The powers and their kernels come from `powers`
    when given.
    """
    off = op.offset
    degrees = {d: m for d, m in op.degrees.items() if m}
    powers = powers or GradedPowers(op)
    s = graded_nilpotence_index(op, powers)
    kernels = {(i, d): powers.kernel(d, i)
               for d in degrees for i in range(s + 2)}

    chains = []
    carried = {d: [] for d in degrees}
    for length in range(s + 1, 0, -1):
        new_heads = {}
        for d in sorted(degrees):
            avoid = subspace_sum(kernels[(length - 1, d)],
                                 Subspace.from_vectors(degrees[d], carried[d]))
            heads = _complement_in(avoid, kernels[(length, d)])
            new_heads[d] = heads
            for h in heads:
                chain = [h]
                cur = h
                for j in range(length - 1):
                    cur = op.block(d + off * j).times_vec(cur)
                    chain.append(cur)
                chains.append((d, length, chain))
        nxt = {d: [] for d in degrees}
        for d in sorted(degrees):
            for v in carried[d] + new_heads[d]:
                img = op.block(d).times_vec(v)
                tgt = d + off
                if tgt in degrees and any(img):
                    nxt[tgt].append(img)
        carried = nxt
    per_degree = {d: 0 for d in degrees}
    for d0, length, chain in chains:
        for j in range(length):
            per_degree[d0 + off * j] += 1
    if per_degree != degrees:
        raise FiltrationError("graded Jordan chains failed to span")
    return chains


def graded_weight_filtration(op: GradedOperator, centre: int,
                             powers: GradedPowers | None = None
                             ) -> GradedWeightFiltration:
    """The unique weight filtration of a graded nilpotent operator.

    Requires nilpotence index <= centre (otherwise the chain would need
    negative indices).  Each Jordan chain of length l contributes its
    vectors at weights centre+l-1-2j for j = 0..l-1.  Each power of op is
    built once, in `powers` (a fresh GradedPowers by default).
    """
    powers = powers or GradedPowers(op)
    s = graded_nilpotence_index(op, powers)
    if s > centre:
        raise FiltrationError(
            f"nilpotence index {s} exceeds the centre {centre}")
    degrees = {d: m for d, m in op.degrees.items() if m}
    by_weight = {d: {} for d in degrees}
    for d0, length, chain in graded_jordan_chains(op, powers):
        for j, v in enumerate(chain):
            w = centre + (length - 1) - 2 * j
            by_weight[d0 + op.offset * j].setdefault(w, []).append(v)
    slices = {}
    for d in degrees:
        acc: list = []
        chain = []
        for i in range(0, 2 * centre + 1):
            acc = acc + by_weight[d].get(i, [])
            chain.append(Subspace.from_vectors(degrees[d], acc))
        slices[d] = tuple(chain)
    wf = GradedWeightFiltration(centre, dict(degrees), slices)
    if not verify_graded_weight_filtration(op, wf):
        raise FiltrationError("graded filtration failed its own axioms")
    return wf


def weight_filtration(n_mat: Mat, centre: int) -> GradedWeightFiltration:
    """Weight filtration of a square nilpotent matrix, as the degree-0 slice
    of a graded operator with one degree and offset 0."""
    return graded_weight_filtration(
        GradedOperator({0: n_mat.rows}, 0, {0: n_mat}), centre)


def verify_graded_weight_filtration(op: GradedOperator,
                                    wf: GradedWeightFiltration) -> bool:
    """Exact check of both defining properties, degreewise."""
    k = wf.centre
    off = op.offset
    degrees = wf.degrees
    if degrees != {d: m for d, m in op.degrees.items() if m}:
        return False
    for d in degrees:
        if wf.step(d, 2 * k).dim != degrees[d]:
            return False
        for i in range(0, 2 * k + 1):
            if not wf.step(d, i).contains_subspace(wf.step(d, i - 1)):
                return False
            tgt = wf.step(d + off, i - 2)
            for v in wf.step(d, i).vectors():
                img = op.block(d).times_vec(v)
                if any(img) and not tgt.contains(img):
                    return False
    # op^i : Gr_{k+i} -> Gr_{k-i} bijective, checked by rank accounting.
    for i in range(1, k + 1):
        for d in degrees:
            hi, hi_prev = wf.step(d, k + i), wf.step(d, k + i - 1)
            d2 = d + off * i
            lo, lo_prev = wf.step(d2, k - i), wf.step(d2, k - i - 1)
            if hi.dim - hi_prev.dim != lo.dim - lo_prev.dim:
                return False
            reps = _complement_in(hi_prev, hi)
            imgs = []
            for v in reps:
                for step in range(i):
                    v = op.block(d + off * step).times_vec(v)
                imgs.append(v)
            dim_d2 = degrees.get(d2, 0)
            span = subspace_sum(lo_prev,
                                Subspace.from_vectors(dim_d2, imgs))
            if span.dim - lo_prev.dim != hi.dim - hi_prev.dim:
                return False
            if any(not lo.contains(v) for v in imgs):
                return False
    return True


# -- the perverse filtration -----------------------------------------------------

def _require_isotropic(alg: GradedAlgebra, beta: Sequence) -> None:
    if alg.space.quad(list(beta)) != 0:
        raise FiltrationError("perverse filtration needs an isotropic class")


def perverse_filtration(alg: GradedAlgebra, beta: Sequence, d: int,
                        powers: GradedPowers | None = None) -> dict:
    """Perverse chain P_i H^d for an isotropic degree-2 class, as {i: Subspace}.

    Implements the kernel-sum formula with Ker(beta^e) = 0 for e <= 0; the
    weight-filtration cross-check pins down these edge conventions.  The
    powers of L_beta and their kernels come from `powers`, which callers
    computing several degrees share; by default they are built here.
    """
    _require_isotropic(alg, beta)
    n = alg.n
    dims = alg.dims()
    if d not in dims:
        raise FiltrationError(f"no graded piece in degree {d}")
    if powers is None:
        powers = GradedPowers(lefschetz(alg, beta))
    out = {}
    for i in range(-1, 2 * n + 2):
        vecs = []
        for j in range(0, d // 2 + 1):
            src = d - 2 * j
            if src not in dims:
                continue
            e = n - (d - 2 * j) + i + 1
            if e <= 0:
                continue
            ker = powers.kernel(src, e)
            if ker.dim == 0:
                continue
            shift = powers.power(src, j)
            vecs.extend(shift.times_vec(v) for v in ker.vectors())
        out[i] = Subspace.from_vectors(dims[d], vecs)
    return out


def crosscheck_perverse_weight(alg: GradedAlgebra, beta: Sequence) -> bool:
    """W^{L_beta}_i restricted to degree d equals P_{d+i-2n} H^d, exactly.

    Both routes start from the operator L_beta and read its powers and
    their kernels from one GradedPowers, built once; the kernel-sum route
    never reads the Jordan chains of the weight route.
    """
    _require_isotropic(alg, beta)
    n = alg.n
    dims = alg.dims()
    lop = lefschetz(alg, beta)
    powers = GradedPowers(lop)
    wf = graded_weight_filtration(lop, n, powers)
    for d in sorted(dims):
        chain = perverse_filtration(alg, beta, d, powers)
        pmax = max(chain)
        for i in range(0, 2 * n + 1):
            left = wf.step(d, i)
            pidx = d + i - 2 * n
            if pidx < -1:
                right = Subspace.zero(dims[d])
            elif pidx > pmax:
                right = chain[pmax]
            else:
                right = chain[pidx]
            if left != right:
                return False
    return True


def conjugate_hodge_check(alg: GradedAlgebra, big: Bigrading,
                          sbar: Sequence) -> bool:
    """Weight filtration of L_sbar centred at n against the bigrading:
    W_i restricted to degree d must equal the span of the (p, q) components
    with q >= 2n - i."""
    n = alg.n
    dims = alg.dims()
    lop = lefschetz(alg, sbar)
    wf = graded_weight_filtration(lop, n)
    for d in sorted(dims):
        comps = big.degree_components(d)
        for i in range(0, 2 * n + 1):
            left = wf.step(d, i)
            vecs = []
            for (p, q, _i), sub in comps.items():
                if q >= 2 * n - i:
                    vecs.extend(sub.vectors())
            right = Subspace.from_vectors(dims[d], vecs)
            if left != right:
                return False
    return True


# -- graded dimension tables -----------------------------------------------------

@dataclass(frozen=True)
class GradedDimTable:
    """(degree, index) -> dimension, with text and JSON renderings."""

    name: str
    entries: dict

    def row(self, degree: int) -> dict:
        return {j: v for (d, j), v in self.entries.items() if d == degree}

    def to_json(self) -> dict:
        return {"name": self.name,
                "entries": [[d, j, v] for (d, j), v
                            in sorted(self.entries.items())]}

    def render_text(self) -> str:
        degrees = sorted({d for d, _ in self.entries})
        indices = sorted({j for _, j in self.entries})
        width = max([len(str(v)) for v in self.entries.values()]
                    + [len(str(j)) for j in indices] + [4])
        lines = [self.name]
        header = "deg |" + "".join(str(j).rjust(width + 1) for j in indices)
        lines.append(header)
        lines.append("-" * len(header))
        for d in degrees:
            row = self.row(d)
            cells = "".join(str(row.get(j, "")).rjust(width + 1)
                            for j in indices)
            lines.append(f"{str(d).rjust(3)} |{cells}")
        return "\n".join(lines)


def monodromy_weight_table(alg: GradedAlgebra, m_op: GradedOperator) -> GradedDimTable:
    """dim Gr^M_{n+j} per degree, from per-degree weight filtrations."""
    n = alg.n
    entries = {}
    for d, dim_d in sorted(alg.dims().items()):
        if dim_d == 0:
            continue
        wf = weight_filtration(m_op.block(d), n)
        for i, v in wf.graded_dims(0).items():
            entries[(d, i - n)] = v
    return GradedDimTable("monodromy weight graded dims (degree, j)", entries)


def perverse_hodge_table(big: Bigrading) -> GradedDimTable:
    """Sum over p+q = d of dim V^{p,q,j+q}, the bigraded side of the
    comparison identity."""
    entries = {}
    for (p, q, i), sub in big.components.items():
        d = p + q
        j = i - q
        key = (d, j)
        entries[key] = entries.get(key, 0) + sub.dim
    return GradedDimTable("perverse/Hodge bigraded dims (degree, j)", entries)


def compare_gr_dims(alg: GradedAlgebra, m_op: GradedOperator,
                    big: Bigrading) -> tuple:
    """Tables for both sides of dim Gr^M_{n+j} H^l = sum dim V^{p,q,j+q},
    and the verdict of their exact equality (zero entries normalised away).
    """
    left = monodromy_weight_table(alg, m_op)
    right = perverse_hodge_table(big)
    lnz = {k: v for k, v in left.entries.items() if v}
    rnz = {k: v for k, v in right.entries.items() if v}
    return left, right, lnz == rnz
