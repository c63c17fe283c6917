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
for any offset.  Every function here takes the llv.GradedPowers of its
operator (the operator itself is its .op), so the caller builds one power
ladder per operator and the nilpotence index, the Jordan chains, the
perverse chain and the caller's own nilpotence profile share its powers
and kernels.  A single square matrix is the graded operator with one
degree and offset 0 (weight_filtration).

Vectors never leave the integers: chains, spans and membership tests use
the integer rows of subspaces and their images under Mat.times_row, each a
positive multiple of the rational vector it stands for.

The perverse chain of an isotropic degree-2 class beta on degree d is
computed by the kernel-sum formula

    P_i H^d = sum_j beta^j . Ker(beta^{n-(d-2j)+i+1} : H^{d-2j} -> ...)

with Ker(beta^e) read as 0 for e <= 0, and is cross-checked against the
weight filtration of multiplication by beta on the total space under the
reindexing W_i  with H^d  =  P_{d+i-2n} H^d.  Isotropy of beta is read off
the operator: L_beta^(n+1) = 0 exactly when q(beta) = 0, since otherwise
beta^(2n) is a nonzero multiple of q(beta)^n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from hklab.linalg import IncrementalRref, Mat, Subspace
from hklab.llv import Bigrading, GradedOperator, GradedPowers


class FiltrationError(ValueError):
    """Violated precondition in a filtration computation."""


# -- weight filtrations ---------------------------------------------------------

def _complement_in(sub: Subspace, within: Sequence) -> list:
    """The rows of `within` completing a basis of `sub` in their joint span."""
    state = IncrementalRref(sub.ambient_dim, sub.rows, sub.pivots)
    return [row for row in within if state.insert_row(row)]


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


def graded_nilpotence_index(powers: GradedPowers) -> int:
    """Largest i with op^i nonzero, for a graded operator of any offset.

    Raises NotNilpotentError if op^i is still nonzero once i exceeds the
    total dimension.
    """
    return max((powers.index(d) for d, m in powers.op.degrees.items() if m),
               default=0)


def graded_jordan_chains(powers: GradedPowers) -> list:
    """Homogeneous Jordan chains of a graded nilpotent operator op.

    Returns triples (start_degree, length, rows); row j is an integer
    row in degree start_degree + j * op.offset, a positive multiple of
    op^j applied to the head (Mat.times_row).  Chains are extracted longest
    first: at each length l the new heads complete ker op^{l-1} plus the
    descended tails of longer chains inside ker op^l.  Kernels of powers
    are graded, so heads can be chosen inside single degrees and every
    chain is homogeneous.
    """
    op = powers.op
    off = op.offset
    degrees = {d: m for d, m in op.degrees.items() if m}
    s = graded_nilpotence_index(powers)
    kernels = {(i, d): powers.kernel(d, i)
               for d in degrees for i in range(s + 2)}

    chains = []
    carried = {d: [] for d in degrees}
    for length in range(s + 1, 0, -1):
        new_heads = {}
        for d in sorted(degrees):
            avoid = Subspace.from_rows(
                degrees[d], list(kernels[(length - 1, d)].rows) + carried[d])
            heads = _complement_in(avoid, kernels[(length, d)].rows)
            new_heads[d] = heads
            for h in heads:
                chain = [h]
                for j in range(length - 1):
                    chain.append(op.block(d + off * j).times_row(chain[-1]))
                chains.append((d, length, chain))
        nxt = {d: [] for d in degrees}
        for d in sorted(degrees):
            for v in carried[d] + new_heads[d]:
                img = op.block(d).times_row(v)
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


def graded_weight_filtration(powers: GradedPowers,
                             centre: int) -> GradedWeightFiltration:
    """The unique weight filtration of a graded nilpotent operator op.

    Requires nilpotence index <= centre (otherwise the chain would need
    negative indices).  Each Jordan chain of length l contributes its
    vectors at weights centre+l-1-2j for j = 0..l-1, and W_i adds the rows
    of weight i, if any, to W_{i-1}.
    """
    op = powers.op
    s = graded_nilpotence_index(powers)
    if s > centre:
        raise FiltrationError(
            f"nilpotence index {s} exceeds the centre {centre}")
    degrees = {d: m for d, m in op.degrees.items() if m}
    by_weight = {d: {} for d in degrees}
    for d0, length, chain in graded_jordan_chains(powers):
        for j, v in enumerate(chain):
            w = centre + (length - 1) - 2 * j
            by_weight[d0 + op.offset * j].setdefault(w, []).append(v)
    slices = {}
    for d in degrees:
        sub = Subspace.zero(degrees[d])
        chain = []
        for i in range(0, 2 * centre + 1):
            new = by_weight[d].get(i)
            if new:
                sub = Subspace.from_rows(degrees[d], list(sub.rows) + new)
            chain.append(sub)
        slices[d] = tuple(chain)
    wf = GradedWeightFiltration(centre, dict(degrees), slices)
    if not verify_graded_weight_filtration(op, wf):
        raise FiltrationError("graded filtration failed its own axioms")
    return wf


def weight_filtration(n_mat: Mat, centre: int) -> GradedWeightFiltration:
    """Weight filtration of a square nilpotent matrix, as the degree-0 slice
    of a graded operator with one degree and offset 0."""
    return graded_weight_filtration(
        GradedPowers(GradedOperator({0: n_mat.rows}, 0, {0: n_mat})), centre)


def verify_graded_weight_filtration(op: GradedOperator,
                                    wf: GradedWeightFiltration) -> bool:
    """Exact check of both defining properties, degreewise, on integer rows."""
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
            for row in wf.step(d, i).rows:
                img = op.block(d).times_row(row)
                if any(img) and not tgt._holds(img):
                    return False
    # op^i : Gr_{k+i} -> Gr_{k-i} bijective, checked by rank accounting.
    for i in range(1, k + 1):
        for d in degrees:
            hi, hi_prev = wf.step(d, k + i), wf.step(d, k + i - 1)
            d2 = d + off * i
            lo, lo_prev = wf.step(d2, k - i), wf.step(d2, k - i - 1)
            if hi.dim - hi_prev.dim != lo.dim - lo_prev.dim:
                return False
            reps = _complement_in(hi_prev, hi.rows)
            imgs = []
            for v in reps:
                for step in range(i):
                    v = op.block(d + off * step).times_row(v)
                imgs.append(v)
            dim_d2 = degrees.get(d2, 0)
            span = Subspace.from_rows(dim_d2, list(lo_prev.rows) + imgs)
            if span.dim - lo_prev.dim != hi.dim - hi_prev.dim:
                return False
            if any(not lo._holds(v) for v in imgs):
                return False
    return True


# -- the perverse filtration -----------------------------------------------------

def perverse_filtration(powers: GradedPowers, n: int, d: int) -> dict:
    """Perverse chain P_i H^d for an isotropic degree-2 class beta, as
    {i: Subspace}, from the powers of L_beta on a module with top degree 4n.

    Implements the kernel-sum formula with Ker(beta^e) = 0 for e <= 0; the
    weight-filtration cross-check pins down these edge conventions.
    Callers computing several degrees share `powers`.  Raises
    FiltrationError when L_beta^(n+1) != 0, i.e. when q(beta) != 0.
    """
    if graded_nilpotence_index(powers) > n:
        raise FiltrationError("perverse filtration needs an isotropic class")
    dims = powers.op.degrees
    if d not in dims:
        raise FiltrationError(f"no graded piece in degree {d}")
    out = {}
    for i in range(-1, 2 * n + 2):
        rows = []
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
            rows.extend(shift.times_row(r) for r in ker.rows)
        out[i] = Subspace.from_rows(dims[d], rows)
    return out


def crosscheck_perverse_weight(powers: GradedPowers, n: int) -> bool:
    """W^{L_beta}_i restricted to degree d equals P_{d+i-2n} H^d, exactly.

    Both routes read the powers of L_beta and their kernels from `powers`;
    the kernel-sum route never reads the Jordan chains of the weight route.
    """
    if graded_nilpotence_index(powers) > n:
        raise FiltrationError("perverse filtration needs an isotropic class")
    dims = powers.op.degrees
    wf = graded_weight_filtration(powers, n)
    for d in sorted(dims):
        chain = perverse_filtration(powers, n, d)
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


def conjugate_hodge_check(powers: GradedPowers, big: Bigrading,
                          n: int) -> bool:
    """Weight filtration of L_sbar centred at n against the bigrading:
    W_i restricted to degree d must equal the span of the (p, q) components
    with q >= 2n - i."""
    dims = powers.op.degrees
    wf = graded_weight_filtration(powers, n)
    for d in sorted(dims):
        comps = big.degree_components(d)
        for i in range(0, 2 * n + 1):
            right = Subspace.from_rows(
                dims[d], [r for (p, q, _i), sub in comps.items()
                          if q >= 2 * n - i for r in sub.rows])
            if wf.step(d, i) != right:
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


def monodromy_weight_table(powers: GradedPowers, n: int) -> GradedDimTable:
    """dim Gr^M_{n+j} per degree, from the weight filtration of the degree-0
    operator M (the powers' op), which is computed degree by degree."""
    wf = graded_weight_filtration(powers, n)
    entries = {(d, i - n): v for d in sorted(wf.degrees)
               for i, v in wf.graded_dims(d).items()}
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


def compare_gr_dims(powers: GradedPowers, big: Bigrading, n: int) -> tuple:
    """Tables for both sides of dim Gr^M_{n+j} H^l = sum dim V^{p,q,j+q},
    from the powers of M, and the verdict of their exact equality (zero
    entries normalised away).
    """
    left = monodromy_weight_table(powers, n)
    right = perverse_hodge_table(big)
    lnz = {k: v for k, v in left.entries.items() if v}
    rnz = {k: v for k, v in right.entries.items() if v}
    return left, right, lnz == rnz
