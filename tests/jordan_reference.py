"""Jordan chains and the weight filtration assembled from them, and the
all-rows check of a weight filtration: test-only references for
hklab.filtrations, which builds the weight filtration by the kernel-sum
formula and checks it on the fresh rows of each slice instead.

Chains are extracted longest first: at each length l the new heads
complete ker op^{l-1} plus the descended tails of longer chains inside
ker op^l.  Kernels of powers are graded, so heads can be chosen inside
single degrees and every chain is homogeneous.  A chain of length l
starting at weight centre+l-1 contributes the ladder of weights
centre+l-1, centre+l-3, ..., centre-l+1.
"""

from hklab.filtrations import GradedWeightFiltration, graded_nilpotence_index
from hklab.linalg import Subspace
from hklab.llv import GradedOperator, GradedPowers


def _complement_in(sub: Subspace, within) -> list:
    """The rows of `within` completing a basis of `sub` in their joint span."""
    out = []
    for row in within:
        grown = sub.plus((row,))
        if grown.dim > sub.dim:
            out.append(row)
            sub = grown
    return out


def graded_jordan_chains(powers: GradedPowers) -> list:
    """Homogeneous Jordan chains of a graded nilpotent operator op.

    Returns triples (start_degree, length, rows); row j is an integer
    row in degree start_degree + j * op.offset, a positive multiple of
    op^j applied to the head (Mat.times_row).
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
    assert per_degree == degrees, "graded Jordan chains failed to span"
    return chains


def jordan_weight_filtration(powers: GradedPowers,
                             centre: int) -> GradedWeightFiltration:
    """The weight filtration centred at `centre`, W_i adding the chain rows
    of weight i to W_{i-1}; needs nilpotence index <= centre."""
    op = powers.op
    assert graded_nilpotence_index(powers) <= centre
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
    return GradedWeightFiltration(centre, dict(degrees), slices)


def verify_all_rows(op: GradedOperator, wf: GradedWeightFiltration) -> bool:
    """Both defining properties of a weight filtration, checked on every
    row of every slice: N maps each row of W_i into W_{i-2}, and N^i maps
    a complement of W_{k+i-1} in W_{k+i}, found by elimination, to vectors
    independent modulo W_{k-i-1} in W_{k-i}.  A slice of the wrong ambient
    dimension raises LinalgError."""
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
    for i in range(1, k + 1):
        for d in degrees:
            hi, hi_prev = wf.step(d, k + i), wf.step(d, k + i - 1)
            d2 = d + off * i
            lo, lo_prev = wf.step(d2, k - i), wf.step(d2, k - i - 1)
            if hi.dim - hi_prev.dim != lo.dim - lo_prev.dim:
                return False
            imgs = []
            for v in _complement_in(hi_prev, hi.rows):
                for step in range(i):
                    v = op.block(d + off * step).times_row(v)
                imgs.append(v)
            span = Subspace.from_rows(degrees.get(d2, 0),
                                      list(lo_prev.rows) + imgs)
            if span.dim - lo_prev.dim != hi.dim - hi_prev.dim:
                return False
            if any(not lo._holds(v) for v in imgs):
                return False
    return True
