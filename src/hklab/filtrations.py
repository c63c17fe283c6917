"""Weight filtrations of nilpotent operators and the perverse filtration.

The weight filtration centred at k of a nilpotent operator N with
N^(k+1) = 0 is the unique increasing chain W_0 <= ... <= W_{2k} with
N W_i <= W_{i-2} and with N^i inducing bijections Gr_{k+i} -> Gr_{k-i}
(Deligne, Weil II, 1.6.1).  The three filtration verdicts of an instance
use that uniqueness, so none of them builds a chain it does not need:

* M's Gr table (monodromy_weight_table) is a number table: for a degree-0
  N the Jordan type on each degree follows from the ranks r_e of the
  powers of N there, with r_{s-1} - 2 r_s + r_{s+1} blocks of size s, and
  a block of size s adds 1 to each of Gr_{k-s+1}, Gr_{k-s+3}, ...,
  Gr_{k+s-1}.
* The conjugate Hodge chain of L_sbar (conjugate_hodge_check) and the
  reindexed perverse chain of L_beta (crosscheck_perverse_weight) are
  candidates given in advance, the first from the bigrading and the
  second by the kernel-sum formula below.  Each is verified against both
  defining properties (verify_graded_weight_filtration, which reads only
  the operator's blocks, never kernels of its powers), and by uniqueness
  it passes exactly when it is the weight filtration.  The check maps
  only the fresh rows of each slice, those of W_i with no pivot of
  W_{i-1}; the rest follows by induction on i.

The kernel-sum formula

    W_{k+l} = sum_{j >= 0} N^j Ker(N^(l+2j+1)),

with Ker(N^e) read as 0 for e <= 0, is evaluated top down as
W_{k+l} = Ker(N^(l+1)) + N W_{k+l+2} (_kernel_sum), adding only the images
to the kernel's reduced rows (Subspace.plus).  graded_weight_filtration
builds and verifies the whole chain this way; no verdict calls it, and the
tests keep it as the reference for the rank table and the certificates.

Every operator is graded: N maps degree d to d + offset, with offset 0 for
the monodromy M and 2 for multiplication L_x by a degree-2 class, and the
kernel sum in degree d maps the slice of degree d - offset by one block of
N.  Every function here takes the llv.GradedPowers of its operator (the
operator itself is its .op), so the caller builds one power ladder per
operator and the nilpotence index, the ranks, the kernel sums (memoised on
the GradedPowers, so the weight filtration and the perverse chain of one
operator share them) and the caller's own nilpotence profile share its
powers.  A single square matrix is the graded operator with one degree and
offset 0 (weight_filtration).

Vectors never leave the integers: spans and membership tests use the
integer rows of subspaces and their images under Mat.times_row, each a
positive multiple of the rational vector it stands for.

The perverse chain of an isotropic degree-2 class beta on degree d is

    P_i H^d = sum_j beta^j . Ker(beta^{n-(d-2j)+i+1} : H^{d-2j} -> ...),

the kernel sum of L_beta with k = n and l = i - d + n.  So the chain
W_i H^d = P_{d+i-2n} H^d is the weight filtration of L_beta centred at n
exactly when it passes the same verification, which is the cross-check.
Isotropy of beta is read off the operator: L_beta^(n+1) = 0 exactly when
q(beta) = 0, since otherwise beta^(2n) is a nonzero multiple of q(beta)^n.
"""

from __future__ import annotations

from dataclasses import dataclass

from hklab.linalg import IncrementalRref, Mat, Subspace, rank
from hklab.llv import Bigrading, GradedOperator, GradedPowers


class FiltrationError(ValueError):
    """Violated precondition in a filtration computation."""


# -- weight filtrations ---------------------------------------------------------

def _fresh_rows(sub: Subspace, below: Subspace) -> list:
    """The rows of sub whose pivot is no pivot of below: for canonical
    below <= sub a complement of below, as they vanish at its pivots.
    There are dim sub - dim below of them, since the pivots of a subspace
    are the leading positions of its vectors, so below's are sub's too."""
    old = set(below.pivots)
    return [r for r, c in zip(sub.rows, sub.pivots) if c not in old]


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


def _check_centre(powers: GradedPowers, centre: int) -> None:
    """Raise FiltrationError unless op's nilpotence index is at most
    centre, as a weight filtration centred there needs."""
    s = graded_nilpotence_index(powers)
    if s > centre:
        raise FiltrationError(
            f"nilpotence index {s} exceeds the centre {centre}")


def _kernel_sum(powers: GradedPowers, d: int, l: int) -> Subspace:
    """sum_{j >= 0} op^j Ker(op^(l+2j+1)) in degree d, Ker(op^e) = 0 for
    e <= 0: the degree-d slice of W_{k+l} for the weight filtration of op
    centred at k.

    Built top down as Ker(op^(l+1)) + op W_{k+l+2}, the second term the
    image of the slice in degree d - offset under one block of op, and
    memoised on `powers` (powers.sums), so the weight filtration and the
    perverse chain of one operator share every slice.  The slice is the
    whole space once l reaches the index of op on degree d.
    """
    key = (d, l)
    sub = powers.sums.get(key)
    if sub is None:
        op = powers.op
        dim = op.dim(d)
        if not dim:
            sub = Subspace.zero(0)
        elif l >= powers.index(d):
            sub = Subspace.full(dim)
        else:
            src = d - op.offset
            # op kills the part of the slice below in Ker(op), so zero
            # images are dropped; the kernel's rows are already reduced,
            # and only the images are eliminated (Subspace.plus)
            sub = powers.kernel(d, max(l + 1, 0)).plus(
                r for r in map(op.block(src).times_row,
                               _kernel_sum(powers, src, l + 2).rows)
                if any(r))
        powers.sums[key] = sub
    return sub


def graded_weight_filtration(powers: GradedPowers,
                             centre: int) -> GradedWeightFiltration:
    """The unique weight filtration of a graded nilpotent operator op.

    Requires nilpotence index <= centre (otherwise the chain would need
    negative indices).  W_i is the kernel sum with l = i - centre, verified
    against both defining properties.
    """
    op = powers.op
    _check_centre(powers, centre)
    degrees = {d: m for d, m in op.degrees.items() if m}
    wf = GradedWeightFiltration(centre, degrees, {
        d: tuple(_kernel_sum(powers, d, i - centre)
                 for i in range(2 * centre + 1)) for d in degrees})
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
    """Exact check of both defining properties, degreewise, on integer rows.

    Once W_{i-1} <= W_i is checked, N W_i <= W_{i-2} is tested on the
    fresh rows of W_i only (_fresh_rows): N W_{i-1} <= W_{i-3} <= W_{i-2}
    by induction on i and the nesting in degree d + offset.  The fresh rows
    of W_{k+i} represent Gr_{k+i}, and N^i : Gr_{k+i} -> Gr_{k-i} is
    bijective when their images lie in W_{k-i}, independent modulo
    W_{k-i-1}, and the dimensions agree.  A mis-sized slice fails.
    """
    k = wf.centre
    off = op.offset
    degrees = wf.degrees
    if degrees != {d: m for d, m in op.degrees.items() if m}:
        return False
    if any(s.ambient_dim != degrees.get(d, 0)
           for d, chain in wf.slices.items() for s in chain):
        return False
    fresh = {}
    for d in degrees:
        if wf.step(d, 2 * k).dim != degrees[d]:
            return False
        for i in range(0, 2 * k + 1):
            sub, below = wf.step(d, i), wf.step(d, i - 1)
            if not sub.contains_subspace(below):
                return False
            rows = fresh[d, i] = _fresh_rows(sub, below)
            tgt = wf.step(d + off, i - 2)
            for row in rows:
                img = op.block(d).times_row(row)
                if any(img) and not tgt._holds(img):
                    return False
    # op^i : Gr_{k+i} -> Gr_{k-i} bijective, checked by rank accounting.
    for i in range(1, k + 1):
        for d in degrees:
            d2 = d + off * i
            lo, lo_prev = wf.step(d2, k - i), wf.step(d2, k - i - 1)
            reps = fresh[d, k + i]
            if len(reps) != lo.dim - lo_prev.dim:
                return False
            state = IncrementalRref(lo_prev.ambient_dim, lo_prev.rows,
                                    lo_prev.pivots)
            for v in reps:
                for step in range(i):
                    v = op.block(d + off * step).times_row(v)
                if not state.insert_row(v) or not lo._holds(v):
                    return False
    return True


# -- the perverse filtration -----------------------------------------------------

def perverse_filtration(powers: GradedPowers, n: int, d: int) -> dict:
    """Perverse chain P_i H^d for an isotropic degree-2 class beta, as
    {i: Subspace}, from the powers of L_beta on a module with top degree 4n.

    P_i H^d is the kernel sum with l = i - d + n.  Callers computing
    several degrees share `powers`.  Raises FiltrationError when
    L_beta^(n+1) != 0, i.e. when q(beta) != 0.
    """
    if graded_nilpotence_index(powers) > n:
        raise FiltrationError("perverse filtration needs an isotropic class")
    if d not in powers.op.degrees:
        raise FiltrationError(f"no graded piece in degree {d}")
    return {i: _kernel_sum(powers, d, i - d + n) for i in range(-1, 2 * n + 2)}


def crosscheck_perverse_weight(powers: GradedPowers, n: int) -> bool:
    """Whether the chain W_i H^d = P_{d+i-2n} H^d is the weight filtration
    of L_beta centred at n, certified by its two defining properties; the
    weight filtration is unique, so this is the equality of the two."""
    if graded_nilpotence_index(powers) > n:
        raise FiltrationError("perverse filtration needs an isotropic class")
    degrees = {d: m for d, m in powers.op.degrees.items() if m}
    slices = {}
    for d in sorted(degrees):
        chain = perverse_filtration(powers, n, d)
        pmax = max(chain)
        steps = []
        for i in range(0, 2 * n + 1):
            pidx = d + i - 2 * n
            if pidx < -1:
                steps.append(Subspace.zero(degrees[d]))
            else:
                steps.append(chain[min(pidx, pmax)])
        slices[d] = tuple(steps)
    return verify_graded_weight_filtration(
        powers.op, GradedWeightFiltration(n, degrees, slices))


def conjugate_hodge_check(powers: GradedPowers, big: Bigrading,
                          n: int) -> bool:
    """Whether the chain W_i H^d = span of the (p, q) components with
    q >= 2n - i is the weight filtration of L_sbar centred at n, certified
    by its two defining properties; the weight filtration is unique, so
    this is the equality of the two."""
    _check_centre(powers, n)
    degrees = {d: m for d, m in powers.op.degrees.items() if m}
    slices = {}
    for d in sorted(degrees):
        # the rows that enter at index i: those of the components with
        # q = 2n - i, and at index 0 also those with q > 2n
        enter = [[] for _ in range(2 * n + 1)]
        for (_p, q, _i), sub in big.degree_components(d).items():
            if q >= 0:
                enter[max(2 * n - q, 0)] += sub.rows
        step = Subspace.zero(degrees[d])
        steps = []
        for rows in enter:
            step = step.plus(rows)
            steps.append(step)
        slices[d] = tuple(steps)
    return verify_graded_weight_filtration(
        powers.op, GradedWeightFiltration(n, degrees, slices))


# -- graded dimension tables -----------------------------------------------------

@dataclass(frozen=True)
class GradedDimTable:
    """(degree, index) -> dimension, with a JSON rendering."""

    name: str
    entries: dict

    def to_json(self) -> dict:
        return {"name": self.name,
                "entries": [[d, j, v] for (d, j), v
                            in sorted(self.entries.items())]}


def monodromy_weight_table(powers: GradedPowers, n: int) -> GradedDimTable:
    """dim Gr^M_{n+l} per degree, for the weight filtration centred at n of
    the degree-0 operator M (the powers' op), from the ranks of its powers.

    On degree d, with r_e the rank of M^e from the ladder, M has
    r_{s-1} - 2 r_s + r_{s+1} Jordan blocks of size s, and each adds 1 to
    Gr_{n+l} for l = -(s-1), -(s-3), ..., s-1.
    """
    op = powers.op
    if op.offset:
        raise FiltrationError("the rank formula needs a degree-0 operator")
    _check_centre(powers, n)
    entries = {}
    for d, m in sorted(op.degrees.items()):
        if not m:
            continue
        top = powers.index(d) + 1  # the largest block size; M^top = 0
        r = [m] + [rank(powers.power(d, e)) for e in range(1, top)] + [0, 0]
        for size in range(1, top + 1):
            blocks = r[size - 1] - 2 * r[size] + r[size + 1]
            if blocks:
                for l in range(1 - size, size, 2):
                    entries[d, l] = entries.get((d, l), 0) + blocks
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
