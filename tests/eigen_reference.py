"""Joint eigenspaces by the rational route: test-only references for
hklab.linalg.simultaneous_eigenspaces, which reads diagonal operators off
their diagonals and refines other commuting operators on integer rows.

`restrict_operator` writes an operator on an invariant subspace in the
subspace's rational basis, `eigenspace` is one rational kernel, and
`reference_eigenspaces` checks commutation by forming both products, then
refines every piece operator by operator over every candidate value of a
level, whatever the input.
"""

from hklab.linalg import (
    QQ,
    EigenDefectError,
    LinalgError,
    Mat,
    Subspace,
    kernel_basis,
)


def eigenspace(op: Mat, lam) -> Subspace:
    if op.rows != op.cols:
        raise LinalgError("eigenspace of a non-square matrix")
    return kernel_basis(op - Mat.identity(op.rows).scale(lam))


def restrict_operator(op: Mat, sub: Subspace) -> Mat:
    """Matrix of op on an invariant subspace, in the basis sub.vectors()."""
    img = [op.times_vec(v) for v in sub.vectors()]
    if not all(sub.contains(w) for w in img):
        raise LinalgError("subspace is not invariant under the operator")
    # Basis vector t is 1 at pivot t and 0 at the other pivots, so the
    # coordinates of a vector in the span are its pivot entries.
    return Mat.from_cols([[w[c] for c in sub.pivots] for w in img])


def reference_eigenspaces(ops, values):
    n = ops[0].rows
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not (ops[i] * ops[j] - ops[j] * ops[i]).is_zero():
                raise LinalgError("operators do not commute")
    pieces = {(): Subspace.full(n)}
    for level, op in enumerate(ops):
        nxt = {}
        lams = sorted({t[level] for t in values})
        for prefix, sub in pieces.items():
            if sub.is_zero():
                continue
            rest = restrict_operator(op, sub)
            basis = Mat.from_cols(sub.vectors())
            for lam in lams:
                es = eigenspace(rest, lam)
                if es.is_zero():
                    continue
                vecs = [basis.times_vec(w) for w in es.vectors()]
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
