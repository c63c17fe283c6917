"""The integer-exact derivation check and the diagonal joint-eigenspace
split against the rational routines they replaced.

Both references below are the earlier bodies, kept verbatim in substance:
`_reference_derivation` multiplies with Fraction (or mpq) arithmetic per
entry, and `_reference_eigenspaces` checks commutation and refines
eigenspaces operator by operator whatever the input.  The new routes must
agree with them exactly: equal reports, equal witness strings, equal
subspaces.
"""

import random

import pytest

from hklab.linalg import (
    QQ,
    EigenDefectError,
    LinalgError,
    Mat,
    Subspace,
    commutator,
    eigenspace,
    restrict_operator,
    simultaneous_eigenspaces,
)
from hklab.llv import (
    DerivationReport,
    build_frame,
    frame_calculus,
    verify_derivation,
)
from hklab.module_io import algebra_module
from hklab.verbitsky import AlgebraElement
from hklab.verifier import DEFAULT_GRID, InstanceConfig, build_instance

SEEDS = (0, 1, 7)
_CALCULI = {}


def calculi(n, b2):
    """(alg, {seed: frame calculus at that frame seed}) for one instance."""
    if (n, b2) not in _CALCULI:
        alg = build_instance(InstanceConfig(n=n, b2=b2))
        module = algebra_module(alg)
        _CALCULI[(n, b2)] = (alg, {
            s: frame_calculus(module, build_frame(alg.space, seed=s))
            for s in SEEDS})
    return _CALCULI[(n, b2)]


# -- references ------------------------------------------------------------------

def _reference_multiply(alg, a, b):
    """Product by one rational multiply-add per structure constant."""
    ka, kb = a.degree // 2, b.degree // 2
    if ka > kb:
        a, b, ka, kb = b, a, kb, ka
    tensor = alg.tensors[(ka, kb)]
    out = [QQ(0)] * alg.level_dim(ka + kb)
    for i, ca in enumerate(a.coords):
        if not ca:
            continue
        for j, cb in enumerate(b.coords):
            if not cb:
                continue
            entry = tensor.get((i, j))
            if not entry:
                continue
            c = ca * cb
            for t, val in entry.items():
                out[t] += c * val
    return AlgebraElement(2 * (ka + kb), tuple(out))


def _reference_derivation(alg, op, trials=100, seed=0):
    rng = random.Random(seed)
    failures = []
    n = alg.n
    dims = alg.dims()
    count = 0
    while count < trials:
        ka = rng.randint(0, 2 * n)
        kb = rng.randint(0, 2 * n - ka)
        da, db = 2 * ka, 2 * kb
        if (da + db + op.offset) not in dims:
            continue
        a = alg.element(da, [rng.randint(-3, 3)
                             for _ in range(alg.level_dim(ka))])
        b = alg.element(db, [rng.randint(-3, 3)
                             for _ in range(alg.level_dim(kb))])
        count += 1
        lhs = op.apply_element(_reference_multiply(alg, a, b))
        rhs = alg.zero(lhs.degree)
        oa = op.apply_element(a)
        ob = op.apply_element(b)
        if oa.degree in dims:
            rhs = rhs + _reference_multiply(alg, oa, b)
        if ob.degree in dims:
            rhs = rhs + _reference_multiply(alg, a, ob)
        if lhs != rhs:
            failures.append({"a": a, "b": b, "lhs": lhs, "rhs": rhs})
            if len(failures) >= 3:
                break
    return DerivationReport(trials=count, passed=not failures,
                            failures=failures)


def _reference_eigenspaces(ops, values):
    n = ops[0].rows
    for i in range(len(ops)):
        for j in range(i + 1, len(ops)):
            if not commutator(ops[i], ops[j]).is_zero():
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


# -- helpers -----------------------------------------------------------------------

def assert_same_report(got, ref):
    assert (got.trials, got.passed) == (ref.trials, ref.passed)
    assert got.failures == ref.failures
    if ref.failures:
        assert str(got.failures[0]) == str(ref.failures[0])


def cartan_cases(fc, n):
    """Per populated degree: the three Cartan blocks and the bigrading's
    candidate tuples (as llv.bigrading_from_operators forms them)."""
    for d, m in sorted(fc.h.degrees.items()):
        if not m:
            continue
        cands = [(p - n, d - p - n, d - i - n)
                 for p in range(d + 1) for i in range(d + 1)]
        yield d, [fc.H_s.block(d), fc.H_sbar.block(d), fc.H_beta.block(d)], \
            cands


def is_diagonal(m):
    return all(not r or [j for j, _ in r] == [i]
               for i, r in enumerate(m.num))


def assert_same_subspaces(got, ref):
    assert got == ref
    assert [(s.rows, s.pivots) for s in got] == \
        [(s.rows, s.pivots) for s in ref]
    assert [s.vectors() for s in got] == [s.vectors() for s in ref]


# -- the derivation check -----------------------------------------------------------

@pytest.mark.parametrize("n,b2", DEFAULT_GRID)
def test_integer_derivation_matches_the_rational_reference(n, b2):
    alg, fcs = calculi(n, b2)
    for seed, fc in fcs.items():
        for name in ("M", "H_s", "L_beta", "h"):
            op = getattr(fc, name)
            got = verify_derivation(alg, op, seed=seed)
            assert_same_report(got, _reference_derivation(alg, op, seed=seed))
            # M is a derivation; the Cartan, Lefschetz and counting
            # operators are not, so their witnesses are compared too
            assert got.passed == (name == "M"), (seed, name)


def test_multiply_matches_the_rational_reference():
    alg, _ = calculi(2, 5)
    rng = random.Random(3)
    for ka in range(0, 5):
        for kb in range(0, 5 - ka):
            a = alg.element(2 * ka, [QQ(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(alg.level_dim(ka))])
            b = alg.element(2 * kb, [QQ(rng.randint(-4, 4), rng.randint(1, 3))
                                     for _ in range(alg.level_dim(kb))])
            assert alg.multiply(a, b) == _reference_multiply(alg, a, b)


# -- the joint eigenspaces ----------------------------------------------------------

@pytest.mark.parametrize("n,b2", DEFAULT_GRID)
def test_diagonal_split_matches_the_refinement(n, b2):
    """At frame seed 0 every Cartan block is diagonal, and the coordinate
    split gives the refinement's subspaces."""
    alg, fcs = calculi(n, b2)
    for d, ops, cands in cartan_cases(fcs[0], n):
        assert all(is_diagonal(op) for op in ops), d
        assert_same_subspaces(simultaneous_eigenspaces(ops, cands),
                              _reference_eigenspaces(ops, cands))


def test_dense_cartan_blocks_keep_the_refinement():
    """At frame seed 1 the Cartan blocks are dense; the generic route,
    which stops trying eigenvalues once a piece is filled, still gives the
    reference subspaces."""
    alg, fcs = calculi(2, 5)
    dense = 0
    for d, ops, cands in cartan_cases(fcs[1], 2):
        dense += not all(is_diagonal(op) for op in ops)
        assert_same_subspaces(simultaneous_eigenspaces(ops, cands),
                              _reference_eigenspaces(ops, cands))
    assert dense


def test_random_diagonal_matrices_match_the_refinement():
    rng = random.Random(5)
    for _ in range(60):
        size = rng.randint(0, 6)
        nops = rng.randint(1, 3)
        ops = [Mat.diagonal([rng.randint(-2, 2) for _ in range(size)])
               for _ in range(nops)]
        full = [()]
        for _ in range(nops):
            full = [t + (v,) for t in full for v in range(-2, 3)]
        grid = rng.sample(full, rng.randint(1, len(full)))
        try:
            ref = _reference_eigenspaces(ops, grid)
        except EigenDefectError as exc:
            with pytest.raises(EigenDefectError) as got:
                simultaneous_eigenspaces(ops, grid)
            assert str(got.value) == str(exc)
            continue
        assert_same_subspaces(simultaneous_eigenspaces(ops, grid), ref)


def test_diagonal_tuple_outside_the_grid_raises():
    ops = [Mat.diagonal([1, 1, 0]), Mat.diagonal([2, 3, 2])]
    with pytest.raises(EigenDefectError,
                       match="joint eigenspaces span 2 of 3 dimensions"):
        simultaneous_eigenspaces(ops, [(1, 2), (0, 2), (1, 2 + 5)])
    subs = simultaneous_eigenspaces(ops, [(1, 2), (0, 2), (1, 3)])
    assert [s.dim for s in subs] == [1, 1, 1]
    assert subs[2] == Subspace.from_vectors(3, [[0, 1, 0]])


# -- frontier parity ------------------------------------------------------------------

@pytest.mark.slow
@pytest.mark.parametrize("n,b2", [(3, 8), (2, 23)])
def test_frontier_parity(n, b2):
    alg = build_instance(InstanceConfig(n=n, b2=b2))
    fc = frame_calculus(algebra_module(alg), build_frame(alg.space, seed=0))
    assert_same_report(verify_derivation(alg, fc.M, seed=0),
                       _reference_derivation(alg, fc.M, seed=0))
    for d, ops, cands in cartan_cases(fc, n):
        assert all(is_diagonal(op) for op in ops), d
        assert_same_subspaces(simultaneous_eigenspaces(ops, cands),
                              _reference_eigenspaces(ops, cands))
