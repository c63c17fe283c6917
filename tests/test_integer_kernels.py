"""The integer-exact derivation check, the diagonal joint-eigenspace split
and the integer sl2 ladders against the rational routines they replaced.

The references below are the earlier bodies, kept verbatim in substance:
`_reference_derivation` multiplies with Fraction (or mpq) arithmetic per
entry, `_reference_eigenspaces` checks commutation and refines
eigenspaces operator by operator whatever the input, and
`_reference_sl2_complete` walks each ladder on dense rational vectors and
builds the augmented matrix from them.  The new
routes must agree with them exactly: equal reports, equal witness strings,
equal subspaces, equal blocks.
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
    invert,
    kernel_basis,
    restrict_operator,
    rref,
    simultaneous_eigenspaces,
)
from hklab.llv import (
    DerivationReport,
    GradedOperator,
    NotLefschetzError,
    anisotropic_basis,
    build_frame,
    frame_calculus,
    lefschetz,
    sl2_complete,
    verify_derivation,
)
from hklab.module_io import algebra_module, load_module
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


def _reference_apply(op, a):
    """op applied to a homogeneous element, on dense rational coordinates."""
    return AlgebraElement(a.degree + op.offset,
                          tuple(op.block(a.degree).times_vec(a.coords)))


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
        lhs = _reference_apply(op, _reference_multiply(alg, a, b))
        rhs = alg.zero(lhs.degree)
        oa = _reference_apply(op, a)
        ob = _reference_apply(op, b)
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


def _reference_sl2_complete(lop, n):
    """F of the sl2 triple (lop, F, h), on dense rational ladders."""
    degrees = lop.degrees
    chains = []
    for d in sorted(degrees):
        if degrees[d] == 0 or d - 2 * n > 0:
            continue
        lam = 2 * n - d
        for pvec in kernel_basis(_reference_power(lop, d, lam + 1)).vectors():
            steps = [pvec]
            for j in range(lam):
                steps.append(lop.block(d + 2 * j).times_vec(steps[-1]))
            chains.append((d, lam, steps))
    adapted = {d: [] for d in degrees if degrees[d]}
    images = {d: [] for d in degrees if degrees[d]}
    for d, lam, steps in chains:
        for j, v in enumerate(steps):
            e = d + 2 * j
            if e not in adapted:
                raise NotLefschetzError(
                    f"a ladder from degree {d} leaves the module's degrees "
                    f"at {e}")
            adapted[e].append(v)
            if j == 0:
                images[e].append([QQ(0)] * degrees.get(e - 2, 0))
            else:
                images[e].append([j * (lam - j + 1) * c for c in steps[j - 1]])
    blocks = {}
    for e, vecs in adapted.items():
        dim_e, dim_t = degrees[e], degrees.get(e - 2, 0)
        if len(vecs) != dim_e:
            raise NotLefschetzError(
                f"ladders span {len(vecs)} of {dim_e} dimensions in degree {e}")
        red, pivots, _ = rref(Mat(dim_e, dim_e + dim_t,
                                  [v + w for v, w in zip(vecs, images[e])]))
        if pivots[:dim_e] != list(range(dim_e)):
            raise NotLefschetzError(
                f"ladder vectors are dependent in degree {e}")
        if dim_t:
            blocks[e] = Mat.from_rows([r[dim_e:] for r in red.data]).transpose()
    return GradedOperator(degrees, -2, blocks)


def _reference_power(op, d, e):
    acc = Mat.identity(op.dim(d))
    for j in range(e):
        acc = op.block(d + op.offset * j) * acc
    return acc


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


def _as(form: str, values: list) -> list:
    """The value tuples with integral entries as ints ("int"), every entry
    as a QQ ("QQ"), or integral entries as ints at even positions only
    ("mixed"); non-integral entries stay QQ."""
    def one(i, x):
        whole = x.denominator == 1 and (form == "int"
                                        or (form == "mixed" and i % 2 == 0))
        return int(x) if whole else QQ(x)
    return [tuple(one(i, QQ(x)) for i, x in enumerate(t)) for t in values]


class _RecordingPieces(dict):
    """The pieces of simultaneous_eigenspaces, recording their keys and
    each lookup."""

    keys_and_lookups: list = []

    def __init__(self, pieces: dict):
        super().__init__(pieces)
        self.keys_and_lookups.extend(pieces)

    def get(self, key, default=None):
        self.keys_and_lookups.append(key)
        return super().get(key, default)


def _one_type_per_value(keys) -> bool:
    """Whether every value in the key tuples is an int, or a QQ that is
    not integral."""
    return all(type(x) is int or (type(x) is QQ and x.denominator != 1)
               for t in keys for x in t)


@pytest.mark.parametrize("form", ["int", "QQ", "mixed"])
def test_non_integral_eigenvalues_match_the_refinement(form, monkeypatch):
    """Integral values key as ints and the others as QQ on both sides of
    the lookup, so candidates given as ints, as QQs or mixed find the
    pieces of a diagonal with a non-integral value, and of its conjugate
    by a dense matrix (the refinement route), and no lookup hashes an int
    against a QQ."""
    from hklab import linalg
    for name in ("_diagonal_pieces", "_refined_pieces"):
        real = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *a, real=real:
                            _RecordingPieces(real(*a)))
    half = QQ(1, 2)
    diag = [Mat.diagonal([half, 1, half, 0]),
            Mat.diagonal([2, QQ(3, 2), 2, QQ(3, 2)])]
    cands = _as(form, [(half, 2), (1, QQ(3, 2)), (0, QQ(3, 2)), (half, 3),
                       (1, 2)])
    assert any(type(x) is int for t in cands for x in t) == (form != "QQ")
    p = Mat.from_rows([[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, 0],
                       [1, 0, 0, 1]])
    conj = [p * m * invert(p) for m in diag]
    for ops in (diag, conj):
        seen = _RecordingPieces.keys_and_lookups = []
        subs = simultaneous_eigenspaces(ops, cands)
        assert_same_subspaces(subs, _reference_eigenspaces(ops, cands))
        assert [s.dim for s in subs] == [2, 1, 1, 0, 0]
        assert len(seen) == 3 + len(cands)  # three pieces, one lookup each
        assert _one_type_per_value(seen)


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


# -- the sl2 completion ---------------------------------------------------------------

def assert_same_completion(lop, n):
    got, ref = sl2_complete(lop, n), _reference_sl2_complete(lop, n)
    assert got.offset == -2
    assert got.blocks == ref.blocks
    assert all((got.blocks[e].num, got.blocks[e].den)
               == (ref.blocks[e].num, ref.blocks[e].den) for e in ref.blocks)


def frame_classes(space, seed):
    """Anisotropic classes off the frame of that seed; a nonzero seed gives
    frame vectors with rational entries, so the blocks of L carry
    denominators the integer ladders must scale away."""
    f = build_frame(space, seed=seed)
    plus = [a + b for a, b in zip(f.s, f.sbar)]
    minus = [a - b for a, b in zip(f.beta, f.eta)]
    mixed = [a + QQ(1, 3) * b + c for a, b, c in zip(f.s, f.sbar, f.eta)]
    return [plus, minus, mixed]


@pytest.mark.parametrize("n,b2", [(1, 4), (2, 5), (3, 4), (4, 4)])
@pytest.mark.parametrize("seed", [0, 1])
def test_integer_ladders_match_the_rational_reference(n, b2, seed):
    alg = build_instance(InstanceConfig(n=n, b2=b2))
    module = algebra_module(alg)
    xs = frame_classes(alg.space, seed)
    xs += anisotropic_basis(alg.space, variant=seed)
    for x in xs:
        assert alg.space.quad(x) != 0
        assert_same_completion(lefschetz(alg, x), n)
        assert_same_completion(module.l_of(x), n)


def test_integer_ladders_match_on_the_spin_module(fixture_dir):
    spec = load_module(fixture_dir / "spin_module.json")
    for variant in (0, 1):
        for x in anisotropic_basis(spec.space, variant):
            assert_same_completion(spec.l_of(x), spec.n)


@pytest.mark.parametrize("degrees, blocks, n, message", [
    # L is injective out of the middle degree 2, so no primitive vector
    # starts a ladder there
    ({2: 1, 4: 1}, {2: [[1]]}, 1, "ladders span 0 of 1 dimensions in degree 2"),
    # L kills e1 in degree 2, so both the ladder from degree 0 and the
    # primitive e1 of degree 2 pass through e1
    ({0: 1, 2: 2, 4: 1}, {0: [[1], [0]], 2: [[0, 1]]}, 1,
     "ladder vectors are dependent in degree 2"),
    # L vanishes from degree 2 on: the primitive e1 and e2 of degree 2 join
    # the ladder from degree 0
    ({0: 1, 2: 2, 4: 1}, {0: [[1], [0]]}, 1,
     "ladders span 3 of 2 dimensions in degree 2"),
], ids=["short", "dependent", "long"])
def test_planted_operators_reach_each_raise(degrees, blocks, n, message):
    lop = GradedOperator(degrees, 2,
                         {d: Mat.from_rows(m) for d, m in blocks.items()})
    for complete in (sl2_complete, _reference_sl2_complete):
        with pytest.raises(NotLefschetzError, match=message):
            complete(lop, n)
