import random
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.linalg import (
    QQ,
    EigenDefectError,
    IncrementalRref,
    LinalgError,
    Mat,
    NotNilpotentError,
    Subspace,
    eigenspace,
    image_basis,
    invert,
    kernel_basis,
    rank,
    restrict_operator,
    rref,
    simultaneous_eigenspaces,
    solve,
    solve_matrix,
    subspace_intersection,
)

from hklab.filtrations import graded_nilpotence_index
from hklab.llv import GradedOperator, GradedPowers, combine, commutator_op
from hklab.quadforms import QuadraticSpace

small_entries = st.integers(min_value=-4, max_value=4)


def small_matrix(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda r: st.integers(1, max_dim).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c),
                min_size=r, max_size=r)))


def test_rref_identity():
    m = Mat.identity(3)
    red, piv, rk = rref(m)
    assert red == m and piv == [0, 1, 2] and rk == 3


def test_rref_zero():
    red, piv, rk = rref(Mat.zeros(2, 3))
    assert red == Mat.zeros(2, 3) and piv == [] and rk == 0


def test_rref_rank_one():
    red, piv, rk = rref(Mat.from_rows([[1, 2], [2, 4]]))
    assert rk == 1 and piv == [0]
    assert red == Mat.from_rows([[1, 2], [0, 0]])


@settings(max_examples=50, deadline=None)
@given(small_matrix())
def test_rref_idempotent(rows):
    m = Mat.from_rows(rows)
    red, piv, rk = rref(m)
    red2, piv2, rk2 = rref(red)
    assert red2 == red and piv2 == piv and rk2 == rk


@settings(max_examples=50, deadline=None)
@given(small_matrix())
def test_rank_nullity(rows):
    m = Mat.from_rows(rows)
    assert rank(m) + kernel_basis(m).dim == m.cols


def test_kernel_examples():
    assert kernel_basis(Mat.identity(4)).dim == 0
    assert kernel_basis(Mat.zeros(3, 3)).dim == 3
    ker = kernel_basis(Mat.from_rows([[1, 2], [2, 4]]))
    assert ker.dim == 1 and ker.contains([-2, 1])


def test_image_examples():
    assert image_basis(Mat.identity(3)).dim == 3
    assert image_basis(Mat.zeros(2, 2)).dim == 0
    img = image_basis(Mat.from_rows([[1, 2], [2, 4]]))
    assert img.dim == 1 and img.contains([1, 2])


def test_solve_examples():
    assert solve(Mat.identity(2), [3, 4]) == [QQ(3), QQ(4)]
    assert solve(Mat.zeros(2, 2), [1, 0]) is None
    assert solve(Mat.from_rows([[2]]), [3]) == [QQ(3, 2)]
    with pytest.raises(LinalgError):
        solve(Mat.identity(2), [1, 2, 3])


def test_invert_round_trip():
    m = Mat.from_rows([[1, 2], [3, 5]])
    assert m * invert(m) == Mat.identity(2)
    with pytest.raises(LinalgError):
        invert(Mat.from_rows([[1, 2], [2, 4]]))


def test_det():
    assert Mat.from_rows([[1, 2], [3, 5]]).det() == -1
    assert Mat.from_rows([[1, 2], [2, 4]]).det() == 0
    assert Mat.identity(4).det() == 1


def test_subspace_trivial_laws():
    a = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert Subspace.from_rows(3, a.rows + a.rows) == a
    assert subspace_intersection(a, a) == a


def test_subspace_complementary_lines():
    a = Subspace.from_vectors(2, [[1, 0]])
    b = Subspace.from_vectors(2, [[0, 1]])
    assert Subspace.from_rows(2, a.rows + b.rows) == Subspace.full(2)
    assert subspace_intersection(a, b).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=0, max_size=3),
       st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=0, max_size=3))
def test_sum_intersection_dimension_identity(vs, ws):
    a = Subspace.from_vectors(4, vs)
    b = Subspace.from_vectors(4, ws)
    inter = subspace_intersection(a, b)
    assert Subspace.from_rows(4, a.rows + b.rows).dim + inter.dim == \
        a.dim + b.dim
    assert a.contains_subspace(inter) and b.contains_subspace(inter)


@st.composite
def subspace_pair(draw, n=5):
    """(a, b) in QQ^n: a spanned by random rows, b by random rows or by
    random combinations of a's spanning rows, so b <= a in many draws."""
    rows = st.lists(st.lists(small_entries, min_size=n, max_size=n),
                    min_size=0, max_size=4)
    va = draw(rows)
    if va and draw(st.booleans()):
        coeffs = draw(st.lists(st.lists(small_entries, min_size=len(va),
                                        max_size=len(va)), max_size=4))
        vb = [[sum(c * v[j] for c, v in zip(cs, va)) for j in range(n)]
              for cs in coeffs]
    else:
        vb = draw(rows)
    return Subspace.from_rows(n, va), Subspace.from_rows(n, vb)


@settings(max_examples=200, deadline=None)
@given(subspace_pair())
def test_contains_subspace_matches_row_membership(pair):
    """The pivot test and one combination per row decide containment
    exactly as reducing every row against the subspace does."""
    for a, b in (pair, pair[::-1], (pair[0], pair[0])):
        assert a.contains_subspace(b) is all(a._holds(r) for r in b.rows)


def test_contains_subspace_edge_cases():
    a = Subspace.from_rows(3, [[1, 0, 1], [0, 1, 1]])
    # b's pivot 2 is no pivot of a
    b = Subspace.from_rows(3, [[0, 0, 1]])
    assert not a.contains_subspace(b)
    assert a.contains_subspace(a) and a.contains_subspace(Subspace.zero(3))
    # pivots inside a's, one term per row: only a's own rows lie in a
    assert a.contains_subspace(Subspace.from_rows(3, [[0, 2, 2]]))
    assert not a.contains_subspace(Subspace.from_rows(3, [[0, 1, 2]]))
    # two terms, a row of the span and one off it
    assert a.contains_subspace(Subspace.from_rows(3, [[1, 1, 2]]))
    assert not a.contains_subspace(Subspace.from_rows(3, [[1, 1, 3]]))


@settings(max_examples=200, deadline=None)
@given(subspace_pair(), st.lists(st.lists(small_entries, min_size=5,
                                          max_size=5), max_size=3))
def test_plus_matches_the_joint_elimination(pair, rows):
    """Adding rows, some inside the subspace and some not, to a canonical
    subspace gives the canonical form of the joint span, and adding only
    rows inside it gives the subspace itself."""
    a, b = pair
    extra = [list(r) for r in b.rows] + rows
    assert a.plus(extra) == Subspace.from_rows(5, list(a.rows) + extra)
    assert a.plus(list(r) for r in a.rows) is a


def test_subspace_contains_matches_solve():
    a = Subspace.from_vectors(3, [[1, 2, 0], [0, 1, 1]])
    assert a.contains([1, 3, 1])
    assert not a.contains([0, 0, 1])
    assert Subspace.zero(3).contains([0, 0, 0])
    assert not Subspace.zero(3).contains([1, 0, 0])


def test_incremental_rref_matches_batch():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    state = IncrementalRref(3)
    accepted = [r for r in rows if state.insert(r)]
    _, pivots = ref_rref([[QQ(x) for x in r] for r in rows], 3)
    assert len(accepted) == len(pivots) == state.rank
    assert sorted(state.pivots) == pivots
    assert state.contains([3, 7, 10])
    assert not state.contains([0, 0, 1])


def test_simultaneous_eigenspaces_identity():
    subs = simultaneous_eigenspaces([Mat.identity(3)], [(1,)])
    assert subs[0] == Subspace.full(3)


def test_simultaneous_eigenspaces_two_ops():
    ops = [Mat.diagonal([1, 2]), Mat.diagonal([3, 3])]
    subs = simultaneous_eigenspaces(ops, [(1, 3), (2, 3)])
    assert [s.dim for s in subs] == [1, 1]
    assert subs[0].contains([1, 0]) and subs[1].contains([0, 1])


def test_simultaneous_eigenspaces_non_commuting():
    a = Mat.from_rows([[0, 1], [0, 0]])
    b = Mat.diagonal([1, 2])
    with pytest.raises(LinalgError):
        simultaneous_eigenspaces([a, b], [(0, 1)])


def test_simultaneous_eigenspaces_defect():
    jordan = Mat.from_rows([[1, 1], [0, 1]])
    with pytest.raises(EigenDefectError):
        simultaneous_eigenspaces([jordan], [(1,)])


def test_restrict_operator_matches_the_solve_route():
    """Coordinates read off the pivot entries equal the solution of
    basis * X = op * basis, the route the restriction used to take."""
    rng = random.Random(11)
    for _ in range(30):
        n, k = rng.randint(1, 5), rng.randint(0, 3)
        k = min(k, n)
        p = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)])
        if p.det() == 0:
            continue
        # op = p * blockdiag(a, b) * p^-1 keeps the first k columns' span
        a = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
        b = [[rng.randint(-2, 2) for _ in range(n - k)] for _ in range(n - k)]
        block = Mat.from_rows([ra + [0] * (n - k) for ra in a]
                              + [[0] * k + rb for rb in b])
        op = p * block * invert(p)
        sub = Subspace.from_vectors(n, p.columns()[:k])
        basis = Mat.from_cols(sub.vectors()) if k else Mat.zeros(n, 0)
        img = op * basis
        assert restrict_operator(op, sub) == solve_matrix(basis, img)
    op = Mat.from_rows([[2, 1, 0], [0, 2, 0], [0, 0, 5]])
    with pytest.raises(LinalgError, match="not invariant"):
        restrict_operator(op, Subspace.from_vectors(3, [[0, 1, 0]]))


def test_eigenspace():
    e = eigenspace(Mat.diagonal([2, 2, 5]), 2)
    assert e.dim == 2


def test_nilpotence_index():
    def index(m):
        return graded_nilpotence_index(
            GradedPowers(GradedOperator({0: m.rows}, 0, {0: m})))
    assert index(Mat.zeros(3, 3)) == 0
    j3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert index(j3) == 2
    with pytest.raises(NotNilpotentError):
        index(Mat.identity(2))


def test_matrix_arithmetic_shapes():
    with pytest.raises(LinalgError):
        Mat.identity(2) * Mat.identity(3)
    with pytest.raises(LinalgError):
        Mat.identity(2) + Mat.zeros(2, 3)


def test_from_vectors_accepts_ints_qq_and_strings():
    ref = Subspace.from_vectors(3, [[QQ(1, 2), QQ(1), QQ(0)],
                                    [QQ(2), QQ(4), QQ(-3, 4)]])
    assert Subspace.from_vectors(3, [["1/2", 1, 0], [2, "4", "-3/4"]]) == ref
    assert Subspace.from_vectors(3, [(1, 2, 0), (8, 16, -3)]) == ref
    assert all(type(e) is QQ for v in ref.vectors() for e in v)
    assert (ref.rows, ref.pivots) == (((1, 2, 0), (0, 0, 1)), (0, 2))
    assert ref.contains(["5/2", 5, 1]) and not ref.contains([0, 1, 0])


def test_zero_span_has_the_ambient_shape():
    sub = Subspace.from_vectors(3, [[0, 0, 0]])
    assert sub == Subspace.zero(3)
    assert (sub.ambient_dim, sub.rows, sub.pivots, sub.dim) == (3, (), (), 0)
    assert sub.vectors() == []


# -- sparse kernels against the dense loops they replaced ----------------------
#
# Each reference below is the dense loop Mat (or llv.combine) ran before the
# nonzero index; the sparse kernels must agree with it entry by entry, and
# with sympy when it is installed.

try:
    import sympy
except ImportError:  # sympy is an optional, test-only oracle
    sympy = None

_Z = QQ(0)


def dense(m: Mat) -> list:
    return [list(r) for r in m.data]


def dense_mul(a: list, b: list, ncols: int) -> list:
    bt = [[row[j] for row in b] for j in range(ncols)]
    out = []
    for arow in a:
        nz = [(j, x) for j, x in enumerate(arow) if x]
        orow = []
        for bcol in bt:
            s = _Z
            for j, x in nz:
                y = bcol[j]
                if y:
                    s += x * y
            orow.append(s)
        out.append(orow)
    return out


def dense_times_vec(a: list, v: list) -> list:
    out = []
    for r in a:
        s = _Z
        for x, y in zip(r, v):
            if x and y:
                s += x * y
        out.append(s)
    return out


def dense_add(a: list, b: list) -> list:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_sub(a: list, b: list) -> list:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def dense_scale(c, a: list) -> list:
    return [[c * x for x in r] for r in a]


def dense_eq(a: list, b: list) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def dense_is_zero(a: list) -> bool:
    return all(x == 0 for r in a for x in r)


def dense_power(a: list, k: int) -> list:
    n = len(a)
    acc = [[QQ(1) if i == j else _Z for j in range(n)] for i in range(n)]
    for _ in range(k):
        acc = dense_mul(acc, a, n)
    return acc


def dense_combine(coeffs: list, mats: list):
    acc = None
    for c, m in zip(coeffs, mats):
        if not c:
            continue
        if acc is None:
            acc = [[c * e if e else _Z for e in r] for r in m]
            continue
        for arow, r in zip(acc, m):
            for j, e in enumerate(r):
                if e:
                    arow[j] += c * e
    return acc


def check_sympy(got: Mat, ref) -> None:
    """got equals the sympy matrix ref."""
    assert ref.shape == got.shape
    assert all(sympy.Rational(int(x.numerator), int(x.denominator))
               == ref[i, j] for i, r in enumerate(got.data)
               for j, x in enumerate(r))


def to_sympy(rows: list, ncols: int):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(int(x.numerator), int(x.denominator))
                         for r in rows for x in r])


scalars = st.fractions(min_value=-5, max_value=5, max_denominator=4).map(QQ)
shape_dims = st.integers(0, 12)


@st.composite
def sparse_rows(draw, rows: int, cols: int) -> list:
    """rows x cols entries with nonzero density 0, about 0.05 or 1."""
    density = draw(st.sampled_from([0, 0.05, 1]))
    rng = draw(st.randoms(use_true_random=False))
    return [[QQ(rng.randint(-5, 5), rng.randint(1, 4))
             if rng.random() < density else _Z for _ in range(cols)]
            for _ in range(rows)]


def assert_matches(got: Mat, ref: list, rows: int, cols: int) -> None:
    assert got.shape == (rows, cols)
    assert dense(got) == ref
    assert all(type(x) is QQ for r in got.data for x in r)
    # The stored form: numerators over the lcm of the entries' denominators.
    den = lcm(*[int(x.denominator) for r in ref for x in r])
    assert got.den == den
    assert got.num == tuple(tuple((j, int(x * den)) for j, x in enumerate(r)
                                  if x) for r in ref)
    assert all(type(x) is int for r in got.num for _, x in r)


@settings(max_examples=120, deadline=None)
@given(st.tuples(shape_dims, shape_dims, shape_dims).flatmap(
    lambda s: st.tuples(st.just(s), sparse_rows(s[0], s[1]),
                        sparse_rows(s[0], s[1]), sparse_rows(s[1], s[2]),
                        sparse_rows(1, s[1]), scalars)))
def test_sparse_kernels_match_dense_loops(case):
    (r, k, c), a, a2, b, (v,), x = case
    ma, ma2, mb = Mat(r, k, a), Mat(r, k, a2), Mat(k, c, b)
    assert_matches(ma * mb, dense_mul(a, b, c), r, c)
    assert ma.times_vec(v) == dense_times_vec(a, v)
    assert all(type(e) is QQ for e in ma.times_vec(v))
    assert_matches(ma + ma2, dense_add(a, a2), r, k)
    assert_matches(ma - ma2, dense_sub(a, a2), r, k)
    assert_matches(ma.scale(x), dense_scale(x, a), r, k)
    assert_matches(-ma, dense_scale(QQ(-1), a), r, k)
    assert_matches(ma.transpose(), [list(col) for col in zip(*a)] if r
                   else [[] for _ in range(k)], k, r)
    assert (ma == ma2) == dense_eq(a, a2)
    assert ma == Mat(r, k, dense(ma)) and ma == ma.transpose().transpose()
    assert ma.is_zero() == dense_is_zero(a)
    if sympy is not None:
        sa, sa2, sb = to_sympy(a, k), to_sympy(a2, k), to_sympy(b, c)
        check_sympy(ma * mb, sa * sb)
        check_sympy(ma + ma2, sa + sa2)
        check_sympy(ma - ma2, sa - sa2)
        check_sympy(ma.scale(x), sa * to_sympy([[x]], 1)[0, 0])
        assert ma.times_vec(v) == [
            QQ(int(e.p), int(e.q)) for e in sa * to_sympy([[e] for e in v], 1)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8).flatmap(
    lambda n: st.tuples(st.just(n), sparse_rows(n, n), st.integers(0, 4))))
def test_sparse_power_matches_dense_loop(case):
    n, a, k = case
    got = Mat(n, n, a).power(k)
    assert_matches(got, dense_power(a, k), n, n)
    if sympy is not None and n:
        check_sympy(got, to_sympy(a, n) ** k)


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 10), st.integers(1, 10),
                 st.integers(1, 4)).flatmap(
    lambda s: st.tuples(st.just(s),
                        st.lists(sparse_rows(s[0], s[1]), min_size=s[2],
                                 max_size=s[2]),
                        st.lists(st.one_of(st.just(QQ(0)), scalars),
                                 min_size=s[2], max_size=s[2]))))
def test_sparse_combine_matches_dense_loop(case):
    (r, c, _), mats, coeffs = case
    # One operator from degree 0 to degree 2, so blocks are r x c.
    ops = [GradedOperator({0: c, 2: r}, 2, {0: Mat(r, c, m)}) for m in mats]
    got = combine(coeffs, ops)
    ref = dense_combine(coeffs, mats)
    if ref is None:
        assert got.blocks == {} and got.is_zero()
    else:
        assert_matches(got.blocks[0], ref, r, c)
        if sympy is not None:
            check_sympy(got.blocks[0], sum(
                (to_sympy(m, c) * to_sympy([[x]], 1)[0, 0]
                 for x, m in zip(coeffs, mats)), sympy.zeros(r, c)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(shape_dims, shape_dims, shape_dims).flatmap(
    lambda s: st.tuples(st.just(s), sparse_rows(s[0], s[1]),
                        sparse_rows(s[1], s[2]), sparse_rows(s[0], s[1]))))
def test_cancellations_give_the_exact_zero(case):
    (r, k, c), x, y, w = case
    # [x | -x] times [y ; y] is x y - x y: every partial sum may be nonzero.
    left = Mat(r, 2 * k, [row + [-e for e in row] for row in x])
    right = Mat(2 * k, c, y + y)
    mx, mw = Mat(r, k, x), Mat(r, k, w)
    zero_rc, zero_rk = Mat.zeros(r, c), Mat.zeros(r, k)
    for got, zero in ((left * right, zero_rc), (mx - mx, zero_rk),
                      ((mx + mw) - mw - mx, zero_rk),
                      (mx.scale(2) - mx - mx, zero_rk),
                      (mx * Mat.zeros(k, c), zero_rc)):
        assert got == zero and zero == got
        assert got.is_zero()
        assert hash(got) == hash(zero)
        assert dense(got) == dense(zero)


def test_shapes_with_a_zero_dimension():
    for r, c in ((0, 3), (3, 0), (0, 0)):
        z = Mat.zeros(r, c)
        assert z.shape == (r, c) and z.is_zero()
        assert z == Mat(r, c, [[_Z] * c for _ in range(r)])
        assert z.transpose().shape == (c, r)
        assert z.times_vec([_Z] * c) == [_Z] * r
    # 3x0 times 0x4 is the 3x4 zero; 0x3 times 3x2 is 0x2.
    assert Mat.zeros(3, 0) * Mat.zeros(0, 4) == Mat.zeros(3, 4)
    assert Mat.zeros(0, 3) * Mat.identity(3) == Mat.zeros(0, 3)
    assert (Mat.zeros(0, 3) * Mat.zeros(3, 2)).shape == (0, 2)


# -- the one stored form: dense views against a dense reference ------------

@settings(max_examples=120, deadline=None)
@given(st.tuples(shape_dims, shape_dims).flatmap(
    lambda s: st.tuples(st.just(s), sparse_rows(s[0], s[1]),
                        sparse_rows(s[0], s[1]),
                        st.lists(st.booleans(), min_size=s[0],
                                 max_size=s[0]))))
def test_dense_views_match_a_dense_reference(case):
    (r, c), a, b, shared = case
    # Rows flagged `shared` cancel to zero in a - b.
    b = [ra if same else rb for ra, rb, same in zip(a, b, shared)]
    ref = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    for m in (Mat(r, c, a) - Mat(r, c, b), Mat(r, c, ref)):
        assert m.data == tuple(map(tuple, ref))
        assert [m.row(i) for i in range(r)] == ref
        assert [m.col(j) for j in range(c)] == [[row[j] for row in ref]
                                                for j in range(c)]
        assert m.columns() == [[row[j] for row in ref] for j in range(c)]
        assert all(m[i, j] == ref[i][j] and type(m[i, j]) is QQ
                   for i in range(r) for j in range(c))
        assert all(type(x) is QQ for row in m.data for x in row)
        assert repr(m) == f"Mat({r}x{c}: " + "; ".join(
            " ".join(str(x) for x in row) for row in ref) + ")"
        if r == c:
            assert m.trace() == sum((ref[i][i] for i in range(r)), _Z)
        else:
            with pytest.raises(LinalgError):
                m.trace()


def reference_subspace(ambient: int, rows: list) -> tuple:
    """(basis columns, pivot rows) of the span of rows, read off rref."""
    if not rows:
        return [], []
    red, pivots, rk = rref(Mat(len(rows), ambient, rows))
    return [red.row(i) for i in range(rk)], pivots


def check_subspace(sub: Subspace, ambient: int, rows: list) -> None:
    """sub is the span of rows: its vectors and pivots are the rref's, and
    each stored row is its vector's primitive integer multiple with a
    positive pivot entry."""
    vectors, pivots = reference_subspace(ambient, rows)
    assert sub.vectors() == vectors
    assert all(type(e) is QQ for v in sub.vectors() for e in v)
    assert sub.pivots == tuple(pivots)
    assert sub.ambient_dim == ambient and sub.dim == len(vectors)
    for row, c, v in zip(sub.rows, sub.pivots, vectors):
        assert type(row) is tuple and len(row) == ambient
        assert all(type(x) is int for x in row)
        assert row[c] > 0 and gcd(*row) == 1
        assert [QQ(x, row[c]) for x in row] == v


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 8), shape_dims).flatmap(
    lambda s: st.tuples(st.just(s), sparse_rows(s[0], s[1]))))
def test_subspaces_match_their_rref_reference(case):
    (r, c), rows = case
    check_subspace(Subspace.from_vectors(c, rows), c, rows)
    # The kernel is spanned by e_f - sum_i red[i][f] e_(pivots[i]) over
    # the free columns f.
    red, pivots, _ = rref(Mat(r, c, rows))
    spanning = []
    for f in sorted(set(range(c)) - set(pivots)):
        v = [_Z] * c
        v[f] = QQ(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i, f]
        spanning.append(v)
    check_subspace(kernel_basis(Mat(r, c, rows)), c, spanning)
    full = Subspace.full(c)
    check_subspace(full, c, [[QQ(int(i == j)) for j in range(c)]
                             for i in range(c)])
    assert full == Subspace.from_vectors(c, Mat.identity(c).columns())


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 8)).flatmap(
    lambda s: st.tuples(st.just(s[1]), sparse_rows(s[0], s[1]),
                        st.randoms(use_true_random=False))))
def test_a_span_has_one_stored_form(case):
    """Rescaling, negating, permuting and padding a spanning set with
    dependent rows leaves rows, pivots and hash unchanged."""
    c, rows, rng = case
    sub = Subspace.from_vectors(c, rows)
    check_subspace(sub, c, rows)
    scales = [QQ(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for _ in rows]
    other = [[k * x for x in r] for k, r in zip(scales, rows)]
    for _ in range(rng.randint(0, 3)):
        coeffs = [QQ(rng.randint(-2, 2), rng.randint(1, 3)) for _ in rows]
        other.append([sum((k * r[j] for k, r in zip(coeffs, rows)), _Z)
                      for j in range(c)])
    rng.shuffle(other)
    again = Subspace.from_vectors(c, other)
    assert (again.rows, again.pivots) == (sub.rows, sub.pivots)
    assert again == sub and hash(again) == hash(sub)


def test_an_uncombined_pivot_row_is_made_primitive():
    """Elimination leaves a row it never combines as given; the stored row
    is its primitive multiple with a positive pivot all the same."""
    for row in ([2, 4, 0], [-2, -4, 0], ["1/3", "2/3", 0]):
        sub = Subspace.from_vectors(3, [row])
        assert (sub.rows, sub.pivots) == (((1, 2, 0),), (0,))
        assert sub.vectors() == [[QQ(1), QQ(2), _Z]]
    sub = Subspace.from_vectors(3, [[0, 0, -6], [2, 4, 0]])
    assert (sub.rows, sub.pivots) == (((1, 2, 0), (0, 0, 1)), (0, 2))
    assert sub == Subspace.from_vectors(3, [[1, 2, 0], [0, 0, 1]])


# -- immutability ------------------------------------------------------------

def test_mat_is_immutable():
    m = Mat.from_rows([[1, 0], [0, 2]])
    with pytest.raises(TypeError):
        m.data[0][1] = QQ(5)
    with pytest.raises(AttributeError):
        m.data = ((QQ(1),),)
    with pytest.raises(AttributeError):
        m.rows = 3
    with pytest.raises(AttributeError):
        del m.cols
    # The constructor copies its input: later writes to it do not leak in.
    rows = [[QQ(1), QQ(0)], [QQ(0), QQ(2)]]
    built = Mat(2, 2, rows)
    rows[0][1] = QQ(7)
    assert built == m and built[0, 1] == 0


def test_equal_matrices_from_different_routes_hash_alike():
    x = Mat.from_rows([[1, 2], [3, 4]])
    cancelled = (Mat.from_rows([[1, -1], [2, -2]])
                 * Mat.from_rows([[1, 2], [1, 2]]))
    assert cancelled == Mat.zeros(2, 2)
    assert hash(cancelled) == hash(Mat.zeros(2, 2))
    diag = Mat.diagonal([1, QQ(1, 2), 0])
    hand = Mat.from_rows([[1, 0, 0], [0, "1/2", 0], [0, 0, 0]])
    assert diag == hand and hash(diag) == hash(hand)
    assert x - x == Mat.zeros(2, 2) and hash(x - x) == hash(Mat.zeros(2, 2))
    assert Mat.identity(2) == Mat.diagonal([1, 1])
    assert hash(Mat.identity(2)) == hash(Mat.diagonal([1, 1]))
    assert len({diag, hand, Mat.zeros(2, 2), cancelled}) == 2


# -- the integer stored form against a dense Fraction reference ---------------

def ref_rref(a: list, ncols: int) -> tuple:
    """(reduced rows, pivots): Gauss-Jordan in Fractions, first nonzero
    entry as pivot."""
    a = [list(r) for r in a]
    pivots = []
    for c in range(ncols):
        p = next((i for i in range(len(pivots), len(a)) if a[i][c]), None)
        if p is None:
            continue
        top = len(pivots)
        a[top], a[p] = a[p], a[top]
        a[top] = [x / a[top][c] for x in a[top]]
        for i in range(len(a)):
            if i != top and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[top])]
        pivots.append(c)
    return a, pivots


def ref_det(a: list):
    """Determinant by elimination in Fractions."""
    a = [list(r) for r in a]
    det = QQ(1)
    for c in range(len(a)):
        p = next((i for i in range(c, len(a)) if a[i][c]), None)
        if p is None:
            return _Z
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def ref_kernel(a: list, ncols: int) -> list:
    """e_f - sum_i red[i][f] e_(pivots[i]) over the free columns f."""
    red, pivots = ref_rref(a, ncols)
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [_Z] * ncols
        v[f] = QQ(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        out.append(v)
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(st.just(n), sparse_rows(n, n), sparse_rows(n, n),
                        sparse_rows(1, n), scalars)))
def test_integer_form_matches_a_dense_fraction_reference(case):
    n, a, b, (v,), x = case
    ma, mb = Mat(n, n, a), Mat(n, n, b)
    # The arithmetic, with num and den checked by assert_matches.
    assert_matches(ma * mb, dense_mul(a, b, n), n, n)
    assert_matches(ma + mb, dense_add(a, b), n, n)
    assert_matches(ma - mb, dense_sub(a, b), n, n)
    assert_matches(ma.scale(x), dense_scale(x, a), n, n)
    assert_matches(ma.transpose(), [list(c) for c in zip(*a)], n, n)
    assert_matches(ma * mb - mb * ma,
                   dense_sub(dense_mul(a, b, n), dense_mul(b, a, n)), n, n)
    assert ma.times_vec(v) == dense_times_vec(a, v)
    # times_row on the integer row d * v is den * d times the image.
    d = lcm(*[int(e.denominator) for e in v])
    got = ma.times_row([int(e * d) for e in v])
    assert got == [ma.den * d * e for e in dense_times_vec(a, v)]
    assert all(type(e) is int for e in got)
    # v^T A w, and the bilinear form of a symmetric Gram, against the
    # double sum.
    w = b[0] if n else []
    assert ma.form(v, w) == sum((v[i] * a[i][j] * w[j] for i in range(n)
                                 for j in range(n)), _Z)
    g = [[a[i][j] + a[j][i] + (n + 1) * (i == j) for j in range(n)]
         for i in range(n)]
    if ref_det(g):
        pairing = QuadraticSpace(Mat(n, n, g)).bilinear(v, w)
        assert pairing == sum((v[i] * g[i][j] * w[j] for i in range(n)
                               for j in range(n)), _Z)
        assert type(pairing) is QQ
    # Eliminations read the numerators; the results are the reference's.
    det = ma.det()
    assert det == ref_det(a) and type(det) is QQ
    red, pivots = ref_rref(a, n)
    got, got_pivots, rk = rref(ma)
    assert (got_pivots, rk) == (pivots, len(pivots))
    assert_matches(got, red, n, n)
    assert kernel_basis(ma) == Subspace.from_vectors(n, ref_kernel(a, n))
    if det:
        inv = invert(ma)
        aug, _ = ref_rref([row + [QQ(int(i == j)) for j in range(n)]
                           for i, row in enumerate(a)], 2 * n)
        assert_matches(inv, [row[n:] for row in aug], n, n)
        # Mixed denominators that cancel leave an integer matrix.
        assert (ma * inv).den == 1 and ma * inv == Mat.identity(n)
    else:
        with pytest.raises(LinalgError):
            invert(ma)
    # One stored form per value, whatever the route.
    half = QQ(1, 2)
    for left, right in (((ma * mb).scale(half), ma * mb.scale(half)),
                        (ma.scale(x) * mb, (ma * mb).scale(x)),
                        (ma + mb - mb, ma),
                        (ma.scale(3).scale(QQ(1, 3)), ma)):
        assert (left.num, left.den) == (right.num, right.den)
        assert left == right and hash(left) == hash(right)
    for zero in (ma - ma, ma.scale(0), Mat.zeros(n, n), ma * ma - ma * ma,
                 Mat(n, n, [[QQ(0, 5)] * n for _ in range(n)])):
        assert zero.den == 1 and zero.is_zero() and zero == Mat.zeros(n, n)


@st.composite
def raising_and_lowering(draw) -> tuple:
    """Degree dims on 0, 2, 4 and the dense blocks of an offset-2 and an
    offset -2 operator on them."""
    p, q, r = (draw(st.integers(1, 3)) for _ in range(3))
    raising = {0: draw(sparse_rows(q, p)), 2: draw(sparse_rows(r, q))}
    lowering = {2: draw(sparse_rows(p, q)), 4: draw(sparse_rows(q, r))}
    return {0: p, 2: q, 4: r}, raising, lowering


@settings(max_examples=60, deadline=None)
@given(raising_and_lowering(), scalars)
def test_graded_commutator_matches_a_dense_fraction_reference(case, x):
    dims, raising, lowering = case

    def graded(blocks: dict, off: int) -> GradedOperator:
        return GradedOperator(dims, off, {
            d: Mat(dims[d + off], dims[d], m) for d, m in blocks.items()})

    def block(blocks: dict, off: int, d: int) -> list:
        return blocks.get(d) or [[_Z] * dims.get(d, 0)
                                 for _ in range(dims.get(d + off, 0))]

    lop, fop = graded(raising, 2), graded(lowering, -2)
    got = commutator_op(lop, fop)
    assert got.offset == 0
    for d, n in dims.items():
        ref = dense_sub(
            dense_mul(block(raising, 2, d - 2), block(lowering, -2, d), n),
            dense_mul(block(lowering, -2, d + 2), block(raising, 2, d), n))
        assert_matches(got.block(d), ref, n, n)
    both = combine([x, 1 - x], [lop, lop])
    for d, m in raising.items():
        assert_matches(both.block(d), m, dims[d + 2], dims[d])


@st.composite
def diagonal_and_graded(draw) -> tuple:
    """Degree dims on 0, 2, 4 (degree 2 of dimension at least 2), the
    rational diagonals of an offset-0 operator on some of them (the other
    blocks missing), and an offset and the dense blocks of an operator of
    that offset."""
    dims = {0: draw(st.integers(1, 3)), 2: draw(st.integers(2, 3)),
            4: draw(st.integers(1, 3))}
    diagonals = {d: draw(st.lists(scalars, min_size=k, max_size=k))
                 for d, k in dims.items() if draw(st.booleans())}
    off = draw(st.sampled_from([-2, 0, 2]))
    blocks = {d: draw(sparse_rows(dims[d + off], k))
              for d, k in dims.items() if d + off in dims}
    return dims, diagonals, off, blocks


def dense_graded_bracket(dims: dict, a: dict, a_off: int, b: dict,
                         b_off: int) -> dict:
    """Dense blocks of [a, b] for operators given by dense blocks."""
    def block(blocks: dict, off: int, d: int) -> list:
        return blocks.get(d) or [[_Z] * dims.get(d, 0)
                                 for _ in range(dims.get(d + off, 0))]

    off = a_off + b_off
    return {d: dense_sub(
        dense_mul(block(a, a_off, d + b_off), block(b, b_off, d), k),
        dense_mul(block(b, b_off, d + a_off), block(a, a_off, d), k))
        for d, k in dims.items() if dims.get(d + off)}


@settings(max_examples=80, deadline=None)
@given(diagonal_and_graded())
def test_diagonal_bracket_matches_a_dense_fraction_reference(case):
    """A diagonal offset-0 operator brackets, in both orders, to the
    reference's canonical blocks, and so does the same operator with one
    off-diagonal entry."""
    dims, diagonals, off, blocks = case
    diag = {d: [[v if i == j else _Z for j in range(len(vs))]
                for i, v in enumerate(vs)] for d, vs in diagonals.items()}
    skewed = {d: [list(r) for r in m] for d, m in diag.items()}
    skewed.setdefault(2, [[_Z] * dims[2] for _ in range(dims[2])])[0][1] = \
        QQ(1, 3)

    def graded(bl: dict, o: int) -> GradedOperator:
        return GradedOperator(dims, o, {
            d: Mat(dims[d + o], dims[d], m) for d, m in bl.items()})

    x = graded(blocks, off)
    for d_blocks, is_diag in ((diag, True), (skewed, False)):
        dop = graded(d_blocks, 0)
        assert dop.is_diagonal() == is_diag
        for got, ref in (
                (commutator_op(dop, x),
                 dense_graded_bracket(dims, d_blocks, 0, blocks, off)),
                (commutator_op(x, dop),
                 dense_graded_bracket(dims, blocks, off, d_blocks, 0))):
            assert got.offset == off and set(got.blocks) == set(ref)
            for d, m in ref.items():
                assert_matches(got.block(d), m, dims[d + off], dims[d])


@st.composite
def bracket_case(draw) -> tuple:
    """Degree dims on 0, 2, 4 (any of them zero-dimensional), operators a
    and b, and a target (c, t) for [a, b] == c * t.

    Each operand is diagonal of degree 0 (random entries, or a counting
    operator alpha * d + beta on degree d, as h is), a random degree-0
    operator, or a random operator of offset +-2; blocks may be missing.
    The target is zero (t None), the bracket itself, the bracket with one
    entry changed, an operand, or a random operator, and c may be 0."""
    dims = {d: draw(st.integers(0, 3)) for d in (0, 2, 4)}
    alpha, beta = draw(scalars), draw(scalars)

    def operator() -> GradedOperator:
        kind = draw(st.sampled_from(["diagonal", "counting", "counting",
                                     "degree0", "shifted", "shifted"]))
        off = draw(st.sampled_from([-2, 2])) if kind == "shifted" else 0
        blocks = {}
        for d, k in dims.items():
            if d + off not in dims or not draw(st.booleans()):
                continue  # a missing block
            if kind == "diagonal":
                vs = [draw(scalars) for _ in range(k)]
            elif kind == "counting":
                vs = [alpha * d + beta] * k
            if kind in ("diagonal", "counting"):
                rows = [[v if i == j else _Z for j in range(k)]
                        for i, v in enumerate(vs)]
            else:
                rows = draw(sparse_rows(dims[d + off], k))
            blocks[d] = Mat(dims[d + off], k, rows)
        return GradedOperator(dims, off, blocks)

    a, b = operator(), operator()
    off = a.offset + b.offset
    bracket = commutator_op(a, b)
    c = draw(scalars)
    target = draw(st.sampled_from(["zero", "bracket", "one-entry", "operand",
                                   "random"]))
    if target == "zero":
        return a, b, c, None
    if target == "operand":
        t = draw(st.sampled_from([b, b, a]))
        if t.offset == off and draw(st.booleans()):
            c = alpha * off   # [a, b] == c * b when a is a counting operator
        return a, b, c, t
    if target == "random":
        return a, b, c, GradedOperator(dims, off, {
            d: Mat(dims[d + off], k, draw(sparse_rows(dims[d + off], k)))
            for d, k in dims.items() if d + off in dims})
    blocks = {d: bracket.block(d) for d, k in dims.items()
              if d + off in dims}
    if target == "one-entry":
        cells = [(d, i, j) for d, m in blocks.items()
                 for i in range(m.rows) for j in range(m.cols)]
        if cells:
            d, i, j = draw(st.sampled_from(cells))
            rows = [list(r) for r in blocks[d].data]
            rows[i][j] += draw(scalars.filter(bool))
            blocks[d] = Mat(blocks[d].rows, blocks[d].cols, rows)
    t = GradedOperator(dims, off, blocks)
    return a, b, c, (t.scale(1 / c) if c else t)


def dense_ratio(values: list, targets: list):
    """The c with values == c * targets entrywise, or None when there is
    none or targets is zero."""
    k = next((k for k, y in enumerate(targets) if y), None)
    if k is None:
        return None
    c = values[k] / targets[k]
    return c if all(v == c * y for v, y in zip(values, targets)) else None


@settings(max_examples=300, deadline=None)
@given(bracket_case())
def test_bracket_equals_agrees_with_forming_the_bracket(case):
    """llv.bracket_equals decides [a, b] == c * t as forming the bracket
    and comparing does, in both orders, and accumulates no products for
    the weight identity [D, X] = c X with D diagonal; llv.sum_ratio of
    the bracket's terms is the dense ratio of the formed bracket to t
    (None for a zero t, a t of another offset or a t the bracket is no
    multiple of)."""
    from hklab import llv
    a, b, c, t = case
    for x, y, sign in ((a, b, 1), (b, a, -1)):
        bracket = commutator_op(x, y)
        ref = bracket.is_zero() if t is None else bracket == t.scale(sign * c)
        with mock.patch.object(llv, "lincomb_equals",
                               wraps=llv.lincomb_equals) as spy:
            assert llv.bracket_equals(x, y, sign * c, t) == ref
        if (t is y and x.is_diagonal()) or (t is x and y.is_diagonal()):
            assert not spy.called
        if t is None:
            continue
        ratio = None
        if t.offset == bracket.offset:
            degs = sorted(t.degrees)
            ratio = dense_ratio(
                [e for d in degs for r in bracket.block(d).data for e in r],
                [e for d in degs for r in t.block(d).data for e in r])
        got = llv.sum_ratio(llv.bracket(x, y), t)
        assert got == ratio and (got is None or type(got) is QQ)


@st.composite
def term_lists(draw) -> tuple:
    """Degree dims on 0, 2, 4 (any of them zero-dimensional), an offset and
    a list of graded terms (w, x, y) of that offset, mixed as
    llv._double_bracket_dual mixes them: single operators, products and
    brackets of operators of offsets 0 and +-2, weights that may be zero,
    operators shared between terms and blocks that may be missing."""
    from hklab import llv
    dims = {d: draw(st.integers(0, 3)) for d in (0, 2, 4)}
    off = draw(st.sampled_from([-2, 0, 2]))
    pool: dict = {}

    def operator(o: int) -> GradedOperator:
        if o in pool and draw(st.booleans()):
            return pool[o]
        pool[o] = GradedOperator(dims, o, {
            d: Mat(dims[d + o], k, draw(sparse_rows(dims[d + o], k)))
            for d, k in dims.items() if d + o in dims and draw(st.booleans())})
        return pool[o]

    terms = []
    for _ in range(draw(st.integers(1, 4))):
        w = draw(st.one_of(st.just(QQ(0)), scalars))
        kind = draw(st.sampled_from(["single", "product", "bracket"]))
        if kind == "single":
            terms.append((w, operator(off), None))
            continue
        yo = draw(st.sampled_from([o for o in (-2, 0, 2)
                                   if off - o in (-2, 0, 2)]))
        x, y = operator(off - yo), operator(yo)
        terms += [(w, x, y)] if kind == "product" else llv.bracket(x, y, w)
    return dims, off, terms


def dense_term_sum(dims: dict, off: int, terms: list) -> dict:
    """Dense blocks of the sum of the terms (w, x, y), folded term by term
    over every degree whose source and target are nonzero."""
    out = {}
    for d, k in dims.items():
        if not (k and dims.get(d + off)):
            continue
        acc = [[_Z] * k for _ in range(dims[d + off])]
        for w, x, y in terms:
            value = dense(x.block(d)) if y is None else dense_mul(
                dense(x.block(d + y.offset)), dense(y.block(d)), k)
            acc = dense_add(acc, dense_scale(w, value))
        out[d] = acc
    return out


@settings(max_examples=300, deadline=None)
@given(term_lists(), scalars, st.data())
def test_graded_term_sums_agree_with_a_dense_fold(case, c, data):
    """llv.operator_sum of a mixed term list is the dense Fraction fold,
    with a block at every degree whose source and target are nonzero and
    none when every weight is zero; sum_equals decides sum == c * t as
    forming and comparing does, for t None, the sum, the sum with one cell
    moved and an operator of another offset; sum_ratio is the dense ratio
    of the sum to t.  A term of another offset or grading raises."""
    from hklab import llv
    dims, off, terms = case
    ref = dense_term_sum(dims, off, terms)
    got = llv.operator_sum(terms)
    assert got.offset == off and got.degrees == dims
    assert set(got.blocks) == (set(ref) if any(w for w, _, _ in terms)
                               else set())
    for d, m in ref.items():
        assert_matches(got.block(d), m, dims[d + off], dims[d])

    value = GradedOperator(dims, off, {
        d: Mat(dims[d + off], dims[d], m) for d, m in ref.items()})
    moved = {d: [list(r) for r in m] for d, m in ref.items()}
    cells = [(d, i, j) for d, m in moved.items()
             for i in range(len(m)) for j in range(len(m[0]))]
    if cells:
        d, i, j = data.draw(st.sampled_from(cells))
        moved[d][i][j] += data.draw(scalars.filter(bool))
    moved = GradedOperator(dims, off, {
        d: Mat(dims[d + off], dims[d], m) for d, m in moved.items()})
    shift = 2 if off < 2 else -2
    other = GradedOperator(dims, off + shift, {
        d: Mat(dims[d + off + shift], k,
               data.draw(sparse_rows(dims[d + off + shift], k)))
        for d, k in dims.items() if d + off + shift in dims})
    for t in (None, value.scale(1 / c) if c else value,
              moved.scale(1 / c) if c else moved, other):
        expect = got.is_zero() if t is None else got == t.scale(c)
        assert llv.sum_equals(terms, c, t) == expect
        if t is None:
            continue
        ratio = None
        if t.offset == off:
            degs = sorted(dims)
            ratio = dense_ratio(
                [e for d in degs for r in got.block(d).data for e in r],
                [e for d in degs for r in t.block(d).data for e in r])
        got_ratio = llv.sum_ratio(terms, t)
        assert got_ratio == ratio
        assert got_ratio is None or type(got_ratio) is QQ

    regraded = GradedOperator({**dims, 6: 1}, off, {})
    for bad, message in (((1, other, None), "different offsets"),
                         ((1, regraded, None), "different graded spaces")):
        for consume in (llv.operator_sum, llv.sum_equals,
                        lambda ts: llv.sum_ratio(ts, value)):
            with pytest.raises(llv.OperatorError, match=message):
                consume(terms + [bad])


@st.composite
def lincomb_terms(draw) -> tuple:
    """rows, cols and lincomb terms (c, a, b) or (c, a, None), with a
    target matrix and scalar: lincomb's value with one entry changed,
    scaled by 1/c, or a random matrix."""
    rows, cols = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        c = draw(scalars)
        if draw(st.booleans()):
            k = draw(st.integers(0, 4))
            terms.append((c, Mat(rows, k, draw(sparse_rows(rows, k))),
                          Mat(k, cols, draw(sparse_rows(k, cols)))))
        else:
            terms.append((c, Mat(rows, cols, draw(sparse_rows(rows, cols))),
                          None))
    return rows, cols, terms, draw(scalars)


@settings(max_examples=200, deadline=None)
@given(lincomb_terms(), st.sampled_from(["zero", "value", "one-entry",
                                         "random", "zero-matrix"]),
       st.data())
def test_lincomb_equals_agrees_with_lincomb(case, target, data):
    """lincomb returns the canonical form (tuple rows, ascending columns
    of nonzero ints, den coprime to them), lincomb_equals decides
    sum == c * t as comparing lincomb's value does, and lincomb_ratio is
    the dense ratio of the sum to t (None for a zero t, c = 0 for a zero
    sum and a nonzero t)."""
    from hklab.linalg import lincomb, lincomb_equals, lincomb_ratio
    rows, cols, terms, c = case
    got = lincomb(rows, cols, terms)
    assert type(got.num) is tuple and all(type(r) is tuple for r in got.num)
    assert all(type(x) is int and x for r in got.num for _, x in r)
    assert all(r[i][0] < r[i + 1][0] for r in got.num
               for i in range(len(r) - 1))
    assert got.den > 0 and gcd(got.den, *[x for r in got.num
                                          for _, x in r]) == 1
    ref = [[_Z] * cols for _ in range(rows)]
    for f, a, b in terms:
        ref = dense_add(ref, dense_scale(f, dense(a) if b is None else
                                         dense_mul(dense(a), dense(b), cols)))
    assert got == Mat(rows, cols, ref)
    if target == "zero":
        assert lincomb_equals(rows, cols, terms, c) == got.is_zero()
        return
    if target == "random":
        t = Mat(rows, cols, data.draw(sparse_rows(rows, cols)))
        cancelled = terms + [(-f, a, b) for f, a, b in terms]
        assert lincomb_ratio(rows, cols, cancelled, t) == (
            None if t.is_zero() else 0)
    elif target == "zero-matrix":
        t = Mat.zeros(rows, cols)
    else:
        value = [list(r) for r in ref]
        if target == "one-entry" and rows and cols:
            i = data.draw(st.integers(0, rows - 1))
            j = data.draw(st.integers(0, cols - 1))
            value[i][j] += data.draw(scalars.filter(bool))
        t = Mat(rows, cols, value)
        t = t.scale(1 / c) if c else t
    assert lincomb_equals(rows, cols, terms, c, t) == (got == t.scale(c))
    ratio = lincomb_ratio(rows, cols, terms, t)
    assert ratio == dense_ratio([e for r in ref for e in r],
                                [e for r in dense(t) for e in r])
    assert ratio is None or type(ratio) is QQ


@pytest.mark.parametrize("n", range(7))
def test_full_is_the_eliminated_identity(n):
    full = Subspace.full(n)
    eliminated = Subspace.from_rows(n, [[int(i == j) for j in range(n)]
                                        for i in range(n)])
    assert full == eliminated
    assert hash(full) == hash(eliminated)
    assert full.pivots == tuple(range(n)) and full.dim == n
