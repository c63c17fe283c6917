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
    nilpotence_index,
    rank,
    rref,
    simultaneous_eigenspaces,
    solve,
    subspace_intersection,
    subspace_sum,
)

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
    assert subspace_sum(a, a) == a
    assert subspace_intersection(a, a) == a


def test_subspace_complementary_lines():
    a = Subspace.from_vectors(2, [[1, 0]])
    b = Subspace.from_vectors(2, [[0, 1]])
    assert subspace_sum(a, b) == Subspace.full(2)
    assert subspace_intersection(a, b).is_zero()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=0, max_size=3),
       st.lists(st.lists(small_entries, min_size=4, max_size=4),
                min_size=0, max_size=3))
def test_sum_intersection_dimension_identity(vs, ws):
    a = Subspace.from_vectors(4, vs)
    b = Subspace.from_vectors(4, ws)
    assert (subspace_sum(a, b).dim + subspace_intersection(a, b).dim
            == a.dim + b.dim)


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
    assert len(accepted) == rank(Mat.from_rows(rows)) == state.rank
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


def test_eigenspace():
    e = eigenspace(Mat.diagonal([2, 2, 5]), 2)
    assert e.dim == 2


def test_nilpotence_index():
    assert nilpotence_index(Mat.zeros(3, 3)) == 0
    j3 = Mat.from_rows([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert nilpotence_index(j3) == 2
    with pytest.raises(NotNilpotentError):
        nilpotence_index(Mat.identity(2))


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
    assert all(type(e) is QQ for row in ref.basis.data for e in row)
    assert ref.pivot_rows() == [0, 2]
    assert ref.contains(["5/2", 5, 1]) and not ref.contains([0, 1, 0])


def test_zero_span_has_the_ambient_shape():
    sub = Subspace.from_vectors(3, [[0, 0, 0]])
    assert sub == Subspace.zero(3) and sub.basis.shape == (3, 0)
