"""Differential tests of the exact elimination core against sympy.

sympy is a test-only oracle: random small rational matrices of low rank,
with zero rows, zero columns and empty shapes, go through rref, rank,
kernel_basis, invert, Mat.det and IncrementalRref and are compared with
sympy's exact results.  Random conjugated nilpotent matrices go through the
Jordan chains and the weight filtration and are compared with sympy's
Jordan form.
"""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.filtrations import weight_filtration
from hklab.linalg import (
    QQ,
    IncrementalRref,
    LinalgError,
    Mat,
    Subspace,
    invert,
    kernel_basis,
    rank,
    rref,
)
from hklab.llv import GradedOperator, GradedPowers
from jordan_reference import graded_jordan_chains

sympy = pytest.importorskip("sympy")

entries = st.fractions(min_value=-6, max_value=6, max_denominator=5)


@st.composite
def low_rank_rows(draw, max_dim=6):
    """Rows of an r x c product (r x k)(k x c) with k <= min(r, c), so most
    draws are rank-deficient; some rows and columns are then zeroed."""
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    k = draw(st.integers(0, max(0, min(r, c))))
    left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                         min_size=r, max_size=r))
    right = draw(st.lists(st.lists(entries, min_size=c, max_size=c),
                          min_size=k, max_size=k))
    rows = [[sum((a * right[t][j] for t, a in enumerate(row)), Fraction(0))
             for j in range(c)] for row in left]
    zero_rows = draw(st.sets(st.integers(0, max(r - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, max(c - 1, 0)), max_size=2))
    return [[Fraction(0) if i in zero_rows or j in zero_cols else x
             for j, x in enumerate(row)] for i, row in enumerate(rows)], c


def as_mat(rows, ncols) -> Mat:
    return Mat(len(rows), ncols, [[QQ(x) for x in row] for row in rows])


def as_sympy(rows, ncols):
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(x.numerator, x.denominator)
                         for row in rows for x in row])


def from_sympy(e):
    e = sympy.Rational(e)
    return QQ(int(e.p), int(e.q))


def all_qq(m: Mat) -> bool:
    return all(type(e) is QQ for row in m.data for e in row)


@settings(max_examples=150, deadline=None)
@given(low_rank_rows())
def test_rref_rank_and_pivots_match_sympy(case):
    rows, ncols = case
    red, pivots, rk = rref(as_mat(rows, ncols))
    ref, ref_pivots = as_sympy(rows, ncols).rref()
    assert pivots == list(ref_pivots)
    assert rk == rank(as_mat(rows, ncols)) == as_sympy(rows, ncols).rank()
    assert red.data == \
        tuple(tuple(from_sympy(ref[i, j]) for j in range(ncols))
              for i in range(len(rows)))
    assert all_qq(red)


@settings(max_examples=150, deadline=None)
@given(low_rank_rows())
def test_kernel_span_matches_sympy(case):
    rows, ncols = case
    ker = kernel_basis(as_mat(rows, ncols))
    ref = [[from_sympy(x) for x in v]
           for v in as_sympy(rows, ncols).nullspace()]
    assert ker == Subspace.from_vectors(ncols, ref)
    assert (ker.ambient_dim, ker.dim) == (ncols, len(ref))
    assert all(type(e) is QQ for v in ker.vectors() for e in v)
    m = as_mat(rows, ncols)
    assert all(not any(m.times_vec(v)) for v in ker.vectors())


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n),
                       min_size=n, max_size=n).map(lambda rows: (rows, n))))
def test_invert_and_det_match_sympy(case):
    rows, n = case
    m = as_mat(rows, n)
    ref = as_sympy(rows, n)
    det = m.det()
    assert type(det) is QQ and det == from_sympy(ref.det())
    if ref.det() == 0:
        with pytest.raises(LinalgError):
            invert(m)
        return
    inv = invert(m)
    ref_inv = ref.inv()
    assert inv.data == \
        tuple(tuple(from_sympy(ref_inv[i, j]) for j in range(n))
              for i in range(n))
    assert all_qq(inv)


@settings(max_examples=150, deadline=None)
@given(low_rank_rows())
def test_incremental_rref_accepts_exactly_the_rank_increases(case):
    rows, ncols = case
    state = IncrementalRref(ncols)
    accepted = [state.insert(row) for row in rows]
    ref = [as_sympy(rows[:i + 1], ncols).rank()
           > as_sympy(rows[:i], ncols).rank() for i in range(len(rows))]
    assert accepted == ref
    assert state.rank == sum(ref)
    for row in rows:
        assert state.contains(row)


@st.composite
def conjugated_nilpotent(draw, max_dim=7):
    """P J P^-1 for a nilpotent Jordan matrix J with random block sizes and
    an integer P = L U, L and U unit triangular, so P is invertible."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                 .filter(lambda ls: sum(ls) <= max_dim))
    dim = sum(sizes)
    jordan = [[0] * dim for _ in range(dim)]
    pos = 0
    for size in sizes:
        for i in range(size - 1):
            jordan[pos + i][pos + i + 1] = 1
        pos += size
    below = draw(st.lists(st.integers(-2, 2), min_size=dim * dim,
                          max_size=dim * dim))
    above = draw(st.lists(st.integers(-2, 2), min_size=dim * dim,
                          max_size=dim * dim))
    lower = sympy.Matrix(dim, dim, lambda i, j: 1 if i == j else
                         below[i * dim + j] if i > j else 0)
    upper = sympy.Matrix(dim, dim, lambda i, j: 1 if i == j else
                         above[i * dim + j] if i < j else 0)
    p = lower * upper
    m = p * sympy.Matrix(jordan) * p.inv()
    return sorted(sizes), m


@settings(max_examples=60, deadline=None)
@given(conjugated_nilpotent(), st.integers(0, 2))
def test_jordan_chains_and_weights_match_sympy_jordan_form(case, extra):
    sizes, ref = case
    dim = ref.rows
    _, jordan = ref.jordan_form()
    blocks = sorted(b.rows for b in jordan.get_diag_blocks())
    assert blocks == sizes
    m = Mat(dim, dim, [[from_sympy(ref[i, j]) for j in range(dim)]
                       for i in range(dim)])
    chains = graded_jordan_chains(
        GradedPowers(GradedOperator({0: dim}, 0, {0: m})))
    assert sorted(length for _, length, _ in chains) == blocks
    k = max(blocks) - 1 + extra
    ladder = Counter(k + l - 1 - 2 * j for l in blocks for j in range(l))
    assert weight_filtration(m, k).graded_dims(0) == dict(ladder)
