import random

import pytest

from hklab.filtrations import graded_nilpotence_index
from hklab.linalg import QQ, Mat, image_basis, rank, simultaneous_eigenspaces
from hklab.llv import (
    GradedOperator,
    GradedPowers,
    NotLefschetzError,
    OperatorError,
    SL2Triple,
    anisotropic_basis,
    bigrading,
    build_frame,
    combine,
    commutator_op,
    dual_lefschetz,
    frame_calculus,
    frame_triples,
    grading,
    lefschetz,
    sl2_complete,
    transport_frame,
    verify_derivation,
    verify_sl2,
)
from hklab.module_io import algebra_module
from hklab.quadforms import (
    IsotropicPlane,
    make_standard_space,
    orthogonal_complement,
    witt_transport,
)


def unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


def test_lefschetz_unit_and_linearity(built):
    alg = built(2, 5)
    x = [1, 2, 0, -1, 3]
    lx = lefschetz(alg, x)
    assert lx.block(0).times_vec([1]) == [QQ(c) for c in x]
    y = [0, 1, 1, 0, 0]
    lsum = lefschetz(alg, [a + b for a, b in zip(x, y)])
    assert lsum == lx + lefschetz(alg, y)


@pytest.mark.parametrize("n,b2", [(n, b2) for n in (1, 2, 3)
                                  for b2 in (4, 5, 6, 7)])
def test_lefschetz_columns_are_products(built, n, b2):
    """Column j of L_x in each degree is x e_j as GradedAlgebra.multiply
    computes it, for a random rational x with zero coordinates and for the
    frame vectors at frame seed 1 (rational, mostly nonzero)."""
    alg = built(n, b2)
    rng = random.Random(100 * n + b2)
    x = [QQ(rng.randint(-6, 6) or 1, rng.randint(1, 5)) for _ in range(b2)]
    for s in rng.sample(range(b2), b2 // 2):
        x[s] = QQ(0)
    frame = build_frame(alg.space, seed=1)
    for v in (x, frame.s, frame.sbar, frame.beta, frame.eta):
        lx = lefschetz(alg, v)
        xv = alg.degree2(v)
        for k in range(2 * n):
            dim = alg.level_dim(k)
            for j, col in enumerate(lx.block(2 * k).columns()):
                e = alg.element(2 * k, unit(dim, j))
                assert col == list(alg.multiply(xv, e).coords), (v, k, j)


def test_lefschetz_isotropic_power_vanishes(built):
    alg = built(2, 5)
    lb = lefschetz(alg, unit(5, 2))
    assert graded_nilpotence_index(GradedPowers(lb)) == 2


def test_grading_scalars_and_trace(built):
    alg = built(2, 4)
    h = grading(alg)
    assert h.block(0) == Mat.identity(1).scale(-4)
    assert h.block(4) == Mat.zeros(10, 10)
    total = sum(h.block(d).trace() for d in alg.dims())
    expected = sum((d - 4) * m for d, m in alg.dims().items())
    assert total == expected


def test_dual_lefschetz_bracket(built):
    alg = built(1, 5)
    x = [1, 1, 0, 0, 0]
    lam = dual_lefschetz(alg, x)
    lop = lefschetz(alg, x)
    assert commutator_op(lop, lam) == grading(alg)
    assert lam.block(0).rows == 0 or lam.block(0).is_zero()
    # degree-2 block maps to the one-dimensional degree-0 piece
    assert rank(lam.block(2)) == 1


def test_dual_lefschetz_rejects_isotropic(built):
    alg = built(1, 5)
    with pytest.raises(NotLefschetzError):
        dual_lefschetz(alg, unit(5, 0))


def test_lambda_linear_consistency(built):
    alg = built(1, 5)
    lambda_of = algebra_module(alg).lambda_of
    x = [1, 1, 0, 0, 0]            # q(x) = 2: exact agreement
    assert lambda_of(x) == dual_lefschetz(alg, x)
    y = [1, 2, 0, 0, 0]            # q(y) = 4: scaled agreement
    assert lambda_of(y) == dual_lefschetz(alg, y).scale(
        alg.space.quad(y) / 2)
    assert lambda_of([2 * c for c in x]) == lambda_of(x).scale(2)


def test_lambda_linear_well_defined_second_basis(built):
    """Rebuild the linear extension from an independently chosen basis."""
    alg = built(1, 4)
    sp = alg.space
    basis = anisotropic_basis(sp, variant=0)
    other = anisotropic_basis(sp, variant=1)
    assert basis != other
    from hklab.linalg import solve
    lambda_of = algebra_module(alg).lambda_of
    bmat = Mat.from_cols(other)
    for s in range(sp.dim):
        coeffs = solve(bmat, unit(sp.dim, s))
        rebuilt = None
        for c, x in zip(coeffs, other):
            if c == 0:
                continue
            term = dual_lefschetz(alg, x).scale(c * sp.quad(x) / 2)
            rebuilt = term if rebuilt is None else rebuilt + term
        assert rebuilt == lambda_of(unit(sp.dim, s))


def test_anisotropic_basis_properties():
    sp = make_standard_space(6, [2, -2])
    for variant in (0, 1):
        basis = anisotropic_basis(sp, variant)
        assert len(basis) == 6
        assert all(sp.quad(x) != 0 for x in basis)
        assert rank(Mat.from_cols(basis)) == 6


def test_build_frame_invariants_and_determinism():
    sp = make_standard_space(6, [2, 2])
    f0 = build_frame(sp, seed=0)
    assert orthogonal_complement(sp, f0.vectors()).dim == 2
    again = build_frame(sp, seed=0)
    assert again.vectors() == f0.vectors()
    f5 = build_frame(sp, seed=5)
    assert f5.vectors() != f0.vectors()
    assert sp.bilinear(f5.s, f5.sbar) == 1
    assert sp.bilinear(f5.beta, f5.eta) == 1


def test_frame_transport_is_frame():
    sp = make_standard_space(5, [2])
    frame = build_frame(sp, seed=0)
    p1 = IsotropicPlane(sp, frame.s, frame.beta)
    p2 = IsotropicPlane(sp, frame.sbar, frame.eta)
    g = witt_transport(sp, p1, p2)
    moved = transport_frame(frame, g)
    assert moved.space is sp
    assert sp.bilinear(moved.s, moved.sbar) == 1


def test_transported_frame_gives_same_bigrading_dims(built, calculus):
    alg, frame0, fc0, big0 = calculus(1, 5)
    sp = alg.space
    p1 = IsotropicPlane(sp, frame0.s, frame0.beta)
    p2 = IsotropicPlane(sp, frame0.sbar, frame0.eta)
    g = witt_transport(sp, p1, p2)
    moved = transport_frame(frame0, g)
    module = algebra_module(alg)
    fc1 = frame_calculus(module, moved)
    big1 = bigrading(module, fc1)
    assert big0.dims_table() == big1.dims_table()


def test_build_M_basics(calculus):
    alg, frame, fc, big = calculus(1, 4)
    assert fc.M.offset == 0
    assert fc.M.block(0).times_vec([1]) == [QQ(0)]
    ms = fc.M.block(2).times_vec(frame.s)
    beta_line = image_basis(Mat.from_cols([frame.beta]))
    assert any(ms) and beta_line.contains(ms)


def test_M_degree2_image_is_plane(calculus):
    alg, frame, fc, big = calculus(2, 5)
    img = image_basis(fc.M.block(2))
    assert img.dim == 2
    assert img.contains(frame.beta) and img.contains(frame.sbar)
    assert (fc.M.block(2) * fc.M.block(2)).is_zero()


def test_cartan_sum_is_grading(calculus):
    for key in [(1, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        assert fc.H_s + fc.H_sbar == fc.h


def test_cartan_spectra_integral(calculus):
    alg, frame, fc, big = calculus(2, 4)
    # bigrading exists, so the three Cartans are simultaneously
    # diagonalisable with integer spectra; on degree 2 the eigenvalues of
    # H_s are p - n for p = 0, 1, 2
    subs = simultaneous_eigenspaces(
        [fc.H_s.block(2)], [(-2,), (-1,), (0,)])
    assert [s.dim for s in subs] == [1, 2, 1]


def test_sl2_suite(calculus):
    alg, frame, fc, big = calculus(2, 4)
    triples = frame_triples(fc)
    for name, t in triples.items():
        assert verify_sl2(t), name
    # wrong normalisation must fail
    bad = SL2Triple(fc.L_s, fc.Lam_sbar, fc.H_s.scale(2))
    assert not verify_sl2(bad)
    # the literal doubled pair is not a triple; the scalar is 4
    assert fc.m_bracket_scalar == 4
    assert not verify_sl2(SL2Triple(fc.E_M, fc.F_M, fc.H_M))
    assert commutator_op(fc.M, commutator_op(fc.Lam_s, fc.L_eta)) == fc.H_M


def test_derivation_reports(calculus):
    alg, frame, fc, big = calculus(1, 5)
    assert verify_derivation(alg, fc.M, trials=100, seed=11).passed
    rep_l = verify_derivation(alg, fc.L_beta, trials=50, seed=11)
    assert not rep_l.passed and rep_l.failures
    rep_h = verify_derivation(alg, fc.h, trials=50, seed=11)
    assert not rep_h.passed


def test_degree2_diamond(calculus):
    for b2 in (4, 5):
        alg, frame, fc, big = calculus(1, b2)
        n = alg.n
        assert big.dim(2, 0, 1) == 1      # holomorphic direction
        assert big.dim(0, 2, 1) == 1      # conjugate direction
        assert big.dim(1, 1, 0) == 1      # beta
        assert big.dim(1, 1, 2) == 1      # eta
        assert big.dim(1, 1, 1) == b2 - 4  # orthogonal complement
        row_dims = {}
        for (p, q, i), sub in big.degree_components(2).items():
            row_dims[i] = row_dims.get(i, 0) + sub.dim
        assert row_dims == {0: 1, 1: b2 - 2, 2: 1}
        comps = big.degree_components(2)
        assert comps[(1, 1, 0)].contains(frame.beta)
        assert comps[(1, 1, 2)].contains(frame.eta)


def test_joint_eigenspace_dims_on_degree2(calculus):
    alg, frame, fc, big = calculus(1, 5)
    values = [(1, 0), (0, 0), (0, 1), (0, -1), (-1, 0)]
    subs = simultaneous_eigenspaces(
        [fc.H_s.block(2), fc.H_beta.block(2)], values)
    assert [s.dim for s in subs] == [1, 5 - 4, 1, 1, 1]


def test_frame_independence_of_bigrading_dims(built, calculus):
    alg, frame0, fc0, big0 = calculus(1, 5)
    frame1 = build_frame(alg.space, seed=9)
    module = algebra_module(alg)
    fc1 = frame_calculus(module, frame1)
    big1 = bigrading(module, fc1)
    assert big0.dims_table() == big1.dims_table()


def test_graded_operator_shape_validation():
    degrees = {0: 1, 2: 2}
    with pytest.raises(OperatorError):
        GradedOperator(degrees, 2, {0: Mat.zeros(1, 1)})
    op = GradedOperator(degrees, 2, {0: Mat.zeros(2, 1)})
    assert op.block(2).shape == (0, 2)


def test_fourfold_symmetry_of_component_dims(calculus):
    for key in [(1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        for (p, q, i) in big.components:
            dim = big.dim(p, q, i)
            assert big.dim(q, p, i) == dim
            assert big.dim(i, p + q - i, p) == dim
            assert big.dim(p + q - i, i, p) == dim


def test_full_pipeline_on_permuted_gram():
    """No literal hyperbolic block up front: the search paths must carry
    the whole construction."""
    from hklab.quadforms import QuadraticSpace, make_standard_space
    from hklab.verbitsky import build_verbitsky
    sp = make_standard_space(5, [2])
    perm = [2, 4, 0, 3, 1]
    g = Mat.from_rows([[sp.gram[perm[i], perm[j]] for j in range(5)]
                       for i in range(5)])
    shuffled = QuadraticSpace(g)
    alg = build_verbitsky(shuffled, 1, seed=3)
    assert list(alg.dims().values()) == [1, 5, 1]
    frame = build_frame(shuffled, seed=0)
    module = algebra_module(alg)
    fc = frame_calculus(module, frame)
    assert fc.m_bracket_scalar == 4
    big = bigrading(module, fc)
    rows = {}
    for (p, q, i), sub in big.degree_components(2).items():
        rows[i] = rows.get(i, 0) + sub.dim
    assert rows == {0: 1, 1: 3, 2: 1}


def _fold(coeffs, ops):
    """The scale-and-add fold that combine replaces."""
    acc = None
    for c, op in zip(coeffs, ops):
        if c == 0:
            continue
        term = op.scale(c)
        acc = term if acc is None else acc + term
    return acc


def test_combine_matches_scale_and_add_fold(built):
    alg = built(2, 5)
    lops = [lefschetz(alg, unit(5, s)) for s in range(5)]
    lambda_of = algebra_module(alg).lambda_of
    lams = [lambda_of(unit(5, s)) for s in range(5)]
    for ops in (lops, lams):
        for coeffs in ([1, 0, 0, 0, 0], [QQ(1, 3), 0, -2, 5, QQ(-7, 2)],
                       [0, 1, 1, 0, -1]):
            got = combine(coeffs, ops)
            assert got == _fold(coeffs, ops)
            assert got.offset == ops[0].offset
            assert all(got.dim(d) and got.dim(d + got.offset)
                       for d in got.blocks)
    assert combine([0] * 5, lams).is_zero()


def test_sub_matches_add_of_negation(built):
    alg = built(1, 5)
    a = lefschetz(alg, [1, 2, 0, -1, 3])
    b = lefschetz(alg, [0, 1, 1, 0, QQ(1, 2)])
    diff = a - b
    assert diff == a + b.scale(-1)
    assert sorted(diff.blocks) == sorted((a + b.scale(-1)).blocks)
    with pytest.raises(OperatorError):
        a - algebra_module(alg).lambda_of([1, 1, 0, 0, 0])


def test_sl2_complete_ladder_leaving_the_degrees():
    """With n = 2 a class in degree 0 has weight -4, so its ladder would
    reach degree 8 of a module that stops at degree 2."""
    one = Mat.from_rows([[1]])
    lop = GradedOperator({0: 1, 2: 1}, 2, {0: one})
    with pytest.raises(NotLefschetzError, match="leaves the module's degrees"):
        sl2_complete(lop, 2)


def _product_chain(op, src, e):
    """op^e from src as the product of e blocks, the identity for e = 0."""
    m = Mat.identity(op.dim(src))
    for k in range(e):
        m = op.block(src + op.offset * k) * m
    return m


@pytest.mark.parametrize("case", ["L_x", "gap"])
def test_powers_equal_the_product_chain(built, case):
    """GradedPowers builds each power in a loop and returns the zero map of
    the target's shape once a power vanishes; that is the product chain's
    value, also across a degree gap, where the target's dimension returns
    after the chain has passed an empty degree."""
    if case == "L_x":
        alg = built(2, 4)
        op = lefschetz(alg, [1, 2, 0, -1])
    else:
        degrees = {0: 2, 4: 3, 6: 1}
        op = GradedOperator(degrees, 2, {4: Mat.from_rows([[1, 2, 3]])})
    powers = GradedPowers(op)
    for src in sorted(op.degrees):
        for e in (7, 0, 3, 1, 12, 5):
            assert powers.power(src, e) == _product_chain(op, src, e), (src, e)
