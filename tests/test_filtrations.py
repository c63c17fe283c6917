import pytest

import hklab.filtrations as filtrations
from hklab.filtrations import (
    FiltrationError,
    GradedWeightFiltration,
    compare_gr_dims,
    conjugate_hodge_check,
    crosscheck_perverse_weight,
    graded_nilpotence_index,
    graded_weight_filtration,
    monodromy_weight_table,
    perverse_filtration,
    perverse_hodge_table,
    verify_graded_weight_filtration,
    weight_filtration,
)
from hklab.linalg import QQ, Mat, NotNilpotentError, Subspace
from hklab.llv import GradedOperator, GradedPowers, lefschetz
from hklab.quadforms import sample_isotropic
from jordan_reference import graded_jordan_chains, jordan_weight_filtration


def nilpotent_blocks(*sizes):
    """Block-diagonal nilpotent matrix with the given Jordan block sizes."""
    dim = sum(sizes)
    rows = [[QQ(0)] * dim for _ in range(dim)]
    pos = 0
    for s in sizes:
        for i in range(s - 1):
            rows[pos + i + 1][pos + i] = QQ(1)
        pos += s
    return Mat(dim, dim, rows)


def one_degree(m: Mat) -> GradedOperator:
    """A square matrix as the graded operator with one degree and offset 0."""
    return GradedOperator({0: m.rows}, 0, {0: m})


def test_weight_filtration_zero_map():
    zero = one_degree(Mat.zeros(3, 3))
    wf = weight_filtration(Mat.zeros(3, 3), 2)
    assert wf.graded_dims(0) == {2: 3}
    assert verify_graded_weight_filtration(zero, wf)
    # graded dims 1, 1, 1 at weights 0, 2, 4 are symmetric and the zero map
    # sends every W_i into W_{i-2}, but it is no bijection Gr_4 -> Gr_0
    w0 = Subspace.from_vectors(3, [[1, 0, 0]])
    w2 = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    ladder = GradedWeightFiltration(
        2, {0: 3}, {0: (w0, w0, w2, w2, Subspace.full(3))})
    assert ladder.graded_dims(0) == {0: 1, 2: 1, 4: 1}
    assert not verify_graded_weight_filtration(zero, ladder)


def test_weight_filtration_single_block():
    j3 = nilpotent_blocks(3)
    wf = weight_filtration(j3, 2)
    assert wf.graded_dims(0) == {0: 1, 2: 1, 4: 1}
    assert verify_graded_weight_filtration(one_degree(j3), wf)


def test_weight_filtration_centre_too_small():
    j3 = nilpotent_blocks(3)
    with pytest.raises(FiltrationError):
        weight_filtration(j3, 1)


def test_weight_filtration_not_nilpotent():
    with pytest.raises(NotNilpotentError):
        weight_filtration(Mat.identity(2), 2)


def test_jordan_chains_shapes():
    m = nilpotent_blocks(3, 2)
    chains = graded_jordan_chains(GradedPowers(one_degree(m)))
    assert sorted(length for _, length, _ in chains) == [2, 3]
    assert all(d0 == 0 and len(chain) == length
               for d0, length, chain in chains)
    m2 = nilpotent_blocks(2, 2, 1)
    assert sorted(length for _, length, _
                  in graded_jordan_chains(GradedPowers(one_degree(m2)))) \
        == [1, 2, 2]


def test_weight_filtration_uniqueness_against_hand_built():
    """Two Jordan blocks of sizes 3 and 2 on coordinates e0..e4, centred
    at 2: the ladder weights are (4, 2, 0) and (3, 1), so the chain is
    frozen by hand and must agree with the construction step by step."""
    m = nilpotent_blocks(3, 2)
    hand = [
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0]]),                 # W0
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]),  # W1
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
                                  [0, 1, 0, 0, 0]]),                 # W2
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
                                  [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]),  # W3
        Subspace.full(5),                                            # W4
    ]
    wf = weight_filtration(m, 2)
    for i in range(5):
        assert wf.step(0, i) == hand[i]
    op = one_degree(m)
    assert verify_graded_weight_filtration(
        op, GradedWeightFiltration(2, {0: 5}, {0: tuple(hand)}))
    shifted = GradedWeightFiltration(2, {0: 5},
                                     {0: tuple(hand[1:] + [hand[-1]])})
    assert not verify_graded_weight_filtration(op, shifted)
    assert not verify_graded_weight_filtration(
        op, GradedWeightFiltration(2, {}, {}))


def test_graded_weight_filtration_matches_dense(calculus):
    """L_beta (offset 2) gets a verified filtration and spanning chains; one
    call over the whole offset-0 monodromy M slices, degree by degree, into
    the filtrations of its separate blocks."""
    alg, frame, fc, big = calculus(1, 5)
    lop = lefschetz(alg, frame.beta)
    powers = GradedPowers(lop)
    assert graded_nilpotence_index(powers) == alg.n
    wf = graded_weight_filtration(powers, alg.n)
    assert verify_graded_weight_filtration(lop, wf)
    chains = graded_jordan_chains(powers)
    assert sum(length for _, length, _ in chains) == sum(alg.dims().values())
    for key in [(1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        n = alg.n
        wf = graded_weight_filtration(GradedPowers(fc.M), n)
        assert verify_graded_weight_filtration(fc.M, wf)
        for d, dim_d in alg.dims().items():
            if dim_d == 0:
                continue
            dense = weight_filtration(fc.M.block(d), n)
            assert wf.graded_dims(d) == dense.graded_dims(0), (key, d)
            for i in range(-1, 2 * n + 2):
                assert wf.step(d, i) == dense.step(0, i), (key, d, i)


def test_monodromy_degree2_graded_dims(calculus):
    """The degree-2 weight chain of the model operator splits as
    (2, b2-4, 2) across indices n-1, n, n+1."""
    for b2 in (4, 5):
        alg, frame, fc, big = calculus(1, b2)
        n = alg.n
        wf = weight_filtration(fc.M.block(2), n)
        expected = {n - 1: 2, n + 1: 2}
        if b2 > 4:
            expected[n] = b2 - 4
        assert wf.graded_dims(0) == expected
    alg, frame, fc, big = calculus(2, 5)
    wf = weight_filtration(fc.M.block(2), 2)
    assert wf.graded_dims(0) == {1: 2, 2: 1, 3: 2}


def test_perverse_exhaustion_and_degree0(calculus):
    alg, frame, fc, big = calculus(2, 4)
    chain = perverse_filtration(GradedPowers(lefschetz(alg, frame.beta)),
                                alg.n, 0)
    assert chain[0].dim == 1
    assert chain[-1].dim == 0
    top = perverse_filtration(GradedPowers(lefschetz(alg, frame.beta)),
                              alg.n, 4)
    assert top[max(top)].dim == alg.dims()[4]


def test_perverse_degree2_row_dims(calculus):
    for (n, b2) in [(1, 4), (1, 5), (2, 5)]:
        alg, frame, fc, big = calculus(n, b2)
        chain = perverse_filtration(GradedPowers(lefschetz(alg, frame.beta)),
                                    n, 2)
        gr = {i: chain[i].dim - chain[i - 1].dim
              for i in range(0, 2 * n + 1) if i - 1 in chain}
        gr = {i: v for i, v in gr.items() if v}
        assert gr == {0: 1, 1: b2 - 2, 2: 1}


def test_perverse_needs_isotropic(calculus):
    alg, frame, fc, big = calculus(1, 4)
    with pytest.raises(FiltrationError, match="isotropic class"):
        perverse_filtration(GradedPowers(lefschetz(alg, [1, 1, 0, 0])),
                            alg.n, 2)


def test_crosscheck_needs_isotropic(calculus):
    alg, frame, fc, big = calculus(1, 4)
    with pytest.raises(FiltrationError, match="isotropic class"):
        crosscheck_perverse_weight(
            GradedPowers(lefschetz(alg, [1, 1, 0, 0])), alg.n)


def test_isotropy_is_read_off_the_nilpotence_index(calculus):
    """L_x^(n+1) = 0 exactly when q(x) = 0: the index of L_x is n on an
    isotropic class and 2n on an anisotropic one."""
    for key in [(1, 4), (2, 5), (3, 4)]:
        alg, frame, fc, big = calculus(*key)
        n = alg.n
        pad = [0] * (alg.space.dim - 3)
        for x in [frame.beta, frame.sbar, [1, 1, 0] + pad, [1, 0, 1] + pad]:
            index = graded_nilpotence_index(GradedPowers(lefschetz(alg, x)))
            assert index == (n if alg.space.quad(list(x)) == 0 else 2 * n)


def test_perverse_chain_shared_powers_match_fresh(calculus):
    """A ladder the weight filtration has already used gives the same
    perverse chains as a fresh one."""
    alg, frame, fc, big = calculus(2, 5)
    shared = GradedPowers(lefschetz(alg, frame.beta))
    graded_weight_filtration(shared, alg.n)
    for d in sorted(alg.dims()):
        fresh = GradedPowers(lefschetz(alg, frame.beta))
        assert perverse_filtration(shared, alg.n, d) == \
            perverse_filtration(fresh, alg.n, d)


def test_crosscheck_perverse_weight(calculus):
    for key in [(1, 4), (1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        assert crosscheck_perverse_weight(
            GradedPowers(lefschetz(alg, frame.beta)), alg.n)


def test_crosscheck_detects_shifted_perverse_chain(calculus, monkeypatch):
    """The cross-check certifies the perverse chain it is given: one shifted
    by one index is no weight filtration of L_beta."""
    real = filtrations.perverse_filtration
    monkeypatch.setattr(
        filtrations, "perverse_filtration",
        lambda powers, n, d: {i - 1: sub for i, sub
                              in real(powers, n, d).items()})
    for key in [(1, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        assert not crosscheck_perverse_weight(GradedPowers(fc.L_beta), alg.n)


@pytest.mark.parametrize("frame_seed", [0, 1])
def test_weight_filtration_matches_jordan_reference(calculus, frame_seed):
    """The kernel-sum filtrations of M, L_beta and L_sbar equal the ones
    assembled from Jordan chains, slice by slice, on the default-grid
    instances with n + b2 <= 8."""
    for n in (1, 2, 3):
        for b2 in range(4, 9 - n):
            alg, frame, fc, big = calculus(n, b2, frame_seed=frame_seed)
            for op in (fc.M, fc.L_beta, fc.L_sbar):
                assert graded_weight_filtration(GradedPowers(op), n) == \
                    jordan_weight_filtration(GradedPowers(op), n), (n, b2)


def test_crosscheck_with_random_isotropic(calculus):
    alg, frame, fc, big = calculus(2, 4)
    for v in sample_isotropic(alg.space, 2, seed=314):
        assert crosscheck_perverse_weight(
            GradedPowers(lefschetz(alg, v)), alg.n)


def test_conjugate_hodge(calculus):
    for key in [(1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        assert conjugate_hodge_check(
            GradedPowers(lefschetz(alg, frame.sbar)), big, alg.n)


def test_compare_gr_dims(calculus):
    for key in [(1, 4), (1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        left, right, ok = compare_gr_dims(GradedPowers(fc.M), big, alg.n)
        assert ok
        # degree-2 row: the diagonal boxes are 2 / (b2 - 4) / 2
        b2 = alg.b2
        row = {j: v for (d, j), v in left.entries.items() if d == 2 and v}
        expected = {-1: 2, 1: 2}
        if b2 > 4:
            expected[0] = b2 - 4
        assert row == expected


def test_dim_table_rendering(calculus):
    alg, frame, fc, big = calculus(1, 4)
    table = monodromy_weight_table(GradedPowers(fc.M), alg.n)
    js = table.to_json()
    assert js["entries"]
    right = perverse_hodge_table(big)
    assert sum(v for _, v in right.entries.items()) == sum(alg.dims().values())
