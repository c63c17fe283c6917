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
from hklab.llv import Bigrading, GradedOperator, GradedPowers, lefschetz
from hklab.quadforms import sample_isotropic
from hklab.verifier import InstanceConfig, run_instance
from jordan_reference import (
    graded_jordan_chains,
    jordan_weight_filtration,
    verify_all_rows,
)


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


def chain_from_rows(n, *slices):
    """Slices of QQ^n, each given by its spanning integer rows."""
    return tuple(Subspace.from_rows(n, rows) for rows in slices)


def both_checks(op, wf):
    """The fresh-row check, asserted to agree with the all-rows one."""
    ok = verify_graded_weight_filtration(op, wf)
    assert verify_all_rows(op, wf) is ok
    return ok


def test_weight_filtration_zero_map():
    zero = one_degree(Mat.zeros(3, 3))
    wf = weight_filtration(Mat.zeros(3, 3), 2)
    assert wf.graded_dims(0) == {2: 3}
    assert both_checks(zero, wf)
    # graded dims 1, 1, 1 at weights 0, 2, 4 are symmetric and the zero map
    # sends every W_i into W_{i-2}, but it is no bijection Gr_4 -> Gr_0
    w0 = Subspace.from_vectors(3, [[1, 0, 0]])
    w2 = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    ladder = GradedWeightFiltration(
        2, {0: 3}, {0: (w0, w0, w2, w2, Subspace.full(3))})
    assert ladder.graded_dims(0) == {0: 1, 2: 1, 4: 1}
    assert not both_checks(zero, ladder)


def test_only_a_fresh_row_leaves_w_i_minus_2():
    """Blocks e0 -> e1 -> e2 and f0 -> f1 (coordinates e0..e2, f0, f1),
    centred at 2, with W_2 = <e1 + f0, e2, f1>.  The fresh row e1 + f0 of
    W_2 maps to e2 + f1, which is in W_1 but not in W_0; every row of
    W_1, and of every other slice, maps where it must, and the Gr
    bijections hold."""
    op = one_degree(nilpotent_blocks(3, 2))
    e1, e2, f0, f1 = ([int(j == i) for j in range(5)] for i in (1, 2, 3, 4))
    chain = chain_from_rows(5, [e2], [e2, f1],
                            [[a + b for a, b in zip(e1, f0)], e2, f1],
                            [e1, e2, f0, f1], [[int(i == j) for j in range(5)]
                                               for i in range(5)])
    assert not both_checks(op, GradedWeightFiltration(2, {0: 5}, {0: chain}))


def test_nesting_break_is_rejected():
    """Blocks e0 -> e1 -> e2 and f, centred at 2: W_1 = <e2 + f> does not
    contain W_0 = <e2>, though its pivots contain W_0's and every other
    property holds."""
    op = one_degree(nilpotent_blocks(3, 1))
    chain = chain_from_rows(4, [[0, 0, 1, 0]], [[0, 0, 1, 1]],
                            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                            [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                            [[int(i == j) for j in range(4)]
                             for i in range(4)])
    assert not both_checks(op, GradedWeightFiltration(2, {0: 4}, {0: chain}))
    fixed = chain[:1] + chain[:1] + chain[2:]
    assert both_checks(op, GradedWeightFiltration(2, {0: 4}, {0: fixed}))


def test_gr_rank_defect_with_nonzero_images():
    """N e0 = N e1 = e2 on QQ^4, centred at 1: W_0 = <e2, e3> has the
    dimension of Gr_2 and takes every image, but N maps the two fresh rows
    e0, e1 of W_2 to one vector, so Gr_2 -> Gr_0 is no bijection."""
    m = Mat.from_rows([[0, 0, 0, 0], [0, 0, 0, 0], [1, 1, 0, 0],
                       [0, 0, 0, 0]])
    w0 = Subspace.from_rows(4, [[0, 0, 1, 0], [0, 0, 0, 1]])
    ladder = GradedWeightFiltration(1, {0: 4},
                                    {0: (w0, w0, Subspace.full(4))})
    assert not both_checks(one_degree(m), ladder)


def test_mis_sized_slice_is_rejected_not_raised():
    zero = one_degree(Mat.zeros(2, 2))
    full = Subspace.full(2)
    first = GradedWeightFiltration(1, {0: 2},
                                   {0: (Subspace.zero(3), full, full)})
    middle = GradedWeightFiltration(1, {0: 2},
                                    {0: (Subspace.zero(2), Subspace.full(3),
                                         full)})
    assert verify_graded_weight_filtration(zero, first) is False
    assert verify_graded_weight_filtration(zero, middle) is False


@pytest.mark.parametrize("seed", [0, 1])
def test_run_instance_filtrations_agree_with_all_rows_check(monkeypatch,
                                                            seed):
    """Every chain that run_instance verifies on the default grid, the
    conjugate Hodge chain of L_sbar and the reindexed perverse chain of
    L_beta, gets the same verdict from the all-rows check.  M's weight
    table comes from the ranks of its powers, so no chain of M is built."""
    real = filtrations.verify_graded_weight_filtration
    seen = []

    def checked(op, wf):
        ok = real(op, wf)
        assert verify_all_rows(op, wf) is ok
        seen.append(ok)
        return ok

    monkeypatch.setattr(filtrations, "verify_graded_weight_filtration",
                        checked)
    for n in (1, 2, 3):
        for b2 in range(4, 8):
            assert run_instance(InstanceConfig(n, b2, seed=seed)
                                ).all_asserted_passed
    assert seen == [True] * 24


def test_kernel_sum_keeps_the_kernel_when_no_image_is_added():
    """L maps degree 0 to degree 2 by e0 -> e0: below degree 0 nothing
    maps in, so its slices are the kernels of the powers themselves."""
    op = GradedOperator({0: 2, 2: 2}, 2,
                        {0: Mat.from_rows([[1, 0], [0, 0]])})
    powers = GradedPowers(op)
    assert filtrations._kernel_sum(powers, 0, 0) is powers.kernel(0, 1)
    assert filtrations._kernel_sum(powers, 0, -1) is powers.kernel(0, 0)
    assert filtrations._kernel_sum(powers, 0, 0) == \
        Subspace.from_rows(2, [[0, 1]])
    # in degree 2 the image of degree 0 is added
    assert filtrations._kernel_sum(powers, 2, -1) == \
        Subspace.from_rows(2, [[1, 0]])


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
    assert both_checks(op, GradedWeightFiltration(2, {0: 5},
                                                  {0: tuple(hand)}))
    shifted = GradedWeightFiltration(2, {0: 5},
                                     {0: tuple(hand[1:] + [hand[-1]])})
    assert not both_checks(op, shifted)
    assert not both_checks(op, GradedWeightFiltration(2, {}, {}))


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


def _direct_kernel_sum(powers, d, l):
    """sum_{j >= 0} op^j Ker(op^(l+2j+1)) in degree d, term by term."""
    op = powers.op
    rows = []
    for j in range(graded_nilpotence_index(powers) + 1):
        src = d - op.offset * j
        if l + 2 * j + 1 > 0 and op.dim(src):
            shift = powers.power(src, j)
            rows += [shift.times_row(r)
                     for r in powers.kernel(src, l + 2 * j + 1).rows]
    return Subspace.from_rows(op.dim(d), rows)


@pytest.mark.parametrize("n,b2,frame_seed", [
    pytest.param(n, b2, seed, id=f"{n}-{b2}" + ("-s1" if seed else ""))
    for seed in (0, 1) for n, b2 in [(1, 4), (2, 5), (3, 4)]])
def test_perverse_chain_matches_the_direct_kernel_sum(calculus, n, b2,
                                                      frame_seed):
    """The top-down kernel sums equal the sum formula evaluated term by
    term, on every degree and every index of the perverse chain; at frame
    seed 1 the images are dense, so adding them to the kernel changes
    the kernel's rows."""
    alg, frame, fc, big = calculus(n, b2, frame_seed=frame_seed)
    powers = GradedPowers(fc.L_beta)
    for d in sorted(alg.dims()):
        chain = perverse_filtration(powers, n, d)
        assert chain == {i: _direct_kernel_sum(powers, d, i - d + n)
                         for i in chain}


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


@pytest.mark.parametrize("frame_seed", [0, 1])
def test_conjugate_hodge_detects_a_moved_component(calculus, frame_seed):
    """Moving one component V^(p,q,i) to (p+1, q-1, i), with 0 < q <= 2n,
    makes it enter the candidate chain one index late, at 2n - q + 1, so
    the candidate is not the weight filtration of L_sbar and fails."""
    alg, frame, fc, big = calculus(2, 5, frame_seed=frame_seed)
    n = alg.n
    powers = GradedPowers(fc.L_sbar)
    assert conjugate_hodge_check(powers, big, n)
    moved = [key for key, sub in big.components.items()
             if sub.dim and 0 < key[1] <= 2 * n]
    assert moved
    for p, q, i in moved:
        comps = dict(big.components)
        sub = comps.pop((p, q, i))
        new = (p + 1, q - 1, i)
        comps[new] = comps.get(new, Subspace.zero(sub.ambient_dim)).plus(
            sub.rows)
        assert not conjugate_hodge_check(
            powers, Bigrading(big.n, big.degrees, comps), n), (p, q, i)


def test_conjugate_hodge_needs_index_at_most_n(calculus):
    """An anisotropic class has L_x of index 2n > n, so no weight
    filtration centred at n exists to compare with."""
    alg, frame, fc, big = calculus(1, 4)
    with pytest.raises(FiltrationError, match="exceeds the centre"):
        conjugate_hodge_check(GradedPowers(lefschetz(alg, [1, 1, 0, 0])),
                              big, alg.n)


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


@pytest.mark.parametrize("frame_seed", [0, 1])
def test_rank_formula_table_matches_the_weight_filtration(calculus,
                                                          frame_seed):
    """M's Gr table from the ranks of its powers equals the graded
    dimensions of its kernel-sum weight filtration on the default grid."""
    for n in (1, 2, 3):
        for b2 in range(4, 8):
            alg, frame, fc, big = calculus(n, b2, frame_seed=frame_seed)
            wf = graded_weight_filtration(GradedPowers(fc.M), n)
            assert monodromy_weight_table(GradedPowers(fc.M), n).entries \
                == {(d, i - n): v for d in wf.degrees
                    for i, v in wf.graded_dims(d).items()}, (n, b2)


def test_rank_formula_on_a_hand_built_jordan_type():
    """Jordan type (3, 1, 1) on degree 4, centred at 2: the block of size
    3 puts one vector at each of l = -2, 0, 2, and each block of size 1
    one at l = 0."""
    m = nilpotent_blocks(3, 1, 1)
    powers = GradedPowers(GradedOperator({4: m.rows}, 0, {4: m}))
    assert monodromy_weight_table(powers, 2).entries == \
        {(4, -2): 1, (4, 0): 3, (4, 2): 1}
    with pytest.raises(FiltrationError, match="exceeds the centre"):
        monodromy_weight_table(powers, 1)
    # the formula reads one degree at a time, so it needs degree 0
    lop = GradedOperator({0: m.rows, 2: m.rows}, 2, {0: m})
    with pytest.raises(FiltrationError, match="degree-0"):
        monodromy_weight_table(GradedPowers(lop), 2)


def test_dim_table_rendering(calculus):
    alg, frame, fc, big = calculus(1, 4)
    table = monodromy_weight_table(GradedPowers(fc.M), alg.n)
    js = table.to_json()
    assert js["entries"]
    right = perverse_hodge_table(big)
    assert sum(v for _, v in right.entries.items()) == sum(alg.dims().values())
