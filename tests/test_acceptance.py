"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (zero tolerance) unless stated otherwise.
"""

import json
from math import comb

import pytest

from hklab.filtrations import (
    GradedWeightFiltration,
    compare_gr_dims,
    conjugate_hodge_check,
    crosscheck_perverse_weight,
    graded_weight_filtration,
    verify_graded_weight_filtration,
    weight_filtration,
)
from hklab.linalg import Mat, QQ, Subspace, image_basis
from hklab.llv import (
    GradedOperator,
    GradedPowers,
    SL2Triple,
    bigrading,
    build_frame,
    commutator_op,
    frame_calculus,
    frame_triples,
    lefschetz,
    verify_derivation,
    verify_sl2,
)
from hklab.module_io import (
    corrupt_module,
    dump_canonical,
    export_module,
    load_module,
    make_spin_module,
    module_to_json,
    validate,
)
from hklab.quadforms import (
    IsotropicPlane,
    TwoOrbitObstruction,
    make_standard_space,
    witt_transport,
)
from hklab.verifier import (
    check_betti_mod4,
    check_condition_26,
    check_even_nagai,
    check_odd,
    diamond_report,
    nilpotence_profile,
)

GRID = [(n, b2) for n in (1, 2, 3) for b2 in (4, 5, 6, 7)]
BUILD_TIME_LIMIT_SECONDS = 60.0


def expected_dims(n, b2):
    return [comb(min(k, 2 * n - k) + b2 - 1, b2 - 1) for k in range(2 * n + 1)]


def report(number, title):
    print(f"[ACCEPTANCE] criterion {number:02d} ({title}): PASS")


def test_c01_dimension_oracle(built, build_times):
    for n, b2 in GRID:
        alg = built(n, b2)
        assert list(alg.dims().values()) == expected_dims(n, b2), (n, b2)
        took = build_times[(n, b2, 1)]
        assert took <= BUILD_TIME_LIMIT_SECONDS, \
            f"build of ({n},{b2}) took {took:.1f}s"
    report(1, "graded dimension table and build-time bound")


def test_c02_middle_degree_nilpotence(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        prof = nilpotence_profile(GradedPowers(fc.M)).per_degree
        assert prof[2 * n] == n, (n, b2)
        for k in range(0, n):
            assert prof[2 * k] <= n - 1, (n, b2, k)
    report(2, "index n at the middle degree, at most n-1 below")


def test_c03_power_vanishing(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        for d, m in alg.dims().items():
            if m == 0:
                continue
            assert fc.M.block(d).power(n + 1).is_zero(), (n, b2, d)
            if d < 2 * n:
                assert fc.M.block(d).power(n).is_zero(), (n, b2, d)
    report(3, "(n+1)-st power vanishes everywhere, n-th below the middle")


def test_c04_full_even_pattern(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        verdicts = check_even_nagai(nilpotence_profile(GradedPowers(fc.M)), n)
        bad = [v.claim for v in verdicts if not v.passed]
        assert not bad, (n, b2, bad)
    report(4, "index equals k on every even degree 2k up to the middle")


def test_c05_rank_two_shape(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        sp = alg.space
        m2 = fc.M.block(2)
        rows = [[QQ(0)] * b2 for _ in range(b2)]
        for j in range(b2):
            unit = [QQ(1) if t == j else QQ(0) for t in range(b2)]
            qb = sp.bilinear(frame.beta, unit)
            qs = sp.bilinear(frame.sbar, unit)
            for t in range(b2):
                rows[t][j] = qb * frame.sbar[t] - qs * frame.beta[t]
        model = Mat(b2, b2, rows)
        ratio = None
        for i in range(b2):
            for j in range(b2):
                if model.data[i][j]:
                    r = m2.data[i][j] / model.data[i][j]
                    ratio = r if ratio is None else ratio
                    assert r == ratio
                else:
                    assert m2.data[i][j] == 0
        assert ratio is not None and ratio != 0
        img = image_basis(m2)
        assert img.dim == 2
        assert img == Subspace.from_vectors(b2, [frame.beta, frame.sbar])
        assert sp.quad(frame.beta) == 0 and sp.quad(frame.sbar) == 0 \
            and sp.bilinear(frame.beta, frame.sbar) == 0
    report(5, "degree-2 block is the pairing form up to scale; image is the "
              "marked isotropic plane")


def test_c06_derivation_identity(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        rep = verify_derivation(alg, fc.M, trials=100, seed=100 + n + b2)
        assert rep.trials >= 100 and rep.passed, (n, b2, rep.failures[:1])
    report(6, "derivation identity on at least 100 random pairs per instance")


def test_c07_sl2_suite(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        for name, triple in frame_triples(fc).items():
            assert verify_sl2(triple), (n, b2, name)
        # the doubled pair brackets to kappa times H; kappa is recorded and
        # the normalised triple is exact (see the decisions ledger)
        assert fc.m_bracket_scalar == 4
        assert commutator_op(fc.M, commutator_op(fc.Lam_s, fc.L_eta)) == fc.H_M
        assert verify_sl2(SL2Triple(fc.E_M,
                                    fc.F_M.scale(QQ(1, 4)), fc.H_M))
    report(7, "frame sl2 triples exact; doubled pair verified with recorded "
              "bracket scalar 4")


def test_c08_weight_vs_bigraded_dims(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        left, right, ok = compare_gr_dims(GradedPowers(fc.M), big, n)
        assert ok, (n, b2)
    report(8, "graded weight dimensions match bigraded perverse sums for "
              "all degrees and offsets")


def test_c09_filtration_crosschecks(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        assert crosscheck_perverse_weight(
            GradedPowers(lefschetz(alg, frame.beta)), n), (n, b2)
        assert conjugate_hodge_check(
            GradedPowers(lefschetz(alg, frame.sbar)), big, n), (n, b2)
    report(9, "perverse chain equals reindexed weight chain; conjugate "
              "Hodge chain matches")


def test_c10_degree2_diamond(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        table = diamond_report(big, 2)
        rows = {}
        for (q, i), v in table.cells.items():
            rows[i] = rows.get(i, 0) + v
        assert rows == {0: 1, 1: b2 - 2, 2: 1}, (n, b2)
        assert table.cells.get((1, 0)) == 1       # beta cell
        assert table.cells.get((1, 2)) == 1       # eta cell
        assert table.cells.get((0, 1)) == 1       # holomorphic direction
        assert table.cells.get((2, 1)) == 1       # conjugate direction
        assert table.cells.get((1, 1), 0) == b2 - 4
        comps = big.degree_components(2)
        assert comps[(1, 1, 0)].contains(frame.beta)
        assert comps[(1, 1, 2)].contains(frame.eta)
    report(10, "degree-2 diamond rows 1 / (b2-2) / 1 with beta at i=0 and "
               "eta at i=2")


def test_c11_weight_filtration_axioms(calculus):
    for n, b2 in GRID[:6]:
        alg, frame, fc, big = calculus(n, b2)
        for d, m in alg.dims().items():
            if m == 0:
                continue
            block = GradedOperator({0: m}, 0, {0: fc.M.block(d)})
            wf = weight_filtration(fc.M.block(d), n)
            assert verify_graded_weight_filtration(block, wf), (n, b2, d)
        lop = lefschetz(alg, frame.beta)
        gwf = graded_weight_filtration(GradedPowers(lop), n)
        assert verify_graded_weight_filtration(lop, gwf), (n, b2)
    # uniqueness: agreement with the hand-built two-block chain
    rows = [[QQ(0)] * 5 for _ in range(5)]
    rows[1][0] = QQ(1)
    rows[2][1] = QQ(1)
    rows[4][3] = QQ(1)
    mat = Mat(5, 5, rows)
    hand = (
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0]]),
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1]]),
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
                                  [0, 1, 0, 0, 0]]),
        Subspace.from_vectors(5, [[0, 0, 1, 0, 0], [0, 0, 0, 0, 1],
                                  [0, 1, 0, 0, 0], [0, 0, 0, 1, 0]]),
        Subspace.full(5),
    )
    wf = weight_filtration(mat, 2)
    assert wf.slices[0] == hand
    assert verify_graded_weight_filtration(
        GradedOperator({0: 5}, 0, {0: mat}),
        GradedWeightFiltration(2, {0: 5}, {0: hand}))
    report(11, "weight filtration axioms verified; unique against a "
               "hand-built two-block chain")


def test_c12_witt_transport():
    sp = make_standard_space(6, [2, 2])
    from hklab.quadforms import sample_isotropic
    vs = sample_isotropic(sp, 30, seed=5)
    planes = []
    from hklab.linalg import rank
    e = lambda i: [1 if j == i else 0 for j in range(6)]
    planes.append(IsotropicPlane(sp, e(0), e(2)))
    planes.append(IsotropicPlane(sp, e(1), e(3)))
    planes.append(IsotropicPlane(sp, e(0), e(3)))
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            if sp.bilinear(vs[i], vs[j]) == 0 and \
                    rank(Mat.from_cols([vs[i], vs[j]])) == 2:
                planes.append(IsotropicPlane(sp, vs[i], vs[j]))
        if len(planes) >= 5:
            break
    assert len(planes) >= 4  # three coordinate planes plus a sampled one
    for a in planes[:4]:
        for b in planes[:4]:
            g = witt_transport(sp, a, b)
            assert g.matrix.transpose() * sp.gram * g.matrix == sp.gram
            assert g.matrix.det() == 1
            assert b.span().contains(g.apply(a.v1))
            assert b.span().contains(g.apply(a.v2))
    sp4 = make_standard_space(4, [])
    e = lambda i: [1 if j == i else 0 for j in range(4)]
    with pytest.raises(TwoOrbitObstruction):
        witt_transport(sp4, IsotropicPlane(sp4, e(0), e(2)),
                       IsotropicPlane(sp4, e(0), e(3)))
    report(12, "transport lands in SO(q) exactly; the dimension-4 "
               "two-orbit obstruction is detected")


def test_c13_module_ingestion(built, fixture_dir):
    alg = built(1, 4)
    obj = export_module(alg, label="exported instance n=1 b2=4 seed=1")
    text = dump_canonical(obj)
    spec = load_module(json.loads(text))
    assert dump_canonical(module_to_json(spec)) == text
    assert validate(spec).all_passed
    assert (fixture_dir / "sh_module.json").read_text(
        encoding="utf-8") == text

    bad = validate(load_module(corrupt_module(obj)))
    assert not bad.all_passed and all(c.witness for c in bad.failed())

    spin = load_module(make_spin_module(2))
    assert validate(spin).all_passed
    frame = build_frame(spin.space, seed=0)
    verdicts = check_odd(spin, frame)
    claims = {v.claim: v for v in verdicts}
    uppers = [v for c, v in claims.items() if "min(2k-3" in c]
    assert uppers and all(v.passed for v in uppers)
    formulas = [v for c, v in claims.items() if "index formula" in c]
    assert formulas and all(v.passed for v in formulas)
    betti = check_betti_mod4(bigrading(spin, frame_calculus(spin, frame)),
                             spin.degrees)
    assert all(v.passed for v in betti)
    report(13, "module export validates and round-trips; corruption is "
               "witnessed; odd fixtures exercise the bound checks")


def test_c14_condition_report_produced(calculus):
    for n, b2 in GRID:
        alg, frame, fc, big = calculus(n, b2)
        verdicts = check_condition_26(fc, big, n)
        expected_pairs = {(p, d - p) for d in range(0, 2 * n - 1, 2)
                          for p in range(0, d + 1)
                          if big.hodge_dim(p, d - p)}
        got_pairs = set()
        for v in verdicts:
            assert not v.asserted
            tag = v.claim.split("(p,q)=")[1]
            p, q = tag.strip("()").split(",")
            got_pairs.add((int(p), int(q)))
        assert got_pairs == expected_pairs, (n, b2)
    report(14, "per-(p,q) joint-kernel report produced and recorded on "
               "every instance")
