from types import SimpleNamespace

import pytest

from hklab.linalg import QQ, Mat, Subspace
from hklab.llv import (
    Bigrading,
    GradedOperator,
    GradedPowers,
    OperatorError,
    SL2Triple,
    _weights_hold,
    bigrading,
    build_frame,
    commutator_op,
    frame_calculus,
    frame_triples,
    verify_sl2,
)
from hklab.module_io import (
    algebra_module,
    corrupt_module,
    export_module,
    load_module,
    make_ladder_module,
    make_spin_module,
)
from hklab.verifier import (
    DEFAULT_GRID,
    InstanceConfig,
    NilpotenceProfile,
    REPORT_HEADER,
    Verdict,
    check_betti_mod4,
    check_condition_26,
    check_even_nagai,
    check_level_reformulation,
    check_m_degree2,
    check_odd,
    check_sl2_suite,
    diamond_report,
    exit_code,
    nilpotence_profile,
    run_instance,
)


def test_profile_examples(calculus):
    alg, frame, fc, big = calculus(1, 5)
    prof = nilpotence_profile(GradedPowers(fc.M))
    assert prof.per_degree == {0: 0, 2: 1, 4: 0}
    alg, frame, fc, big = calculus(2, 5)
    prof = nilpotence_profile(GradedPowers(fc.M))
    assert prof.per_degree == {0: 0, 2: 1, 4: 2, 6: 1, 8: 0}


def test_even_nagai_passes(calculus):
    for key in [(1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        verdicts = check_even_nagai(nilpotence_profile(GradedPowers(fc.M)), alg.n)
        assert all(v.passed for v in verdicts), \
            [v.claim for v in verdicts if not v.passed]


def test_even_nagai_detects_corruption(calculus):
    alg, frame, fc, big = calculus(1, 5)
    blocks = dict(fc.M.blocks)
    blocks[2] = Mat.zeros(5, 5)
    broken = GradedOperator(fc.M.degrees, 0, blocks)
    verdicts = check_even_nagai(nilpotence_profile(GradedPowers(broken)), alg.n)
    bad = [v for v in verdicts if not v.passed]
    assert bad and all(v.witness for v in bad)


def _shift(k):
    """The k x k nilpotent shift e_j -> e_(j+1), of index k - 1."""
    return Mat.from_rows([[1 if i == j + 1 else 0 for j in range(k)]
                          for i in range(k)])


_VERDICT_KEYS = ("claim", "expected", "observed", "passed", "witness",
                 "asserted")

# (n, b2), degrees given a shift block, and every verdict of
# check_even_nagai on that copy of M, as (claim, expected, observed,
# passed, witness, asserted).  Recorded from the implementation that took
# matrix powers of each block directly, so the profile-based verdicts are
# pinned to the same text.
_PLANTED = [
    ((2, 4), (2,), [
        ("nilp(M_0) = 0", "0", "0", True, "", True),
        ("nilp(M_2) = 1", "1", "3", False, "observed 3, expected 1", True),
        ("nilp(M_4) = 2", "2", "2", True, "", True),
        ("nilp(M_4) = n", "2", "2", True, "", True),
        ("nilp(M_0) <= n-1", "<= 1", "0", True, "", True),
        ("nilp(M_2) <= n-1", "<= 1", "3", False,
         "observed 3, expected <= 1", True),
        ("M^(n+1) = 0 on every even degree", "zero matrices", "nonzero",
         False, "M^3 != 0 on degree 2", True),
        ("M^n = 0 strictly below the middle degree", "zero matrices",
         "nonzero", False, "M^2 != 0 on degree 2", True),
        ("profile duality nilp(M_d) = nilp(M_(4n-d))", "symmetric",
         "asymmetric", False, "nilp(M_2) = 3 != nilp(M_6)", True),
    ]),
    ((2, 4), (4,), [
        ("nilp(M_0) = 0", "0", "0", True, "", True),
        ("nilp(M_2) = 1", "1", "1", True, "", True),
        ("nilp(M_4) = 2", "2", "9", False, "observed 9, expected 2", True),
        ("nilp(M_4) = n", "2", "9", False, "observed 9, expected 2", True),
        ("nilp(M_0) <= n-1", "<= 1", "0", True, "", True),
        ("nilp(M_2) <= n-1", "<= 1", "1", True, "", True),
        ("M^(n+1) = 0 on every even degree", "zero matrices", "nonzero",
         False, "M^3 != 0 on degree 4", True),
        ("M^n = 0 strictly below the middle degree", "zero matrices",
         "zero", True, "", True),
        ("profile duality nilp(M_d) = nilp(M_(4n-d))", "symmetric",
         "symmetric", True, "", True),
    ]),
    ((2, 5), (0, 2, 6), [
        ("nilp(M_0) = 0", "0", "0", True, "", True),
        ("nilp(M_2) = 1", "1", "4", False, "observed 4, expected 1", True),
        ("nilp(M_4) = 2", "2", "2", True, "", True),
        ("nilp(M_4) = n", "2", "2", True, "", True),
        ("nilp(M_0) <= n-1", "<= 1", "0", True, "", True),
        ("nilp(M_2) <= n-1", "<= 1", "4", False,
         "observed 4, expected <= 1", True),
        ("M^(n+1) = 0 on every even degree", "zero matrices", "nonzero",
         False, "M^3 != 0 on degree 2", True),
        ("M^n = 0 strictly below the middle degree", "zero matrices",
         "nonzero", False, "M^2 != 0 on degree 2", True),
        ("profile duality nilp(M_d) = nilp(M_(4n-d))", "symmetric",
         "symmetric", True, "", True),
    ]),
    ((1, 5), (2,), [
        ("nilp(M_0) = 0", "0", "0", True, "", True),
        ("nilp(M_2) = 1", "1", "4", False, "observed 4, expected 1", True),
        ("nilp(M_2) = n", "1", "4", False, "observed 4, expected 1", True),
        ("nilp(M_0) <= n-1", "<= 0", "0", True, "", True),
        ("M^(n+1) = 0 on every even degree", "zero matrices", "nonzero",
         False, "M^2 != 0 on degree 2", True),
        ("M^n = 0 strictly below the middle degree", "zero matrices",
         "zero", True, "", True),
        ("profile duality nilp(M_d) = nilp(M_(4n-d))", "symmetric",
         "symmetric", True, "", True),
    ]),
]


@pytest.mark.parametrize(
    "key,degrees,expected", _PLANTED,
    ids=[f"n{n}b{b2}-d" + "_".join(map(str, degs))
         for (n, b2), degs, _ in _PLANTED])
def test_even_nagai_planted_shift_json(calculus, key, degrees, expected):
    alg, frame, fc, big = calculus(*key)
    blocks = dict(fc.M.blocks)
    for d in degrees:
        blocks[d] = _shift(fc.M.dim(d))
    planted = GradedOperator(fc.M.degrees, 0, blocks)
    verdicts = check_even_nagai(nilpotence_profile(GradedPowers(planted)), alg.n)
    assert [v.to_json() for v in verdicts] == \
        [dict(zip(_VERDICT_KEYS, row)) for row in expected]


def test_condition_26_recorded(calculus):
    alg, frame, fc, big = calculus(2, 5)
    verdicts = check_condition_26(fc, big, alg.n)
    assert verdicts
    assert all(not v.asserted for v in verdicts)
    assert all(v.passed for v in verdicts)
    claims = [v.claim for v in verdicts]
    assert any("(0,0)" in c for c in claims)
    # on these instances multiplication below the middle is free, so every
    # recorded joint kernel comes out trivial (including all q < n pieces)
    for v in verdicts:
        assert v.passed


def test_level_reformulation(calculus):
    alg, frame, fc, big = calculus(1, 5)
    verdicts = check_level_reformulation(big, alg.n)
    assert all(v.passed for v in verdicts)
    # synthetic violation: |p-q| = 2 but i = 0 allows only level 0 here
    fake = Bigrading(2, {4: 1}, {(3, 1, 0): Subspace.full(1)})
    bad = check_level_reformulation(fake, 2)
    assert any(not v.passed for v in bad)


def test_m_degree2_checks(calculus):
    alg, frame, fc, big = calculus(2, 4)
    verdicts = check_m_degree2(fc)
    assert all(v.passed for v in verdicts)


def test_sl2_suite_verdicts(calculus):
    alg, frame, fc, big = calculus(1, 4)
    verdicts = check_sl2_suite(fc)
    asserted = [v for v in verdicts if v.asserted]
    assert all(v.passed for v in asserted)
    recorded = {v.claim: v for v in verdicts if not v.asserted}
    assert any("kappa" in c for c in recorded)
    kappa = [v for c, v in recorded.items() if "kappa" in c][0]
    assert kappa.observed == "4"


@pytest.mark.parametrize("t, kappa, bracket_holds", [
    ("1", 4, True), ("2", 8, False), ("1/4", 1, False)])
def test_sl2_bracket_verdicts_read_off_kappa(built, t, kappa, bracket_holds):
    """A module whose Lambda table is scaled by t has kappa = 4t.  The
    verdicts on [M, [Lam_s, L_eta]] and on the literal pair, read off
    kappa, equal the brackets formed directly."""
    alg = built(1, 5)
    spec = algebra_module(alg)
    scaled = SimpleNamespace(
        n=spec.n, degrees=spec.degrees, l_of=spec.l_of,
        lambda_of=lambda y: spec.lambda_of(y).scale(QQ(t)))
    fc = frame_calculus(scaled, build_frame(alg.space))
    assert fc.m_bracket_scalar == kappa
    bracket = commutator_op(
        fc.M, commutator_op(fc.Lam_s, fc.L_eta)) == fc.H_M
    literal = verify_sl2(SL2Triple(fc.E_M, fc.F_M, fc.H_M))
    assert (bracket, literal) == (bracket_holds, False)
    got = {v.claim: (v.observed, v.passed) for v in check_sl2_suite(fc)}
    assert got["[M, [Lam_s, L_eta]] = H_beta - H_s"] == (
        ("holds", True) if bracket else ("fails", False))
    assert got["literal doubled pair (2M, 2[Lam_s,L_eta], H_beta-H_s) "
               "as printed"] == ("not an sl2 triple", True)


def test_check_odd_vacuous():
    spec = load_module(make_ladder_module())
    assert spec.odd_degrees() == []
    verdicts = check_odd(spec, frame=None)  # frame unused without odd part
    assert len(verdicts) == 1 and verdicts[0].passed
    assert "vacuous" in verdicts[0].witness


def test_check_odd_spin_module():
    spec = load_module(make_spin_module(2))
    frame = build_frame(spec.space, seed=0)
    verdicts = check_odd(spec, frame)
    by_claim = {v.claim: v for v in verdicts}
    uppers = [v for c, v in by_claim.items() if "min(2k-3" in c]
    assert uppers and all(v.passed for v in uppers)
    formulas = [v for c, v in by_claim.items() if "index formula" in c]
    assert formulas and all(v.passed for v in formulas)
    lowers = [v for c, v in by_claim.items() if "lower bound" in c]
    assert lowers and all(v.passed for v in lowers)
    # degree 3 is populated: the exact expected values hold on this fixture
    assert by_claim["degree 3 populated: nilp(M_3) = 1"].passed
    top = [v for c, v in by_claim.items() if "n-1" in c and "populated" in c]
    assert top and all(v.passed for v in top)


def test_check_odd_refuses_invalid(built):
    from hklab.module_io import corrupt_module, export_module
    bad = load_module(corrupt_module(export_module(built(1, 4))))
    frame = build_frame(bad.space, seed=0)
    with pytest.raises(ValueError):
        check_odd(bad, frame)


def test_betti_mod4_spin():
    spec = load_module(make_spin_module(2))
    frame = build_frame(spec.space, seed=0)
    verdicts = check_betti_mod4(bigrading(spec, frame_calculus(spec, frame)),
                                spec.degrees)
    assert all(v.passed for v in verdicts)
    assert any("symmetry" in v.claim for v in verdicts)
    assert any("divisible by 4" in v.claim for v in verdicts)


def test_betti_mod4_vacuous_and_asymmetric():
    verdicts = check_betti_mod4(Bigrading(1, {0: 1}, {}), {0: 1})
    assert len(verdicts) == 1 and verdicts[0].passed
    asym = Bigrading(2, {3: 2},
                     {(1, 2, 1): Subspace.full(2)})
    verdicts = check_betti_mod4(asym, {3: 2})
    assert not verdicts[0].passed
    assert len(verdicts) == 1  # divisibility not asserted after symmetry fails


def test_diamond_reports(calculus):
    alg, frame, fc, big = calculus(1, 5)
    table = diamond_report(big, 2)
    assert table.cells == {(0, 1): 1, (1, 1): 1, (2, 1): 1,
                           (1, 0): 1, (1, 2): 1}
    text = table.render_text()
    assert "i\\q" in text
    zero = diamond_report(big, 0)
    assert list(zero.cells.values()) == [1]
    # middle diamond is symmetric under (q, i) -> (d - q, i)
    alg2, frame2, fc2, big2 = calculus(2, 5)
    mid = diamond_report(big2, 2 * alg2.n)
    d = 2 * alg2.n
    for (q, i), v in mid.cells.items():
        assert mid.cells.get((d - q, i)) == v


def test_run_instance_and_exit_code(calculus):
    alg, frame, fc, big = calculus(1, 4)
    cfg = InstanceConfig(n=1, b2=4, seed=1)
    report = run_instance(cfg, alg=alg)
    assert report.all_asserted_passed
    assert exit_code(report) == 0
    js = report.to_json()
    assert js["header"] == REPORT_HEADER
    assert js["instance"]["n"] == 1
    assert js["profile"] == {"0": "0", "2": "1", "4": "0"} or \
        js["profile"] == {"0": 0, "2": 1, "4": 0}
    assert js["all_asserted_passed"] is True


def test_run_instance_builds_each_operator_once(built, monkeypatch):
    """The filtrations read L_beta and L_sbar from the frame calculus, so
    run_instance builds one Lefschetz operator per basis vector of the
    degree-2 space; the nilpotence profile and the weight table of M share
    one power ladder, and no operator gets a second one."""
    from hklab import filtrations, llv, module_io, verifier
    alg = built(2, 5)
    lefschetz_calls = []
    real = llv.lefschetz

    def counting(*args, **kwargs):
        lefschetz_calls.append(args)
        return real(*args, **kwargs)

    for mod in (llv, module_io, filtrations, verifier):
        if getattr(mod, "lefschetz", None) is real:
            monkeypatch.setattr(mod, "lefschetz", counting)
    laddered = []  # the operators themselves, so no id is reused
    real_init = llv.GradedPowers.__init__

    def counting_init(self, op):
        laddered.append(op)
        real_init(self, op)

    monkeypatch.setattr(llv.GradedPowers, "__init__", counting_init)
    report = run_instance(InstanceConfig(n=2, b2=5, seed=1), alg=alg)
    assert report.all_asserted_passed
    assert len(lefschetz_calls) == alg.space.dim
    assert len({id(op) for op in laddered}) == len(laddered)
    assert sum(op.offset == 0 for op in laddered) == 1  # the monodromy M


def _sl2_verdicts(verdicts) -> dict:
    """Triple name -> passed, for the per-triple verdicts of the suite."""
    return {v.claim.split("'")[1]: v.passed for v in verdicts
            if v.claim.startswith("sl2 triple '")}


@pytest.mark.parametrize("frame_seed", [0, 1])
def test_sl2_suite_agrees_with_full_verify_sl2(calculus, frame_seed):
    """The suite checks only [h,e] = 2e and [h,f] = -2f, since [e,f] = h
    holds by construction; its verdict on every frame triple is that of
    the full three-identity check on the default grid."""
    for n, b2 in DEFAULT_GRID:
        alg, frame, fc, big = calculus(n, b2, frame_seed=frame_seed)
        full = {name: verify_sl2(t) for name, t in frame_triples(fc).items()}
        assert _sl2_verdicts(check_sl2_suite(fc)) == full, (n, b2)
        assert all(full.values()), (n, b2)


def test_verify_sl2_still_checks_the_bracket_of_e_and_f(calculus):
    """With the counting operator h in place of H_s, the sigma triple
    keeps both weight identities but [e,f] = h fails, and only the full
    check sees it."""
    alg, frame, fc, big = calculus(2, 5)
    planted = SL2Triple(fc.L_s, fc.Lam_sbar, fc.h)
    assert commutator_op(planted.e, planted.f) != planted.h
    assert _weights_hold(planted)
    assert not verify_sl2(planted)


def test_sl2_suite_brackets_the_diagonal_h_without_products(calculus,
                                                          monkeypatch):
    """At frame seed 0 every h of the frame triples is diagonal, so the
    suite's [h, .] brackets are read off the diagonals: no integer product
    accumulator (linalg.lincomb) runs.  The triples are formed beforehand,
    as frame_triples brackets [L_eta, Lam_beta] for the eta triple."""
    from hklab import linalg, llv, verifier
    alg, frame, fc, big = calculus(3, 4)
    triples = frame_triples(fc)
    assert all(t.h.is_diagonal() for t in triples.values())
    calls, real = [], linalg.lincomb

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(verifier, "frame_triples", lambda _: triples)
    monkeypatch.setattr(llv, "lincomb", counting)
    monkeypatch.setattr(linalg, "lincomb", counting)
    verdicts = check_sl2_suite(fc)
    assert all(v.passed for v in verdicts if v.asserted)
    assert calls == []


def test_verdict_witness_autofill():
    v = Verdict(claim="x", expected="1", observed="2", passed=False)
    assert v.witness
    assert not Verdict(claim="x", expected="1", observed="1",
                       passed=True).witness


def test_profile_validation():
    with pytest.raises(ValueError):
        NilpotenceProfile({2: -1})
    with pytest.raises(ValueError):
        nilpotence_profile(GradedPowers(GradedOperator(
            {0: 1, 2: 1}, 2, {0: Mat.zeros(1, 1)})))


def test_negative_nilpotence_index_is_an_operator_error():
    with pytest.raises(OperatorError, match="cannot be negative"):
        NilpotenceProfile({2: -1})


def test_profile_of_a_shifting_operator_is_an_operator_error():
    with pytest.raises(OperatorError, match="degree-0 operator"):
        nilpotence_profile(GradedPowers(GradedOperator(
            {0: 1, 2: 1}, 2, {0: Mat.zeros(1, 1)})))


def test_odd_analysis_of_an_invalid_module_is_an_operator_error(built):
    bad = load_module(corrupt_module(export_module(built(1, 4))))
    with pytest.raises(OperatorError, match="refusing"):
        check_odd(bad, build_frame(bad.space, seed=0))


def test_default_grid_contents():
    assert (1, 4) in DEFAULT_GRID and (3, 7) in DEFAULT_GRID
    assert len(DEFAULT_GRID) == 12


def test_level_bound_consistent_with_weight_vanishing(calculus):
    """The level bound holds exactly when the weight graded pieces vanish
    outside the |j| <= k window on even degrees; both facts are computed
    independently here and must agree."""
    from hklab.filtrations import monodromy_weight_table
    for key in [(1, 5), (2, 4), (2, 5)]:
        alg, frame, fc, big = calculus(*key)
        verdicts = check_level_reformulation(big, alg.n)
        level_ok = all(v.passed for v in verdicts)
        table = monodromy_weight_table(GradedPowers(fc.M), alg.n)
        vanishing_ok = all(
            v == 0 for (d, j), v in table.entries.items()
            if d % 2 == 0 and abs(j) > d // 2)
        assert level_ok == vanishing_ok == True  # noqa: E712
