"""The linear dual-Lefschetz table against the one-completion-per-vector loop.

`llv.linear_dual_table` completes only the first basis vector x0 by
`sl2_complete` and takes the table from the double bracket
T(x) = ([[L_x, Lam(x0)], Lam(x0)] + 2 q(x0, x) Lam(x0)) / q(x0), which is
linear in x: T_s, its value on the unit vector e_s, is formed from the
module's L_s.  T(x0) = Lam(x0) once the completion is certified, and every
other basis vector x is certified by [L_x, T(x)] = (q(x)/2) h, accumulated
over the terms x_s x_t [L_s, T_t].  A vector that fails is completed, and
only then is the basis inverted, to correct the table by
sum_i (B^-1)_{i,s} (v_i - T(x_i)) over the completed x_i.
`_reference_table` keeps the loop that completes every basis vector and
inverts the basis; the tables must be equal, and a module that is not an
LLV module must give the same error.  The declared-Lambda checks of
validation accumulate the same way and must agree with forming L_x and
the table's combination.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab import llv
from hklab.linalg import QQ, Mat, invert
from hklab.llv import (
    NotLefschetzError,
    OperatorError,
    anisotropic_basis,
    combine,
    commutator_op,
    grading,
    lefschetz,
    linear_dual_table,
    sl2_complete,
)
from hklab.module_io import (
    algebra_module, export_module, load_module, make_spin_module)
from hklab.quadforms import QuadraticSpace, make_standard_space
from hklab.verbitsky import build_verbitsky
from hklab.verifier import DEFAULT_GRID

FIXTURES = ("sh", "spin", "ladder", "corrupted", "shifted")

# Non-diagonal, with a 1/2 entry, q(e0) = 3 and every q(e0, e_i) nonzero.
RATIONAL_GRAM = [[3, QQ(1, 2), 1, 1],
                 [QQ(1, 2), -2, 1, 3],
                 [1, 1, 4, -1],
                 [1, 3, -1, -6]]


def _reference_table(space, n, l_of):
    """The table from one sl2 completion per variant-0 basis vector."""
    basis = anisotropic_basis(space, variant=0)
    lops = [l_of(x) for x in basis]
    h = grading(lops[0].degrees, n)
    duals = []
    for lop in lops:
        lam = sl2_complete(lop, n)
        if commutator_op(lop, lam) != h:
            raise NotLefschetzError("sl2 completion failed the bracket identity")
        duals.append(lam)
    half_q = [space.quad(x) / 2 for x in basis]
    binv = invert(Mat.from_cols(basis))
    table = [combine([c * w for c, w in zip(binv.col(s), half_q)], duals)
             for s in range(space.dim)]
    for y in anisotropic_basis(space, variant=1):
        if commutator_op(l_of(y), combine(y, table)) != \
                h.scale(space.quad(y) / 2):
            raise OperatorError(
                "linear extension of the dual Lefschetz is basis-dependent")
    return table


def _outcome(spec, reference=False):
    try:
        if reference:
            return _reference_table(spec.space, spec.n, spec.l_of)
        return linear_dual_table(spec.space, spec.n, spec.l_actions)
    except ValueError as exc:
        return type(exc), str(exc)


def _spy(monkeypatch, name):
    """The list of calls made through llv.<name>, recorded by argument."""
    calls = []
    real = getattr(llv, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(llv, name, counting)
    return calls


@pytest.fixture
def completions(monkeypatch):
    """The sl2_complete calls made through llv."""
    return _spy(monkeypatch, "sl2_complete")


@pytest.fixture
def inversions(monkeypatch):
    """The invert calls made through llv."""
    return _spy(monkeypatch, "invert")


@pytest.mark.parametrize("n,b2", DEFAULT_GRID)
@pytest.mark.parametrize("seed", [0, 1])
def test_table_matches_the_reference_on_the_grid(built, completions,
                                                 inversions, n, b2, seed):
    spec = algebra_module(built(n, b2, seed))
    got = linear_dual_table(spec.space, spec.n, spec.l_actions)
    assert (len(completions), len(inversions)) == (1, 0)
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


@pytest.mark.parametrize("name", FIXTURES)
def test_table_matches_the_reference_on_the_fixtures(fixture_dir, name):
    spec = load_module(fixture_dir / f"{name}_module.json")
    assert _outcome(spec) == _outcome(spec, reference=True)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_matches_the_reference_on_the_spin_module(completions,
                                                        inversions, n):
    spec = load_module(make_spin_module(n))
    got = linear_dual_table(spec.space, spec.n, spec.l_actions)
    assert (len(completions), len(inversions)) == (1, 0)
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


def test_table_matches_the_reference_on_a_rational_gram(completions):
    space = QuadraticSpace(Mat.from_rows(RATIONAL_GRAM))
    spec = algebra_module(build_verbitsky(space, 2, seed=0))
    got = linear_dual_table(spec.space, spec.n, spec.l_actions)
    assert len(completions) == 1
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


def test_a_wrong_coefficient_falls_back_on_every_vector(monkeypatch,
                                                        completions):
    """With q(x0, x) in place of 2 q(x0, x) no candidate passes its
    certificate (every q(x0, x) is nonzero here), so every vector is
    completed, the table is corrected on every vector, x0 included (whose
    T(x0) is now zero), and is still the reference's."""
    real = llv._double_bracket_dual
    monkeypatch.setattr(
        llv, "_double_bracket_dual",
        lambda lop, lam0, q0, q0x: real(lop, lam0, q0, q0x / 2))
    space = QuadraticSpace(Mat.from_rows(RATIONAL_GRAM))
    basis = anisotropic_basis(space, variant=0)
    assert all(space.bilinear(basis[0], x) for x in basis)
    spec = algebra_module(build_verbitsky(space, 2, seed=0))
    got = linear_dual_table(spec.space, spec.n, spec.l_actions)
    assert len(completions) == space.dim
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


@pytest.mark.parametrize("n", [1, 2])
def test_table_certified_at_lists_where_the_certificates_ran(monkeypatch,
                                                            n):
    """Validation skips a declared Lambda's certificate at the vectors
    table_certified_at lists, so they must be the table's: x0, certified
    by its completion, and every vector _certified ran at.  Against any
    operator but the grading, no vector is listed."""
    spec = load_module(make_spin_module(n))
    ran = []
    real = llv._certified

    def spy(x, *rest):
        ran.append(tuple(x))
        return real(x, *rest)

    monkeypatch.setattr(llv, "_certified", spy)
    linear_dual_table(spec.space, spec.n, spec.l_actions)
    listed = llv.table_certified_at(spec.space, spec.n, spec.l_actions,
                                    spec.h_action)
    assert listed[0] == anisotropic_basis(spec.space, variant=0)[0]
    assert sorted(map(tuple, listed[1:])) == sorted(ran)
    assert llv.table_certified_at(spec.space, spec.n, spec.l_actions,
                                  spec.h_action.scale(2)) == []


def test_a_non_lefschetz_second_vector_raises_the_completion_error(built):
    """L'(x) = L(x) + phi(x) (L(z) - L(x1)), phi(x0) = 0 and phi(x1) = 1,
    keeps L'(x0) = L(x0) and puts L'(x1) = L(z) for the isotropic z = e0,
    which is no Lefschetz operator: its candidate fails, and the completion
    raises what the loop over every vector raised."""
    alg = built(2, 5)
    spec = algebra_module(alg)
    basis = anisotropic_basis(spec.space, variant=0)
    z = [1, 0, 0, 0, 0]
    assert spec.space.quad(z) == 0
    phi = invert(Mat.from_cols(basis)).row(1)
    delta = lefschetz(alg, z) - spec.l_of(basis[1])
    bad = replace(spec, l_actions=[l + delta.scale(c) for c, l
                                   in zip(phi, spec.l_actions)])
    assert bad.l_of(basis[0]) == spec.l_of(basis[0])
    message = "ladders span 6 of 5 dimensions in degree 2"
    assert _outcome(bad, reference=True) == (NotLefschetzError, message)
    with pytest.raises(NotLefschetzError) as info:
        linear_dual_table(bad.space, bad.n, bad.l_actions)
    assert str(info.value) == message


def _reference_basis(space, variant):
    """anisotropic_basis with each candidate's norm from QuadraticSpace.quad
    and its independence from sympy's rank."""
    sympy = pytest.importorskip("sympy")
    n = space.dim
    coeff_order = (1, 2, -1, -2, 3) if variant == 0 else (-1, -2, 1, 2, 3)

    def candidates(i):
        unit = [QQ(int(j == i)) for j in range(n)]
        if not variant:
            yield unit
        for c in coeff_order:
            for shift in range(1, n):
                cand = list(unit)
                cand[(i + shift) % n] = QQ(c)
                yield cand
        yield unit

    def independent(cand):
        """Whether cand raises the sympy rank of the vectors chosen."""
        rows = [[sympy.Rational(int(x.numerator), int(x.denominator))
                 for x in v] for v in chosen + [cand]]
        return sympy.Matrix(rows).rank() == len(rows)

    chosen = []
    for i in range(n):
        chosen.append(next(cand for cand in candidates(i)
                           if space.quad(cand) != 0 and independent(cand)))
    return chosen


@pytest.mark.parametrize("space", [
    make_standard_space(4, []),
    make_standard_space(7, [2, -2, QQ(1, 3)]),
    QuadraticSpace(Mat.from_rows(RATIONAL_GRAM)),
    QuadraticSpace(Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, QQ(-5, 7)]])),
], ids=["U+U", "tail", "rational", "U+<-5/7>"])
@pytest.mark.parametrize("variant", [0, 1])
def test_anisotropic_basis_reads_norms_off_the_gram(space, variant):
    assert anisotropic_basis(space, variant) == _reference_basis(space, variant)


_DECLARED_SPECS = {}


def _declared_spec(name, built):
    """A module with its table: an export of (1,4) or the spin module."""
    if name not in _DECLARED_SPECS:
        doc = export_module(built(1, 4)) if name == "export-1x4" \
            else make_spin_module(2)
        spec = load_module(doc)
        _DECLARED_SPECS[name] = (spec, spec.lambda_table)
    return _DECLARED_SPECS[name]


_RATIONALS = st.builds(QQ, st.integers(-3, 3), st.integers(1, 3))


@pytest.mark.parametrize("name", ["export-1x4", "spin"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_accumulated_declared_checks_agree_with_forming(built, name, data):
    """The declared-Lambda checks of validation, which accumulate, agree
    with forming L_x and the table's combination, on a random rational x
    and the Lambda of x with one cell moved by a random rational (often
    zero)."""
    spec, table = _declared_spec(name, built)
    x = data.draw(st.lists(_RATIONALS, min_size=spec.space.dim,
                           max_size=spec.space.dim))
    lam = combine(x, table)
    blocks = dict(lam.blocks)
    d = data.draw(st.sampled_from(sorted(
        e for e in lam.degrees if lam.dim(e) and lam.dim(e - 2))))
    rows = [list(r) for r in lam.block(d).data]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[0]) - 1))
    rows[i][j] += data.draw(_RATIONALS)
    blocks[d] = Mat.from_rows(rows)
    lam = llv.GradedOperator(lam.degrees, lam.offset, blocks)
    assert llv._certified(x, spec.l_actions, [1], [lam], spec.h_action,
                          spec.space.quad(x) / 2) == llv.sum_equals(
        llv.bracket(spec.l_of(x), lam), spec.space.quad(x) / 2,
        spec.h_action)
    assert llv.sum_equals([(xs, t, None) for xs, t in zip(x, table)], 1,
                          lam) == (combine(x, table) == lam)
