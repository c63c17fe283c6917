"""The linear dual-Lefschetz table against the one-completion-per-vector loop.

`llv.linear_dual_table` completes only the first basis vector x0 by
`sl2_complete` and forms every other dual from the double bracket
([[L_x, Lam(x0)], Lam(x0)] + 2 q(x0, x) Lam(x0)) / q(x0), certified by
[L_x, Lam(x)] = (q(x)/2) h, with a fallback to the completion.
`_reference_table` keeps the loop that completes every basis vector; the
tables must be equal, and a module that is not an LLV module must give the
same error.
"""

from dataclasses import replace

import pytest

from hklab import llv
from hklab.linalg import QQ, IncrementalRref, Mat, invert
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
from hklab.module_io import algebra_module, load_module, make_spin_module
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


def _outcome(table, spec):
    try:
        return table(spec.space, spec.n, spec.l_of)
    except ValueError as exc:
        return type(exc), str(exc)


@pytest.fixture
def completions(monkeypatch):
    """The number of sl2_complete calls made through llv."""
    calls = []
    real = llv.sl2_complete

    def counting(lop, n):
        calls.append(lop)
        return real(lop, n)

    monkeypatch.setattr(llv, "sl2_complete", counting)
    return calls


@pytest.mark.parametrize("n,b2", DEFAULT_GRID)
@pytest.mark.parametrize("seed", [0, 1])
def test_table_matches_the_reference_on_the_grid(built, completions,
                                                 n, b2, seed):
    spec = algebra_module(built(n, b2, seed))
    got = linear_dual_table(spec.space, spec.n, spec.l_of)
    assert len(completions) == 1
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


@pytest.mark.parametrize("name", FIXTURES)
def test_table_matches_the_reference_on_the_fixtures(fixture_dir, name):
    spec = load_module(fixture_dir / f"{name}_module.json")
    assert _outcome(linear_dual_table, spec) == \
        _outcome(_reference_table, spec)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_table_matches_the_reference_on_the_spin_module(completions, n):
    spec = load_module(make_spin_module(n))
    got = linear_dual_table(spec.space, spec.n, spec.l_of)
    assert len(completions) == 1
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


def test_table_matches_the_reference_on_a_rational_gram(completions):
    space = QuadraticSpace(Mat.from_rows(RATIONAL_GRAM))
    spec = algebra_module(build_verbitsky(space, 2, seed=0))
    got = linear_dual_table(spec.space, spec.n, spec.l_of)
    assert len(completions) == 1
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


def test_a_wrong_coefficient_falls_back_on_every_vector(monkeypatch,
                                                        completions):
    """With q(x0, x) in place of 2 q(x0, x) no candidate passes its
    certificate (every q(x0, x) is nonzero here), so every vector is
    completed and the table is still the reference's."""
    real = llv._double_bracket_dual
    monkeypatch.setattr(
        llv, "_double_bracket_dual",
        lambda lop, lam0, q0, q0x: real(lop, lam0, q0, q0x / 2))
    space = QuadraticSpace(Mat.from_rows(RATIONAL_GRAM))
    basis = anisotropic_basis(space, variant=0)
    assert all(space.bilinear(basis[0], x) for x in basis)
    spec = algebra_module(build_verbitsky(space, 2, seed=0))
    got = linear_dual_table(spec.space, spec.n, spec.l_of)
    assert len(completions) == space.dim
    assert got == _reference_table(spec.space, spec.n, spec.l_of)


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
    assert _outcome(_reference_table, bad) == (NotLefschetzError, message)
    with pytest.raises(NotLefschetzError) as info:
        linear_dual_table(bad.space, bad.n, bad.l_of)
    assert str(info.value) == message


def _reference_basis(space, variant):
    """anisotropic_basis with each candidate's norm from QuadraticSpace.quad."""
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

    state = IncrementalRref(n)
    return [next(cand for cand in candidates(i)
                 if space.quad(cand) != 0 and state.insert(cand))
            for i in range(n)]


@pytest.mark.parametrize("space", [
    make_standard_space(4, []),
    make_standard_space(7, [2, -2, QQ(1, 3)]),
    QuadraticSpace(Mat.from_rows(RATIONAL_GRAM)),
    QuadraticSpace(Mat.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, QQ(-5, 7)]])),
], ids=["U+U", "tail", "rational", "U+<-5/7>"])
@pytest.mark.parametrize("variant", [0, 1])
def test_anisotropic_basis_reads_norms_off_the_gram(space, variant):
    assert anisotropic_basis(space, variant) == _reference_basis(space, variant)
