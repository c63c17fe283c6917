from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hklab import quadforms
from hklab.linalg import QQ, Mat, primitive_vector
from hklab.quadforms import (
    IsotropicPlane,
    Isometry,
    QuadFormError,
    QuadraticSpace,
    TwoOrbitObstruction,
    hyperbolic_pair,
    make_standard_space,
    mukai_extension,
    sample_isotropic,
    witt_transport,
)


def unit(n, i):
    return [1 if j == i else 0 for j in range(n)]


def test_bilinear_hyperbolic_pair():
    sp = make_standard_space(4, [])
    e, f = unit(4, 0), unit(4, 1)
    assert sp.bilinear(e, f) == 1
    assert sp.quad(e) == 0
    assert sp.quad([1, 1, 0, 0]) == 2


def test_bilinear_frame_pairing():
    sp = make_standard_space(5, [2])
    beta, eta = unit(5, 2), unit(5, 3)
    assert sp.bilinear(beta, eta) == 1
    assert sp.quad(beta) == 0 and sp.quad(eta) == 0


def test_standard_space_validation():
    with pytest.raises(QuadFormError):
        make_standard_space(3, [])
    with pytest.raises(QuadFormError):
        make_standard_space(5, [])
    with pytest.raises(QuadFormError):
        make_standard_space(5, [0])
    sp = make_standard_space(7, [2, 2, -2])
    assert sp.dim == 7
    assert sp.gram.det() == QQ(2) * 2 * -2


def test_standard_space_determinant():
    assert make_standard_space(5, [2]).gram.det() == 2
    assert make_standard_space(4, []).gram.det() == 1


def test_gram_must_be_symmetric_nondegenerate():
    with pytest.raises(QuadFormError):
        QuadraticSpace(Mat.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(QuadFormError):
        QuadraticSpace(Mat.zeros(2, 2))


def test_mukai_extension():
    sp = make_standard_space(4, [])
    mk = mukai_extension(sp)
    assert mk.dim == 6
    assert mk.gram.det() == -sp.gram.det()
    for i in range(4):
        for j in range(4):
            assert mk.gram[i, j] == sp.gram[i, j]
    assert mk.bilinear(unit(6, 4), unit(6, 5)) == 1
    sp2 = make_standard_space(5, [2])
    assert mukai_extension(sp2).dim == 7
    assert mukai_extension(sp2).gram.det() != 0


def test_sample_isotropic_exact_and_deterministic():
    sp = make_standard_space(6, [2, QQ(-1, 2)])
    vs = sample_isotropic(sp, 10, seed=3)
    assert len(vs) == 10
    for v in vs:
        assert any(v)
        assert sp.quad(v) == 0
        assert all(x.denominator == 1 for x in v)
    assert vs == sample_isotropic(sp, 10, seed=3)
    assert vs != sample_isotropic(sp, 10, seed=4)


def reference_primitive(v: list) -> list:
    """The per-module routine linalg.primitive_vector replaced."""
    dens = [x.denominator for x in v]
    m = 1
    for d in dens:
        m = lcm(m, int(d))
    ints = [int(x * m) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return [QQ(x) for x in ints]


@given(st.one_of(
    st.integers(0, 8).map(lambda n: [QQ(0)] * n),
    st.lists(st.fractions(min_value=-50, max_value=50,
                          max_denominator=30).map(QQ), max_size=8)))
def test_primitive_vector_matches_the_reference(v):
    got = primitive_vector(v)
    assert got == reference_primitive(v)
    assert all(type(x) is QQ for x in got)


def test_sampling_seeds_keep_their_vectors(monkeypatch):
    spaces = [make_standard_space(6, [2, QQ(-1, 2)]),
              make_standard_space(5, [QQ(3, 7)])]
    perm = [4, 0, 3, 1, 2]
    spaces.append(QuadraticSpace(Mat.from_rows(
        [[spaces[1].gram[perm[i], perm[j]] for j in range(5)]
         for i in range(5)])))
    got = [(hyperbolic_pair(sp), sample_isotropic(sp, 6, seed=seed))
           for sp in spaces for seed in (0, 3, 11)]
    monkeypatch.setattr(quadforms, "primitive_vector", reference_primitive)
    assert got == [(hyperbolic_pair(sp), sample_isotropic(sp, 6, seed=seed))
                   for sp in spaces for seed in (0, 3, 11)]


def test_hyperbolic_pair_standard_and_shuffled():
    sp = make_standard_space(5, [2])
    e, f = hyperbolic_pair(sp)
    assert sp.quad(e) == 0 and sp.quad(f) == 0 and sp.bilinear(e, f) == 1
    # same space with permuted coordinates: no literal U block up front
    perm = [4, 0, 3, 1, 2]
    g = Mat.from_rows([[sp.gram[perm[i], perm[j]] for j in range(5)]
                       for i in range(5)])
    shuffled = QuadraticSpace(g)
    e2, f2 = hyperbolic_pair(shuffled)
    assert shuffled.quad(e2) == 0 and shuffled.quad(f2) == 0
    assert shuffled.bilinear(e2, f2) == 1


def test_isotropic_plane_validation():
    sp = make_standard_space(4, [])
    IsotropicPlane(sp, unit(4, 0), unit(4, 2))
    with pytest.raises(QuadFormError):
        IsotropicPlane(sp, unit(4, 0), unit(4, 1))  # pairing 1, not isotropic
    with pytest.raises(QuadFormError):
        IsotropicPlane(sp, unit(4, 0), [2, 0, 0, 0])  # dependent


def test_isometry_validation():
    sp = make_standard_space(4, [])
    Isometry(sp, Mat.identity(4))
    rows = [[QQ(0)] * 4 for _ in range(4)]
    rows[0][1] = QQ(1)
    rows[1][0] = QQ(1)
    rows[2][2] = QQ(1)
    rows[3][3] = QQ(1)
    swap = Mat(4, 4, rows)
    # swapping e and f preserves the form but has determinant -1
    with pytest.raises(QuadFormError):
        Isometry(sp, swap)


def test_witt_transport_identity():
    sp = make_standard_space(5, [2])
    p = IsotropicPlane(sp, unit(5, 0), unit(5, 2))
    g = witt_transport(sp, p, p)
    assert g.matrix == Mat.identity(5)


def test_witt_transport_swap_of_planes():
    sp = make_standard_space(5, [2])
    p1 = IsotropicPlane(sp, unit(5, 0), unit(5, 2))
    p2 = IsotropicPlane(sp, unit(5, 1), unit(5, 3))
    g = witt_transport(sp, p1, p2)
    assert g.matrix.transpose() * sp.gram * g.matrix == sp.gram
    assert g.matrix.det() == 1
    span2 = p2.span()
    assert span2.contains(g.apply(p1.v1))
    assert span2.contains(g.apply(p1.v2))


def test_witt_transport_random_pairs():
    sp = make_standard_space(6, [2, 2])
    for seed in range(5):
        vs = sample_isotropic(sp, 8, seed=seed + 50)
        planes = []
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                if sp.bilinear(vs[i], vs[j]) == 0:
                    from hklab.linalg import Mat as M, rank
                    if rank(M.from_cols([vs[i], vs[j]])) == 2:
                        planes.append(IsotropicPlane(sp, vs[i], vs[j]))
                if len(planes) == 2:
                    break
            if len(planes) == 2:
                break
        if len(planes) < 2:
            continue
        g = witt_transport(sp, planes[0], planes[1])
        assert g.matrix.transpose() * sp.gram * g.matrix == sp.gram
        assert g.matrix.det() == 1
        tgt = planes[1].span()
        assert tgt.contains(g.apply(planes[0].v1))
        assert tgt.contains(g.apply(planes[0].v2))


def test_witt_transport_two_orbit_obstruction():
    sp = make_standard_space(4, [])
    base = IsotropicPlane(sp, unit(4, 0), unit(4, 2))
    crossing = IsotropicPlane(sp, unit(4, 0), unit(4, 3))
    with pytest.raises(TwoOrbitObstruction):
        witt_transport(sp, base, crossing)


def test_witt_transport_b2_4_transverse():
    sp = make_standard_space(4, [])
    p1 = IsotropicPlane(sp, unit(4, 0), unit(4, 2))
    p2 = IsotropicPlane(sp, unit(4, 1), unit(4, 3))
    g = witt_transport(sp, p1, p2)
    assert g.matrix.det() == 1
    assert p2.span().contains(g.apply(p1.v1))


def test_space_json_round_trip():
    sp = make_standard_space(5, [QQ(-3, 2)])
    again = QuadraticSpace.from_json(sp.to_json())
    assert again.gram == sp.gram
