import json
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab.linalg import QQ, LinalgError, Mat, rref
from hklab.quadforms import (
    QuadraticSpace,
    make_standard_space,
    sample_isotropic,
    standard_tail,
)
from hklab.verbitsky import (
    BuildError,
    GradedAlgebra,
    build_verbitsky,
    monomial_count,
    monomials,
    multinomial,
    _power_coeffs,
)


def expected_dims(n, b2):
    return [comb(min(k, 2 * n - k) + b2 - 1, b2 - 1) for k in range(2 * n + 1)]


def test_monomials_grevlex_order():
    ms = monomials(3, 2)
    assert ms == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                  (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert monomial_count(3, 2) == 6
    assert monomials(4, 0) == [(0, 0, 0, 0)]


def test_multinomial_and_power_coeffs():
    assert multinomial(4, (2, 2)) == 6
    coeffs = _power_coeffs([1, 2], 2)
    assert coeffs == {(2, 0): 1, (1, 1): 4, (0, 2): 4}


@pytest.mark.parametrize("n,b2", [(1, 4), (1, 5), (2, 4), (2, 5), (2, 6)])
def test_dimension_table(built, n, b2):
    alg = built(n, b2)
    assert list(alg.dims().values()) == expected_dims(n, b2)


@pytest.mark.parametrize("n,b2", [(1, 5), (2, 4), (2, 5), (3, 4)])
def test_brute_force_ideal_oracle(built, n, b2):
    """Independent route: in every quotient degree, assemble the ideal from
    sampled isotropic powers v^(n+1) * Sym^(k-n-1), row-reduce it exactly,
    and read off the basis (non-pivot monomials) and every coset; the
    catalecticant build must give the same basis and the same table."""
    alg = built(n, b2)
    gens = [_power_coeffs([int(x) for x in v], n + 1)
            for v in sample_isotropic(alg.space, 40, seed=77)]
    for k in range(n + 1, 2 * n + 1):
        monos = monomials(b2, k)
        idx = {m: i for i, m in enumerate(monos)}
        # enough generators to span the ideal, plus 4 spare
        needed = -(-(len(monos) - monomial_count(b2, 2 * n - k))
                   // monomial_count(b2, k - n - 1))
        rows = []
        for base in gens[:needed + 4]:
            for gamma in monomials(b2, k - n - 1):
                row = [QQ(0)] * len(monos)
                for mono, c in base.items():
                    row[idx[tuple(a + g for a, g in zip(mono, gamma))]] = QQ(c)
                rows.append(row)
        red, piv, rk = rref(Mat.from_rows(rows))
        free = [c for c in range(len(monos)) if c not in piv]
        assert len(free) == monomial_count(b2, 2 * n - k)
        assert alg.levels[k] == [monos[c] for c in free]
        expected = [None] * len(monos)
        for j, c in enumerate(free):
            expected[c] = {j: QQ(1)}
        for r, c in enumerate(piv):
            expected[c] = {j: -red.data[r][f]
                           for j, f in enumerate(free) if red.data[r][f]}
        assert alg.proj[k] == expected


def test_unit_law(built):
    alg = built(2, 5)
    a = alg.element(4, list(range(15)))
    assert alg.multiply(alg.unit(), a) == a


def test_monomial_product_below_relations(built):
    alg = built(2, 5)
    e = alg.degree2([1, 0, 0, 0, 0])
    f = alg.degree2([0, 1, 0, 0, 0])
    prod = alg.multiply(e, f)
    assert not prod.is_zero()
    # the product of two degree-1 monomials is a single degree-2 monomial
    assert sum(1 for c in prod.coords if c) == 1


def test_isotropic_powers(built):
    alg = built(2, 5)
    beta = alg.degree2([0, 0, 1, 0, 0])
    assert not alg.power(beta, 2).is_zero()
    assert alg.power(beta, 3).is_zero()
    sp = alg.space
    for v in sample_isotropic(sp, 5, seed=123):
        x = alg.degree2(v)
        assert alg.power(x, 2 * alg.n).is_zero() or True  # powers defined
        assert alg.power(x, alg.n + 1).is_zero()
        assert not alg.power(x, alg.n).is_zero()


def test_anisotropic_top_power_nonzero(built):
    alg = built(2, 4)
    x = alg.degree2([1, 1, 0, 0])
    assert not alg.power(x, 2 * alg.n).is_zero()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4),
       st.lists(st.integers(-3, 3), min_size=10, max_size=10))
def test_commutativity_and_associativity(built, xs, ys, zs):
    alg = built(2, 4)
    a = alg.degree2(xs)
    b = alg.degree2(ys)
    c = alg.element(4, zs)
    assert alg.multiply(a, b) == alg.multiply(b, a)
    assert alg.multiply(alg.multiply(a, b), c) == \
        alg.multiply(a, alg.multiply(b, c))


def test_hard_lefschetz(built):
    alg = built(2, 5)
    n = alg.n
    x = alg.degree2([1, 1, 0, 0, 0])
    assert alg.space.quad([1, 1, 0, 0, 0]) != 0
    for k in range(0, n):
        power = 2 * n - 2 * k
        xk = alg.power(x, power)
        cols = []
        dim_k = alg.level_dim(k)
        for i in range(dim_k):
            basis_el = alg.element(2 * k, [1 if j == i else 0
                                           for j in range(dim_k)])
            cols.append(list(alg.multiply(xk, basis_el).coords))
        m = Mat.from_cols(cols)
        red, piv, rk = rref(m)
        assert rk == dim_k == alg.level_dim(2 * n - k)


def test_fujiki_constant(built):
    alg = built(2, 5)
    sp = alg.space
    rng = random.Random(99)
    const = None
    for _ in range(12):
        y = [rng.randint(-3, 3) for _ in range(5)]
        qy = sp.quad(y)
        if qy == 0:
            continue
        ratio = alg.top_functional(alg.power(alg.degree2(y), 4)) / qy ** 2
        if const is None:
            const = ratio
        assert ratio == const
    assert const is not None and const != 0
    # q(e + f) = 2, so the top power evaluates to 2^n times the constant
    ef = alg.degree2([1, 1, 0, 0, 0])
    assert alg.top_functional(alg.power(ef, 4)) == const * QQ(2) ** 2


def test_fresh_isotropic_relations_hold(built):
    """Holdout oracle: isotropic vectors never used in the construction
    still satisfy the defining relations."""
    alg = built(2, 4)
    for v in sample_isotropic(alg.space, 6, seed=2024):
        el = alg.degree2(v)
        assert alg.power(el, 3).is_zero()
        # and multiplied into any monomial of the right degree
        y = alg.multiply(alg.power(el, 3 - 1), el)
        assert y.is_zero()


def test_rank_shortfall_names_degree_rank_and_target():
    """A degenerate Gram (QuadraticSpace rejects it, so its check is
    bypassed) leaves xi_3 out of Q, and the degree-6 catalecticant loses
    rank; the build must fail and say where and by how much."""
    space = object.__new__(QuadraticSpace)
    object.__setattr__(space, "gram", Mat.from_rows(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]]))
    with pytest.raises(BuildError) as err:
        build_verbitsky(space, 2)
    assert str(err.value) == \
        "degree 6: catalecticant rank 3 is below the target 4"


def test_invalid_parameters():
    sp = make_standard_space(4, [])
    with pytest.raises(Exception):
        build_verbitsky(sp, 0)


@pytest.mark.parametrize("n,b2", [(2, 14), (2, 23)])
def test_frontier_build_dims(n, b2):
    """Sym^4 has 2380 and 14950 monomials here."""
    alg = build_verbitsky(make_standard_space(b2, standard_tail(b2)), n)
    assert list(alg.dims().values()) == expected_dims(n, b2)


def test_build_determinism():
    sp = make_standard_space(5, [QQ(2)])
    a = build_verbitsky(sp, 1, seed=7).dump_canonical()
    b = build_verbitsky(sp, 1, seed=7).dump_canonical()
    assert a == b
    c = build_verbitsky(sp, 1, seed=8).dump_canonical()
    assert json.loads(c)["levels"] is not None  # different seed still builds


def test_json_round_trip_bit_exact(built):
    alg = built(2, 4)
    s1 = alg.dump_canonical()
    loaded = GradedAlgebra.from_json(json.loads(s1))
    s2 = loaded.dump_canonical()
    assert s1 == s2
    a = alg.element(2, [1, 2, 3, 4])
    b = alg.element(4, list(range(10)))
    assert alg.multiply(a, b) == loaded.multiply(a, b)
    with pytest.raises(LinalgError):
        loaded.project_symmetric(2, [0] * 10)


def test_degree_overflow_errors(built):
    alg = built(1, 4)
    top = alg.element(4, [1])
    with pytest.raises(LinalgError):
        alg.multiply(top, top)
    with pytest.raises(LinalgError):
        alg.power(alg.degree2([1, 0, 0, 0]), 3)


def test_element_arithmetic(built):
    alg = built(1, 4)
    a = alg.degree2([1, 2, 3, 4])
    b = alg.degree2([0, 1, 0, 1])
    assert (a + b).coords == (1, 3, 3, 5)
    assert (a - b).coords == (1, 1, 3, 3)
    assert a.scale(2).coords == (2, 4, 6, 8)
    with pytest.raises(LinalgError):
        a + alg.unit()
