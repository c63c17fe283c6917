import json
import random
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hklab import verbitsky
from hklab.linalg import (
    QQ,
    LinalgError,
    Mat,
    _insert,
    invert,
    qq,
    rank,
    rref,
)
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
    canonical_json,
    multinomial,
    _apolar_weights,
    _multisets,
)
from hklab.verifier import InstanceConfig, run_instance
from conftest import sh_dims


def test_monomials_grevlex_order():
    ms = monomials(3, 2)
    assert ms == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                  (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    assert monomial_count(3, 2) == 6
    assert monomials(4, 0) == [(0, 0, 0, 0)]


def _sorted_monomials(nvars, degree):
    """Reference order: every exponent tuple, then sorted ascending in the
    reversed tuple."""
    if degree < 0:
        return []
    if nvars == 0:
        return [()] if degree == 0 else []
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + (a,), remaining - a, slots - 1)

    rec((), degree, nvars)
    out.sort(key=lambda mono: tuple(reversed(mono)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.integers(0, 5))
def test_monomials_match_sorted_reference(nvars, degree):
    assert monomials(nvars, degree) == _sorted_monomials(nvars, degree)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 4), st.data())
def test_code_difference_is_a_code_iff_divisor(n, b2, data):
    """In radix 2n+1, for |alpha| = 2n and |g| = 2n - k, code(alpha) -
    code(g) is the code of a degree-k monomial exactly when alpha >= g
    componentwise, and then it is code(alpha - g).  So the rows the build
    makes from the sub-multisets g of each alpha are exactly the cells a
    lookup of every code difference would find.  A borrow adds a multiple
    of 2n to the digit sum, so the difference of a non-divisor leaves
    degree k.  (Radix 2n would do too, as codes stay injective up to
    degree 2n; radix 2n - 1 fails.)"""
    place = [(2 * n + 1) ** s for s in range(b2)]
    alpha = data.draw(st.sampled_from(monomials(b2, 2 * n)))
    code_alpha = sum(a * p for a, p in zip(alpha, place))
    for k in range(2 * n + 1):
        degree_k = {sum(ms) for ms in _multisets(place, k)}
        for g in monomials(b2, 2 * n - k):
            diff = code_alpha - sum(a * p for a, p in zip(g, place))
            divides = all(a >= b for a, b in zip(alpha, g))
            assert (diff in degree_k) == divides, (alpha, g)
            if divides:
                assert diff == sum((a - b) * p
                                   for a, b, p in zip(alpha, g, place))


# -- exponent-tuple helpers of the reference routes ---------------------------
# The build itself never lists a monomial of degree above n and never expands
# over exponent tuples; the oracles below do both.

def monomials(nvars, degree):
    """Exponent tuples of the given total degree, in the order of
    verbitsky._multisets: ascending code, i.e. descending grevlex, which is
    the order of each quotient degree's basis."""
    place = [(degree + 1) ** s for s in range(nvars)]
    return [tuple(map(ms.count, place)) for ms in _multisets(place, degree)]


def monomial_count(nvars, degree):
    if degree < 0:
        return 0
    return comb(degree + nvars - 1, nvars - 1)


def _cosets(alg, m):
    """The coset of every monomial of Sym^m, in the order of monomials(),
    read off the levels and structure constants: a monomial splits into
    monomials of degrees k = m // 2 and m - k, both at most n and so basis
    monomials, and the entry of that pair in tensors[(k, m - k)] is the
    coset of their product ({} when it is zero)."""
    k = m // 2
    index = [{mono: i for i, mono in enumerate(alg.levels[d])}
             for d in (k, m - k)]
    tensor = alg.tensors[(k, m - k)]
    out = []
    for mono in monomials(alg.b2, m):
        left, need = [], k
        for a in mono:
            left.append(min(a, need))
            need -= left[-1]
        right = tuple(a - b for a, b in zip(mono, left))
        out.append(tensor.get((index[0][tuple(left)], index[1][right]), {}))
    return out


def _power_coeffs(v, m):
    """Coefficients of (sum v_s z_s)^m in the monomial basis."""
    out = {}
    for mono in monomials(len(v), m):
        if any(a and not vs for vs, a in zip(v, mono)):
            continue
        out[mono] = multinomial(m, mono) * prod(
            vs ** a for vs, a in zip(v, mono) if a)
    return out


def _weights_over_exponent_tuples(space, n):
    """_apolar_weights by another route: den^n Q^n expanded by treating the
    terms of Q as the variables of _power_coeffs."""
    terms = [(i, j, x if i == j else 2 * x)
             for i, row in enumerate(space.gram.num) for j, x in row if j >= i]
    qn = {}
    for powers, c in _power_coeffs([x for _, _, x in terms], n).items():
        alpha = [0] * space.dim
        for p, (i, j, _) in zip(powers, terms):
            alpha[i] += p
            alpha[j] += p
        alpha = tuple(alpha)
        qn[alpha] = qn.get(alpha, 0) + c
    return {alpha: c * prod(factorial(a) for a in alpha)
            for alpha, c in qn.items() if c}


def test_multinomial_and_power_coeffs():
    assert multinomial(4, (2, 2)) == 6
    coeffs = _power_coeffs([1, 2], 2)
    assert coeffs == {(2, 0): 1, (1, 1): 4, (0, 2): 4}


@pytest.mark.parametrize("n,b2", [(1, 4), (1, 5), (2, 4), (2, 5), (2, 6)])
def test_dimension_table(built, n, b2):
    alg = built(n, b2)
    assert alg.dims() == sh_dims(n, b2)


@pytest.mark.parametrize("n,b2", [(1, 5), (2, 4), (2, 5), (3, 4)])
def test_brute_force_ideal_oracle(built, n, b2):
    """Independent route: in every quotient degree, assemble the ideal from
    sampled isotropic powers v^(n+1) * Sym^(k-n-1), row-reduce it exactly,
    and read off the basis (non-pivot monomials) and every coset; the
    catalecticant build must give the same basis and the same cosets."""
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
        assert _cosets(alg, k) == expected


def _reference_projection(weights, b2, n, k):
    """Dense reference for degree k > n: every catalecticant cell from the
    exponent tuple m + g, every row through forward insertion (_insert),
    and every coset as its own sums over C_F^(-1)."""
    monos = monomials(b2, k)
    duals = monomials(b2, 2 * n - k)
    rows = [[weights.get(tuple(a + b for a, b in zip(m, g)), 0)
             for g in duals] for m in monos]
    target = len(duals)
    echelon, pivots = [], []
    free = []
    for c in range(len(monos) - 1, -1, -1):
        if _insert(echelon, pivots, (rows[c],), target):
            free.append(c)
            if len(echelon) == target:
                break
    assert len(echelon) == target
    free.reverse()
    inv = invert(Mat.from_rows([rows[c] for c in free])).data
    free_pos = {c: j for j, c in enumerate(free)}
    table = []
    for c, row in enumerate(rows):
        if c in free_pos:
            table.append({free_pos[c]: QQ(1)})
            continue
        nz = [(g, x) for g, x in enumerate(row) if x]
        entry = {}
        for j in range(target):
            t = sum((x * inv[g][j] for g, x in nz), QQ(0))
            if t:
                entry[j] = t
        table.append(entry)
    return [monos[c] for c in free], table


def _reference_build(space, n, seed):
    """Dense reference build: structure constants from exponent-tuple
    products looked up monomial by monomial.  Returns the algebra and its
    coset tables, {k: [coset of each monomial of Sym^k]}."""
    b2 = space.dim
    weights = _apolar_weights(space, n)
    levels, proj = {}, {}
    for k in range(2 * n + 1):
        if k <= n:
            levels[k] = monomials(b2, k)
            proj[k] = [{i: QQ(1)} for i in range(len(levels[k]))]
        else:
            levels[k], proj[k] = _reference_projection(weights, b2, n, k)
    tensors = {}
    for k in range(2 * n + 1):
        for l in range(k, 2 * n + 1 - k):
            idx = {m: i for i, m in enumerate(monomials(b2, k + l))}
            entries = {}
            for i, mi in enumerate(levels[k]):
                for j, mj in enumerate(levels[l]):
                    entry = proj[k + l][idx[tuple(a + b
                                                  for a, b in zip(mi, mj))]]
                    if entry:
                        entries[(i, j)] = dict(entry)
            tensors[(k, l)] = entries
    return GradedAlgebra(space, n, levels, tensors,
                         build_meta={"seed": seed}), proj


# Gram matrices with every off-diagonal entry nonzero: every monomial of
# Q^n is nonzero, so no catalecticant row is zero.
_DENSE_GRAMS = {
    "dense5-a": [[2, 1, -1, 1, 3], [1, -1, 2, 1, 1], [-1, 2, 1, -2, 1],
                 [1, 1, -2, 3, -1], [3, 1, 1, -1, 1]],
    "dense5-b": [[1, 2, 1, -1, 1], [2, 0, -3, 1, 2], [1, -3, 2, 1, -1],
                 [-1, 1, 1, -2, 2], [1, 2, -1, 2, 1]],
}


def _space_named(name, b2):
    if name == "standard":
        return make_standard_space(b2, standard_tail(b2))
    if name == "tail":
        return make_standard_space(b2, [qq("1/3"), qq(-5)])
    return QuadraticSpace(Mat.from_rows(_DENSE_GRAMS[name]))


@pytest.mark.parametrize("n,b2,space_name", [
    *[(n, b2, "standard") for n in (1, 2, 3) for b2 in (4, 5, 6, 7)],
    (4, 4, "standard"), (2, 8, "standard"), (2, 14, "standard"),
    (1, 23, "standard"), (3, 8, "standard"),
    (2, 6, "tail"), (2, 5, "dense5-a"), (3, 5, "dense5-b")])
def test_build_matches_dense_reference(built, n, b2, space_name):
    """The sparse build gives the levels, cosets, structure constants (in
    the same insertion order, which scaled_tensor's rows follow) and
    canonical bytes of the dense per-cell build.  The cosets of both are
    read off their tensors and must equal the reference's own tables."""
    if space_name == "standard":
        alg = built(n, b2)
    else:
        alg = build_verbitsky(_space_named(space_name, b2), n, seed=1)
    if space_name in _DENSE_GRAMS:
        grid = _DENSE_GRAMS[space_name]
        assert all(grid[i][j] for i in range(b2) for j in range(b2) if i != j)
    ref, proj = _reference_build(alg.space, n, seed=1)
    assert alg.levels == ref.levels
    for m in range(2 * n + 1):
        assert _cosets(ref, m) == proj[m], m
        assert _cosets(alg, m) == proj[m], m
    assert alg.tensors == ref.tensors
    for kl in ref.tensors:
        assert list(alg.tensors[kl]) == list(ref.tensors[kl]), kl
    assert alg.dump_canonical() == ref.dump_canonical()


@pytest.mark.parametrize("n,b2,space_name", [
    *[(n, b2, "standard") for n in (1, 2, 3) for b2 in (4, 5, 6, 7)],
    (2, 23, "standard"), (2, 6, "tail"), (2, 5, "dense5-a"),
    (3, 5, "dense5-b")])
def test_apolar_weights_match_exponent_tuple_expansion(n, b2, space_name):
    """Expanding Q^n over multisets of Q's terms gives the same weights as
    expanding it over exponent tuples of those terms."""
    space = _space_named(space_name, b2)
    assert _apolar_weights(space, n) == _weights_over_exponent_tuples(space, n)


def test_build_lists_monomials_only_up_to_n(monkeypatch):
    """The build lists Sym^k only for k <= n; the rows above n come from
    the support of Q^n."""
    degrees = []
    listing = verbitsky._multisets

    def counted(place, degree):
        degrees.append(degree)
        return listing(place, degree)

    monkeypatch.setattr(verbitsky, "_multisets", counted)
    alg = build_verbitsky(make_standard_space(14, standard_tail(14)), 2)
    assert alg.dims() == sh_dims(2, 14)
    assert degrees and max(degrees) <= 2


def test_every_from_num_input_is_canonical(monkeypatch):
    """Mat.from_num trusts its input: per row, (column, int) pairs with the
    columns strictly ascending and in range, and a positive den.  Under a
    checker of that contract, a dense-Gram build (its catalecticant rows
    arrive out of column order unless sorted) and a grid instance through
    every phase never break it."""
    original = Mat.from_num
    calls = []

    def checked(rows, cols, num, den=1):
        assert den > 0, den
        for r in num:
            js = [j for j, _ in r]
            assert all(0 <= j < cols for j in js), js
            assert all(a < b for a, b in zip(js, js[1:])), js
        calls.append(rows)
        return original(rows, cols, num, den)

    monkeypatch.setattr(Mat, "from_num", staticmethod(checked))
    alg = build_verbitsky(_space_named("dense5-b", 5), 3)
    assert alg.dims() == sh_dims(3, 5)
    assert run_instance(InstanceConfig(n=3, b2=4)).all_asserted_passed
    assert calls


def test_cosets_above_n():
    """At k > n, a monomial that divides no monomial of Q^n's support (a
    zero catalecticant row) has a zero coset, so no tensor entry, and a
    basis monomial has its unit coset."""
    n, b2 = 2, 5
    alg = build_verbitsky(make_standard_space(b2, standard_tail(b2)), n)
    support = _apolar_weights(alg.space, n)
    for k in range(n + 1, 2 * n + 1):
        monos = monomials(b2, k)
        cosets = _cosets(alg, k)
        outside = [c for c, m in enumerate(monos) if not any(
            all(a >= b for a, b in zip(alpha, m)) for alpha in support)]
        assert outside, k
        for c in outside:
            assert cosets[c] == {}
        for j, m in enumerate(alg.levels[k]):
            assert cosets[monos.index(m)] == {j: QQ(1)}


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
        assert alg.power(x, 2 * alg.n).is_zero()
        assert alg.power(x, alg.n + 1).is_zero()
        assert not alg.power(x, alg.n).is_zero()


def test_anisotropic_top_power_nonzero(built):
    alg = built(2, 4)
    x = alg.degree2([1, 1, 0, 0])
    assert not alg.power(x, 2 * alg.n).is_zero()


def _unit(dim, i):
    return [1 if j == i else 0 for j in range(dim)]


def _monomial(alg, alpha):
    """xi^alpha in SH, as a product of degree-2 unit classes."""
    acc = alg.unit()
    for i, a in enumerate(alpha):
        e = alg.degree2(_unit(alg.b2, i))
        for _ in range(a):
            acc = alg.multiply(acc, e)
    return acc


def _rational(sympy, x):
    return sympy.Rational(int(x.numerator), int(x.denominator))


@pytest.mark.parametrize("n,b2,tail", [
    (1, 4, None), (2, 4, None), (2, 5, None), (3, 4, None),
    (2, 6, ("1/3", "-5"))], ids=["1x4", "2x4", "2x5", "3x4", "2x6-tail"])
def test_gorenstein_pairing(built, n, b2, tail):
    """Inverse-system route: SH = Sym(V) / Ann(Q^n) for the polynomial
    Q = xi^T G xi acting by differentiation, so the top functional is
    proportional to alpha -> d^alpha Q^n, normalised at the top basis
    monomial m0; and the top pairing SH^(2k) x SH^(4n-2k) is perfect."""
    sympy = pytest.importorskip("sympy")
    if tail is None:
        alg = built(n, b2)
    else:
        alg = build_verbitsky(make_standard_space(b2, [qq(t) for t in tail]),
                              n)
    xs = sympy.symbols(f"x0:{b2}")
    gram = alg.space.gram
    q = sum(_rational(sympy, gram[i, j]) * xs[i] * xs[j]
            for i in range(b2) for j in range(b2))
    qn = sympy.Poly(sympy.expand(q ** n), *xs)

    def d_alpha(alpha):
        # Q^n is homogeneous of degree 2n = |alpha|: d^alpha leaves a constant.
        return qn.coeff_monomial(alpha) * prod(factorial(a) for a in alpha)

    m0 = alg.levels[2 * n][0]
    scale = d_alpha(m0)
    assert scale != 0
    for alpha in monomials(b2, 2 * n):
        top = alg.top_functional(_monomial(alg, alpha))
        assert _rational(sympy, top) * scale == d_alpha(alpha), alpha
    for k in range(2 * n + 1):
        lo, hi = alg.level_dim(k), alg.level_dim(2 * n - k)
        pairing = [[alg.top_functional(alg.multiply(
                        alg.element(2 * k, _unit(lo, i)),
                        alg.element(4 * n - 2 * k, _unit(hi, j))))
                    for j in range(hi)] for i in range(lo)]
        assert lo == hi and rank(Mat.from_rows(pairing)) == lo, k


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
    assert alg.dims() == sh_dims(n, b2)


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


def _ordered(x):
    """A copy of x with every dict turned into its list of items, so that
    == also compares insertion orders."""
    if isinstance(x, dict):
        return [(key, _ordered(value)) for key, value in x.items()]
    if isinstance(x, list):
        return [_ordered(value) for value in x]
    return x


@pytest.mark.parametrize("n,b2,seed", [(2, 4, 0), (3, 5, 1), (5, 4, 0)])
def test_built_and_loaded_are_one_value(built, n, b2, seed):
    """A built algebra and its JSON reload hold the same fields with equal
    values, the fields, tensors and entries in the same insertion order (at
    n = 5 the canonical key order "10" < "2" differs from the numeric one).
    Neither gains state from a run or a dump, and the run's reports are
    byte-identical."""
    alg = built(n, b2)
    loaded = GradedAlgebra.from_json(json.loads(alg.dump_canonical()))
    before = _ordered(vars(alg))
    assert _ordered(vars(loaded)) == before
    cfg = InstanceConfig(n=n, b2=b2, seed=seed)
    reports = [canonical_json(run_instance(cfg, alg=a).to_json())
               for a in (alg, loaded)]
    alg.dump_canonical()
    assert reports[0] == reports[1]
    assert _ordered(vars(alg)) == _ordered(vars(loaded)) == before


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
