import numpy as np
import pytest

from hklab import _modp
from hklab.linalg import Mat, rref


def test_rational_reconstruct_basics():
    p = _modp.PRIMES[0]
    assert _modp.rational_reconstruct(0, p) == (0, 1)
    assert _modp.rational_reconstruct(5, p) == (5, 1)
    half = pow(2, p - 2, p)
    assert _modp.rational_reconstruct(half, p) == (1, 2)
    neg = (-3 * pow(7, p - 2, p)) % p
    assert _modp.rational_reconstruct(neg, p) == (-3, 7)


def test_rational_reconstruct_needs_enough_modulus():
    p = _modp.PRIMES[0]
    # denominator far above sqrt(p/2): single-prime reconstruction fails,
    # the doubled modulus succeeds
    num, den = 123457, 40009
    res = (num * pow(den, -1, p)) % p
    assert _modp.rational_reconstruct(res, p) != (num, den)
    m = p * _modp.PRIMES[1]
    res_big = (num * pow(den, -1, m)) % m
    assert _modp.rational_reconstruct(res_big, m) == (num, den)


def test_crt_combine():
    p1, p2 = _modp.PRIMES[0], _modp.PRIMES[1]
    x = 123456789
    combined = _modp.crt_combine(x % p1, p1, x % p2, p2)
    assert combined % p1 == x % p1 and combined % p2 == x % p2


def test_reducer_matches_exact_rref():
    rows = [[2, 4, 6, 1], [1, 2, 3, 0], [0, 1, 1, 1], [3, 7, 10, 2]]
    p = _modp.PRIMES[0]
    red = _modp.ModpReducer(4, p)
    accepted = []
    for r in rows:
        if red.insert(np.array(r, dtype=np.int64)):
            accepted.append(r)
    exact_red, piv, rk = rref(Mat.from_rows(rows))
    piv_p, state = red.sorted_state()
    assert piv_p == piv and red.rank == rk
    for i in range(rk):
        for j in range(4):
            e = exact_red.data[i][j]
            expected = (int(e.numerator) *
                        pow(int(e.denominator), p - 2, p)) % p
            assert int(state[i][j]) == expected


def test_reducer_rejects_dependent_and_overflow():
    p = _modp.PRIMES[0]
    red = _modp.ModpReducer(2, p)
    assert red.insert(np.array([1, 2], dtype=np.int64))
    assert not red.insert(np.array([2, 4], dtype=np.int64))
    assert red.in_rowspace(np.array([3, 6], dtype=np.int64))
    with pytest.raises(_modp.EntryOverflowError):
        red.insert(np.array([2 ** 62, 0], dtype=np.int64))
    with pytest.raises(ValueError):
        _modp.ModpReducer(_modp.MAX_COLS + 1, p)
