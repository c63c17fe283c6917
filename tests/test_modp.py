import numpy as np
import pytest

from hklab import _modp
from hklab.linalg import Mat, rref


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
