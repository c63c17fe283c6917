"""Frontier gate: the OG6-type (3,8) and the K3^[2]-type (2,23) end to end.

Marked slow (about 3 s and 10 s on a 2-CPU host with the Fraction backend)
and deselected by default; run with `pytest -m slow`.
"""

from math import comb

import pytest

from hklab.verifier import InstanceConfig, run_instance

pytestmark = pytest.mark.slow


def oracle_dims(n: int, b2: int) -> dict:
    """Closed form: dim SH^(2k) = dim Sym^min(k, 2n-k) V with dim V = b2."""
    return {2 * k: comb(min(k, 2 * n - k) + b2 - 1, b2 - 1)
            for k in range(2 * n + 1)}


@pytest.mark.parametrize("n,b2", [(3, 8), (2, 23)])
def test_frontier_instance(n, b2):
    report = run_instance(InstanceConfig(n=n, b2=b2))
    failed = [v.claim for v in report.verdicts if v.asserted and not v.passed]
    assert not failed, failed
    assert report.all_asserted_passed
    assert report.dims == oracle_dims(n, b2)
    assert report.profile.per_degree == {
        2 * k: min(k, 2 * n - k) for k in range(2 * n + 1)}
