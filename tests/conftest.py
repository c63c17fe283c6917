import pathlib
import time

import pytest

from hklab.llv import bigrading, build_frame, frame_calculus
from hklab.module_io import algebra_module
from hklab.quadforms import make_standard_space, standard_tail
from hklab.verbitsky import build_verbitsky

FIXTURE_DIR = pathlib.Path(__file__).resolve().parents[1] / "fixtures"

_ALGS = {}
_CALC = {}
_BUILD_TIMES = {}


def _space(b2):
    return make_standard_space(b2, standard_tail(b2))


@pytest.fixture(scope="session")
def built():
    """built(n, b2, seed=1): session-cached algebra instances."""
    def get(n, b2, seed=1):
        key = (n, b2, seed)
        if key not in _ALGS:
            t0 = time.time()
            _ALGS[key] = build_verbitsky(_space(b2), n, seed=seed)
            _BUILD_TIMES[key] = time.time() - t0
        return _ALGS[key]
    return get


@pytest.fixture(scope="session")
def build_times():
    return _BUILD_TIMES


@pytest.fixture(scope="session")
def calculus(built):
    """calculus(n, b2): (alg, frame, frame-calculus, bigrading), cached."""
    def get(n, b2, seed=1, frame_seed=0):
        key = (n, b2, seed, frame_seed)
        if key not in _CALC:
            alg = built(n, b2, seed)
            frame = build_frame(alg.space, seed=frame_seed)
            module = algebra_module(alg)
            fc = frame_calculus(module, frame)
            big = bigrading(module, fc)
            _CALC[key] = (alg, frame, fc, big)
        return _CALC[key]
    return get


@pytest.fixture(scope="session")
def fixture_dir():
    return FIXTURE_DIR
