"""Shared fixtures: the small-algebra corpus and frequently used maps."""

import os
import random
from pathlib import Path

import pytest

from skewex.algebra import (
    cyclic_group_algebra,
    direct_product,
    matrix_algebra,
    poly_quotient,
    upper_triangular,
)
from skewex.linalg import Mat, Poly
from skewex.maps import AlgebraEndo, Derivation


@pytest.fixture(autouse=True, scope="session")
def subprocesses_import_this_checkout():
    """pytest puts src on its own path (pyproject.toml); the command-line
    tests start Python processes, which find skewex through PYTHONPATH."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(Path(__file__).resolve().parent.parent / "src"),
                     prepend=os.pathsep)
        yield


@pytest.fixture
def rng():
    return random.Random(12345)


@pytest.fixture
def dual_numbers():
    """Q[t]/(t^2)"""
    return poly_quotient(Poly.of([0, 0, 1]))


@pytest.fixture
def jet2():
    """Q[t]/(t^3)"""
    return poly_quotient(Poly.of([0, 0, 0, 1]))


@pytest.fixture
def split_pair():
    """Q[t]/(t^2 - t)"""
    return poly_quotient(Poly.of([0, -1, 1]))


@pytest.fixture
def q_times_q():
    one = Poly.of([0, 1])
    return direct_product(poly_quotient(one), poly_quotient(one))


@pytest.fixture
def m2():
    return matrix_algebra(2)


@pytest.fixture
def m3():
    return matrix_algebra(3)


@pytest.fixture
def c2():
    return cyclic_group_algebra(2)


@pytest.fixture
def c3():
    return cyclic_group_algebra(3)


@pytest.fixture
def ut2():
    return upper_triangular(2)


@pytest.fixture
def corpus(dual_numbers, jet2, split_pair, q_times_q, m2, m3, c2, c3, ut2):
    return {
        "dual": dual_numbers,
        "jet2": jet2,
        "split": split_pair,
        "qxq": q_times_q,
        "m2": m2,
        "m3": m3,
        "c2": c2,
        "c3": c3,
        "ut2": ut2,
    }


@pytest.fixture
def euler(dual_numbers):
    """D(1) = 0, D(t) = t on Q[t]/(t^2)."""
    return Derivation.certify(dual_numbers, Mat.from_rows([[0, 0], [0, 1]]))


@pytest.fixture
def swap(q_times_q):
    return AlgebraEndo.certify(q_times_q, Mat.from_rows([[0, 1], [1, 0]]))
