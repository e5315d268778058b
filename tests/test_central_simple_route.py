"""The central-simple route of _extension.assemble against the relation closure.

A noncommutative base whose trace form satisfies the central-simple identity,
with a twist the Casimir element makes inner, is built as A (x) Q[Y]/(g) and
never forms a relation submodule.  Where it applies the route must give the
closure's extension byte for byte; every other input must keep the closure.
"""

import random
from fractions import Fraction

import pytest

from skewex import _extension
from skewex.algebra import (
    change_of_basis,
    direct_product,
    matrix_algebra,
    poly_quotient,
    separability,
    upper_triangular,
)
from skewex.errors import AnnihilatorFails, AssociativityFails
from skewex.linalg import Mat, Poly, unit_vec
from skewex.maps import derivation_space, inner_automorphism, inner_derivation
from skewex.sampling import (
    random_element,
    random_invertible_element,
    random_trace_zero_invertible,
    sample_automorphisms,
)
from skewex.serialize import extension_to_json
from test_relation_certificate import build
from test_relation_closure import m3_pair


def closure(monkeypatch, mode, algebra, twist, p=None):
    """The extension the relation closure builds, with the route turned off."""
    with monkeypatch.context() as patch:
        patch.setattr(_extension, "_central_simple_quotient", lambda *args: None)
        return build(mode, algebra, twist, p)


def routed(monkeypatch, mode, algebra, twist, p=None):
    """The extension built with a relation_submodule that raises, so that
    only the route can build it."""
    def refuse(*args):
        raise AssertionError("the relation closure ran")

    with monkeypatch.context() as patch:
        patch.setattr(_extension, "relation_submodule", refuse)
        return build(mode, algebra, twist, p)


def closure_calls(monkeypatch, mode, algebra, twist, p=None, **flags):
    """(extension, number of relation_submodule calls) of one build."""
    real = _extension.relation_submodule
    calls = []

    def spy(*args):
        calls.append(args)
        return real(*args)

    with monkeypatch.context() as patch:
        patch.setattr(_extension, "relation_submodule", spy)
        return build(mode, algebra, twist, p, **flags), len(calls)


def assert_route_matches_closure(monkeypatch, mode, algebra, twist, p=None, label=""):
    result = routed(monkeypatch, mode, algebra, twist, p)
    expected = closure(monkeypatch, mode, algebra, twist, p)
    assert extension_to_json(result) == extension_to_json(expected), label
    return result


def sheared_matrix_algebra(n, rng, shears):
    """M_n in the basis of a unitriangular integer matrix with a few
    off-diagonal entries, which keeps the closure on M_4 fast enough."""
    size = n * n
    grid = [[int(i == j) for j in range(size)] for i in range(size)]
    for _ in range(shears):
        i, j = sorted(rng.sample(range(size), 2))
        grid[i][j] = rng.choice((-1, 1))
    return change_of_basis(matrix_algebra(n), Mat.from_rows(grid))


def moved_matrix_algebra(n, rng):
    size = n * n
    while True:
        grid = [[rng.randint(-1, 1) for _ in range(size)] for _ in range(size)]
        try:
            return change_of_basis(matrix_algebra(n), Mat.from_rows(grid))
        except ValueError:
            continue


def inner_twists(algebra, rng):
    yield "derivation", inner_derivation(algebra, random_element(algebra, rng))
    yield "automorphism", inner_automorphism(algebra,
                                             random_invertible_element(algebra, rng))


def q_times_m2():
    return direct_product(poly_quotient(Poly.of([0, 1])), matrix_algebra(2))


def test_separability_finds_the_dual_basis_and_the_central_simple_identity():
    rng = random.Random(11)
    verdicts = {}
    for name, algebra in [("m2", matrix_algebra(2)), ("m3", matrix_algebra(3)),
                          ("moved m2", moved_matrix_algebra(2, rng)),
                          ("moved m3", moved_matrix_algebra(3, rng)),
                          ("q x m2", q_times_m2()),
                          ("q(sqrt 2)", poly_quotient(Poly.of([-2, 0, 1]))),
                          ("t3", upper_triangular(3)),
                          ("dual", poly_quotient(Poly.of([0, 0, 1])))]:
        found = separability(algebra)
        verdicts[name] = None if found is None else found.central_simple
        if found is None:
            continue
        n = algebra.dim
        duals = [tuple(Fraction(x, found.scale) for x in row) for row in found.dual]
        for i in range(n):
            for j in range(n):
                product = algebra.multiply(algebra.basis_element(i), duals[j])
                assert algebra.trace_of(product) == (i == j), (name, i, j)
    assert verdicts == {"m2": True, "m3": True, "moved m2": True, "moved m3": True,
                        "q x m2": False, "q(sqrt 2)": False, "t3": None, "dual": None}


def test_route_matches_the_closure_after_basis_changes(monkeypatch):
    cases = 0
    for n, seeds in ((2, range(3)), (3, range(3))):
        for seed in seeds:
            rng = random.Random(seed)
            algebra = moved_matrix_algebra(n, rng)
            for mode, twist in inner_twists(algebra, rng):
                assert_route_matches_closure(monkeypatch, mode, algebra, twist,
                                             label=(n, seed, mode))
                cases += 1
    rng = random.Random(0)
    algebra = sheared_matrix_algebra(4, rng, 4)
    for mode, twist in inner_twists(algebra, rng):
        result = assert_route_matches_closure(monkeypatch, mode, algebra, twist, label=mode)
        assert result.algebra.dim == 64, mode
        assert result.defect_dim == 16 * (twist.minimal_polynomial.degree - 4), mode
        cases += 1
    assert cases == 14


def test_route_matches_the_closure_on_the_corpus_m2_and_the_m3_pair(monkeypatch, m2, m3):
    twists = [("derivation", d) for d in derivation_space(m2)]
    twists += [("automorphism", phi)
               for phi in sample_automorphisms(m2, random.Random(len("m2")), 6)]
    for index, (mode, twist) in enumerate(twists):
        assert_route_matches_closure(monkeypatch, mode, m2, twist, label=(mode, index))
    for label, mode, algebra, twist, p in m3_pair(m3):
        result = assert_route_matches_closure(monkeypatch, mode, algebra, twist, p, label)
        assert (result.algebra.dim, result.defect_dim, result.free_module) == (27, 36, False)


def test_route_declines_bases_without_the_identity_and_commutative_ones(monkeypatch, corpus):
    t3 = upper_triangular(3)
    qm2 = q_times_m2()
    assert separability(t3) is None
    assert not separability(qm2).central_simple
    declined = 0
    bases = [("t3", t3), ("q x m2", qm2)]
    bases += [(name, algebra) for name, algebra in corpus.items()
              if algebra.is_commutative()]
    assert len(bases) == 8
    for name, algebra in bases:
        twists = [("derivation", d) for d in derivation_space(algebra)[:2]]
        twists += [("automorphism", phi)
                   for phi in sample_automorphisms(algebra, random.Random(len(name)), 3)[1:]]
        for mode, twist in twists:
            result, calls = closure_calls(monkeypatch, mode, algebra, twist)
            assert calls == 1, (name, mode)
            assert extension_to_json(result) == extension_to_json(
                closure(monkeypatch, mode, algebra, twist)), (name, mode)
            declined += 1
    assert declined >= 16


def test_forced_free_model_keeps_the_closure(monkeypatch, m2):
    identity = sample_automorphisms(m2, random.Random(2), 1)[0]
    assert identity.matrix == Mat.identity(4)
    result, calls = closure_calls(monkeypatch, "automorphism", m2, identity,
                                  Poly.of([-1, 1]), _skip_annihilator_check=True)
    assert calls == 1 and result.free_module and result.algebra.dim == 4
    d = derivation_space(m2)[0]
    with pytest.raises(AssociativityFails):
        closure_calls(monkeypatch, "derivation", m2, d, d.minimal_polynomial,
                      _skip_annihilator_check=True)


def test_route_leaves_a_p_that_misses_the_twist_to_the_closure(m2):
    """With p(D) != 0 the trace gcd can be constant, 1 in (p(X)), and the
    route declines.  assemble checks the annihilator before the route, so
    the route is called directly."""
    d = derivation_space(m2)[0]
    p = Poly.of([-5, 1])
    assert _extension._central_simple_quotient("derivation", m2, p, d.matrix) is None
    with pytest.raises(AnnihilatorFails):
        _extension.assemble(m2, "derivation", d, p)


def test_identity_and_order_two_conjugation_give_k_one_and_the_free_module(monkeypatch, m2, m3):
    for algebra in (m2, m3):
        n = algebra.dim
        identity = inner_automorphism(algebra, algebra.unit)
        assert identity.minimal_polynomial == Poly.of([-1, 1])
        result = assert_route_matches_closure(monkeypatch, "automorphism", algebra, identity)
        assert (result.algebra.dim, result.defect_dim, result.free_module) == (n, 0, True)
        size = round(n ** 0.5)
        reflection = [1] * (size - 1) + [-1]
        w = tuple(Fraction(reflection[i]) if i == j else Fraction(0)
                  for i in range(size) for j in range(size))
        flip = inner_automorphism(algebra, w)
        assert flip.minimal_polynomial == Poly.of([-1, 0, 1])
        result = assert_route_matches_closure(monkeypatch, "automorphism", algebra, flip)
        assert (result.algebra.dim, result.defect_dim, result.free_module) == (2 * n, 0, True)


def test_route_skips_the_closure_on_m3(monkeypatch, m3):
    for label, mode, algebra, twist, p in m3_pair(m3):
        result = routed(monkeypatch, mode, algebra, twist, p)
        assert result.algebra.dim == 27 and result.defect_dim == 36, label
        assert result.embed.column(0) == unit_vec(0, 27), label


def test_generic_m5_derivation_has_dimension_125(monkeypatch):
    m5 = matrix_algebra(5)
    d = inner_derivation(m5, random_trace_zero_invertible(m5, random.Random(3)))
    result = routed(monkeypatch, "derivation", m5, d)
    assert result.algebra.dim == 125
    assert result.defect_dim == d.minimal_polynomial.degree * 25 - 125
