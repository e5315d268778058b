import random
from fractions import Fraction

import pytest

from skewex.algebra import (
    NOT_SIMPLE,
    SIMPLE,
    Algebra,
    center,
    change_of_basis,
    cyclic_group_algebra,
    ideal_closure,
    is_simple,
    make_algebra,
    matrix_algebra,
    poly_quotient,
    quotient,
    radical,
    subalgebra_generated,
    upper_triangular,
)
from skewex.errors import (
    DimensionMismatch,
    ImproperIdeal,
    NotAnIdeal,
    NotAssociative,
    UnitFails,
)
from skewex.linalg import Mat, Poly, kernel, span
from skewex.sampling import random_element

F = Fraction


def test_make_algebra_rationals():
    a = make_algebra(1, [[[1]]], [1])
    assert a.multiply((F(3),), (F(5),)) == (F(15),)


def test_make_algebra_unit_fails():
    with pytest.raises(UnitFails):
        make_algebra(1, [[[1]]], [2])


def test_make_algebra_not_associative():
    # e1 e2 = e0 but e2 e1 = 0 breaks (e1 e2) e1 = e1 against e1 (e2 e1) = 0
    sc = [
        [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[0, 1, 0], [0, 0, 0], [1, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [0, 0, 0]],
    ]
    with pytest.raises(NotAssociative):
        make_algebra(3, sc, [1, 0, 0])


def test_make_algebra_rejects_short_structure_constants():
    # e1 e1 has one coordinate too few; the check must not read it as zero
    sc = [[[1, 0], [0, 1]], [[0, 1], [0]]]
    with pytest.raises(DimensionMismatch):
        make_algebra(2, sc, [1, 0])


def test_make_algebra_rejects_tables_of_the_wrong_shape():
    # Q[t]/(t^2); each table below misses or adds a row, a cell or an entry,
    # which must raise DimensionMismatch rather than an IndexError or be dropped
    good = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    assert make_algebra(2, good, [1, 0]).integer_sc == (1, ((((0, 1),), ((1, 1),)),
                                                            (((1, 1),), ())))
    wrong = {
        "too few rows": good[:1],
        "too few cells": [row[:1] for row in good],
        "an extra row": good + [[[0, 0], [0, 0]]],
        "an extra cell": [good[0] + [[0, 0]], good[1]],
        "an extra entry": [[[1, 0, 0], [0, 1]], good[1]],
    }
    for label, sc in wrong.items():
        with pytest.raises(DimensionMismatch):
            make_algebra(2, sc, [1, 0])
        with pytest.raises(DimensionMismatch):
            Algebra(2, sc, [1, 0])


def test_matrix_units_multiplication(m2):
    # E12 * E21 = E11 and E21 * E12 = E22; all other matrix-unit relations
    e11, e12, e21, e22 = (m2.basis_element(i) for i in range(4))
    assert m2.multiply(e12, e21) == e11
    assert m2.multiply(e21, e12) == e22
    assert m2.multiply(e12, e12) == (F(0),) * 4
    assert m2.multiply(m2.unit, e12) == e12


def test_poly_quotient_defining_relation(dual_numbers):
    t = dual_numbers.basis_element(1)
    assert dual_numbers.multiply(t, t) == (F(0), F(0))


def test_poly_quotient_group_algebra_isomorphism(c2):
    # Q[t]/(t^2 - 1) matches Q[C2] under t <-> g
    a = poly_quotient(Poly.of([-1, 0, 1]))
    assert a.sc == c2.sc
    assert a.unit == c2.unit


def test_direct_product_unit(q_times_q):
    assert q_times_q.unit == (F(1), F(1))
    assert q_times_q.dim == 2


def test_left_regular_unit_and_trace(m2):
    assert m2.left_regular(m2.unit) == Mat.identity(4)
    # E11 fixes E11 and E12, kills E21 and E22
    assert m2.trace_of(m2.basis_element(0)) == 2


def test_left_regular_multiplicative_across_corpus(corpus, rng):
    for algebra in corpus.values():
        for _ in range(500):
            x = random_element(algebra, rng)
            y = random_element(algebra, rng)
            assert algebra.left_regular(algebra.multiply(x, y)) == \
                algebra.left_regular(x) * algebra.left_regular(y)
        assert algebra.left_regular(algebra.unit) == Mat.identity(algebra.dim)


def test_two_sided_ideal_full_from_corner(m2):
    # closure oracle: E21*E11*E12 = E22 etc., so (E11) is everything
    ideal = ideal_closure(m2, [m2.basis_element(0)])
    assert ideal.dim == 4


def test_two_sided_ideal_central_idempotent(q_times_q):
    ideal = ideal_closure(q_times_q, [(F(1), F(0))])
    assert ideal == span([(F(1), F(0))], 2)


def test_two_sided_ideal_zero(m2):
    assert ideal_closure(m2, [(F(0),) * 4]).dim == 0


def test_ideal_closure_is_closed(corpus, rng):
    for algebra in corpus.values():
        gens = [random_element(algebra, rng)]
        ideal = ideal_closure(algebra, gens, "two")
        for v in ideal.basis:
            for b in range(algebra.dim):
                eb = algebra.basis_element(b)
                assert ideal.contains(algebra.multiply(eb, v))
                assert ideal.contains(algebra.multiply(v, eb))


def test_one_sided_closures(ut2):
    # span{E12} is a two-sided ideal of the upper triangular algebra,
    # but span{E11} is only a left... check directional closures
    e11 = ut2.basis_element(0)
    left = ideal_closure(ut2, [e11], "left")
    right = ideal_closure(ut2, [e11], "right")
    for v in left.basis:
        for b in range(ut2.dim):
            assert left.contains(ut2.multiply(ut2.basis_element(b), v))
    for v in right.basis:
        for b in range(ut2.dim):
            assert right.contains(ut2.multiply(v, ut2.basis_element(b)))
    assert left != right


def test_subalgebra_generated(m2, jet2):
    assert subalgebra_generated(m2, [m2.basis_element(1), m2.basis_element(2)]).dim == 4
    assert subalgebra_generated(m2, []).dim == 1
    assert subalgebra_generated(jet2, [jet2.basis_element(1)]).dim == 3


def test_quotient_dual_numbers(dual_numbers):
    ideal = ideal_closure(dual_numbers, [dual_numbers.basis_element(1)])
    quot, proj = quotient(dual_numbers, ideal)
    assert quot.dim == 1
    assert kernel(proj) == ideal


def test_quotient_projection_is_homomorphism(q_times_q):
    ideal = span([(F(0), F(1))], 2)
    quot, proj = quotient(q_times_q, ideal)
    assert quot.dim == 1
    for i in range(2):
        for j in range(2):
            ei, ej = q_times_q.basis_element(i), q_times_q.basis_element(j)
            assert proj.apply(q_times_q.multiply(ei, ej)) == \
                quot.multiply(proj.apply(ei), proj.apply(ej))


def test_quotient_rejects_non_ideal(m2):
    with pytest.raises(NotAnIdeal):
        quotient(m2, span([m2.basis_element(1)], 4))


def test_quotient_rejects_whole_algebra(dual_numbers):
    from skewex.linalg import full_space
    with pytest.raises(ImproperIdeal):
        quotient(dual_numbers, full_space(2))


def test_radical_matrix_algebra(m2):
    assert radical(m2).dim == 0


def test_radical_dual_numbers(dual_numbers):
    assert radical(dual_numbers) == span([(F(0), F(1))], 2)


def test_radical_split(q_times_q):
    assert radical(q_times_q).dim == 0


def test_radical_of_semisimple_quotient(ut2):
    rad = radical(ut2)
    assert rad.dim == 1
    quot, _ = quotient(ut2, rad)
    assert radical(quot).dim == 0


def test_center(m2, q_times_q):
    assert center(m2) == span([m2.unit], 4)
    assert center(q_times_q).dim == 2


def test_is_simple(m2, q_times_q, dual_numbers, m3):
    assert is_simple(m2)[0] == SIMPLE
    assert is_simple(m3)[0] == SIMPLE
    verdict, witness = is_simple(q_times_q)
    assert verdict == NOT_SIMPLE
    assert witness.dim in (1,)
    verdict, witness = is_simple(dual_numbers)
    assert verdict == NOT_SIMPLE
    assert witness == span([(F(0), F(1))], 2)


def test_builders_validate(corpus):
    for name, algebra in corpus.items():
        # reconstruction re-runs the full validation
        make_algebra(algebra.dim, algebra.sc, algebra.unit, algebra.labels)


def test_matrix_algebra_dims():
    assert matrix_algebra(2).dim == 4
    assert matrix_algebra(3).dim == 9
    assert upper_triangular(2).dim == 3
    assert cyclic_group_algebra(4).dim == 4


def test_change_of_basis_preserves_structure(dual_numbers):
    t = Mat.from_rows([[1, 1], [0, 1]])
    moved = change_of_basis(dual_numbers, t)
    assert moved.dim == 2
    assert radical(moved).dim == 1


@pytest.fixture
def rng():
    return random.Random(7)
