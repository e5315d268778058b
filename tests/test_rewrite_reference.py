"""Differential, canonical-form and mutation tests of the skew and Laurent
polynomials stored as integer forms.

On the test corpus (M_3 included) and on explorer algebras after a basis
change, with coefficients, twists and scalars that have denominators,
skew_mul, laurent_mul (negative exponents included), the sums and
differences, eval_at_one and the values the five lemma checks return must
equal those of the Fraction rewriters in rewrite_oracle.  Equal polynomials
built by different routes must have one integer form, equal and hashing
equal.  Finally, lemma_suite must report a failure when skew_mul loses its
derivation term or laurent_mul reads phi^(i+1) for phi^i.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from skewex import laurent, ore, suites
from skewex.algebra import FAIL, PASS
from skewex.laurent import LaurentSkewPoly, coefficient_sum_membership, eval_at_one, laurent_mul
from skewex.linalg import Mat, Poly
from skewex.maps import Derivation
from skewex.ore import (
    SkewPoly,
    commutator_power,
    constant_term_identity,
    constant_terms,
    ideal_constant_term,
    skew_mul,
)
from skewex.sampling import sample_automorphisms
from skewex.suites import SuiteContext, suite_lemma
from rewrite_oracle import (
    FractionLaurentPoly,
    FractionSkewPoly,
    ref_coefficient_sum_membership,
    ref_commutator_power,
    ref_constant_term_identity,
    ref_constant_terms,
    ref_eval_at_one,
    ref_ideal_constant_term,
    ref_laurent_mul,
    ref_skew_mul,
)
from test_integer_element_reference import derivations_of, rational_element
from test_matrix_kernel_reference import explorer_algebras

F = Fraction


def algebras_of(corpus):
    out = [(name, algebra, random.Random(len(name))) for name, algebra in corpus.items()]
    return out + explorer_algebras(range(4))


def skew_pair(algebra, rng, degree):
    """A random polynomial with rational coefficients, as the oracle's and the library's."""
    coeffs = [rational_element(rng, algebra.dim, density=rng.choice((0.0, 0.4, 0.8)))
              for _ in range(degree + 1)]
    return FractionSkewPoly.of(algebra, coeffs), SkewPoly.of(algebra, coeffs)


def laurent_pair(algebra, rng):
    terms = [(rng.randint(-3, 3), rational_element(rng, algebra.dim, density=0.6))
             for _ in range(rng.randint(0, 3))]
    return FractionLaurentPoly.of(algebra, terms), LaurentSkewPoly.of(algebra, terms)


def rational_poly(rng):
    return Poly.of([F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(rng.randint(1, 4))])


def automorphisms_of(algebra, rng):
    return [phi for phi in sample_automorphisms(algebra, rng, 3) if phi.is_invertible()]


# -- products, sums and differences -------------------------------------------------

def test_skew_products_sums_and_differences_match_the_oracle(corpus):
    compared = 0
    for name, algebra, rng in algebras_of(corpus):
        for d in derivations_of(algebra, rng)[:4 if algebra.dim < 9 else 2]:
            for deg_f, deg_g in ((0, 2), (1, 1), (2, 1), (3, 0), (-1, 2)) * 2:
                ref_f, f = skew_pair(algebra, rng, deg_f)
                ref_g, g = skew_pair(algebra, rng, deg_g)
                product = skew_mul(f, g, d)
                assert product.coeffs == ref_skew_mul(ref_f, ref_g, d).coeffs, name
                assert (f + g).coeffs == (ref_f + ref_g).coeffs, name
                assert (f - g).coeffs == (ref_f - ref_g).coeffs, name
                assert (f - f).is_zero() and (f - g).degree == (ref_f - ref_g).degree
                compared += not product.is_zero()
    assert compared >= 100


def test_laurent_products_sums_and_differences_match_the_oracle(corpus):
    negative = 0
    for name, algebra, rng in algebras_of(corpus):
        for phi in automorphisms_of(algebra, rng):
            for _ in range(10 if algebra.dim < 9 else 2):
                ref_f, f = laurent_pair(algebra, rng)
                ref_g, g = laurent_pair(algebra, rng)
                product = laurent_mul(f, g, phi)
                assert product.terms == ref_laurent_mul(ref_f, ref_g, phi).terms, name
                assert (f + g).terms == (ref_f + ref_g).terms, name
                assert (f - g).terms == (ref_f - ref_g).terms, name
                assert eval_at_one(product) == ref_eval_at_one(product), name
                negative += any(i < 0 for i, _ in f.terms) and not product.is_zero()
    assert negative >= 60


# -- the five lemma checks ------------------------------------------------------------

def test_lemma_check_values_match_the_oracle(corpus):
    members = set()
    for name, algebra, rng in algebras_of(corpus):
        small = algebra.dim < 9
        n = algebra.dim
        for d in derivations_of(algebra, rng)[:3 if small else 1]:
            for power in range(4 if small else 2):
                a = rational_element(rng, n)
                got = commutator_power(power, a, d)
                assert [x.coeffs for x in got] == \
                    [x.coeffs for x in ref_commutator_power(power, a, d)], name
            ref_f, f = skew_pair(algebra, rng, rng.randint(0, 3))
            assert constant_terms(f, d) == ref_constant_terms(ref_f, d), name
            q, b = rational_poly(rng), rational_element(rng, n)
            assert constant_term_identity(q, b, d) == ref_constant_term_identity(q, b, d), name
            for m, k in ((0, 0), (2, 0), (1, 1)):
                report = ideal_constant_term(q, b, m, k, d)
                assert (report.value, report.predicted, report.member) == \
                    ref_ideal_constant_term(q, b, m, k, d), name
                members.add(report.member)
        for phi in automorphisms_of(algebra, rng)[:3 if small else 1]:
            terms = [(rng.randint(-2, 2), F(rng.randint(-2, 2), rng.choice((1, 3))))
                     for _ in range(3)]
            b, c = rational_element(rng, n), rational_element(rng, n)
            j, k = rng.randint(-2, 2), rng.randint(-2, 2)
            report = coefficient_sum_membership(terms, b, c, j, k, phi)
            assert (report.value, report.closed_form, report.member) == \
                ref_coefficient_sum_membership(terms, b, c, j, k, phi), name
            members.add(report.member)
    assert members == {True}


# -- one integer form ---------------------------------------------------------------

def assert_canonical(scale, rows):
    assert scale > 0
    assert gcd(scale, *(x for row in rows for x in row)) == 1


def test_equal_skew_polynomials_have_one_form(m2):
    rng = random.Random(5)
    zero = (F(0),) * 4
    for _ in range(20):
        coeffs = [rational_element(rng, 4) for _ in range(rng.randint(1, 3))]
        f = SkewPoly.of(m2, coeffs + [zero])
        scale, rows = f.integer_form
        assert_canonical(scale, rows)
        assert not rows or any(rows[-1])
        factor = rng.randint(2, 9)
        scaled = SkewPoly._from_integers(m2, [[factor * x for x in row] for row in rows]
                                         + [[0] * 4], factor * scale)
        other = SkewPoly.of(m2, [rational_element(rng, 4) for _ in range(rng.randint(1, 4))])
        round_trip = f + other - other
        assert f == scaled == round_trip
        assert hash(f) == hash(scaled) == hash(round_trip)
        assert f.coeffs == FractionSkewPoly.of(m2, coeffs).coeffs
    assert SkewPoly.of(m2, [zero, zero]) == SkewPoly.zero(m2) == f - f
    assert SkewPoly.zero(m2).integer_form == (1, ())


def test_equal_laurent_polynomials_have_one_form(m2):
    rng = random.Random(6)
    for _ in range(20):
        terms = [(rng.randint(-3, 3), rational_element(rng, 4)) for _ in range(3)]
        f = LaurentSkewPoly.of(m2, terms)
        scale, pairs = f.integer_form
        assert_canonical(scale, [row for _, row in pairs])
        assert [i for i, _ in pairs] == sorted({i for i, _ in pairs})
        assert all(any(row) for _, row in pairs)
        # each row times a common factor, split into two terms of its exponent,
        # and a zero term
        factor = rng.randint(2, 9)
        parts = [(7, [0] * 4)]
        for i, row in pairs:
            shift = rng.randint(-5, 5)
            parts += [(i, [factor * x - shift for x in row]), (i, [shift] * 4)]
        split = LaurentSkewPoly._from_integers(m2, parts, factor * scale)
        other = LaurentSkewPoly.of(m2, [(rng.randint(-3, 3), rational_element(rng, 4))])
        round_trip = f + other - other
        assert f == split == round_trip
        assert hash(f) == hash(split) == hash(round_trip)
        assert f.terms == FractionLaurentPoly.of(m2, terms).terms
    assert (f - f) == LaurentSkewPoly.zero(m2)
    assert LaurentSkewPoly.zero(m2).integer_form == (1, ())


# -- mutations --------------------------------------------------------------------------

def lemma_statuses(algebra, seed=0):
    records = suite_lemma(SuiteContext(algebra, [], random.Random(seed)))
    return {r.check: r.status for r in records}


@pytest.fixture
def lemma_algebras(m2, ut2):
    for algebra in (m2, ut2):
        assert set(lemma_statuses(algebra).values()) == {PASS}
    return m2, ut2


def test_lemma_suite_fails_when_skew_mul_drops_the_derivation_term(lemma_algebras,
                                                                   monkeypatch):
    exact = ore.skew_mul

    def without_d(f, g, d):
        # the rewrite X c = c X
        n = d.algebra.dim
        return exact(f, g, Derivation(d.algebra, Mat.zeros(n, n)))

    monkeypatch.setattr(ore, "skew_mul", without_d)
    for algebra in lemma_algebras:
        statuses = lemma_statuses(algebra)
        assert statuses["binomial_commutator"] == FAIL
        assert statuses["scalar_poly_constant_term"] == FAIL


class ShiftedPowers:
    """An automorphism whose power(i) answers phi^(i+1)."""

    def __init__(self, phi):
        self.phi = phi

    def is_invertible(self):
        return self.phi.is_invertible()

    def power(self, i):
        return self.phi.power(i + 1)


def test_lemma_suite_fails_when_laurent_mul_shifts_the_power(lemma_algebras, monkeypatch):
    exact = laurent.laurent_mul

    def shifted(f, g, phi):
        return exact(f, g, ShiftedPowers(phi))

    monkeypatch.setattr(laurent, "laurent_mul", shifted)
    monkeypatch.setattr(suites, "laurent_mul", shifted)
    for algebra in lemma_algebras:
        statuses = lemma_statuses(algebra)
        assert statuses["conjugation_coherence"] == FAIL
        assert statuses["coefficient_sum_membership"] == FAIL
