"""Differential tests of the extension hot path against the dense Fraction code.

The reference functions below are the dense loops the library used before it
moved to closed forms and sparse tables: the Ore grid by step-by-step skew
rewriting, the Laurent grid by laurent_mul, the structure-constant product
over every coordinate, the associativity check over every basis triple, and
Subspace membership by rescanning each echelon row.  The library must agree
with them exactly.  make_algebra checks associators only at its generators,
so its verdict must be the full loop's and its failing triple the first at
a generator, in (generator, i, k) order.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from free_model_oracle import (
    FreeModel,
    free_model,
    leibniz_table,
    orbit_table,
    relation_generators,
    relation_submodule,
)
from skewex.algebra import Algebra, _first_nonassociative_at, change_of_basis, make_algebra
from skewex.errors import NotAssociative, UnitFails
from skewex.laurent import LaurentSkewPoly, laurent_mul
from skewex.linalg import ZERO, Mat, minimal_polynomial, span, vec_add
from skewex.maps import Derivation, derivation_space
from skewex.ore import SkewPoly, skew_mul
from skewex.sampling import random_element, sample_automorphisms

F = Fraction


# -- reference code ----------------------------------------------------------

def dense_multiply(sc, x, y):
    out = [ZERO] * len(x)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = sc[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, s in enumerate(row[j]):
                if s:
                    out[k] += c * s
    return tuple(out)


def dense_associator_fails(algebra):
    """Whether (e_i e_j) e_k != e_i (e_j e_k), as a predicate on basis
    triples.  Each side is summed over the nonzero constants of the dense
    table, read as integers over the lcm L of their denominators; both sides
    are then the rational ones times L^2, and the loop over all dim^3
    triples stays cheap."""
    scale = lcm(*(c.denominator for row in algebra.sc for product in row for c in product))
    terms = [[[(k, c.numerator * (scale // c.denominator)) for k, c in enumerate(product) if c]
              for product in row] for row in algebra.sc]

    def combine(pairs):
        out = [0] * algebra.dim
        for c, products in pairs:
            for k, s in products:
                out[k] += c * s
        return out

    def fails(i, j, k):
        return (combine((c, terms[l][k]) for l, c in terms[i][j])
                != combine((c, terms[i][l]) for l, c in terms[j][k]))

    return fails


def dense_make_algebra(dim, sc, unit, labels=None):
    """The unit law in Fractions and the loop over every basis triple; the
    verdict as an exception or an algebra."""
    algebra = Algebra(dim, sc, unit, labels)

    def e(i):
        return tuple(F(int(t == i)) for t in range(dim))

    for i in range(dim):
        if (dense_multiply(algebra.sc, algebra.unit, e(i)) != e(i)
                or dense_multiply(algebra.sc, e(i), algebra.unit) != e(i)):
            raise UnitFails(i)
    fails = dense_associator_fails(algebra)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if fails(i, j, k):
                    raise NotAssociative(i, j, k)
    return algebra


def rewriting_grid(algebra, d, p):
    """The Ore grid of ore_quotient, every product by skew_mul."""

    def monomial_product(a, i, b, j):
        prod = skew_mul(
            SkewPoly.monomial(algebra, algebra.basis_element(a), i),
            SkewPoly.monomial(algebra, algebra.basis_element(b), j),
            d,
        )
        return list(enumerate(prod.coeffs))

    def generator_polys(model):
        out = []
        px = SkewPoly.from_scalar_poly(algebra, p)
        for b in range(algebra.dim):
            base = skew_mul(px, SkewPoly.constant(algebra, algebra.basis_element(b)), d)
            for k in range(model.d):
                shifted = skew_mul(base, SkewPoly.x(algebra, k), d) if k else base
                out.append(list(enumerate(shifted.coeffs)))
        return out

    def xd_times_basis(b):
        prod = skew_mul(
            SkewPoly.x(algebra, p.degree),
            SkewPoly.constant(algebra, algebra.basis_element(b)),
            d,
        )
        return list(enumerate(prod.coeffs))

    return monomial_product, generator_polys, xd_times_basis


def laurent_grid(algebra, phi, p):
    """The Laurent grid of laurent_quotient, every product by laurent_mul."""

    def monomial_product(a, i, b, j):
        prod = laurent_mul(
            LaurentSkewPoly.monomial(algebra, algebra.basis_element(a), i),
            LaurentSkewPoly.monomial(algebra, algebra.basis_element(b), j),
            phi,
        )
        return list(prod.terms)

    def generator_polys(model):
        out = []
        px = LaurentSkewPoly.from_scalar_terms(algebra, list(enumerate(p.coeffs)))
        for b in range(algebra.dim):
            base = laurent_mul(px, LaurentSkewPoly.constant(algebra, algebra.basis_element(b)), phi)
            for k in range(model.d):
                shifted = laurent_mul(base, LaurentSkewPoly.x(algebra, k), phi) if k else base
                out.append(list(shifted.terms))
        return out

    def xd_times_basis(b):
        prod = laurent_mul(
            LaurentSkewPoly.x(algebra, p.degree),
            LaurentSkewPoly.constant(algebra, algebra.basis_element(b)),
            phi,
        )
        return list(prod.terms)

    return monomial_product, generator_polys, xd_times_basis


def echelon_residual(subspace, v):
    residual = list(v)
    for row in subspace.basis:
        p = next(j for j, x in enumerate(row) if x)
        f = residual[p]
        if f:
            residual = [x - f * y for x, y in zip(residual, row)]
    return tuple(residual)


# -- helpers -----------------------------------------------------------------

def left_normal(terms):
    """A term list as {power: coefficient}, repeated powers summed, zeros dropped."""
    out = {}
    for power, coeff in terms:
        out[power] = vec_add(out[power], coeff) if power in out else tuple(coeff)
    return {power: c for power, c in out.items() if any(c)}


def verdict(build, dim, sc, unit):
    try:
        build(dim, sc, unit)
    except UnitFails as exc:
        return ("unit", exc.index)
    except NotAssociative as exc:
        return ("associativity", exc.triple)
    return ("ok", None)


def generator_order_verdict(dim, sc, unit):
    """dense_make_algebra's verdict, with a failing triple replaced by the
    first (i, g, k) at which dense_associator_fails, for g in the table's
    generators G and in (g, i, k) order: the triple make_algebra reports."""
    kind, witness = verdict(dense_make_algebra, dim, sc, unit)
    if kind == "associativity":
        table = Algebra(dim, sc, unit)
        fails = dense_associator_fails(table)
        witness = next(((i, g, k) for g in table.generators for i in range(dim)
                        for k in range(dim) if fails(i, g, k)), None)
    return kind, witness


def derivations_to_check(algebra, rng):
    """The derivation_space basis plus two seeded random combinations of it."""
    basis = derivation_space(algebra)
    out = list(basis)
    for _ in range(2 if basis else 0):
        matrix = Mat.zeros(algebra.dim, algebra.dim)
        for d in rng.sample(basis, min(2, len(basis))):
            matrix = matrix + d.matrix.scale(rng.choice((-2, -1, 1, 2)))
        out.append(Derivation.certify(algebra, matrix))
    return out


# -- the Ore grid ------------------------------------------------------------

def test_leibniz_grid_matches_rewriting(corpus):
    rng = random.Random(3031)
    checked = 0
    for name, algebra in corpus.items():
        for d in derivations_to_check(algebra, rng):
            p = minimal_polynomial(d.matrix)
            xpow = leibniz_table(algebra, d, p)
            oracle = rewriting_grid(algebra, d, p)
            closed_model = free_model(algebra, p, xpow)
            oracle_model = FreeModel(algebra, p, oracle[0])
            assert closed_model.sc == oracle_model.sc, name
            closed_gens = relation_generators(p, xpow)
            oracle_gens = oracle[1](oracle_model)
            assert [left_normal(t) for t in closed_gens] == \
                [left_normal(t) for t in oracle_gens], name
            assert relation_submodule(closed_model, closed_gens) == \
                relation_submodule(oracle_model, oracle_gens), name
            for b in range(algebra.dim):
                assert left_normal(xpow[b][p.degree]) == left_normal(oracle[2](b)), name
            checked += 1
    # dual 3, jet2 4, m2 5, m3 10, ut2 4; the semisimple commutative ones have none
    assert checked == 26


# -- the Laurent grid --------------------------------------------------------

def test_orbit_table_matches_laurent_mul(corpus):
    checked = 0
    for name, algebra in corpus.items():
        # the pool starts with the identity; the two maps after it
        for phi in sample_automorphisms(algebra, random.Random(len(name)), 3)[1:]:
            p = minimal_polynomial(phi.matrix)
            xpow = orbit_table(algebra, phi, p)
            oracle = laurent_grid(algebra, phi, p)
            model = free_model(algebra, p, xpow)
            for a, i in [(a, i) for i in range(model.d) for a in range(model.n)]:
                for j in range(model.d):
                    for b in range(model.n):
                        assert model.sc[model.index(a, i)][model.index(b, j)] == \
                            model.reduce_terms(oracle[0](a, i, b, j)), name
            closed_gens = relation_generators(p, xpow)
            oracle_gens = oracle[1](model)
            assert [left_normal(t) for t in closed_gens] == \
                [left_normal(t) for t in oracle_gens], name
            assert relation_submodule(model, closed_gens) == \
                relation_submodule(model, oracle_gens), name
            for b in range(algebra.dim):
                assert left_normal(xpow[b][p.degree]) == left_normal(oracle[2](b)), name
            checked += 1
    # two each for dual, jet2, m2, m3 and ut2; one each for qxq, c2 and c3;
    # the pool of split holds the identity alone
    assert checked == 13


# -- sparse products ---------------------------------------------------------

def rational_element(dim, rng):
    """Coordinates with denominators up to 4, about a third of them zero."""
    return tuple(F(rng.randint(-3, 3), rng.randint(1, 4)) if rng.random() < 0.7 else ZERO
                 for _ in range(dim))


def test_sparse_multiply_matches_dense(corpus):
    rng = random.Random(707)
    tables = dict(corpus)
    for name, algebra in corpus.items():
        # a unit upper-triangular basis change with fractional entries, so
        # that the constants have a common denominator L > 1
        n = algebra.dim
        t = Mat.from_rows([[1 if i == j else F(1, i + j + 2) if j > i else 0 for j in range(n)]
                           for i in range(n)])
        tables[f"{name}_rational_basis"] = rational = change_of_basis(algebra, t)
        assert rational.integer_sc[0] > 1, name
    for name, algebra in tables.items():
        for _ in range(20):
            x, y = random_element(algebra, rng), random_element(algebra, rng)
            if rng.random() < 0.5:
                x = tuple(c if rng.random() < 0.5 else ZERO for c in x)
            assert algebra.multiply(x, y) == dense_multiply(algebra.sc, x, y), name
            x, y = rational_element(algebra.dim, rng), rational_element(algebra.dim, rng)
            assert algebra.multiply(x, y) == dense_multiply(algebra.sc, x, y), name


def test_free_model_multiply_matches_dense(m2, dual_numbers):
    rng = random.Random(808)
    for algebra in (m2, dual_numbers):
        for d in derivation_space(algebra):
            p = minimal_polynomial(d.matrix)
            model = free_model(algebra, p, leibniz_table(algebra, d, p))
            for _ in range(10):
                x = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(model.dim))
                y = tuple(F(rng.randint(-3, 3), rng.choice((1, 2, 5))) for _ in range(model.dim))
                assert model.multiply(x, y) == dense_multiply(model.sc, x, y)


# -- the associativity check -------------------------------------------------

def rational_tables(corpus):
    """The corpus tables plus two whose constants have nontrivial denominators."""
    tables = {name: algebra for name, algebra in corpus.items()}
    tables["m2_rational_basis"] = change_of_basis(
        corpus["m2"], Mat.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, F(2, 3)],
                                     [F(-3, 5), 0, 1, 0], [0, 0, F(1, 7), 1]]))
    tables["jet2_rational_basis"] = change_of_basis(
        corpus["jet2"], Mat.from_rows([[1, 0, 0], [F(1, 3), F(5, 7), 0], [0, F(-2, 9), 2]]))
    return tables


def test_integer_associativity_matches_dense_on_corpus(corpus):
    for name, algebra in rational_tables(corpus).items():
        assert verdict(make_algebra, algebra.dim, algebra.sc, algebra.unit) == ("ok", None), name
        assert verdict(dense_make_algebra, algebra.dim, algebra.sc, algebra.unit) == \
            ("ok", None), name


@pytest.mark.parametrize("value", [F(1, 3), F(5, 7), F(-2), F(0)])
def test_integer_associativity_matches_dense_on_perturbed_tables(corpus, value):
    rng = random.Random(9090 + value.numerator * 31 + value.denominator)
    verdicts = set()
    for name, algebra in rational_tables(corpus).items():
        n = algebra.dim
        for _ in range(6):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            sc = [[list(algebra.sc[a][b]) for b in range(n)] for a in range(n)]
            sc[i][j][k] = sc[i][j][k] + value if rng.random() < 0.5 else value
            fast = verdict(make_algebra, n, sc, algebra.unit)
            assert fast == generator_order_verdict(n, sc, algebra.unit), (name, i, j, k)
            verdicts.add(fast[0])
    # the perturbations reach both failure kinds
    assert {"unit", "associativity"} <= verdicts


def dense_first_nonassociative(algebra, middles):
    """The first (i, g, k), in (g, i, k) order, with (e_i y) e_k != e_i (y e_k)
    for y = middles[g], every product by dense_multiply; or None."""
    n = algebra.dim
    e = [algebra.basis_element(i) for i in range(n)]
    for g, y in enumerate(middles):
        for i in range(n):
            for k in range(n):
                if (dense_multiply(algebra.sc, dense_multiply(algebra.sc, e[i], y), e[k])
                        != dense_multiply(algebra.sc, e[i], dense_multiply(algebra.sc, y, e[k]))):
                    return i, g, k
    return None


@pytest.mark.parametrize("value", [F(1, 3), F(-2)])
def test_fused_associators_match_dense_on_perturbed_tables(corpus, value):
    """_first_nonassociative_at, called with the generators as make_algebra
    calls it and with random rational middles, on tables whose unit law may
    fail too: its witness is the first failing triple of the dense loops."""
    rng = random.Random(4242 + value.numerator)
    outcomes = set()
    for name, algebra in rational_tables(corpus).items():
        n = algebra.dim
        for _ in range(8):
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(n)
            sc = [[list(algebra.sc[a][b]) for b in range(n)] for a in range(n)]
            sc[i][j][k] += value
            table = Algebra(n, sc, algebra.unit)
            generators = table.generators
            fails = dense_associator_fails(table)
            expected = next(((a, g, c) for g in range(len(generators)) for a in range(n)
                             for c in range(n) if fails(a, generators[g], c)), None)
            got = _first_nonassociative_at(
                table.integer_sc, [table.basis_element(g) for g in generators])
            assert got == expected, (name, i, j, k)
            middles = [rational_element(n, rng) for _ in range(2)]
            got = _first_nonassociative_at(table.integer_sc, middles)
            assert got == dense_first_nonassociative(table, middles), (name, i, j, k)
            outcomes.add(expected is None)
    assert outcomes == {True, False}


def test_fused_associators_reach_the_last_triple(ut2):
    """E22 E11 = E22 on the upper-triangular 2 x 2 matrices (E11, E12, E22):
    the associators at E12 all vanish, and at E11 only (E22, E11, E22)
    fails, the last (i, k) of the last middle."""
    sc = [[list(ut2.sc[a][b]) for b in range(3)] for a in range(3)]
    sc[2][0][2] += 1
    table = Algebra(3, sc, ut2.unit)
    middles = [table.basis_element(1), table.basis_element(0)]
    fails = dense_associator_fails(table)
    assert [(i, j, k) for j in (1, 0) for i in range(3) for k in range(3)
            if fails(i, j, k)] == [(2, 0, 2)]
    assert dense_first_nonassociative(table, middles) == (2, 1, 2)
    assert _first_nonassociative_at(table.integer_sc, middles) == (2, 1, 2)
    assert _first_nonassociative_at(table.integer_sc, middles[:1]) is None


# -- the Subspace cache ------------------------------------------------------

def test_subspace_cache_stays_out_of_identity():
    rng = random.Random(1212)
    for _ in range(20):
        vectors = [tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(6))
                   for _ in range(rng.randint(1, 5))]
        used, fresh = span(vectors, 6), span(vectors, 6)
        probes = vectors + [tuple(F(rng.randint(-2, 2)) for _ in range(6)) for _ in range(5)]
        for v in probes:
            assert used.reduce(v) == echelon_residual(used, v)
            assert used.contains(v) == all(x == 0 for x in echelon_residual(used, v))
        assert used.pivots() == [next(j for j, x in enumerate(r) if x) for r in used.basis]
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert {used: 1}[fresh] == 1
