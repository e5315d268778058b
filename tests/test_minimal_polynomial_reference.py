"""Differential tests of minimal_polynomial against its lcm form.

The first reference below is minimal_polynomial as it was when it took the
lcm of the Krylov relations of the basis vectors with Poly.lcm, a Fraction
Euclid.  The library multiplies instead: with f the lcm so far, the Krylov
relation of f(M) e_i is lcm(f, mu_i) / f.  The second is that product taken
in Fraction Polys, as the library took it before it multiplied the integer
relations.  All three must agree on every matrix, and most of all on
derogatory ones, whose basis vectors share factors of their relations.
"""

import random

from skewex.algebra import direct_product, poly_quotient
from skewex.linalg import Mat, Poly, inverse, krylov_relation, minimal_polynomial, unit_vec
from skewex.maps import derivation_space
from skewex.sampling import sample_automorphisms


def ref_minimal_polynomial(m):
    result = Poly.one()
    for i in range(m.rows):
        result = result.lcm(krylov_relation(m.apply, unit_vec(i, m.rows)))
    assert result.eval_matrix(m).is_zero()
    return result


def ref_product_minimal_polynomial(m):
    result = Poly.one()
    value = Mat.identity(m.rows)
    for i in range(m.rows):
        column = value.column(i)
        if any(column):
            relation = krylov_relation(m.apply, column)
            result = result * relation
            value = relation.eval_matrix(m) * value
    assert value.is_zero()
    return result


def jordan_block(lam, size):
    return [[lam if r == c else 1 if c == r + 1 else 0 for c in range(size)]
            for r in range(size)]


def block_diagonal(*blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for r, row in enumerate(b):
            rows[at + r][at:at + len(b)] = row
        at += len(b)
    return Mat.from_rows(rows)


def derogatory_matrices():
    yield Mat.zeros(0, 0)
    for n in (1, 2, 4):
        yield Mat.zeros(n, n)
        yield Mat.identity(n)
        yield Mat.identity(n).scale(-3)
    for lam in (0, 2, -1):
        for size in (1, 2, 3, 4):
            yield block_diagonal(jordan_block(lam, size))
    # shared factors: repeated eigenvalues in blocks of different sizes,
    # equal blocks, and companion blocks of a common factor
    yield block_diagonal(jordan_block(0, 2), jordan_block(0, 1), jordan_block(0, 3))
    yield block_diagonal(jordan_block(1, 2), jordan_block(2, 2), jordan_block(1, 3))
    yield block_diagonal(jordan_block(5, 1), jordan_block(5, 1), jordan_block(-5, 2))
    rotation = [[0, -1], [1, 0]]
    yield block_diagonal(rotation, rotation, jordan_block(0, 2))
    yield block_diagonal(rotation, [[1]], rotation, [[1]])
    # t^2 - 2 and (t^2 - 2)(t - 1) as companion blocks
    yield block_diagonal([[0, 2], [1, 0]], [[0, 0, -2], [1, 0, 2], [0, 1, 1]])
    # the basis order puts the small blocks last, then first
    yield block_diagonal(jordan_block(3, 3), jordan_block(3, 1), [[3]])
    yield block_diagonal([[3]], jordan_block(3, 1), jordan_block(3, 3))


def conjugated(m, rng):
    """m in a random unimodular basis, so basis vectors straddle the blocks."""
    n = m.rows
    lower = Mat.from_rows([[1 if c == r else rng.randint(-1, 1) if c < r else 0
                            for c in range(n)] for r in range(n)])
    upper = Mat.from_rows([[1 if c == r else rng.randint(-2, 2) if c > r else 0
                            for c in range(n)] for r in range(n)])
    t = lower * upper
    return inverse(t) * m * t


def test_matches_lcm_on_derogatory_matrices():
    rng = random.Random(1919)
    checked = 0
    for m in derogatory_matrices():
        assert minimal_polynomial(m) == ref_minimal_polynomial(m) \
            == ref_product_minimal_polynomial(m), m
        if m.rows:
            c = conjugated(m, rng)
            assert minimal_polynomial(c) == ref_minimal_polynomial(c) \
                == ref_product_minimal_polynomial(c), c
        checked += 1
    assert checked >= 30


def test_derogatory_examples_have_the_expected_polynomials():
    m = block_diagonal(jordan_block(1, 2), jordan_block(2, 2), jordan_block(1, 3))
    # (t - 1)^3 (t - 2)^2
    expected = Poly.of([-1, 1]) * Poly.of([-1, 1]) * Poly.of([-1, 1]) \
        * Poly.of([-2, 1]) * Poly.of([-2, 1])
    assert minimal_polynomial(m) == expected
    assert minimal_polynomial(Mat.identity(4)) == Poly.of([-1, 1])
    assert minimal_polynomial(Mat.zeros(3, 3)) == Poly.of([0, 1])
    assert minimal_polynomial(Mat.zeros(0, 0)) == Poly.one()


def test_matches_lcm_on_corpus_maps(corpus):
    checked = 0
    for name, algebra in corpus.items():
        maps = [d.matrix for d in derivation_space(algebra)]
        maps += [algebra.left_regular(algebra.basis_element(i)) for i in range(algebra.dim)]
        if algebra.dim <= 4:
            maps += [e.matrix for e in sample_automorphisms(algebra, random.Random(3), 6)]
        for m in maps:
            assert minimal_polynomial(m) == ref_minimal_polynomial(m) \
                == ref_product_minimal_polynomial(m), name
            checked += 1
    assert checked >= 75


def test_matches_lcm_on_random_integer_matrices():
    rng = random.Random(2020)
    for n in range(1, 7):
        for _ in range(15):
            m = Mat.from_rows([[rng.choice((0, 0, 1, -1, 2)) for _ in range(n)]
                               for _ in range(n)])
            assert minimal_polynomial(m) == ref_minimal_polynomial(m) \
                == ref_product_minimal_polynomial(m), m


def test_matches_lcm_on_sampled_maps_of_products():
    rng = random.Random(77)
    blocks = [poly_quotient(Poly.of(c)) for c in ([0, 0, 1], [-1, 0, 1], [0, -1, 1])]
    for a in blocks:
        for b in blocks:
            algebra = direct_product(a, b)
            for e in sample_automorphisms(algebra, rng, 6):
                assert minimal_polynomial(e.matrix) == ref_minimal_polynomial(e.matrix)
