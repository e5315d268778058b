import random
from fractions import Fraction
from math import gcd

import pytest

from skewex.linalg import (
    Mat,
    Poly,
    _primitive_gcd,
    full_space,
    inverse,
    kernel,
    minimal_polynomial,
    rref,
    solve,
    span,
    unit_vec,
    zero_subspace,
)

F = Fraction


def random_matrix(rng, rows, cols, bound=4):
    return Mat.from_rows([[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)])


def test_rref_identity():
    ident = Mat.identity(2)
    reduced, pivots, rank = rref(ident)
    assert reduced == ident
    assert pivots == [0, 1]
    assert rank == 2


def test_rref_rank_one():
    # hand elimination: subtract twice row one, scale
    reduced, pivots, rank = rref(Mat.from_rows([[1, 2], [2, 4]]))
    assert reduced.entries == ((F(1), F(2)), (F(0), F(0)))
    assert rank == 1


def test_rref_zero():
    reduced, _, rank = rref(Mat.zeros(3, 3))
    assert rank == 0
    assert reduced.is_zero()


def test_rref_idempotent_on_random(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        reduced, _, _ = rref(m)
        again, _, _ = rref(reduced)
        assert again == reduced


def test_power_matches_repeated_product(rng):
    for n in range(1, 5):
        m = random_matrix(rng, n, n, bound=2)
        expected = Mat.identity(n)
        for k in range(10):
            assert m.power(k) == expected
            expected = expected * m


def test_solve_identity():
    b = (F(3), F(-2))
    assert solve(Mat.identity(2), b) == b


def test_solve_free_variable_zeroed():
    assert solve(Mat.from_rows([[1, 1]]), (F(2),)) == (F(2), F(0))


def test_solve_inconsistent():
    assert solve(Mat.from_rows([[1], [0]]), (F(0), F(1))) is None


def test_solve_random_consistency(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        x = tuple(F(rng.randint(-3, 3)) for _ in range(m.cols))
        b = m.apply(x)
        got = solve(m, b)
        assert got is not None
        assert m.apply(got) == b


def test_kernel_identity_and_zero():
    assert kernel(Mat.identity(3)) == zero_subspace(3)
    assert kernel(Mat.zeros(2, 2)) == full_space(2)


def test_kernel_rank_one():
    # null space of [[1,2],[2,4]] is the line through (-2, 1)
    k = kernel(Mat.from_rows([[1, 2], [2, 4]]))
    assert k == span([(F(-2), F(1))], 2)
    assert k.dim == 1


def test_rank_nullity_on_random(rng):
    for _ in range(40):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        _, _, rank = rref(m)
        assert m.cols == rank + kernel(m).dim


def test_span_basics():
    assert span([unit_vec(0, 2), unit_vec(1, 2)], 2) == full_space(2)
    assert span([(F(1), F(1)), (F(2), F(2))], 2).dim == 1
    assert span([], 2) == zero_subspace(2)


def test_span_canonical(rng):
    for _ in range(30):
        vecs = [tuple(F(rng.randint(-3, 3)) for _ in range(4)) for _ in range(rng.randint(0, 5))]
        s = span(vecs, 4)
        assert span(list(s.basis), 4) == s
        for v in vecs:
            assert s.contains(v)


def test_contains_and_intersect():
    line_x = span([(F(1), F(0))], 2)
    line_y = span([(F(0), F(1))], 2)
    diag = span([(F(1), F(1))], 2)
    assert line_x.contains((F(2), F(0)))
    assert not line_x.contains((F(1), F(1)))
    assert line_x.intersect(line_y) == zero_subspace(2)
    assert full_space(2).intersect(diag) == diag


def test_intersection_dimension_formula(rng):
    for _ in range(30):
        s = span([tuple(F(rng.randint(-2, 2)) for _ in range(4)) for _ in range(2)], 4)
        t = span([tuple(F(rng.randint(-2, 2)) for _ in range(4)) for _ in range(2)], 4)
        assert s.dim + t.dim == s.sum(t).dim + s.intersect(t).dim


def test_minimal_polynomial_identity():
    p = minimal_polynomial(Mat.identity(3))
    assert p == Poly.of([-1, 1])


def test_minimal_polynomial_nilpotent_block():
    m = Mat.from_rows([[0, 1], [0, 0]])
    assert minimal_polynomial(m) == Poly.of([0, 0, 1])


def test_minimal_polynomial_companion():
    # companion matrix of t^2 - t - 1
    m = Mat.from_rows([[0, 1], [1, 1]])
    assert minimal_polynomial(m) == Poly.of([-1, -1, 1])


def test_minimal_polynomial_krylov_bruteforce_oracle(rng):
    # brute force: the minimal polynomial is the lowest-degree monic relation
    # among I, M, M^2, ...; find it by rank growth of stacked flattenings.
    for _ in range(15):
        n = rng.randint(1, 4)
        m = random_matrix(rng, n, n, bound=2)
        p = minimal_polynomial(m)
        assert p.is_monic()
        assert p.eval_matrix(m).is_zero()
        powers = [Mat.identity(n)]
        while len(powers) <= p.degree:
            powers.append(powers[-1] * m)
        flat = [sum((list(r) for r in mat.entries), []) for mat in powers]
        for degree in range(1, p.degree):
            fewer = span([tuple(f) for f in flat[:degree]], n * n)
            assert not fewer.contains(tuple(flat[degree]))
        assert span([tuple(f) for f in flat[: p.degree]], n * n).contains(tuple(flat[p.degree]))


def test_minimal_polynomial_divides_characteristic_degree():
    m = Mat.from_rows([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    p = minimal_polynomial(m)
    assert p.degree <= 3
    assert p == Poly.of([6, -5, 1])  # (t-2)(t-3)


def test_poly_arithmetic():
    p = Poly.of([1, 2, 1])  # (t+1)^2
    q = Poly.of([1, 1])
    quot, rem = p.divmod(q)
    assert rem.is_zero()
    assert quot == q
    assert p.gcd(q) == q
    assert q.lcm(q) == q
    assert p.squarefree_part() == q


def gcd_pairs(rng, count):
    """Integer polynomials, constant term first, leading coefficient
    nonzero: count seeded pairs that share a random factor and carry a
    common content, then zero, constants and negative leading coefficients."""
    def draw(degree):
        return [rng.randint(-6, 6) for _ in range(degree)] + [rng.choice([-3, -2, -1, 1, 2, 3])]

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            for j, y in enumerate(g):
                out[i + j] += x * y
        return out

    pairs = []
    for _ in range(count):
        common, content = draw(rng.randint(0, 3)), rng.choice([1, 1, 2, 6, -4])
        pairs.append(([content * x for x in times(common, draw(rng.randint(0, 3)))],
                      [content * x for x in times(common, draw(rng.randint(0, 3)))]))
    pairs += [([], []), ([], [0, 0, -4]), ([6], [4]), ([-6], []), ([0, -2], [0, 0, -6]),
              ([2, 0, -2], [-3, 3]), ([1, 2, 1], [-1, -1])]
    return pairs + [(b, a) for a, b in pairs]


def test_primitive_gcd_matches_the_rational_gcd():
    degrees = []
    for a, b in gcd_pairs(random.Random(83), 300):
        got = _primitive_gcd(list(a), list(b))
        expected = Poly.of(a).gcd(Poly.of(b))
        assert Poly.of(got).monic() == expected, (a, b)
        if expected.is_zero():
            assert got == [], (a, b)
        else:
            # primitive, leading coefficient positive, no trailing zeros
            assert gcd(*got) == 1 and got[-1] > 0, (a, b, got)
        degrees.append(expected.degree)
    assert min(degrees) < 0 and degrees.count(0) >= 100 and sum(d >= 2 for d in degrees) >= 150


def test_poly_rational_roots():
    p = Poly.of([-2, 1]) * Poly.of([3, 2]) * Poly.of([0, 1])
    roots = p.rational_roots()
    assert set(roots) == {F(2), F(-3, 2), F(0)}


def test_inverse():
    m = Mat.from_rows([[1, 2], [3, 5]])
    mi = inverse(m)
    assert mi is not None
    assert m * mi == Mat.identity(2)
    assert inverse(Mat.from_rows([[1, 2], [2, 4]])) is None


@pytest.fixture
def rng():
    return random.Random(99)
