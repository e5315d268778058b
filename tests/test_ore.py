import random
from fractions import Fraction

import pytest

from skewex.algebra import matrix_algebra
from skewex.errors import AnnihilatorFails, AssociativityFails, NotMonic
from skewex.linalg import Mat, Poly, kernel
from skewex.maps import Derivation, derivation_space, inner_derivation
from skewex.ore import (
    SkewPoly,
    commutator_power,
    constant_term_identity,
    constant_terms,
    ideal_constant_term,
    ore_quotient,
    simple_image_check,
    skew_mul,
)
from skewex.sampling import random_element, random_trace_zero_invertible

F = Fraction


def zero_derivation(algebra):
    return Derivation.certify(algebra, Mat.zeros(algebra.dim, algebra.dim))


def test_rewrite_single_step(dual_numbers, euler):
    # X * t = t X + t under the Euler twist
    x = SkewPoly.x(dual_numbers)
    t = SkewPoly.constant(dual_numbers, dual_numbers.basis_element(1))
    product = skew_mul(x, t, euler)
    assert product.coeffs == ((F(0), F(1)), (F(0), F(1)))


def test_rewrite_commutative_when_untwisted(dual_numbers):
    d0 = zero_derivation(dual_numbers)
    x = SkewPoly.x(dual_numbers)
    a = SkewPoly.constant(dual_numbers, (F(2), F(3)))
    assert skew_mul(x, a, d0).coeffs == skew_mul(a, x, d0).coeffs


def test_rewrite_associative_two_orders(dual_numbers, euler):
    x = SkewPoly.x(dual_numbers)
    t = SkewPoly.constant(dual_numbers, dual_numbers.basis_element(1))
    xx = skew_mul(x, x, euler)
    left = skew_mul(xx, t, euler)
    right = skew_mul(x, skew_mul(x, t, euler), euler)
    assert left.coeffs == right.coeffs


def test_skew_mul_associativity_random(m2, rng):
    d = inner_derivation(m2, m2.basis_element(1))
    for _ in range(100):
        polys = []
        for _ in range(3):
            coeffs = [random_element(m2, rng) for _ in range(rng.randint(1, 3))]
            polys.append(SkewPoly.of(m2, coeffs))
        f, g, h = polys
        assert skew_mul(skew_mul(f, g, d), h, d).coeffs == \
            skew_mul(f, skew_mul(g, h, d), d).coeffs


def test_commutator_power_zero_and_one(m2, rng):
    d = inner_derivation(m2, m2.basis_element(1))
    a = random_element(m2, rng)
    direct, formula = commutator_power(0, a, d)
    assert direct.is_zero() and formula.is_zero()
    direct, formula = commutator_power(1, a, d)
    assert direct.coeffs == formula.coeffs
    # degree-zero value is exactly D(a)
    assert direct.coeff(0) == d.matrix.apply(a)


def test_commutator_power_binomial(m2, rng):
    d = inner_derivation(m2, m2.basis_element(1))
    for n in range(7):
        a = random_element(m2, rng)
        direct, formula = commutator_power(n, a, d)
        assert direct.coeffs == formula.coeffs


def test_constant_terms_degree_zero(dual_numbers, euler):
    a = (F(2), F(5))
    left, right = constant_terms(SkewPoly.constant(dual_numbers, a), euler)
    assert left == a and right == a


def test_constant_terms_with_twist(dual_numbers, euler):
    # X*t has left normal form tX + t, so the left constant term is t;
    # in right-coefficient form X t needs no constant term
    t = dual_numbers.basis_element(1)
    f = skew_mul(SkewPoly.x(dual_numbers), SkewPoly.constant(dual_numbers, t), euler)
    left, right = constant_terms(f, euler)
    assert left == t
    assert right == (F(0), F(0))


def test_constant_terms_pure_left_monomial(dual_numbers, euler):
    # f = a X: left constant zero; right form moves a across
    a = dual_numbers.basis_element(1)
    f = SkewPoly.monomial(dual_numbers, a, 1)
    left, right = constant_terms(f, euler)
    assert left == (F(0), F(0))


def test_constant_term_identity_simple_cases(m2, rng):
    d = inner_derivation(m2, m2.basis_element(1))
    b = random_element(m2, rng)
    lhs, rhs = constant_term_identity(Poly.one(), b, d)
    assert lhs == b == rhs
    lhs, rhs = constant_term_identity(Poly.x(), b, d)
    assert lhs == d.matrix.apply(b) == rhs


def test_constant_term_identity_random(m2, rng):
    d = inner_derivation(m2, m2.basis_element(1))
    for _ in range(100):
        q = Poly.of([rng.randint(-3, 3) for _ in range(rng.randint(1, 6))])
        if q.is_zero():
            q = Poly.one()
        b = random_element(m2, rng)
        lhs, rhs = constant_term_identity(q, b, d)
        assert lhs == rhs


def test_ideal_constant_term(m2, rng):
    d = inner_derivation(m2, m2.basis_element(1))
    for _ in range(30):
        q = Poly.of([rng.randint(-2, 2) for _ in range(rng.randint(1, 4))])
        if q.is_zero():
            q = Poly.one()
        b = random_element(m2, rng)
        m, k = rng.randint(0, 2), rng.randint(0, 2)
        report = ideal_constant_term(q, b, m, k, d)
        assert report.member
        if k >= 1:
            assert report.value == (F(0),) * 4


def test_ore_quotient_euler_true_quotient(dual_numbers, euler):
    """The collapsed extension: t*u vanishes, u*t = embed(t), dim 3."""
    result = ore_quotient(dual_numbers, euler)
    ext = result.algebra
    assert result.p == Poly.of([0, -1, 1])
    assert ext.dim == 3
    assert result.defect_dim == 1
    assert not result.free_module
    assert kernel(result.embed).dim == 0
    t_img = result.embed.column(1)
    u = result.u
    # commutator realizes the twist: [u, t] = t
    assert ext.multiply(u, t_img) != ext.multiply(t_img, u)
    comm = tuple(a - b for a, b in zip(ext.multiply(u, t_img), ext.multiply(t_img, u)))
    assert comm == t_img
    # frozen relation of the genuine quotient: t * u = 0
    assert ext.multiply(t_img, u) == (F(0),) * 3
    # p(u) = u^2 - u = 0
    assert ext.multiply(u, u) == u


def test_ore_quotient_zero_derivation(dual_numbers):
    result = ore_quotient(dual_numbers, zero_derivation(dual_numbers), Poly.of([0, 1]))
    assert result.algebra.dim == 2
    assert result.free_module
    assert result.u == (F(0), F(0))


def test_ore_quotient_rejects_non_annihilating(dual_numbers, euler):
    with pytest.raises(AnnihilatorFails) as info:
        ore_quotient(dual_numbers, euler, Poly.of([0, 1]))
    assert info.value.basis_index == 1
    # the witness keeps its Fractions; only the message writes them as rationals
    assert info.value.image == (F(0), F(1)) and all(type(x) is F for x in info.value.image)
    assert str(info.value).endswith("basis vector 1 maps to (0, 1)")


def test_ore_quotient_forced_fails_consistency(dual_numbers, euler):
    with pytest.raises(AssociativityFails):
        ore_quotient(dual_numbers, euler, Poly.of([0, 1]), _skip_annihilator_check=True)


def test_ore_quotient_rejects_non_monic(dual_numbers, euler):
    with pytest.raises(NotMonic):
        ore_quotient(dual_numbers, euler, Poly.of([0, 2]))


def test_ore_quotient_m2_inner(m2):
    d = inner_derivation(m2, m2.basis_element(1))
    result = ore_quotient(m2, d)
    assert result.p == Poly.of([0, 0, 0, 1])  # nilpotent of order 3
    ext = result.algebra
    assert kernel(result.embed).dim == 0
    for a in range(4):
        img = result.embed.column(a)
        comm = tuple(x - y for x, y in zip(ext.multiply(result.u, img),
                                           ext.multiply(img, result.u)))
        assert comm == result.embed.apply(d.matrix.apply(m2.basis_element(a)))


def test_ore_quotient_commutator_traces_vanish(m2, jet2):
    cases = [
        (m2, inner_derivation(m2, m2.basis_element(1))),
        (jet2, Derivation.certify(jet2, Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, 2]]))),
    ]
    for algebra, d in cases:
        result = ore_quotient(algebra, d)
        ext = result.algebra
        for a in range(algebra.dim):
            image = result.embed.apply(d.matrix.apply(algebra.basis_element(a)))
            assert ext.trace_of(image) == 0


def test_generic_m4_extension_keeps_small_constants():
    """ad_u for a generic u in M_4: deg m = 13, a 208-dimensional window and
    a 64-dimensional extension.  Keeping the low powers of X keeps its
    constants to 14 bits; the high powers needed 134."""
    m4 = matrix_algebra(4)
    d = inner_derivation(m4, random_trace_zero_invertible(m4, random.Random(3)))
    result = ore_quotient(m4, d)
    assert result.algebra.dim == 64 and result.p.degree == 13
    scale, table = result.algebra.integer_sc
    bits = max(abs(x).bit_length() for row in table for cell in row for _, x in cell)
    assert max(bits, scale.bit_length()) <= 32, (bits, scale)


def test_ore_quotient_random_trace_zero(m2, rng):
    for _ in range(3):
        u = random_trace_zero_invertible(m2, rng)
        d = inner_derivation(m2, u)
        if d.matrix.is_zero():
            continue
        result = ore_quotient(m2, d)
        assert kernel(result.embed).dim == 0
        ext = result.algebra
        for a in range(4):
            img = result.embed.column(a)
            comm = tuple(x - y for x, y in zip(ext.multiply(result.u, img),
                                               ext.multiply(img, result.u)))
            assert comm == result.embed.apply(d.matrix.apply(m2.basis_element(a)))


def test_extension_maps_onto_operator_model(dual_numbers, euler, m2, jet2):
    """Independent certificate: sending the witness to the twist itself gives
    an algebra map into End(A).

    Inside End(A) the operators mu(a) D^i obey the same commutation and power
    rules, so a linear map H with H(embed(a) u^i) = mu(e_a) D^i must be well
    defined, unital, multiplicative, and send u to D.  This re-derives every
    structure constant of the extension through plain matrix arithmetic.
    """
    from skewex.linalg import kernel, solve, is_zero_vec, Mat as M

    cases = [
        (dual_numbers, euler),
        (m2, inner_derivation(m2, m2.basis_element(1))),
        (jet2, Derivation.certify(jet2, Mat.from_rows(
            [[0, 0, 0], [0, 1, 0], [0, 0, 2]]))),
    ]
    for algebra, d in cases:
        result = ore_quotient(algebra, d)
        ext = result.algebra
        n = algebra.dim
        degree = result.p.degree

        def flat(mat):
            return tuple(x for row in mat.entries for x in row)

        def as_mat(flat_vec):
            return M.from_rows([list(flat_vec[r * n:(r + 1) * n]) for r in range(n)])

        u_powers = [ext.unit]
        d_powers = [M.identity(n)]
        for _ in range(degree - 1):
            u_powers.append(ext.multiply(u_powers[-1], result.u))
            d_powers.append(d_powers[-1] * d.matrix)
        spanners, images = [], []
        for i in range(degree):
            for a in range(n):
                spanners.append(ext.multiply(result.embed.column(a), u_powers[i]))
                images.append(flat(algebra.left_regular(algebra.basis_element(a)) * d_powers[i]))
        span_matrix = M.from_columns(spanners)
        image_matrix = M.from_columns(images)
        # well defined: every linear relation among the spanners maps to zero
        for relation in kernel(span_matrix).basis:
            assert is_zero_vec(image_matrix.apply(relation))
        h_columns = []
        for k in range(ext.dim):
            coords = solve(span_matrix, ext.basis_element(k))
            assert coords is not None  # the spanners generate the extension
            h_columns.append(image_matrix.apply(coords))

        def h_of(v):
            acc = [F(0)] * (n * n)
            for k, c in enumerate(v):
                if c:
                    acc = [x + c * y for x, y in zip(acc, h_columns[k])]
            return as_mat(tuple(acc))

        for i in range(ext.dim):
            for j in range(ext.dim):
                assert h_of(ext.sc[i][j]) == \
                    h_of(ext.basis_element(i)) * h_of(ext.basis_element(j))
        assert h_of(ext.unit) == M.identity(n)
        assert h_of(result.u) == d.matrix
        for a in range(n):
            assert h_of(result.embed.column(a)) == \
                algebra.left_regular(algebra.basis_element(a))


def test_simple_image_check_m2(m2):
    d = inner_derivation(m2, m2.basis_element(1))
    report = simple_image_check(m2, d)
    assert report.applicable
    assert report.left_full and report.right_full


def test_simple_image_check_zero_derivation(m2):
    report = simple_image_check(m2, zero_derivation(m2))
    assert not report.applicable
    assert not report.left_full and not report.right_full


def test_simple_image_check_not_simple(q_times_q):
    # the only derivation of Q x Q is zero, so the hypotheses never hold
    assert derivation_space(q_times_q) == []
    report = simple_image_check(q_times_q, zero_derivation(q_times_q))
    assert not report.applicable
    assert report.simple == "not_simple"


@pytest.fixture
def rng():
    return random.Random(2024)
