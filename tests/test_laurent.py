import random
from fractions import Fraction

import pytest

from skewex.algebra import direct_product, poly_quotient
from skewex.errors import (
    AnnihilatorFails,
    AssociativityFails,
    ConstantTermZero,
    NotAutomorphism,
    NotMonic,
)
from skewex.laurent import (
    LaurentSkewPoly,
    coefficient_sum_membership,
    conjugate_by_x,
    eval_at_one,
    laurent_mul,
    laurent_quotient,
)
from skewex.linalg import Mat, Poly, kernel
from skewex.maps import AlgebraEndo, automorphism_order, exp_derivation, inner_automorphism, inner_derivation
from skewex.sampling import random_element

F = Fraction


def test_conjugation_instance(q_times_q, swap):
    # X (a,b) X^{-1} = (b,a)
    a = (F(3), F(7))
    assert conjugate_by_x(a, 1, swap) == (F(7), F(3))
    x = LaurentSkewPoly.x(q_times_q, 1)
    xinv = LaurentSkewPoly.x(q_times_q, -1)
    f = laurent_mul(laurent_mul(x, LaurentSkewPoly.constant(q_times_q, a), swap), xinv, swap)
    assert f.terms == ((0, (F(7), F(3))),)


def test_identity_twist_is_plain_laurent(q_times_q):
    ident = AlgebraEndo.certify(q_times_q, Mat.identity(2))
    f = LaurentSkewPoly.of(q_times_q, [(-1, (F(1), F(0))), (2, (F(0), F(1)))])
    g = LaurentSkewPoly.of(q_times_q, [(1, (F(1), F(1)))])
    prod = laurent_mul(f, g, ident)
    assert prod.terms == ((0, (F(1), F(0))), (3, (F(0), F(1))))


def test_laurent_mul_needs_automorphism(q_times_q):
    proj = AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 0], [1, 0]]))
    with pytest.raises(NotAutomorphism):
        laurent_mul(LaurentSkewPoly.x(q_times_q), LaurentSkewPoly.x(q_times_q), proj)


def test_laurent_mul_associativity_random(q_times_q, swap, rng):
    for _ in range(100):
        polys = []
        for _ in range(3):
            terms = [(rng.randint(-2, 2), random_element(q_times_q, rng))
                     for _ in range(rng.randint(1, 3))]
            polys.append(LaurentSkewPoly.of(q_times_q, terms))
        f, g, h = polys
        assert laurent_mul(laurent_mul(f, g, swap), h, swap).terms == \
            laurent_mul(f, laurent_mul(g, h, swap), swap).terms


def test_x_xinv_is_one(q_times_q, swap):
    x = LaurentSkewPoly.x(q_times_q, 1)
    xinv = LaurentSkewPoly.x(q_times_q, -1)
    assert laurent_mul(x, xinv, swap).terms == ((0, q_times_q.unit),)
    assert laurent_mul(xinv, x, swap).terms == ((0, q_times_q.unit),)


def test_conjugation_coherence(q_times_q, swap):
    for k in range(-4, 5):
        for idx in range(2):
            a = q_times_q.basis_element(idx)
            xk = LaurentSkewPoly.x(q_times_q, k)
            xmk = LaurentSkewPoly.x(q_times_q, -k)
            f = laurent_mul(laurent_mul(xk, LaurentSkewPoly.constant(q_times_q, a), swap),
                            xmk, swap)
            assert f.terms == ((0, conjugate_by_x(a, k, swap)),)


def test_eval_at_one(q_times_q, swap):
    a = (F(2), F(0))
    b = (F(0), F(5))
    f = LaurentSkewPoly.of(q_times_q, [(1, a), (-1, b)])
    assert eval_at_one(f) == (F(2), F(5))
    assert eval_at_one(LaurentSkewPoly.constant(q_times_q, a)) == a


def test_eval_at_one_left_normalization_caveat(q_times_q, swap):
    # X * a normalizes to phi(a) X, so the sum sees phi(a), not a
    a = (F(1), F(0))
    f = laurent_mul(LaurentSkewPoly.x(q_times_q),
                    LaurentSkewPoly.constant(q_times_q, a), swap)
    assert eval_at_one(f) == (F(0), F(1))
    assert eval_at_one(f) != a


def test_coefficient_sum_trivial(q_times_q, swap, rng):
    b = random_element(q_times_q, rng)
    c = random_element(q_times_q, rng)
    report = coefficient_sum_membership([(0, F(1))], b, c, 2, -1, swap)
    expected = q_times_q.multiply(b, conjugate_by_x(c, 2, swap))
    assert report.value == expected
    assert report.member


def test_coefficient_sum_annihilator(q_times_q, swap, rng):
    # f = s^2 - 1 kills the swap, so every h[1] collapses to zero
    b = random_element(q_times_q, rng)
    c = random_element(q_times_q, rng)
    report = coefficient_sum_membership([(0, F(-1)), (2, F(1))], b, c, 1, -1, swap)
    assert report.value == (F(0), F(0))
    assert report.member


def test_coefficient_sum_random(q_times_q, swap, rng):
    for _ in range(50):
        terms = [(rng.randint(-2, 2), F(rng.randint(-2, 2))) for _ in range(3)]
        b = random_element(q_times_q, rng)
        c = random_element(q_times_q, rng)
        report = coefficient_sum_membership(terms, b, c, rng.randint(-2, 2),
                                            rng.randint(-2, 2), swap)
        assert report.member


def test_laurent_quotient_swap(q_times_q, swap):
    result = laurent_quotient(q_times_q, swap)
    ext = result.algebra
    assert result.p == Poly.of([-1, 0, 1])
    assert ext.dim == 4
    assert result.free_module
    assert kernel(result.embed).dim == 0
    # X^2 = 1 forces the witness to be its own inverse
    assert result.u_inverse == result.u
    assert ext.multiply(result.u, result.u) == ext.unit
    for idx in range(2):
        img = result.embed.column(idx)
        conj = ext.multiply(ext.multiply(result.u, img), result.u_inverse)
        assert conj == result.embed.apply(swap.matrix.apply(q_times_q.basis_element(idx)))


def test_laurent_quotient_identity(q_times_q):
    ident = AlgebraEndo.certify(q_times_q, Mat.identity(2))
    result = laurent_quotient(q_times_q, ident, Poly.of([-1, 1]))
    assert result.algebra.dim == 2
    assert result.u == result.algebra.unit


def test_laurent_quotient_rejects_zero_constant_term(q_times_q, swap):
    with pytest.raises(ConstantTermZero):
        laurent_quotient(q_times_q, swap, Poly.of([0, 0, 1]))


def test_laurent_quotient_checks_monic_first(q_times_q, swap):
    # 2 X^2 fails all three checks on a caller's p; NotMonic comes first
    with pytest.raises(NotMonic):
        laurent_quotient(q_times_q, swap, Poly.of([0, 0, 2]))


def test_laurent_quotient_rejects_non_annihilating(q_times_q, swap):
    with pytest.raises(AnnihilatorFails):
        laurent_quotient(q_times_q, swap, Poly.of([-1, 1]))


def test_laurent_quotient_forced_fails_consistency(q_times_q, swap):
    with pytest.raises(AssociativityFails):
        laurent_quotient(q_times_q, swap, Poly.of([-1, 1]), _skip_annihilator_check=True)


def test_laurent_quotient_group_automorphism(c3):
    # the group automorphism g -> g^2 has order two
    phi = AlgebraEndo.certify(c3, Mat.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]]))
    assert automorphism_order(phi) == 2
    result = laurent_quotient(c3, phi)
    assert result.free_module
    assert result.algebra.dim == 6
    assert kernel(result.embed).dim == 0


def test_laurent_quotient_cyclic_shift_on_split_product(rng):
    # coordinate 3-cycle on Q x Q x Q: an order-3 automorphism with X^3 = 1
    one = Poly.of([0, 1])
    q3 = direct_product(direct_product(poly_quotient(one), poly_quotient(one)),
                        poly_quotient(one))
    shift = AlgebraEndo.certify(q3, Mat.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
    assert automorphism_order(shift) == 3
    result = laurent_quotient(q3, shift)
    assert result.p == Poly.of([-1, 0, 0, 1])
    assert result.algebra.dim == 9
    assert result.free_module
    ext = result.algebra
    u3 = ext.multiply(ext.multiply(result.u, result.u), result.u)
    assert u3 == ext.unit


def test_laurent_quotient_infinite_order_conjugation(m2):
    phi = inner_automorphism(m2, m2.element([1, 0, 0, 2]))
    result = laurent_quotient(m2, phi)
    ext = result.algebra
    assert result.p.degree == 3
    assert not result.free_module
    assert kernel(result.embed).dim == 0
    assert ext.multiply(result.u, result.u_inverse) == ext.unit
    assert ext.multiply(result.u_inverse, result.u) == ext.unit
    for idx in range(4):
        img = result.embed.column(idx)
        conj = ext.multiply(ext.multiply(result.u, img), result.u_inverse)
        assert conj == result.embed.apply(phi.matrix.apply(m2.basis_element(idx)))


def test_laurent_quotient_unipotent(m2):
    phi = exp_derivation(inner_derivation(m2, m2.basis_element(1)))
    result = laurent_quotient(m2, phi)
    assert kernel(result.embed).dim == 0
    ext = result.algebra
    assert ext.multiply(result.u, result.u_inverse) == ext.unit


def test_extension_maps_onto_operator_model(q_times_q, swap, m2):
    """Independent certificate: u -> the twist matrix gives an algebra map
    into End(A), re-deriving the extension's structure constants through
    matrix arithmetic (including the inverse witness)."""
    from skewex.linalg import inverse, is_zero_vec, kernel, solve, Mat as M

    cases = [
        (q_times_q, swap),
        (m2, inner_automorphism(m2, m2.element([1, 0, 0, 2]))),
    ]
    for algebra, phi in cases:
        result = laurent_quotient(algebra, phi)
        ext = result.algebra
        n = algebra.dim
        degree = result.p.degree

        def flat(mat):
            return tuple(x for row in mat.entries for x in row)

        def as_mat(flat_vec):
            return M.from_rows([list(flat_vec[r * n:(r + 1) * n]) for r in range(n)])

        u_powers = [ext.unit]
        phi_powers = [M.identity(n)]
        for _ in range(degree - 1):
            u_powers.append(ext.multiply(u_powers[-1], result.u))
            phi_powers.append(phi_powers[-1] * phi.matrix)
        spanners, images = [], []
        for i in range(degree):
            for a in range(n):
                spanners.append(ext.multiply(result.embed.column(a), u_powers[i]))
                images.append(flat(algebra.left_regular(algebra.basis_element(a)) * phi_powers[i]))
        span_matrix = M.from_columns(spanners)
        image_matrix = M.from_columns(images)
        for relation in kernel(span_matrix).basis:
            assert is_zero_vec(image_matrix.apply(relation))
        h_columns = []
        for k in range(ext.dim):
            coords = solve(span_matrix, ext.basis_element(k))
            assert coords is not None
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
        assert h_of(result.u) == phi.matrix
        assert h_of(result.u_inverse) == inverse(phi.matrix)


def test_difference_image_in_extension_has_no_idempotents(q_times_q, swap, m2):
    # inside each constructed extension, conjugation by the witness restricted
    # to the embedded base has a difference image free of nonzero idempotents,
    # certified by the trace argument at the base level
    from skewex.idempotents import enumerate_idempotents, image_trace_certificate
    from skewex.linalg import column_space

    cases = [
        (q_times_q, swap),
        (m2, inner_automorphism(m2, m2.element([1, 0, 0, 2]))),
    ]
    for algebra, phi in cases:
        result = laurent_quotient(algebra, phi)
        delta = Mat.identity(algebra.dim) - phi.matrix
        assert image_trace_certificate(algebra, delta)
        if algebra.is_commutative():
            image = column_space(delta)
            for e in enumerate_idempotents(algebra).items:
                if any(e):
                    assert not image.contains(e)
        # and the embedded copies stay non-idempotent witnesses in the extension
        ext = result.algebra
        for j in range(algebra.dim):
            v = delta.column(j)
            image_elt = result.embed.apply(v)
            if any(image_elt):
                assert ext.multiply(image_elt, image_elt) != image_elt


@pytest.fixture
def rng():
    return random.Random(31)
