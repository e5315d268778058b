import math
import random
from fractions import Fraction

import pytest

from skewex import maps
from skewex.algebra import cyclic_group_algebra, make_algebra, subalgebra_generated
from skewex.errors import (
    NotAutomorphism,
    NotDerivation,
    NotEndomorphism,
    NotInKernelChain,
    NotInvertible,
    NotLocallyNilpotent,
    SkewexError,
)
from skewex.laurent import laurent_quotient
from skewex.linalg import (
    Mat,
    Poly,
    _rational_row,
    inverse,
    minimal_polynomial,
    power_reduction_table,
    span,
    zero_subspace,
)
from skewex.maps import (
    AlgebraEndo,
    Derivation,
    EDerivation,
    automorphism_order,
    derivation_space,
    exp_derivation,
    induced_map,
    inner_automorphism,
    inner_derivation,
    is_automorphism,
    is_derivation,
    is_ederivation,
    is_endomorphism,
    kernel_chain,
    kernel_chain_preimage,
    local_finiteness_report,
)
from skewex.sampling import nilpotent_derivations, random_element, sample_automorphisms
from skewex.suites import SuiteContext

F = Fraction


def projection_endo(q_times_q):
    """(a, b) -> (a, a)"""
    return AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 0], [1, 0]]))


def test_zero_map_is_derivation(dual_numbers):
    ok, witness = is_derivation(dual_numbers, Mat.zeros(2, 2))
    assert ok and witness is None


def test_euler_is_derivation_but_translation_is_not(dual_numbers):
    ok, _ = is_derivation(dual_numbers, Mat.from_rows([[0, 0], [0, 1]]))
    assert ok
    # D(t) = 1 fails: D(t^2) = 0 but the product rule wants 2t
    ok, witness = is_derivation(dual_numbers, Mat.from_rows([[0, 1], [0, 0]]))
    assert not ok
    assert witness == (1, 1)


def test_commutator_is_derivation(m2):
    d = inner_derivation(m2, m2.basis_element(1))
    ok, _ = is_derivation(m2, d.matrix)
    assert ok


def test_endomorphism_checks(q_times_q):
    assert is_endomorphism(q_times_q, Mat.identity(2))[0]
    swap = Mat.from_rows([[0, 1], [1, 0]])
    assert is_automorphism(q_times_q, swap)
    proj = Mat.from_rows([[1, 0], [1, 0]])
    ok, _ = is_endomorphism(q_times_q, proj)
    assert ok
    assert not is_automorphism(q_times_q, proj)


def test_certify_raises_with_witness(q_times_q):
    with pytest.raises(NotEndomorphism):
        AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(NotDerivation):
        Derivation.certify(q_times_q, Mat.identity(2))


def test_ederivation_cases(q_times_q, swap):
    assert is_ederivation(q_times_q, Mat.zeros(2, 2))
    assert is_ederivation(q_times_q, Mat.identity(2) - swap.matrix)
    # delta = I needs phi = 0, which is not unital
    assert not is_ederivation(q_times_q, Mat.identity(2))
    assert is_ederivation(q_times_q, Mat.identity(2), require_unital=False)
    delta = EDerivation.certify(q_times_q, Mat.identity(2) - swap.matrix)
    assert delta.phi.matrix == swap.matrix


def test_inner_derivation_of_unit_is_zero(m2):
    assert inner_derivation(m2, m2.unit).matrix.is_zero()


def test_inner_automorphism_diag(m2):
    # conjugation by diag(1,2) fixes E11 and scales E12 by 1/2
    u = m2.element([1, 0, 0, 2])
    phi = inner_automorphism(m2, u)
    assert phi.matrix.apply(m2.basis_element(0)) == m2.basis_element(0)
    assert phi.matrix.apply(m2.basis_element(1)) == (F(0), F(1, 2), F(0), F(0))


def test_inner_automorphism_central_is_identity(q_times_q):
    phi = inner_automorphism(q_times_q, (F(2), F(3)))
    assert phi.matrix == Mat.identity(2)


def test_inner_automorphism_requires_invertible(q_times_q):
    with pytest.raises(NotInvertible):
        inner_automorphism(q_times_q, (F(1), F(0)))


def test_local_finiteness_zero_map(dual_numbers):
    from skewex.maps import LinearEndo

    report = local_finiteness_report(LinearEndo(dual_numbers, Mat.zeros(2, 2)))
    assert report.is_ln
    assert report.nilpotency_index == 1
    assert report.min_poly == Poly.of([0, 1])


def test_local_finiteness_euler(euler):
    report = local_finiteness_report(euler)
    assert not report.is_ln
    assert report.min_poly == Poly.of([0, -1, 1])


def test_local_finiteness_nilpotent(jet2):
    # D(t) = t^2 squares to zero on Q[t]/(t^3)
    d = Derivation.certify(jet2, Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    report = local_finiteness_report(d)
    assert report.is_ln
    assert report.nilpotency_index == 2


def test_kernel_chain_automorphism(swap):
    chain, index = kernel_chain(swap)
    assert chain == zero_subspace(2)
    assert index == 1


def test_kernel_chain_projection(q_times_q):
    chain, index = kernel_chain(projection_endo(q_times_q))
    assert chain == span([(F(0), F(1))], 2)
    assert index == 1


def test_kernel_chain_nilpotent_part(dual_numbers):
    phi = AlgebraEndo.certify(dual_numbers, Mat.from_rows([[1, 0], [0, 0]]))
    chain, index = kernel_chain(phi)
    assert chain == span([(F(0), F(1))], 2)


def test_induced_map_projection(q_times_q):
    result = induced_map(projection_endo(q_times_q))
    assert result.quotient.dim == 1
    assert result.induced.is_invertible()
    assert result.induced.matrix == Mat.identity(1)


def test_induced_map_automorphism(swap, q_times_q):
    result = induced_map(swap)
    assert result.quotient.dim == 2
    assert result.projection == Mat.identity(2)
    assert result.induced.matrix == swap.matrix


def test_kernel_chain_preimage(q_times_q):
    phi = projection_endo(q_times_q)
    a = (F(0), F(1))
    b = kernel_chain_preimage(phi, a)
    assert b == a
    delta = Mat.identity(2) - phi.matrix
    assert delta.apply(b) == a


def test_kernel_chain_preimage_zero(q_times_q):
    assert kernel_chain_preimage(projection_endo(q_times_q), (F(0), F(0))) == (F(0), F(0))


def test_kernel_chain_preimage_rejects_outside(q_times_q):
    with pytest.raises(NotInKernelChain):
        kernel_chain_preimage(projection_endo(q_times_q), (F(1), F(0)))


def test_automorphism_order(swap, m2):
    assert automorphism_order(swap) == 2
    ident = AlgebraEndo.certify(m2, Mat.identity(4))
    assert automorphism_order(ident) == 1
    scaling = inner_automorphism(m2, m2.element([1, 0, 0, 2]))
    assert automorphism_order(scaling, bound=12) is None


def product_loop_order(phi, bound=64):
    """The order by repeated matrix products, the oracle for automorphism_order."""
    ident = Mat.identity(phi.algebra.dim)
    power = phi.matrix
    for m in range(1, bound + 1):
        if power == ident:
            return m
        power = power * phi.matrix
    return None


def test_automorphism_order_matches_product_loop(corpus):
    orders = set()
    for name, algebra in corpus.items():
        for phi in sample_automorphisms(algebra, random.Random(len(name)), 6):
            order = automorphism_order(phi)
            assert order == product_loop_order(phi), name
            orders.add(order)
    assert {None, 1, 2} <= orders
    for m in range(2, 9):
        group = cyclic_group_algebra(m)
        for k in range(1, m):
            if math.gcd(k, m) != 1:
                continue
            # the group automorphism g -> g^k permutes the basis
            phi = AlgebraEndo.certify(group, Mat.from_columns(
                [group.basis_element(i * k % m) for i in range(m)]))
            order = product_loop_order(phi)
            assert order == next(j for j in range(1, m) if pow(k, j, m) == 1)
            assert automorphism_order(phi) == order
            assert automorphism_order(phi, bound=order) == order
            assert automorphism_order(phi, bound=order - 1) is None
            assert product_loop_order(phi, bound=order - 1) is None


def test_automorphism_order_and_the_folding_table_read_one_residue_walk(corpus, monkeypatch):
    """On the automorphisms the suites audit, automorphism_order agrees with
    phi^m = I by matrix products, pulls X^0 .. X^order from _power_residues
    and no further (X^0 .. X^64 when no order is found), and the residues it
    pulled are power_reduction_table's rows."""
    pulled = []
    walk = maps._power_residues

    def counted(p):
        for residue in walk(p):
            pulled.append(residue)
            yield residue

    monkeypatch.setattr(maps, "_power_residues", counted)
    orders = set()
    for name, algebra in corpus.items():
        for phi in SuiteContext(algebra, [], random.Random(0)).automorphisms():
            pulled.clear()
            order = automorphism_order(phi)
            assert order == product_loop_order(phi), name
            assert len(pulled) == (65 if order is None else order + 1), name
            scale, rows = power_reduction_table(phi.minimal_polynomial, len(pulled) - 1)
            assert ([_rational_row(row, s) for s, row in pulled]
                    == [_rational_row(row, scale) for row in rows]), name
            orders.add(order)
    assert {None, 1, 2} <= orders


def test_automorphism_order_of_the_zero_algebra():
    # on Q^0 the minimal polynomial is 1, and phi is already the identity
    zero = make_algebra(0, [], ())
    phi = AlgebraEndo.certify(zero, Mat.from_entries(0, 0, ()))
    assert automorphism_order(phi) == product_loop_order(phi) == 1
    assert automorphism_order(phi, bound=0) is None


def test_automorphism_order_rejects_singular(q_times_q):
    with pytest.raises(NotAutomorphism):
        automorphism_order(projection_endo(q_times_q))


def test_exp_derivation(jet2):
    d = Derivation.certify(jet2, Mat.from_rows([[0, 0, 0], [0, 0, 0], [0, 1, 0]]))
    phi = exp_derivation(d)
    # phi(t) = t + t^2, phi(t^2) = t^2
    assert phi.matrix.apply(jet2.basis_element(1)) == (F(0), F(1), F(1))
    assert phi.matrix.apply(jet2.basis_element(2)) == (F(0), F(0), F(1))


def test_exp_requires_nilpotent(euler):
    with pytest.raises(NotLocallyNilpotent):
        exp_derivation(euler)


def test_exp_inverse_property(m2, rng):
    for d in nilpotent_derivations(m2, rng, 20):
        fwd = exp_derivation(d)
        back = exp_derivation(Derivation.certify(m2, -d.matrix))
        assert fwd.matrix * back.matrix == Mat.identity(4)


def test_derivation_space_dimensions(q_times_q, m2, dual_numbers):
    assert derivation_space(q_times_q) == []
    ders = derivation_space(m2)
    assert len(ders) == 3
    euler_line = derivation_space(dual_numbers)
    assert len(euler_line) == 1
    assert euler_line[0].matrix.column(1) in (
        (F(0), F(1)), (F(0), F(-1)),
    ) or euler_line[0].matrix.entries[1][1] != 0


def test_derivation_space_members_all_inner_on_m2(m2):
    # cross-check: each basis derivation solves ad_u = D for some u
    from skewex.linalg import Mat as M, solve

    for d in derivation_space(m2):
        # unknown u with mu(u) - rho(u) = d acting on each basis vector
        cols = []
        rhs = []
        for j in range(4):
            ej = m2.basis_element(j)
            rhs.extend(d.matrix.apply(ej))
        rows = [[F(0)] * 4 for _ in range(16)]
        for k in range(4):
            ek = m2.basis_element(k)
            for j in range(4):
                ej = m2.basis_element(j)
                image = tuple(
                    a - b for a, b in zip(m2.multiply(ek, ej), m2.multiply(ej, ek))
                )
                for r in range(4):
                    rows[j * 4 + r][k] += image[r]
        got = solve(M.from_rows(rows), tuple(rhs))
        assert got is not None
        assert inner_derivation(m2, got).matrix == d.matrix


def test_derivation_invariance_of_generated_subalgebras(m2, rng):
    # closure of generators under D stays D-invariant
    for d in derivation_space(m2):
        gens = [random_element(m2, rng)]
        current = gens
        for _ in range(5):
            sub = subalgebra_generated(m2, current)
            images = [d.matrix.apply(v) for v in sub.basis]
            if all(sub.contains(v) for v in images):
                break
            current = list(sub.basis) + images
        sub = subalgebra_generated(m2, current)
        assert all(sub.contains(d.matrix.apply(v)) for v in sub.basis)


def test_all_derivation_space_members_certify(corpus):
    for algebra in corpus.values():
        for d in derivation_space(algebra):
            ok, _ = is_derivation(algebra, d.matrix)
            assert ok


def test_finiteness_certificates_for_map_and_difference(q_times_q, swap):
    # both phi and I - phi carry minimal-polynomial certificates; neither side
    # is ever reported as lacking one in finite dimension
    from skewex.maps import LinearEndo

    for matrix in (swap.matrix, Mat.identity(2) - swap.matrix):
        report = local_finiteness_report(LinearEndo(q_times_q, matrix))
        assert report.min_poly.is_monic()
        assert report.min_poly.eval_matrix(matrix).is_zero()


@pytest.fixture
def rng():
    return random.Random(4)


def test_endo_inverse_is_cached_outside_identity(q_times_q, swap):
    fresh = AlgebraEndo.certify(q_times_q, swap.matrix)
    assert swap.inverse_matrix == inverse(swap.matrix) == swap.matrix
    assert swap.inverse_matrix is swap.inverse_matrix
    assert swap == fresh and hash(swap) == hash(fresh) and repr(swap) == repr(fresh)
    assert projection_endo(q_times_q).inverse_matrix is None
    assert not projection_endo(q_times_q).is_invertible()


def test_minimal_polynomial_is_computed_once_per_map(q_times_q, swap, monkeypatch):
    fresh = AlgebraEndo.certify(q_times_q, swap.matrix)
    calls = []

    def counting(m):
        calls.append(m)
        return minimal_polynomial(m)

    monkeypatch.setattr(maps, "minimal_polynomial", counting)
    assert swap.minimal_polynomial == Poly.of([-1, 0, 1])
    assert automorphism_order(swap) == 2
    assert local_finiteness_report(swap).min_poly is swap.minimal_polynomial
    assert laurent_quotient(q_times_q, swap).p is swap.minimal_polynomial
    assert calls == [swap.matrix]
    assert swap == fresh and hash(swap) == hash(fresh) and repr(swap) == repr(fresh)


def test_compose_is_the_certified_product(m2, q_times_q, swap, rng):
    a = inner_automorphism(m2, (F(1), F(2), F(0), F(1)))
    b = inner_automorphism(m2, (F(2), F(0), F(1), F(-1)))
    ab = a.compose(b)
    assert ab.matrix == a.matrix * b.matrix
    assert ab == AlgebraEndo.certify(m2, a.matrix * b.matrix)
    assert swap.compose(projection_endo(q_times_q)).unital
    assert not AlgebraEndo(q_times_q, swap.matrix, False).compose(swap).unital
    with pytest.raises(SkewexError):
        a.compose(swap)
