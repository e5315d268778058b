import random
from fractions import Fraction

import pytest

from skewex.algebra import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    direct_product,
    poly_quotient,
    quotient,
    radical,
)
from skewex.errors import CapExceeded, NotCommutative, NotIdempotent
from skewex.explorer import random_basis_change, random_recipe
from skewex.idempotents import (
    IS_MS,
    INCONCLUSIVE_IDEMPOTENTS,
    NOT_MS,
    IdempotentSet,
    _split_block,
    enumerate_idempotents,
    image_idempotent_audit,
    image_kernel_idempotent_report,
    image_trace_certificate,
    ms_check,
    ms_witness_check,
    power_span,
    rank_one_idempotent_grid,
    trace_rank_idempotent,
)
from skewex.linalg import Mat, Poly, _integer_row, _rational_row, column_space, span
from skewex.maps import AlgebraEndo, EDerivation, LinearEndo, derivation_space
from skewex.sampling import random_invertible_element, sample_automorphisms

F = Fraction


def as_set(items):
    return {tuple(e) for e in items}


def test_enumerate_split_pair(split_pair):
    idems = enumerate_idempotents(split_pair)
    assert idems.complete
    assert as_set(idems.items) == {
        (F(0), F(0)), (F(1), F(0)), (F(0), F(1)), (F(1), F(-1)),
    }  # 0, 1, t, 1 - t


def test_enumerate_group_algebra(c2):
    idems = enumerate_idempotents(c2)
    assert idems.complete
    assert as_set(idems.items) == {
        (F(0), F(0)), (F(1), F(0)),
        (F(1, 2), F(1, 2)), (F(1, 2), F(-1, 2)),
    }


def test_enumerate_gaussian_field_inconclusive():
    gauss = poly_quotient(Poly.of([1, 0, 1]))
    idems = enumerate_idempotents(gauss)
    assert not idems.complete
    assert as_set(idems.items) == {(F(0), F(0)), (F(1), F(0))}
    assert idems.inconclusive_reason


def test_enumerate_mixed_product(dual_numbers, split_pair):
    mixed = direct_product(dual_numbers, split_pair)
    idems = enumerate_idempotents(mixed)
    assert idems.complete
    assert len(idems.items) == 8
    # brute-force recheck over the enumerated list
    for e in idems.items:
        assert mixed.multiply(e, e) == e
    # closure under complement
    for e in idems.items:
        complement = tuple(u - x for u, x in zip(mixed.unit, e))
        assert complement in as_set(idems.items)


def test_enumeration_lifts_through_radical(dual_numbers, split_pair):
    mixed = direct_product(dual_numbers, split_pair)
    idems = enumerate_idempotents(mixed)
    lifted = [p for p in idems.provenance if p == "lifted"]
    assert lifted  # the radical is nonzero, so primitives arrive via lifting


def fixpoint_blocks(semisimple):
    """Eigen-splitting repeated over every direction until no block splits,
    the oracle for the single pass in enumerate_idempotents."""
    scale, unit = _integer_row(semisimple.unit)
    blocks = [(unit, scale)]
    changed = True
    while changed:
        changed = False
        for direction in range(semisimple.dim):
            new_blocks = []
            for block in blocks:
                pieces = _split_block(semisimple, block, direction)
                changed |= len(pieces) > 1
                new_blocks.extend(pieces)
            blocks = new_blocks
    return [_rational_row(row, scale) for row, scale in blocks]


def test_single_splitting_pass_matches_fixpoint():
    rng = random.Random(606)
    block_counts = set()
    for _ in range(40):
        algebra = random_recipe(rng, max_dim=6).algebra
        if rng.random() < 0.5:
            algebra = random_basis_change(algebra, rng)
        if not algebra.is_commutative():
            continue
        rad = radical(algebra)
        semisimple, proj = quotient(algebra, rad) if rad.dim else (algebra, Mat.identity(algebra.dim))
        blocks = fixpoint_blocks(semisimple)
        idems = enumerate_idempotents(algebra)
        # the primitives are the items of provenance "primitive" or "lifted", in block order
        primitives = [e for e, how in zip(idems.items, idems.provenance) if how != "sum"]
        assert [proj.apply(e) for e in primitives] == blocks
        assert idems.complete == all(
            column_space(semisimple.left_regular(b)).dim == 1 for b in blocks)
        block_counts.add(len(blocks))
    assert len(block_counts) >= 3


def test_enumerate_rejects_noncommutative(m2):
    with pytest.raises(NotCommutative):
        enumerate_idempotents(m2)


def test_enumerate_cap(split_pair):
    with pytest.raises(CapExceeded):
        enumerate_idempotents(split_pair, cap=2)


def test_trace_rank(m2, c2):
    assert trace_rank_idempotent(m2, (F(0),) * 4).trace == 0
    full = trace_rank_idempotent(m2, m2.unit)
    assert full.trace == 4 and full.rank == 4 and full.equal
    half = trace_rank_idempotent(c2, (F(1, 2), F(1, 2)))
    assert half.trace == 1 and half.rank == 1 and half.equal


def test_trace_rank_rejects_non_idempotent(m2):
    with pytest.raises(NotIdempotent):
        trace_rank_idempotent(m2, m2.basis_element(1))


def test_trace_rank_on_conjugated_projections(m2, m3, rng):
    count = 0
    for algebra, size in ((m2, 2), (m3, 3)):
        for _ in range(100):
            u = random_invertible_element(algebra, rng)
            diag = [F(rng.randint(0, 1)) for _ in range(size)]
            e0 = [F(0)] * algebra.dim
            for i in range(size):
                e0[i * size + i] = diag[i]
            from skewex.maps import invert_element
            u_inv = invert_element(algebra, u)
            e = algebra.multiply(algebra.multiply(u, tuple(e0)), u_inv)
            result = trace_rank_idempotent(algebra, e)
            assert result.equal
            # the regular representation stacks `size` copies of the standard one
            assert result.trace == size * sum(diag)
            count += 1
    assert count == 200


def test_ms_check_ideal(q_times_q):
    idems = enumerate_idempotents(q_times_q)
    v = span([(F(1), F(0))], 2)
    assert ms_check(q_times_q, v, idems).status == IS_MS


def test_ms_check_unit_line_fails(q_times_q):
    idems = enumerate_idempotents(q_times_q)
    v = span([q_times_q.unit], 2)
    verdict = ms_check(q_times_q, v, idems)
    assert verdict.status == NOT_MS
    assert verdict.witness == q_times_q.unit


def test_ms_check_zero_subspace(q_times_q):
    from skewex.linalg import zero_subspace

    idems = enumerate_idempotents(q_times_q)
    assert ms_check(q_times_q, zero_subspace(2), idems).status == IS_MS


def test_ms_check_incomplete_set_is_inconclusive(q_times_q):
    partial = IdempotentSet(((F(0), F(0)), (F(1), F(1))), False, "partial", ("sum", "sum"))
    v = span([(F(1), F(0))], 2)
    assert ms_check(q_times_q, v, partial).status == INCONCLUSIVE_IDEMPOTENTS


def test_ms_check_one_sided_variants(ut2):
    # V = span{E11}: the left ideal of E11 stays inside, the right one hits E12
    e11 = ut2.basis_element(0)
    e22 = ut2.basis_element(2)
    zero = (F(0),) * 3
    idems = IdempotentSet((zero, ut2.unit, e11, e22), False, "hand-listed",
                          ("sum", "sum", "primitive", "primitive"))
    v = span([e11], 3)
    left = ms_check(ut2, v, idems, side="left")
    assert left.status == INCONCLUSIVE_IDEMPOTENTS  # all listed checks pass
    right = ms_check(ut2, v, idems, side="right")
    assert right.status == NOT_MS
    assert right.witness == e11


def test_power_span_idempotent_direction(q_times_q):
    ps = power_span(q_times_q, (F(1), F(0)))
    assert ps.powers == span([(F(1), F(0))], 2)
    assert ps.tail == ps.powers


def test_power_span_nilpotent(dual_numbers):
    ps = power_span(dual_numbers, dual_numbers.basis_element(1))
    assert ps.powers == span([(F(0), F(1))], 2)
    assert ps.tail.dim == 0


def test_power_span_unipotent(dual_numbers):
    ps = power_span(dual_numbers, (F(1), F(1)))
    assert ps.powers.dim == 2
    assert ps.tail == ps.powers


def test_ms_witness_examples(q_times_q):
    v = span([(F(1), F(0))], 2)
    assert ms_witness_check(q_times_q, v, (F(1), F(0)), (F(5), F(7)), (F(5), F(7))) == PASS
    # nilpotent tail passes vacuously
    from skewex.algebra import poly_quotient as pq

    dual = pq(Poly.of([0, 0, 1]))
    vd = span([dual.basis_element(1)], 2)
    assert ms_witness_check(dual, vd, dual.basis_element(1),
                            (F(9), F(1)), (F(3), F(4))) == PASS
    # unit line: hypothesis holds for a = 1 but b T escapes
    vu = span([q_times_q.unit], 2)
    assert ms_witness_check(q_times_q, vu, q_times_q.unit,
                            (F(1), F(0)), q_times_q.unit, side="left") == FAIL
    # hypothesis failure: powers of the unit leave the first-factor line
    first_factor = span([(F(1), F(0))], 2)
    assert ms_witness_check(q_times_q, first_factor, q_times_q.unit,
                            q_times_q.unit, q_times_q.unit) == NOT_APPLICABLE


def test_ms_witness_rejects_an_unknown_side_before_the_powers(split_pair):
    # the powers of the unit leave the zero subspace, those of 0 stay inside;
    # an unknown side is an error either way
    zero = span([], 2)
    for a in (split_pair.unit, (F(0), F(0))):
        with pytest.raises(ValueError, match="unknown side 'bogus'"):
            ms_witness_check(split_pair, zero, a, split_pair.unit, split_pair.unit, "bogus")


def test_image_audit_swap(q_times_q, swap):
    idems = enumerate_idempotents(q_times_q)
    delta = EDerivation.certify(q_times_q, Mat.identity(2) - swap.matrix)
    assert image_idempotent_audit(q_times_q, delta, idems) == []


def test_image_audit_projection_finds_witness(q_times_q):
    idems = enumerate_idempotents(q_times_q)
    phi = AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 0], [1, 0]]))
    delta = EDerivation.certify(q_times_q, Mat.identity(2) - phi.matrix)
    found = image_idempotent_audit(q_times_q, delta, idems)
    assert found == [(F(0), F(1))]


def test_image_audit_zero_map(q_times_q):
    idems = enumerate_idempotents(q_times_q)
    assert image_idempotent_audit(q_times_q, LinearEndo(q_times_q, Mat.zeros(2, 2)), idems) == []


def test_trace_certificate(m2, rng):
    for d in derivation_space(m2):
        assert image_trace_certificate(m2, d.matrix)
    for phi in sample_automorphisms(m2, rng, 6):
        assert image_trace_certificate(m2, Mat.identity(4) - phi.matrix)
    # the identity map's image is everything, so the certificate must refuse
    assert not image_trace_certificate(m2, Mat.identity(4))


def test_rank_one_grid(m2, m3):
    for algebra, size in ((m2, 2), (m3, 3)):
        grid = rank_one_idempotent_grid(size)
        assert len(grid) == 100
        for e in grid:
            assert algebra.multiply(e, e) == e
            tr = sum(e[i * size + i] for i in range(size))
            assert tr == 1


def test_image_kernel_report_projection(q_times_q):
    idems = enumerate_idempotents(q_times_q)
    phi = AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 0], [1, 0]]))
    report = image_kernel_idempotent_report(q_times_q, phi, idems)
    assert report.consistent
    assert report.ideal_contained
    by_elt = {tuple(e): (img, chain) for e, img, chain in report.entries}
    assert by_elt[(F(0), F(1))] == (True, True)
    assert by_elt[(F(1), F(0))] == (False, False)


def test_image_kernel_report_automorphism(q_times_q, swap):
    idems = enumerate_idempotents(q_times_q)
    report = image_kernel_idempotent_report(q_times_q, swap, idems)
    assert report.consistent
    for e, in_image, in_chain in report.entries:
        if any(e):
            assert not in_image and not in_chain


def test_image_kernel_report_identity(q_times_q):
    idems = enumerate_idempotents(q_times_q)
    ident = AlgebraEndo.certify(q_times_q, Mat.identity(2))
    report = image_kernel_idempotent_report(q_times_q, ident, idems)
    assert report.consistent


@pytest.fixture
def rng():
    return random.Random(60)
