"""Differential tests of the integer idempotent pipeline against the Fraction
one it replaced (idempotent_oracle), and of the integer quotient, kernel
chain and trace-rank check, the shared memberships of
image_kernel_idempotent_report and Mat.__sub__ against the Fraction code
they replaced."""

import random
from fractions import Fraction

import pytest

import idempotent_oracle as oracle
from skewex import idempotents
from skewex.algebra import direct_product, is_ideal, quotient, radical
from skewex.errors import DimensionMismatch, SkewexError
from skewex.explorer import random_basis_change, random_recipe
from skewex.idempotents import (
    NOT_MS,
    IdempotentSet,
    _split_block,
    enumerate_idempotents,
    image_kernel_idempotent_report,
    ms_check,
    rank_one_idempotent_grid,
    trace_rank_idempotent,
)
from skewex.linalg import (
    Mat,
    Poly,
    _integer_row,
    _rational_row,
    column_space,
    kernel,
    krylov_relation,
    rref,
)
from skewex.maps import AlgebraEndo, induced_map, kernel_chain
from skewex.sampling import random_element, recipe_endomorphisms, sample_automorphisms

F = Fraction


def assert_same_enumeration(algebra):
    got = enumerate_idempotents(algebra)
    want = oracle.enumerate_idempotents(algebra)
    # items in order, provenance, complete and the reason
    assert got == want, algebra
    assert all(type(x) is Fraction for e in got.items for x in e)
    for e, row in zip(got.items, got.rows):
        # each row is a positive multiple of its item
        c = next((F(r) / x for r, x in zip(row, e) if x), F(1))
        assert c > 0 and [F(r) for r in row] == [c * x for x in e], (algebra, e)
    return got


def test_split_block_matches_the_fraction_split_on_scaled_tables(
        split_pair, c3, q_times_q, monkeypatch):
    # each chain step carries the table's scale: on tables with denominators
    # the relation is still the corner's minimal polynomial, and the pieces
    # are the oracle's
    relations = []
    real_krylov = idempotents._integer_krylov

    def spy(iterates):
        chain, relation = real_krylov(iterates)
        relations.append(Poly.of([F(a, relation[-1]) for a in relation]))
        return chain, relation

    monkeypatch.setattr(idempotents, "_integer_krylov", spy)
    rng = random.Random(31)
    scaled = 0
    for algebra in (split_pair, c3, q_times_q, direct_product(split_pair, split_pair)):
        for _ in range(5):
            changed = random_basis_change(algebra, rng)
            scale, unit = _integer_row(changed.unit)
            for direction in range(changed.dim):
                d = changed.basis_element(direction)
                x = changed.multiply(changed.unit, d)
                pieces = _split_block(changed, (unit, scale), direction)
                assert relations[-1] == krylov_relation(lambda v: changed.multiply(v, x),
                                                        changed.unit)
                assert ([_rational_row(row, s) for row, s in pieces]
                        == oracle.split_block(changed, changed.unit, d))
            scaled += changed.integer_sc[0] > 1
    assert scaled >= 5


def test_split_block_rejects_a_non_idempotent_block(split_pair):
    # 2 is no idempotent: its projections 2 t and 2 (1 - t) are not either
    with pytest.raises(SkewexError, match="eigen-projection failed"):
        _split_block(split_pair, ([2, 0], 1), 1)


def test_enumeration_matches_fraction_oracle_on_the_corpus(corpus, dual_numbers, split_pair):
    algebras = [a for a in corpus.values() if a.is_commutative()]
    algebras += [direct_product(dual_numbers, split_pair), direct_product(split_pair, split_pair)]
    lifted = 0
    for algebra in algebras:
        lifted += "lifted" in assert_same_enumeration(algebra).provenance
    assert lifted >= 2


def test_enumeration_matches_fraction_oracle_on_draws():
    kinds = set()
    for algebra in oracle.commutative_draws(300):
        got = assert_same_enumeration(algebra)
        kinds.add((got.complete, "lifted" in got.provenance, len(got.items) > 2))
    # complete and partial sets, with and without a radical, split and unsplit
    assert len(kinds) >= 4, kinds


def test_enumeration_matches_fraction_oracle_after_basis_changes(corpus, dual_numbers, split_pair):
    rng = random.Random(2417)
    algebras = [a for a in corpus.values() if a.is_commutative()]
    algebras += [direct_product(dual_numbers, split_pair), direct_product(split_pair, split_pair)]
    algebras += [random_recipe(rng, 4).algebra for _ in range(20)]
    scales = set()
    for algebra in algebras:
        if not algebra.is_commutative():
            continue
        for _ in range(4):
            changed = random_basis_change(algebra, rng)
            scales.add(changed.integer_sc[0] > 1)
            assert_same_enumeration(changed)
    assert scales == {False, True}


def test_rank_one_grid_matches_the_list_it_replaced():
    for size in (2, 3, 4):
        for count in (100, 10):
            grid = rank_one_idempotent_grid(size, count)
            assert isinstance(grid, tuple)
            assert grid == tuple(oracle.rank_one_idempotent_grid(size, count))
            assert rank_one_idempotent_grid(size, count) is grid
    with pytest.raises(SkewexError):
        rank_one_idempotent_grid(1)


def test_trace_rank_matches_fraction_rref_and_trace(corpus):
    checked = 0
    for name, algebra in corpus.items():
        if algebra.is_commutative():
            items = enumerate_idempotents(algebra).items
        elif name in ("m2", "m3"):
            items = (algebra.unit,) + rank_one_idempotent_grid(round(algebra.dim ** 0.5), 20)
        else:
            items = (algebra.unit, algebra.basis_element(0))
        for e in items:
            if algebra.multiply(e, e) != e:
                continue
            got = trace_rank_idempotent(algebra, e)
            m = algebra.left_regular(e)
            assert (got.trace, got.rank) == (m.trace(), rref(m)[2]), (name, e)
            assert type(got.trace) is Fraction
            checked += 1
    assert checked >= 60


def fraction_kernel_chain(phi):
    """kernel_chain on Fraction powers and kernel subspaces."""
    power = phi.matrix
    prev = kernel(power)
    index = 1
    for _ in range(phi.algebra.dim):
        power = power * phi.matrix
        nxt = kernel(power)
        if nxt == prev:
            break
        prev = nxt
        index += 1
    return prev, index


def test_kernel_chain_and_induced_map_match_fraction_powers(corpus, m3):
    rng = random.Random(88)
    checked = set()
    cases = []
    for algebra in list(corpus.values()) + [m3]:
        cases += [(algebra, phi) for phi in sample_automorphisms(algebra, rng, 3)]
    for _ in range(30):
        recipe = random_recipe(rng, 4)
        cases += [(recipe.algebra, phi) for phi in recipe_endomorphisms(recipe, rng, 2)]
    for algebra, phi in cases:
        chain, index = kernel_chain(phi)
        assert (chain, index) == fraction_kernel_chain(phi)
        assert is_ideal(algebra, chain)
        induced = induced_map(phi)
        assert induced.chain == chain
        if chain.dim:
            quot, proj = quotient(algebra, chain)
            kept = [j for j in range(algebra.dim) if j not in chain.pivots()]
            section = Mat.from_columns([algebra.basis_element(j) for j in kept])
            assert induced.induced.matrix == proj * phi.matrix * section
            assert induced.projection == proj
        checked.add((chain.dim > 0, index))
    assert len(checked) >= 3, checked


def test_quotient_matches_the_fraction_quotient(corpus, m3):
    rng = random.Random(73)
    ideals = []
    for algebra in oracle.commutative_draws(60):
        ideals.append((algebra, radical(algebra)))
    for algebra in list(corpus.values()) + [m3]:
        for phi in sample_automorphisms(algebra, rng, 2):
            ideals.append((algebra, kernel_chain(phi)[0]))
    for _ in range(20):
        recipe = random_recipe(rng, 4)
        ideals += [(recipe.algebra, kernel_chain(phi)[0])
                   for phi in recipe_endomorphisms(recipe, rng, 2)]
    checked = 0
    for algebra, ideal in ideals:
        if ideal.dim in (0, algebra.dim):
            continue
        quot, proj = quotient(algebra, ideal)
        want, want_proj = oracle.quotient(algebra, ideal)
        assert (quot.sc, quot.integer_sc, quot.unit, quot.labels, proj) == (
            want.sc, want.integer_sc, want.unit, want.labels, want_proj)
        checked += 1
    assert checked >= 20


def test_image_kernel_report_gives_ms_check_the_image_memberships(m2):
    # phi = diag(-1, 1, 1, 1) is linear, not multiplicative: I - phi = 2 E11
    # has image span{E11}, which holds E11 but not the ideal E11 generates,
    # while the kernel chain of the invertible phi is 0
    phi = AlgebraEndo(m2, Mat.from_rows([[-1, 0, 0, 0], [0, 1, 0, 0],
                                         [0, 0, 1, 0], [0, 0, 0, 1]]))
    zero = (F(0),) * 4
    e11 = m2.basis_element(0)
    idems = IdempotentSet((zero, m2.unit, e11), False, "hand-listed", ("sum", "sum", "grid"))
    report = image_kernel_idempotent_report(m2, phi, idems)
    assert report.entries == ((zero, True, True), (m2.unit, False, False), (e11, True, False))
    assert not report.consistent
    image = column_space(Mat.identity(4) - phi.matrix)
    assert ms_check(m2, image, idems).status == NOT_MS
    assert report.ideal_contained is False


def test_mat_sub_matches_negate_and_add():
    rng = random.Random(5)
    for _ in range(200):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        a, b = (Mat.from_rows([[F(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(cols)]
                               for _ in range(rows)]) for _ in range(2))
        assert a - b == a + (-b)
        assert all(type(x) is Fraction for row in (a - b).entries for x in row)
    with pytest.raises(DimensionMismatch, match="matrix shapes differ"):
        Mat.identity(2) - Mat.identity(3)
    with pytest.raises(DimensionMismatch, match="matrix shapes differ"):
        Mat.zeros(2, 3) - Mat.zeros(3, 2)


def test_idempotent_rows_decide_membership_like_contains(corpus):
    rng = random.Random(12)
    for algebra in corpus.values():
        if not algebra.is_commutative():
            continue
        idems = enumerate_idempotents(algebra)
        for _ in range(5):
            v = column_space(Mat.from_columns([random_element(algebra, rng)
                                               for _ in range(rng.randint(1, algebra.dim))]))
            want = [v.contains(e) for e in idems.items]
            got = [not any(v.residual(row)) for row in idems.rows]
            assert got == want
