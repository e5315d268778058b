"""Differential tests of the closed forms against the code they replaced.

The reference functions below are the library's former fixpoint
ideal_closure, the hand-written image spans of simple_image_check,
ideal_constant_term and coefficient_sum_membership, the expanded
E-derivation identity, recipe_endomorphisms as it was when it certified
every slot map it drew, substitution_endos as it was when it certified every
candidate, the window loop of power_span, the two loops of
kernel_chain_preimage, the corner minimal polynomial of _split_block (a
restricted matrix on the column space of left_regular(block)), and the trace
and radical read off left_regular.  The closed forms must give the same
subspaces, the same verdicts, the same polynomials and the same sampled maps
from the same random draws.
"""

import itertools
import random
from fractions import Fraction

import pytest

from skewex import idempotents, sampling
from skewex.algebra import (
    cyclic_group_algebra,
    ideal_closure,
    matrix_algebra,
    poly_quotient,
    radical,
)
from skewex.errors import DimensionMismatch, NotEndomorphism, NotInKernelChain, SkewexError
from skewex.explorer import BLOCK_POLYS, random_basis_change, random_recipe
from skewex.idempotents import enumerate_idempotents, power_span
from skewex.laurent import coefficient_sum_membership, laurent_quotient
from skewex.linalg import (
    ZERO,
    Mat,
    Poly,
    column_space,
    inverse,
    kernel,
    krylov_relation,
    minimal_polynomial,
    rat,
    span,
    unit_vec,
    vec_add,
    vec_sub,
    zero_vec,
)
from skewex.maps import (
    AlgebraEndo,
    Derivation,
    EDerivation,
    derivation_space,
    is_ederivation,
    kernel_chain,
    kernel_chain_preimage,
)
from skewex.ore import ideal_constant_term, ore_quotient, simple_image_check
from skewex.sampling import (
    ProductRecipe,
    _looks_monogenic,
    random_element,
    recipe_endomorphisms,
    sample_automorphisms,
    substitution_endos,
)
from idempotent_oracle import commutative_draws
from test_matrix_kernel_reference import expected_endomorphism_verdict

F = Fraction
SIDES = ("left", "right", "two")


# -- reference code ----------------------------------------------------------

def ref_ideal_closure(algebra, gens, side="two"):
    """Iterate basis products until the span stops growing."""
    current = span(list(gens), algebra.dim)
    while True:
        new_vectors = list(current.basis)
        for v in current.basis:
            for b in range(algebra.dim):
                eb = algebra.basis_element(b)
                if side in ("left", "two"):
                    new_vectors.append(algebra.multiply(eb, v))
                if side in ("right", "two"):
                    new_vectors.append(algebra.multiply(v, eb))
        grown = span(new_vectors, algebra.dim)
        if grown.dim == current.dim:
            return grown
        current = grown


def ref_left_image_span(algebra, m):
    """span{x * m(y)} over basis elements x and y."""
    return span(
        [algebra.multiply(algebra.basis_element(i), m.apply(algebra.basis_element(j)))
         for i in range(algebra.dim) for j in range(algebra.dim)],
        algebra.dim,
    )


def ref_right_image_span(algebra, m):
    """span{m(y) * x} over basis elements x and y."""
    images = [m.apply(algebra.basis_element(j)) for j in range(algebra.dim)]
    return span(
        [algebra.multiply(w, algebra.basis_element(i))
         for i in range(algebra.dim) for w in images],
        algebra.dim,
    )


def ref_is_ederivation(algebra, m, require_unital=True):
    """d(ab) = d(a)b + a d(b) - d(a)d(b) on all basis pairs, and I - d unital
    when required."""
    for i in range(algebra.dim):
        ei = algebra.basis_element(i)
        di = m.apply(ei)
        for j in range(algebra.dim):
            ej = algebra.basis_element(j)
            dj = m.apply(ej)
            lhs = m.apply(algebra.sc[i][j])
            rhs = vec_sub(
                vec_add(algebra.multiply(di, ej), algebra.multiply(ei, dj)),
                algebra.multiply(di, dj),
            )
            if lhs != rhs:
                return False
    phi = Mat.identity(algebra.dim) - m
    return not require_unital or phi.apply(algebra.unit) == algebra.unit


def ref_slot_endomorphism(recipe, sources, block_maps):
    n = recipe.algebra.dim
    rows = [[F(0)] * n for _ in range(n)]
    for j, (src, psi) in enumerate(zip(sources, block_maps)):
        target = recipe.blocks[j]
        source = recipe.blocks[src]
        assert target.sc == source.sc
        for r in range(target.dim):
            for c in range(source.dim):
                rows[recipe.offsets[j] + r][recipe.offsets[src] + c] = psi.entries[r][c]
    return AlgebraEndo.certify(recipe.algebra, Mat.from_rows(rows))


def ref_recipe_endomorphisms(recipe, rng, count, require_singular=False):
    per_block = []
    for block in recipe.blocks:
        endos = [Mat.identity(block.dim)]
        if block.dim >= 2 and _looks_monogenic(block):
            endos = [e.matrix for e in ref_substitution_endos(block)[0]]
        per_block.append(endos)
    compatible_sources = [
        [i for i, other in enumerate(recipe.blocks) if other.sc == blk.sc]
        for blk in recipe.blocks
    ]
    out = []
    seen = set()
    tries = 0
    while len(out) < count and tries < 60 * count:
        tries += 1
        sources = [rng.choice(opts) for opts in compatible_sources]
        block_maps = [rng.choice(per_block[src]) for src in sources]
        endo = ref_slot_endomorphism(recipe, sources, block_maps)
        if require_singular and inverse(endo.matrix) is not None:
            continue
        if endo.matrix.entries not in seen:
            seen.add(endo.matrix.entries)
            out.append(endo)
    return out


def ref_substitution_endos(algebra, coeff_choices=(-1, 0, 1, 2)):
    """Certify every new candidate t -> g on all basis pairs; also return the
    number of candidates rejected."""
    n = algebra.dim
    grid = [(F(0),) + coeffs
            for coeffs in itertools.product([rat(c) for c in coeff_choices], repeat=n - 1)]
    scalars = [(c0,) + zero_vec(n - 1) for c0 in (F(0), F(1))]
    out = []
    seen = set()
    rejected = 0
    for g in grid + scalars:
        cols = [algebra.unit]
        power = algebra.unit
        for _ in range(1, n):
            power = algebra.multiply(power, g)
            cols.append(power)
        m = Mat.from_columns(cols)
        if m.entries in seen:
            continue
        seen.add(m.entries)
        try:
            out.append(AlgebraEndo.certify(algebra, m))
        except NotEndomorphism:
            rejected += 1
    return out, rejected


def ref_power_span(algebra, a):
    """(powers, tail): slide the window a^N .. a^(N+n) until its span repeats."""
    n = algebra.dim
    powers = []
    current = a
    for _ in range(n + 1):
        powers.append(current)
        current = algebra.multiply(current, a)
    window = powers
    prev = span(window, n)
    for _ in range(1, n + 2):
        window = [algebra.multiply(w, a) for w in window]
        nxt = span(window, n)
        if nxt == prev:
            break
        prev = nxt
    return span(powers, n), prev


def ref_kernel_chain_preimage(phi, a):
    """Find the least k <= n with phi^k(a) = 0, then sum a .. phi^(k-1)(a)."""
    n = phi.algebra.dim
    k = None
    power = a
    for i in range(1, n + 1):
        power = phi.matrix.apply(power)
        if all(x == 0 for x in power):
            k = i
            break
    if k is None:
        raise NotInKernelChain(f"no power up to {n} kills the element")
    b = a
    term = a
    for _ in range(k - 1):
        term = phi.matrix.apply(term)
        b = vec_add(b, term)
    return b


def ref_restriction_matrix(algebra, x, corner):
    """Matrix of multiplication by x restricted to an invariant subspace."""
    pivots = corner.pivots()
    cols = []
    for b in corner.basis:
        image = algebra.multiply(x, b)
        assert corner.contains(image), "multiplication does not preserve the corner"
        # RREF bases make coordinates plain reads at the pivot positions.
        cols.append(tuple(image[p] for p in pivots))
    return Mat.from_columns(cols)


def ref_corner_minimal_polynomial(algebra, block, direction):
    """Minimal polynomial of multiplication by x = block * direction on the
    corner, the column space of left_regular(block)."""
    corner = column_space(algebra.left_regular(block))
    x = algebra.multiply(block, direction)
    return minimal_polynomial(ref_restriction_matrix(algebra, x, corner))


def ref_radical(algebra):
    """Kernel of the Gram matrix trace(left_regular(e_i e_j))."""
    n = algebra.dim
    return kernel(Mat.from_rows([[algebra.left_regular(algebra.sc[i][j]).trace()
                                  for i in range(n)] for j in range(n)]))


# -- ideals ------------------------------------------------------------------

def idempotent_generators(algebra):
    """Listed idempotents: all of them on a commutative algebra, else the unit
    and the first basis element, which is E11 on the matrix corpus."""
    if algebra.is_commutative():
        return list(enumerate_idempotents(algebra).items)
    e11 = algebra.basis_element(0)
    assert algebra.multiply(e11, e11) == e11
    return [algebra.unit, e11]


def test_ideal_closure_matches_fixpoint(corpus):
    rng = random.Random(2024)
    compared = 0
    for name, algebra in corpus.items():
        zero = (F(0),) * algebra.dim
        generator_sets = [[], [zero], [random_element(algebra, rng)],
                          [random_element(algebra, rng), random_element(algebra, rng)]]
        generator_sets += [[e] for e in idempotent_generators(algebra)]
        for gens in generator_sets:
            for side in SIDES:
                assert ideal_closure(algebra, gens, side) == ref_ideal_closure(
                    algebra, gens, side), (name, gens, side)
                compared += 1
    assert compared >= len(corpus) * 3 * 6


def test_ideal_closure_rejects_unknown_side(m2):
    with pytest.raises(ValueError):
        ideal_closure(m2, [m2.unit], "both")


def test_image_spans_match_hand_written_spans(corpus):
    rng = random.Random(77)
    for name, algebra in corpus.items():
        maps = [d.matrix for d in derivation_space(algebra)]
        maps += [Poly.of([rng.randint(-2, 2) for _ in range(3)]).eval_matrix(m) for m in maps[:2]]
        maps += [phi.matrix - phi.power(-1) for phi in sample_automorphisms(algebra, rng, 3)]
        maps.append(Mat.zeros(algebra.dim, algebra.dim))
        for m in maps:
            assert ideal_closure(algebra, m.columns(), "left") == ref_left_image_span(algebra, m), name
            assert ideal_closure(algebra, m.columns(), "right") == ref_right_image_span(
                algebra, m), name


def test_routed_reports_match_hand_written_spans(corpus):
    rng = random.Random(5)
    for name, algebra in corpus.items():
        for d in derivation_space(algebra)[:3]:
            report = simple_image_check(algebra, d)
            assert report.left_full == (ref_left_image_span(algebra, d.matrix).dim == algebra.dim)
            assert report.right_full == (ref_right_image_span(algebra, d.matrix).dim == algebra.dim)
            q = Poly.of([rng.randint(-2, 2) for _ in range(3)])
            b = random_element(algebra, rng)
            ict = ideal_constant_term(q, b, rng.randint(0, 2), rng.randint(0, 1), d)
            qd = q.eval_matrix(d.matrix)
            assert ict.member == ref_left_image_span(algebra, qd).contains(ict.value), name
        for phi in sample_automorphisms(algebra, rng, 2):
            terms = [(rng.randint(-2, 2), F(rng.randint(-2, 2))) for _ in range(2)]
            b, c = random_element(algebra, rng), random_element(algebra, rng)
            report = coefficient_sum_membership(terms, b, c, rng.randint(-1, 1),
                                                rng.randint(-1, 1), phi)
            f_of_phi = Mat.zeros(algebra.dim, algebra.dim)
            for exp, coeff in terms:
                f_of_phi = f_of_phi + phi.power(exp).scale(coeff)
            assert report.member == ref_left_image_span(algebra, f_of_phi).contains(
                report.value), name


# -- E-derivations -----------------------------------------------------------

def perturbed(m, rng):
    rows = [list(row) for row in m.entries]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[r][c] += rng.choice((-1, 1, F(1, 2)))
    return Mat.from_rows(rows)


def test_is_ederivation_matches_expanded_identity(corpus):
    rng = random.Random(99)
    verdicts = set()
    for name, algebra in corpus.items():
        n = algebra.dim
        candidates = [Mat.zeros(n, n), Mat.identity(n)]
        for phi in sample_automorphisms(algebra, rng, 4):
            candidates.append(Mat.identity(n) - phi.matrix)
        candidates += [perturbed(m, rng) for m in list(candidates)]
        for m in candidates:
            for require_unital in (True, False):
                expected = ref_is_ederivation(algebra, m, require_unital)
                assert is_ederivation(algebra, m, require_unital) == expected, name
                verdicts.add((require_unital, expected))
                if expected:
                    delta = EDerivation.certify(algebra, m, require_unital)
                    assert delta.phi == AlgebraEndo.certify(
                        algebra, Mat.identity(n) - m, require_unital)
                else:
                    # the witness is the first failing pair of phi = I - m
                    # in the certificate's order, or ("unit",)
                    _, witness = expected_endomorphism_verdict(
                        algebra, Mat.identity(n) - m, require_unital)
                    with pytest.raises(NotEndomorphism) as caught:
                        EDerivation.certify(algebra, m, require_unital)
                    assert caught.value.pair == witness, name
                    assert str(caught.value) == str(NotEndomorphism(
                        witness, reason="difference-map identity"))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


# -- recipe endomorphisms ----------------------------------------------------

def recipes():
    rng = random.Random(8)
    built = [random_recipe(rng, 4) for _ in range(12)]
    dual, split = poly_quotient(Poly.of([0, 0, 1])), poly_quotient(Poly.of([0, -1, 1]))
    built += [ProductRecipe.build([matrix_algebra(2), poly_quotient(Poly.of([0, 1]))]),
              ProductRecipe.build([dual, split, dual]),
              ProductRecipe.build([split, split])]
    return built


@pytest.mark.parametrize("require_singular", [False, True])
def test_recipe_endomorphisms_match_reference(require_singular, monkeypatch):
    real_certify = AlgebraEndo.certify
    certified = []

    def spy(algebra, m, require_unital=True):
        certified.append((algebra, m.entries))
        return real_certify(algebra, m, require_unital)

    monkeypatch.setattr(sampling.AlgebraEndo, "certify", staticmethod(spy))
    for index, recipe in enumerate(recipes()):
        ref_rng, rng = random.Random(index), random.Random(index)
        expected = ref_recipe_endomorphisms(recipe, ref_rng, 5, require_singular)
        certified.clear()
        got = recipe_endomorphisms(recipe, rng, 5, require_singular)
        assert got == expected, index
        assert rng.getstate() == ref_rng.getstate(), index
        assert [m for a, m in certified if a is recipe.algebra] == [
            endo.matrix.entries for endo in got], index


# -- substitution endomorphisms ---------------------------------------------

def monogenic_blocks(corpus):
    """Every power-basis block the explorer draws, then the corpus's."""
    blocks = {str(f): poly_quotient(f) for f in BLOCK_POLYS if f.degree >= 2}
    blocks.update({f"C{m}": cyclic_group_algebra(m) for m in (2, 3, 4)})
    blocks.update({name: a for name, a in corpus.items() if a.dim >= 2 and _looks_monogenic(a)})
    return blocks


def test_substitution_endos_match_certified_candidates(corpus, monkeypatch):
    blocks = monogenic_blocks(corpus)
    assert len(blocks) >= 10
    expected = {name: ref_substitution_endos(block) for name, block in blocks.items()}
    assert sum(rejected for _, rejected in expected.values()) > 0
    monkeypatch.setattr(sampling.AlgebraEndo, "certify", None)  # the closed form needs none
    for name, block in blocks.items():
        got = substitution_endos(block)
        assert got == expected[name][0], name


def test_substitution_endos_need_a_power_basis(m2, rng):
    with pytest.raises(SkewexError):
        substitution_endos(m2)
    with pytest.raises(SkewexError):
        substitution_endos(poly_quotient(Poly.of([0, 1])))
    changed = random_basis_change(poly_quotient(Poly.of([0, 0, 0, 1])), rng)
    assert not _looks_monogenic(changed)
    with pytest.raises(SkewexError):
        substitution_endos(changed)


# -- power tails --------------------------------------------------------------

def power_span_elements(algebra, rng):
    """Idempotents, nilpotents, units and random elements of an algebra.

    The second basis element is t on a power basis; on Q[t]/(t^3) its window
    W_2 = span{t^2} is not yet the tail, which is 0."""
    elements = [algebra.unit, zero_vec(algebra.dim), algebra.basis_element(1 % algebra.dim)]
    if algebra.is_commutative():
        elements += enumerate_idempotents(algebra).items
    elements += radical(algebra).basis
    elements += [sampling.random_invertible_element(algebra, rng)]
    elements += [random_element(algebra, rng) for _ in range(3)]
    return elements


def test_power_span_matches_window_loop(corpus):
    rng = random.Random(31)
    algebras = dict(corpus)
    for name, block in monogenic_blocks(corpus).items():
        algebras[f"{name} (basis change)"] = random_basis_change(block, rng)
    compared = 0
    for name, algebra in algebras.items():
        for a in power_span_elements(algebra, rng):
            got = power_span(algebra, a)
            assert (got.powers, got.tail) == ref_power_span(algebra, a), (name, a)
            compared += 1
    assert compared >= 100


# -- kernel-chain preimages -----------------------------------------------------

def test_kernel_chain_preimage_matches_two_loops():
    rng = random.Random(41)
    compared = {True: 0, False: 0}
    for recipe in recipes():
        algebra = recipe.algebra
        for phi in recipe_endomorphisms(recipe, rng, 6, require_singular=True):
            chain, _ = kernel_chain(phi)
            elements = list(chain.basis) + [random_element(algebra, rng) for _ in range(3)]
            if chain.basis:
                elements.append(vec_add(chain.basis[-1], algebra.unit))
            for a in elements:
                try:
                    expected = ref_kernel_chain_preimage(phi, a)
                except NotInKernelChain:
                    with pytest.raises(NotInKernelChain):
                        kernel_chain_preimage(phi, a)
                    compared[False] += 1
                    continue
                assert kernel_chain_preimage(phi, a) == expected
                compared[True] += 1
    assert compared[True] >= 20 and compared[False] >= 20, compared


def test_kernel_chain_preimage_needs_every_term(jet2):
    # t -> t^2 kills t only at the second power, so the preimage of t is t + t^2
    t, t2 = jet2.basis_element(1), jet2.basis_element(2)
    square = AlgebraEndo.certify(jet2, Mat.from_columns([jet2.unit, t2, zero_vec(3)]))
    assert kernel_chain_preimage(square, t) == vec_add(t, t2)
    assert kernel_chain_preimage(square, t2) == t2
    with pytest.raises(NotInKernelChain):
        kernel_chain_preimage(square, jet2.unit)


# -- corner relations and traces ------------------------------------------------

def test_krylov_relation_is_local_to_its_vector():
    # e0 -> 2 e0; e2 -> e1 -> 0: the basis vectors have relations t - 2, t, t^2
    m = Mat.from_rows([[2, 0, 0], [0, 0, 1], [0, 0, 0]])
    e0, e1, e2 = (unit_vec(i, 3) for i in range(3))
    assert krylov_relation(m.apply, e0) == Poly.of([-2, 1])
    assert krylov_relation(m.apply, e1) == Poly.of([0, 1])
    assert krylov_relation(m.apply, e2) == Poly.of([0, 0, 1])
    assert krylov_relation(m.apply, vec_add(e0, e2)) == Poly.of([0, 0, -2, 1])
    assert krylov_relation(m.apply, zero_vec(3)) == Poly.one()
    assert minimal_polynomial(m) == Poly.of([0, 0, -2, 1])  # the lcm, t^2 (t - 2)


def split_block_relations(monkeypatch, algebras):
    """[algebra, block, direction, relation] for every _split_block call made
    while enumerating the idempotents of the algebras, with the block and
    direction as vectors and the monic form of the relation that call's
    integer Krylov kernel found."""
    calls = []
    real_split, real_krylov = idempotents._split_block, idempotents._integer_krylov

    def split(algebra, block, direction):
        row, scale = block
        calls.append([algebra, tuple(F(x, scale) for x in row),
                      algebra.basis_element(direction), None])
        return real_split(algebra, block, direction)

    def krylov(iterates):
        chain, relation = real_krylov(iterates)
        calls[-1][3] = Poly.of([F(a, relation[-1]) for a in relation])
        return chain, relation

    monkeypatch.setattr(idempotents, "_split_block", split)
    monkeypatch.setattr(idempotents, "_integer_krylov", krylov)
    for algebra in algebras:
        enumerate_idempotents(algebra)
    return calls


def test_corner_relation_matches_restricted_minimal_polynomial(corpus, monkeypatch):
    algebras = [a for a in corpus.values() if a.is_commutative()] + commutative_draws(300)
    calls = split_block_relations(monkeypatch, algebras)
    degrees = set()
    for algebra, block, direction, relation in calls:
        assert relation == ref_corner_minimal_polynomial(algebra, block, direction), (
            algebra, block, direction)
        degrees.add(relation.degree)
    assert len(calls) >= 1000 and degrees >= {1, 2, 3}, (len(calls), degrees)


def test_corner_relations_are_square_free(corpus, monkeypatch):
    # the blocks split live in the quotient by the radical, which is reduced
    algebras = [a for a in corpus.values() if a.is_commutative()] + commutative_draws(300)
    calls = split_block_relations(monkeypatch, algebras)
    assert len(calls) >= 1000
    for algebra, block, direction, relation in calls:
        assert relation.squarefree_part() == relation, (algebra, block, direction)


def test_split_block_rejects_an_unreduced_corner(dual_numbers):
    # in Q[t]/(t^2) the relation of t is t^2, whose root 0 is repeated
    with pytest.raises(SkewexError, match="not reduced"):
        idempotents._split_block(dual_numbers, ([1, 0], 1), 1)


@pytest.fixture
def trace_corpus(corpus, dual_numbers, euler, q_times_q, swap):
    """The corpus plus one Ore and one Laurent quotient."""
    algebras = dict(corpus)
    algebras["ore(dual, euler)"] = ore_quotient(dual_numbers, euler).algebra
    algebras["laurent(qxq, swap)"] = laurent_quotient(q_times_q, swap).algebra
    return algebras


def test_trace_of_matches_left_regular_trace(trace_corpus):
    rng = random.Random(17)
    for name, algebra in trace_corpus.items():
        elements = [algebra.basis_element(i) for i in range(algebra.dim)]
        elements += [algebra.unit] + [random_element(algebra, rng) for _ in range(5)]
        for x in elements:
            got = algebra.trace_of(x)
            assert type(got) is Fraction
            assert got == algebra.left_regular(x).trace(), (name, x)
    m2 = trace_corpus["m2"]
    assert m2.integer_sc[0] == 1 and m2.integer_trace == (2, 0, 0, 2)
    with pytest.raises(DimensionMismatch):
        m2.trace_of((F(1),))


def test_radical_matches_gram_of_left_regular_traces(trace_corpus):
    algebras = list(trace_corpus.values()) + commutative_draws(20)
    rng = random.Random(3)
    algebras += [random_basis_change(a, rng) for a in trace_corpus.values()]
    dims = set()
    for algebra in algebras:
        rad = radical(algebra)
        assert rad == ref_radical(algebra), algebra
        dims.add(rad.dim)
    assert len(dims) >= 3
