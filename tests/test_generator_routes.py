"""Each check that runs on a generating set, against its loop over the basis.

Algebra.generators is a greedy list G of basis indices whose left-normed
words span the algebra.  verify_extension checks associators at embed(G)
and u once their words span the extension's table, that embed is
multiplicative on the pairs (1, e_j) and (e_g, e_j) and that u realizes the
twist on G; derivation_space solves the product rule on the pairs (e_g, e_j)
plus D(1) = 0, unless the trace form is nondegenerate (algebra.separability),
which certifies that every derivation is inner and spans the ad_{e_j};
is_derivation checks it on the pairs (1, e_j) and (e_g, e_j); center solves
x e_g = e_g x; is_commutative compares e_g e_j with e_j e_g, and is_ideal
tests e_g v and v e_g.  Each is compared with the full basis loop it
replaces on the test corpus, M_3, M_4 and 300 seeded explorer algebras.  Hand-built cases
show what each part of the argument is for: the unit checks and rows, the
D(1) = 0 rows, a G that spans, u among the verifier's generators, and the
separability condition of the Der(A) = Inn(A) certificate.
"""

import random
from fractions import Fraction
from functools import cache

import pytest

from free_model_oracle import _first_unabsorbed, integer_tables
from skewex import _extension, maps
from skewex.algebra import (
    _first_nonassociative_at,
    center,
    change_of_basis,
    direct_product,
    ideal_closure,
    is_ideal,
    matrix_algebra,
    poly_quotient,
    radical,
    separability,
    subalgebra_generated,
    upper_triangular,
)
from skewex.errors import AssociativityFails, SkewexError
from skewex.explorer import random_basis_change, random_recipe
from skewex.laurent import laurent_quotient
from skewex.linalg import (
    Mat,
    Poly,
    _integer_kernel,
    kernel,
    solve,
    span,
    vec_add,
    vec_sub,
    zero_vec,
)
from skewex.maps import (
    _first_unmultiplicative_pair,
    derivation_space,
    is_derivation,
    is_endomorphism,
)
from skewex.ore import ore_quotient
from skewex.sampling import random_element, sample_automorphisms
from test_matrix_kernel_reference import expected_pair, ref_first_unmultiplicative_pair
from test_nucleus_certificate import extensions, full_route, perturbed
from test_relation_closure import annihilating_corpus_cases, fuzz_cases, m3_pair

F = Fraction


@cache
def explorer_algebras(count=300):
    """Seeded explorer products of dimension <= 4, half after a basis change."""
    out = []
    for seed in range(count):
        rng = random.Random(10_000 + seed)
        algebra = random_recipe(rng, 4).algebra
        if seed % 2:
            algebra = random_basis_change(algebra, rng)
        out.append((f"explore{seed}", algebra))
    return tuple(out)


def all_algebras(corpus):
    return [*corpus.items(), ("m4", matrix_algebra(4)), *explorer_algebras()]


def all_extensions(corpus, m3):
    """The extensions of test_nucleus_certificate, then an Ore extension by
    the last derivation-basis element and a Laurent extension by a sampled
    automorphism of each explorer algebra, where they exist."""
    yield from extensions(corpus, m3)
    for name, algebra in explorer_algebras():
        derivations = derivation_space(algebra)
        if derivations:
            yield "explorer", f"{name}/derivation", ore_quotient(algebra, derivations[-1])
        for phi in sample_automorphisms(algebra, random.Random(name), 1):
            yield "explorer", f"{name}/automorphism", laurent_quotient(algebra, phi)


def ref_subalgebra_generated(algebra, gens):
    """The closure of the unit and gens under all products, by rounds of
    products of the whole basis until the span stops growing."""
    current = span([algebra.unit] + list(gens), algebra.dim)
    while True:
        grown = span(list(current.basis) + [algebra.multiply(v, w) for v in current.basis
                                            for w in current.basis], algebra.dim)
        if grown.dim == current.dim:
            return grown
        current = grown


def full_derivation_system(algebra):
    """The kernel of the product rule on all n^2 basis pairs, n^3 rows."""
    n = algebra.dim
    table = algebra.integer_sc[1]
    rows = []
    for i in range(n):
        for j in range(n):
            block = [[0] * (n * n) for _ in range(n)]
            for c, x in table[i][j]:
                for k in range(n):
                    block[k][k * n + c] += x
            for r in range(n):
                for k, x in table[r][j]:
                    block[k][r * n + i] -= x
                for k, x in table[i][r]:
                    block[k][r * n + j] -= x
            rows.extend(block)
    return [Mat.from_rows([[v[r * n + c] for c in range(n)] for r in range(n)])
            for v in _integer_kernel(rows, n * n).basis]


def unital_perturbation(algebra, rng):
    """A nonzero rank-one matrix v w^T with w . unit = 0, so adding it to a
    map keeps the image of the unit."""
    n = algebra.dim
    while True:
        w = [F(rng.randint(-2, 2)) for _ in range(n)]
        pivot = next(k for k, x in enumerate(algebra.unit) if x)
        w[pivot] -= sum(a * b for a, b in zip(w, algebra.unit)) / algebra.unit[pivot]
        v = [F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(n)]
        m = Mat.from_rows([[a * b for b in w] for a in v])
        if not m.is_zero():
            return m


# -- the generating set --------------------------------------------------------

def test_generators_span_and_are_chosen_greedily(corpus):
    sizes = {}
    for name, algebra in all_algebras(corpus):
        gens = algebra.generators
        basis = [algebra.basis_element(g) for g in gens]
        assert ref_subalgebra_generated(algebra, basis).dim == algebra.dim, name
        if algebra.dim <= 9:
            # each index is kept exactly when the ones kept before it do not reach it
            for i in range(algebra.dim):
                before = ref_subalgebra_generated(
                    algebra, [algebra.basis_element(g) for g in gens if g < i])
                assert (i in gens) == (not before.contains(algebra.basis_element(i))), (name, i)
        sizes[name] = len(gens)
    assert sizes["m3"] == 5 and sizes["m4"] == 7 and sizes["jet2"] == 1
    assert max(sizes.values()) < 9


def test_subalgebra_generated_matches_the_product_rounds(corpus):
    rng = random.Random(31)
    for name, algebra in all_algebras(corpus):
        if algebra.dim > 9:
            continue
        for count in (0, 1, 2):
            gens = [tuple(F(rng.randint(-2, 2), rng.choice([1, 3])) for _ in range(algebra.dim))
                    for _ in range(count)]
            assert subalgebra_generated(algebra, gens) == ref_subalgebra_generated(
                algebra, gens), name


# -- derivation_space ----------------------------------------------------------

def m2_in_separable_basis():
    """M_2 in the basis with columns (1,0,0,2), (1,1,0,3), (2,0,1,1) and
    (0,1,1,0) in E11, E12, E21, E22 coordinates, whose generators all have
    f'(e_g) invertible although M_2 has a 3-dimensional derivation space."""
    t = Mat.from_columns([(1, 0, 0, 2), (1, 1, 0, 3), (2, 0, 1, 1), (0, 1, 1, 0)])
    return change_of_basis(matrix_algebra(2), t)


def builds_the_system(algebra, monkeypatch):
    """Whether derivation_space(algebra) builds the product-rule rows."""
    built = []
    real = maps._leibniz_rows
    monkeypatch.setattr(maps, "_leibniz_rows", lambda a: built.append(a) or real(a))
    derivation_space(algebra)
    monkeypatch.undo()
    return bool(built)


def test_derivation_space_matches_the_full_system(corpus, monkeypatch):
    dims = []
    certified = 0
    inputs = all_algebras(corpus) + [("m2 separable basis", m2_in_separable_basis())]
    for name, algebra in inputs:
        got = [d.matrix for d in derivation_space(algebra)]
        assert got == full_derivation_system(algebra), name
        dims.append(len(got))
        certified += not builds_the_system(algebra, monkeypatch)
    assert max(dims) == 15 and dims.count(0) >= 10
    # the certificate fires on c2, c3, qxq, split, m2, m3, m4, the moved M_2
    # and on 211 of the explorer algebras
    assert certified == 219


def unimodular_change(algebra, rng, steps):
    """The algebra in the basis of the columns of a product of steps random
    elementary integer matrices: the table stays integer and small, so the
    n^3-row reference system of M_4 solves in about a second, where the
    explorer's dense change takes minutes."""
    n = algebra.dim
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-1, 1])
        for row in t:
            row[j] += c * row[i]
    return change_of_basis(algebra, Mat.from_rows(t))


def off_corpus_algebras():
    """Q x M_2, M_3 and M_4 after a basis change, and two products that are
    not semisimple and have outer derivations, each with whether it is
    semisimple."""
    rng = random.Random(71)
    dual = poly_quotient(Poly.of([0, 0, 1]))
    return [("q x m2", direct_product(poly_quotient(Poly.of([0, 1])), matrix_algebra(2)), True),
            ("m3 moved", random_basis_change(matrix_algebra(3), rng), True),
            ("m4 moved", unimodular_change(matrix_algebra(4), rng, 8), True),
            ("m2 x dual", direct_product(matrix_algebra(2), dual), False),
            ("t2 x dual", direct_product(upper_triangular(2), dual), False)]


def test_derivation_space_matches_the_full_system_off_the_corpus(monkeypatch):
    for name, algebra, semisimple in off_corpus_algebras():
        assert (separability(algebra) is not None) == semisimple, name
        assert builds_the_system(algebra, monkeypatch) != semisimple, name
        got = [d.matrix for d in derivation_space(algebra)]
        assert got == full_derivation_system(algebra), name
        # the inner derivations are ad_x for x modulo the center
        inner = algebra.dim - center(algebra).dim
        assert len(got) == inner if semisimple else len(got) > inner, name


def test_separable_commutative_algebras_skip_the_system(corpus, monkeypatch):
    skipped = {name for name, algebra in corpus.items()
               if not builds_the_system(algebra, monkeypatch)}
    assert skipped == {"c2", "c3", "qxq", "split", "m2", "m3"}
    # t is nilpotent, so the trace form is degenerate: the certificate must
    # not fire, and d/dt survives
    for name in ("dual", "jet2"):
        algebra = corpus[name]
        assert separability(algebra) is None, name
        assert len(derivation_space(algebra)) == algebra.dim - 1, name


def test_the_certificate_needs_commutativity():
    # every generator of M_2 in this basis has f'(e_g) invertible, the test
    # of a commutative certificate of Der(A) = 0; the trace form sees that
    # M_2 is semisimple and keeps its inner derivations
    algebra = m2_in_separable_basis()
    assert not algebra.is_commutative()
    assert separability(algebra) is not None
    assert len(derivation_space(algebra)) == 3


def test_the_unit_rows_are_needed(q_times_q):
    # Q x Q has G = [0]: the product rule holds on (e_0, e_0) and (e_0, e_1)
    # for D(e_0) = 0, D(e_1) = e_1, which moves the unit and is no derivation;
    # is_derivation finds it on the unit row, at (1, e_1)
    assert q_times_q.generators == (0,)
    moved = Mat.from_rows([[0, 0], [0, 1]])
    for j in range(2):
        lhs = moved.apply(q_times_q.sc[0][j])
        rhs = vec_add(q_times_q.multiply(moved.column(0), q_times_q.basis_element(j)),
                      q_times_q.multiply(q_times_q.basis_element(0), moved.column(j)))
        assert lhs == rhs, j
    assert is_derivation(q_times_q, moved) == (False, ("unit", 1))
    assert derivation_space(q_times_q) == []
    # derivation_space certifies Q x Q without rows; its system alone has no kernel either
    assert _integer_kernel(maps._leibniz_rows(q_times_q), 4).dim == 0
    rational = poly_quotient(Poly.of([0, 1]))
    assert rational.generators == () and derivation_space(rational) == []


# -- center --------------------------------------------------------------------

def centralizer(algebra, indices):
    """The kernel of the Fraction system x e_c = e_c x for c in indices,
    read off the dense table: n rows per index."""
    n = algebra.dim
    sc = algebra.sc
    return kernel(Mat.from_rows([[sc[k][c][r] - sc[c][k][r] for k in range(n)]
                                 for r in range(n) for c in indices]))


def center_cases(corpus):
    """The corpus, T_3, T_2 x T_2 in two bases and 50 explorer algebras
    after a basis change."""
    t2_squared = direct_product(upper_triangular(2), upper_triangular(2))
    perm = [0, 2, 3, 5, 4, 1]
    cases = [*corpus.items(), ("t3", upper_triangular(3)), ("t2xt2", t2_squared),
             ("t2xt2 permuted", change_of_basis(t2_squared, Mat.from_rows(
                 [[int(perm[j] == i) for j in range(6)] for i in range(6)])))]
    for seed in range(50):
        rng = random.Random(20_000 + seed)
        algebra = random_recipe(rng, 4).algebra
        changed = random_basis_change(algebra, rng)
        assert changed is not algebra, seed
        cases.append((f"explore{seed}", changed))
    return cases


def test_center_on_generators_matches_the_whole_basis_system(corpus):
    cases = center_cases(corpus)
    needed = set()
    for name, algebra in cases:
        got = center(algebra)
        assert got == centralizer(algebra, range(algebra.dim)), name
        gens = algebra.generators
        if len(gens) > 1:
            needed.update(p for p in range(len(gens))
                          if centralizer(algebra, gens[:p] + gens[p + 1:]) != got)
    # leaving any one generator out of the system changes some center
    assert needed == set(range(max(len(algebra.generators) for _, algebra in cases)))


# -- commutativity and ideals ---------------------------------------------------

def whole_basis_commutative(algebra):
    """e_i e_j = e_j e_i for every pair, on the integer cells."""
    table = algebra.integer_sc[1]
    return all(table[i][j] == table[j][i] for i in range(algebra.dim) for j in range(algebra.dim))


def test_commutativity_on_generators_matches_every_pair(corpus):
    """Also on products whose first generator is a central idempotent, so
    that a later generator decides."""
    dual = poly_quotient(Poly.of([0, 0, 1]))
    products = [(f"{a} x {b}", direct_product(x, y)) for a, x in (("Q", poly_quotient(Poly.x())),
                                                                   ("dual", dual))
                for b, y in (("M_2", matrix_algebra(2)), ("T_2", upper_triangular(2)))]
    verdicts = {True: 0, False: 0}
    for name, algebra in [*all_algebras(corpus), *center_cases(corpus), *products]:
        expected = whole_basis_commutative(algebra)
        assert algebra.is_commutative() == expected, name
        verdicts[expected] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 30, verdicts


def doctored_subspaces(algebra, rng):
    """Two-sided, one-sided and non-ideals: the closures of a random element,
    the radical, a generated subalgebra, a span, a two-sided ideal less one
    basis row and plus a stray vector, and the zero and whole space."""
    n = algebra.dim
    x, stray = random_element(algebra, rng), random_element(algebra, rng)
    two = ideal_closure(algebra, [x])
    out = [span([], n), span([algebra.basis_element(i) for i in range(n)], n), two,
           ideal_closure(algebra, [x], "left"), ideal_closure(algebra, [x], "right"),
           radical(algebra), subalgebra_generated(algebra, [x]), span([x, stray], n),
           span(list(two.basis) + [stray], n)]
    if two.dim:
        drop = rng.randrange(two.dim)
        out.append(span([v for i, v in enumerate(two.basis) if i != drop], n))
    return out


def test_ideals_on_generators_match_the_whole_basis_check(corpus):
    """is_ideal absorbs only e_g, g in G; free_model_oracle's _first_unabsorbed
    tries every basis element."""
    rng = random.Random(8080)
    verdicts = {True: 0, False: 0}
    for name, algebra in [*all_algebras(corpus), *center_cases(corpus)]:
        for subspace in doctored_subspaces(algebra, rng):
            expected = _first_unabsorbed(algebra.integer_sc, subspace) is None
            assert is_ideal(algebra, subspace) == expected, name
            verdicts[expected] += 1
    assert verdicts[True] >= 2000 and verdicts[False] >= 500, verdicts


# -- multiplicativity and the twist ------------------------------------------

def test_multiplicativity_on_generators_matches_all_pairs(corpus):
    rng = random.Random(47)
    verdicts = {}
    for name, algebra in all_algebras(corpus):
        maps = [phi.matrix for phi in sample_automorphisms(algebra, rng, 2)]
        maps += [m + unital_perturbation(algebra, rng) for m in list(maps)]
        for m in maps:
            assert m.apply(algebra.unit) == algebra.unit, name
            routed = _first_unmultiplicative_pair(algebra, algebra, m)
            # the verdict of all basis pairs, and the first failing pair in
            # the certificate's order; a unital map passes the unit row
            assert routed == expected_pair(algebra, algebra, m), name
            assert routed is None or routed[0] != "unit", name
            verdicts[routed is None] = verdicts.get(routed is None, 0) + 1
    assert verdicts[True] >= 300 and verdicts[False] >= 300, verdicts


def test_multiplicativity_needs_the_unit_check(dual_numbers):
    # 1 -> 1 + t, t -> 2 t is injective and multiplicative on (t, 1) and
    # (t, t), the pairs of G = [t], but not on (1, 1): only the unit row
    # tells it from a homomorphism when the map need not be unital, and
    # the unit check when it must, where verify_extension stops
    assert dual_numbers.generators == (1,)
    phi = Mat.from_columns([(F(1), F(1)), (F(0), F(2))])
    t = dual_numbers.basis_element(1)
    for y in (dual_numbers.unit, t):
        assert phi.apply(dual_numbers.multiply(t, y)) == dual_numbers.multiply(
            phi.apply(t), phi.apply(y))
    assert ref_first_unmultiplicative_pair(dual_numbers, dual_numbers, phi) == (0, 0)
    assert _first_unmultiplicative_pair(dual_numbers, dual_numbers, phi) == ("unit", 0)
    assert is_endomorphism(dual_numbers, phi, require_unital=False) == (False, ("unit", 0))
    assert is_endomorphism(dual_numbers, phi) == (False, ("unit",))
    with pytest.raises(SkewexError, match="does not send unit to unit"):
        _extension.verify_extension("derivation", dual_numbers, dual_numbers, phi,
                                    zero_vec(2), Poly.of([0, 1]), Mat.zeros(2, 2))


def moved_by_u(result, img):
    """u img - img u (derivation mode) or u img u^(-1) (automorphism mode)."""
    ext, u = result.algebra, result.u
    if result.mode == "derivation":
        return vec_sub(ext.multiply(u, img), ext.multiply(img, u))
    return ext.multiply(ext.multiply(u, img), result.u_inverse)


def twist_on(result, twist, indices):
    """Whether u realizes twist at the basis elements of the given indices."""
    return all(moved_by_u(result, result.embed.column(a)) == result.embed.apply(twist.column(a))
               for a in indices)


def test_twist_on_generators_matches_the_basis_loop(corpus, m3):
    rng = random.Random(59)
    verdicts = {}
    for source, label, result in all_extensions(corpus, m3):
        base, mode = result.base, result.mode
        embed, ext = result.embed, result.algebra
        assert _first_unmultiplicative_pair(base, ext, embed) is None, label
        assert ref_first_unmultiplicative_pair(base, ext, embed) is None, label
        if mode == "derivation":
            candidates = [d.matrix for d in derivation_space(base)]
            candidates += [m.scale(2) for m in candidates] + [Mat.zeros(base.dim, base.dim)]
        else:
            candidates = [phi.matrix for phi in sample_automorphisms(base, rng, 3)]
            candidates.append(Mat.identity(base.dim))
        for twist in candidates[:6]:
            full = twist_on(result, twist, range(base.dim))
            assert twist_on(result, twist, base.generators) == full, label
            verdicts[full] = verdicts.get(full, 0) + 1
    assert verdicts[True] >= 100 and verdicts[False] >= 300, verdicts


# -- the extension's associators -----------------------------------------------

def realized_twist(result):
    """The twist u realizes in an extension, read back through embed."""
    return Mat.from_columns([solve(result.embed, moved_by_u(result, img))
                             for img in result.embed.columns()])


def test_verifier_checks_associators_at_embedded_generators_and_u(monkeypatch, corpus, m3):
    seen = []

    def spy(integer_sc, generators):
        seen.append(list(generators))
        return _first_nonassociative_at(integer_sc, generators)

    monkeypatch.setattr(_extension, "_first_nonassociative_at", spy)
    for source, label, result in all_extensions(corpus, m3):
        expected = [result.embed.column(g) for g in result.base.generators] + [result.u]
        assert seen.pop() == expected, label
        assert not seen
    # words that fall short of the table are a rejection, before any associator
    result = next(r for _, _, r in extensions(corpus, m3) if r.p.degree > 1)
    seen.clear()
    with pytest.raises(SkewexError, match="do not generate the extension"):
        _extension.verify_extension(result.mode, result.base, result.algebra, result.embed,
                                    zero_vec(result.algebra.dim), result.p, realized_twist(result))
    assert not seen


def verifier_verdict(ext, result, twist):
    """Where verify_extension stops on the table ext with the embedding, u
    and p of result: "unit", "words", "generators" (an associator), "later"
    (a check after the associators), or None when it accepts."""
    try:
        _extension.verify_extension(result.mode, result.base, ext, result.embed, result.u,
                                    result.p, twist)
    except AssociativityFails as exc:
        return "unit" if "unit fails" in str(exc) else "generators"
    except SkewexError as exc:
        return "words" if "do not generate" in str(exc) else "later"
    return None


def test_routed_associators_match_the_full_check_on_perturbed_tables(corpus, m3):
    rng = random.Random(4099)
    verdicts = {}
    for source, label, result in all_extensions(corpus, m3):
        twist = realized_twist(result)
        assert verifier_verdict(result.algebra, result, twist) is None, label
        for _ in range(3 if result.algebra.dim <= 16 else 1):
            broken = perturbed(result.algebra, rng)
            full = full_route(broken)
            routed = verifier_verdict(broken, result, twist)
            if routed in (None, "later"):
                # passing the associators is a proof of associativity
                assert full is None, label
            verdicts[full, routed] = verdicts.get((full, routed), 0) + 1
    # words that stop spanning, where a perturbation made embed(G) and u stop
    # generating, are a rejection whether or not the table is associative
    assert set(verdicts) <= {("UnitFails", "unit"), ("NotAssociative", "generators"),
                             ("NotAssociative", "words"), (None, "words"),
                             (None, "later"), (None, None)}, verdicts
    assert verdicts[("NotAssociative", "generators")] >= 200, verdicts
    assert verdicts[("UnitFails", "unit")] >= 250, verdicts


def test_verify_extension_alone_rejects_tables_missing_a_relation(monkeypatch, corpus, m3):
    """Every table from a relation submodule missing one vector is built
    without complaint and rejected by verify_extension: by the associators,
    or on the M_3 pair by the word span, which runs first.  The checks after
    the associators assume an associative table: run without the
    associators, they accept some of these tables and reject others with
    messages of their own.  The embedding check is never among them, since
    the table keeps the base as its leading block whatever relations it is
    given (test_extension_verifier exercises that check)."""
    unchecked = {}
    for label, mode, algebra, twist, p in [*annihilating_corpus_cases(corpus), *fuzz_cases(),
                                           *m3_pair(m3)]:
        xpow, beta = integer_tables(mode, twist, p)
        relations = _extension.relation_submodule(algebra, p, xpow, beta)
        if not relations.dim:
            continue
        smaller = span(relations.basis[1:], relations.ambient_dim)
        ext, embed, u = _extension.quotient_by_relations(algebra, p, xpow, beta, smaller)
        with pytest.raises(SkewexError) as caught:
            _extension.verify_extension(mode, algebra, ext, embed, u, p, twist.matrix)
        if label.startswith("m3/"):
            assert type(caught.value) is SkewexError, label
            assert "do not generate the extension" in str(caught.value), label
        else:
            assert type(caught.value) is AssociativityFails, label
            assert "associativity fails on" in str(caught.value), label
        with monkeypatch.context() as patch:
            patch.setattr(_extension, "_first_nonassociative_at", lambda *args: None)
            try:
                _extension.verify_extension(mode, algebra, ext, embed, u, p, twist.matrix)
                outcome = "accepted"
            except AssociativityFails:
                outcome = "unit"
            except SkewexError as exc:
                outcome = str(exc)
        unchecked[outcome] = unchecked.get(outcome, 0) + 1
    assert unchecked.get("accepted", 0) >= 10, unchecked
    assert sum(unchecked.values()) - unchecked["accepted"] >= 10, unchecked
    assert "unit" not in unchecked and "embedding is not multiplicative" not in unchecked, \
        unchecked


def test_generators_are_found_without_fraction_arithmetic(monkeypatch):
    counts = {}

    def counting(name, method):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return method(*args)
        return wrapper

    algebras = [matrix_algebra(3), poly_quotient(Poly.of([F(1, 2), F(-3, 4), 1]))]
    with monkeypatch.context() as patch:
        for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                     "__truediv__", "__rtruediv__"):
            patch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
        found = [algebra.generators for algebra in algebras]
    assert counts == {}
    assert found == [(0, 1, 2, 3, 6), (1,)]
