"""Differential tests of the integer matrix kernel against the Fraction code.

The reference functions below are Mat's product, matrix-vector product and
power, Poly.eval_matrix, the endomorphism and derivation certificates and
the product-rule system of derivation_space as they were before they moved
to the integer form (L, A) of a matrix.  The library must agree with them
exactly on seeded random matrices (with denominators, zero rows and
columns, empty and non-square shapes), on the maps of the test corpus and on
explorer maps after a basis change.  The certificates check the pairs
(x, e_j) for x the unit and then e_g, g in Algebra.generators, rather than
every basis pair: their verdicts must be those of the loops over all basis
pairs, and each witness the first pair in that order at which the identity
fails in Fractions.  A test makes sure that the certificates and the
nilpotency test do no Fraction arithmetic.

A Mat is stored as its integer form (L, A).  Its sums, differences,
negation, scalings, products, powers, inverse, reduced echelon form, trace
and minimal polynomial must hold exactly the Fraction results, with the
form (L, L M) for L the lcm of the denominators, on random matrices, on
corpus and explorer maps, and on the slot maps of explorer recipes; the
products and basis changes of recipes must give the algebras that
make_algebra builds from the dense Fraction tables.  Equal matrices built
by different routes must be equal and hash equal, and a Fraction.__new__
counter shows which integer routes make no Fraction.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from skewex.algebra import (
    change_of_basis,
    cyclic_group_algebra,
    direct_product,
    make_algebra,
    matrix_algebra,
)
from skewex.errors import DimensionMismatch
from skewex.explorer import random_basis_change, random_recipe
from skewex.laurent import laurent_quotient
from skewex.linalg import (
    ONE,
    ZERO,
    Mat,
    Poly,
    inverse,
    is_nilpotent,
    kernel,
    minimal_polynomial,
    rref,
)
from skewex.maps import (
    _first_unmultiplicative_pair,
    derivation_space,
    inner_automorphism,
    inner_derivation,
    is_derivation,
    is_endomorphism,
)
from skewex.ore import ore_quotient
from skewex.sampling import nilpotent_derivations, sample_automorphisms, slot_endomorphism

F = Fraction


# -- reference code ----------------------------------------------------------

def ref_apply(m, v):
    if len(v) != m.cols:
        raise DimensionMismatch(f"expected length {m.cols}, got {len(v)}")
    return tuple(sum((r[j] * v[j] for j in range(m.cols) if v[j]), ZERO) for r in m.entries)


def ref_mul(a, b):
    if a.cols != b.rows:
        raise DimensionMismatch("inner dimensions differ")
    bt = list(zip(*b.entries)) if b.entries else []
    grid = tuple(
        tuple(sum((r[k] * col[k] for k in range(a.cols) if r[k]), ZERO) for col in bt)
        for r in a.entries
    )
    return Mat.from_entries(a.rows, b.cols, grid)


def ref_power(m, k):
    if m.rows != m.cols:
        raise DimensionMismatch("power of a non-square matrix")
    result = None
    base = m
    while k:
        if k & 1:
            result = base if result is None else ref_mul(result, base)
        k >>= 1
        if k:
            base = ref_mul(base, base)
    return Mat.identity(m.rows) if result is None else result


def ref_eval_matrix(p, m):
    acc = Mat.zeros(m.rows, m.cols)
    ident = Mat.identity(m.rows)
    for c in reversed(p.coeffs):
        acc = ref_mul(acc, m) + ident.scale(c)
    return acc


def ref_multiply(algebra, x, y):
    """x y summed over the dense Fraction structure constants."""
    out = [ZERO] * algebra.dim
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            if a and b:
                ab = a * b
                for k, c in enumerate(algebra.sc[i][j]):
                    if c:
                        out[k] += ab * c
    return tuple(out)


def ref_is_derivation(algebra, m):
    images = m.columns()
    for i in range(algebra.dim):
        ei = algebra.basis_element(i)
        for j in range(algebra.dim):
            ej = algebra.basis_element(j)
            lhs = ref_apply(m, algebra.sc[i][j])
            rhs = tuple(x + y for x, y in zip(ref_multiply(algebra, images[i], ej),
                                              ref_multiply(algebra, ei, images[j])))
            if lhs != rhs:
                return False, (i, j)
    return True, None


def ref_first_unmultiplicative_pair(source, target, m):
    images = m.columns()
    for i in range(source.dim):
        for j in range(source.dim):
            if ref_apply(m, source.sc[i][j]) != ref_multiply(target, images[i], images[j]):
                return i, j
    return None


def ref_product_rule_fails(algebra, m, x, y):
    """Whether D(x y) != D(x) y + x D(y) for D = m, in Fractions."""
    rhs = tuple(a + b for a, b in zip(ref_multiply(algebra, ref_apply(m, x), y),
                                      ref_multiply(algebra, x, ref_apply(m, y))))
    return ref_apply(m, ref_multiply(algebra, x, y)) != rhs


def ref_unmultiplicative(source, target, m, x, y):
    """Whether m(x y) != m(x) m(y), in Fractions."""
    return ref_apply(m, ref_multiply(source, x, y)) != ref_multiply(target, ref_apply(m, x),
                                                                     ref_apply(m, y))


def generator_order_witness(algebra, fails):
    """The first pair (x, e_j) at which fails(x, e_j), for x the unit, named
    "unit", and then e_g, g in the algebra's generators, named g; or None."""
    rows = [("unit", algebra.unit)] + [(g, algebra.basis_element(g)) for g in algebra.generators]
    for name, x in rows:
        for j in range(algebra.dim):
            if fails(x, algebra.basis_element(j)):
                return name, j
    return None


def expected_derivation_verdict(algebra, m):
    """ref_is_derivation's verdict with the witness in the certificate's order."""
    ok, _ = ref_is_derivation(algebra, m)
    witness = generator_order_witness(
        algebra, lambda x, y: ref_product_rule_fails(algebra, m, x, y))
    assert ok == (witness is None)
    return ok, witness


def expected_pair(source, target, m):
    """ref_first_unmultiplicative_pair's verdict with the witness in the
    certificate's order."""
    full = ref_first_unmultiplicative_pair(source, target, m)
    witness = generator_order_witness(
        source, lambda x, y: ref_unmultiplicative(source, target, m, x, y))
    assert (full is None) == (witness is None)
    return witness


def expected_endomorphism_verdict(algebra, m, require_unital=True):
    """ref_is_endomorphism's verdict with the witness in the certificate's order."""
    ok, witness = ref_is_endomorphism(algebra, m, require_unital)
    if witness != ("unit",):
        witness = expected_pair(algebra, algebra, m)
        assert ok == (witness is None)
    return ok, witness


def ref_is_endomorphism(algebra, m, require_unital=True):
    if require_unital and ref_apply(m, algebra.unit) != algebra.unit:
        return False, ("unit",)
    pair = ref_first_unmultiplicative_pair(algebra, algebra, m)
    return pair is None, pair


def ref_derivation_space(algebra):
    """The kernel basis of the product-rule system assembled in Fractions."""
    n = algebra.dim
    rows = []
    for i in range(n):
        for j in range(n):
            prod = algebra.sc[i][j]
            for k in range(n):
                row = [ZERO] * (n * n)
                for c in range(n):
                    if prod[c]:
                        row[k * n + c] += prod[c]
                for r in range(n):
                    coeff = algebra.sc[r][j][k]
                    if coeff:
                        row[r * n + i] -= coeff
                    coeff = algebra.sc[i][r][k]
                    if coeff:
                        row[r * n + j] -= coeff
                rows.append(row)
    null = kernel(Mat.from_rows(rows))
    return [Mat.from_rows([[v[r * n + c] for c in range(n)] for r in range(n)])
            for v in null.basis]


# -- inputs ------------------------------------------------------------------

def fresh(m):
    """The same matrix, rebuilt from its Fraction entries."""
    return Mat.from_entries(m.rows, m.cols, m.entries)


def random_matrix(rng, rows, cols):
    def entry():
        if rng.random() < 0.4:
            return ZERO
        return F(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 4, 6, 35)))

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    if rows and rng.random() < 0.3:
        grid[rng.randrange(rows)] = [ZERO] * cols
    if cols and rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in grid:
            row[j] = ZERO
    return Mat.from_entries(rows, cols, tuple(map(tuple, grid)))


def random_poly(rng):
    if rng.random() < 0.1:
        return Poly.zero()
    return Poly.of([F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(1, 5))])


def scale_of(m):
    return m.integer_form[0]


def perturbed(rng, m):
    """m with one entry moved by a small rational."""
    rows = [list(r) for r in m.entries]
    r, c = rng.randrange(m.rows), rng.randrange(m.cols)
    rows[r][c] += F(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
    return Mat.from_rows(rows)


def explorer_algebras(seeds=range(24)):
    """Seeded explorer products of dimension <= 4, each after a basis change."""
    out = []
    for seed in seeds:
        rng = random.Random(seed)
        algebra = random_basis_change(random_recipe(rng, 4).algebra, rng)
        out.append((f"explore{seed}", algebra, rng))
    return out


def corpus_and_explorer(corpus):
    out = [(name, algebra, random.Random(len(name))) for name, algebra in corpus.items()
           if algebra.dim <= 4]
    return out + explorer_algebras()


# -- matrices ----------------------------------------------------------------

def test_products_powers_and_polynomials_match_fraction_code():
    rng = random.Random(2024)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 5), (6, 1)]
    scaled = 0
    for _ in range(40):
        for rows, cols in shapes:
            a = random_matrix(rng, rows, cols)
            v = tuple(random_matrix(rng, 1, cols).entries[0]) if cols else ()
            assert a.apply(v) == ref_apply(a, v)
            for inner in (0, 1, 3):
                b = random_matrix(rng, cols, inner)
                if rows and cols == 0 and inner:
                    # the Fraction product left rows of length 0 here
                    assert a * b == Mat.zeros(rows, inner)
                else:
                    assert a * b == ref_mul(a, b), (rows, cols, inner)
            with pytest.raises(DimensionMismatch):
                _ = a * random_matrix(rng, cols + 1, 2)
            p = random_poly(rng)
            if rows == cols:
                for k in range(6):
                    assert fresh(a).power(k) == ref_power(a, k), (rows, k)
                assert p.eval_matrix(a) == ref_eval_matrix(p, a), (rows, p)
                assert is_nilpotent(a) == ref_power(a, rows).is_zero()
                scaled += scale_of(a) > 1
            else:
                with pytest.raises(DimensionMismatch):
                    a.power(2)
                if p.is_zero():
                    assert p.eval_matrix(a) == ref_eval_matrix(p, a)
                else:
                    with pytest.raises(DimensionMismatch):
                        p.eval_matrix(a)
                    with pytest.raises(DimensionMismatch):
                        ref_eval_matrix(p, a)
    assert scaled > 50


def test_nilpotency_matches_fraction_powers():
    rng = random.Random(31)
    verdicts = set()
    for _ in range(120):
        n = rng.randint(1, 5)
        upper = Mat.from_rows([[F(rng.randint(-3, 3), rng.randint(1, 3)) if c > r else 0
                                for c in range(n)] for r in range(n)])
        t = random_matrix(rng, n, n)
        if inverse(t) is None:
            continue
        for m in (inverse(t) * upper * t, upper + Mat.identity(n).scale(F(1, 5)),
                  random_matrix(rng, n, n)):
            verdict = is_nilpotent(fresh(m))
            assert verdict == ref_power(m, n).is_zero()
            verdicts.add(verdict)
    assert verdicts == {True, False}


# -- certificates --------------------------------------------------------------

def witness_kind(witness):
    """None, ("unit",), "unit row" for ("unit", j) or "pair" for (g, j)."""
    if witness is None or witness == ("unit",):
        return witness
    return "unit row" if witness[0] == "unit" else "pair"


def check_certificates(algebra, m, witnesses):
    for unital in (True, False):
        got = is_endomorphism(algebra, fresh(m), unital)
        assert got == expected_endomorphism_verdict(algebra, m, unital)
        witnesses.add(("endo", witness_kind(got[1])))
    got = is_derivation(algebra, fresh(m))
    assert got == expected_derivation_verdict(algebra, m)
    witnesses.add(("derivation", witness_kind(got[1])))
    return got


def certificate_inputs(algebra, rng):
    """Certified maps of the algebra, their perturbations and random matrices."""
    maps = [d.matrix for d in derivation_space(algebra)]
    maps += [phi.matrix for phi in sample_automorphisms(algebra, rng, 4)]
    maps += [perturbed(rng, m) for m in list(maps)]
    maps += [random_matrix(rng, algebra.dim, algebra.dim) for _ in range(2)]
    return maps


def test_certificates_match_fraction_code(corpus):
    witnesses = set()
    pairs = set()
    scaled_endomorphisms = 0
    for name, algebra, rng in corpus_and_explorer(corpus):
        for m in certificate_inputs(algebra, rng):
            check_certificates(algebra, m, witnesses)
            ok, pair = is_endomorphism(algebra, m, False)
            pairs.add(pair)
            scaled_endomorphisms += ok and scale_of(m) > 1
    assert witnesses == {("endo", None), ("endo", ("unit",)), ("endo", "unit row"),
                         ("endo", "pair"), ("derivation", None), ("derivation", "unit row"),
                         ("derivation", "pair")}
    # witnesses away from the first row and column were reached
    assert any(witness_kind(p) == "pair" and min(p) > 0 for p in pairs)
    # the factor L of the endomorphism comparison matters on these maps
    assert scaled_endomorphisms >= 10


def test_certificates_on_m3_maps(corpus):
    m3 = corpus["m3"]
    rng = random.Random(3)
    u = tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(9))
    witnesses = set()
    for m in (inner_derivation(m3, u).matrix, inner_automorphism(m3, m3.unit).matrix):
        check_certificates(m3, m, witnesses)
        check_certificates(m3, perturbed(rng, m), witnesses)
    assert ("derivation", "pair") in witnesses


def test_homomorphisms_between_algebras_match_fraction_code(corpus):
    """The multiplicativity pass of the extension verifier: embeddings into
    extensions, and the maps between an algebra and its basis change, whose
    structure constants have other scales."""
    rng = random.Random(77)
    cases = []
    for name in ("dual", "jet2", "ut2", "m2"):
        algebra = corpus[name]
        d = derivation_space(algebra)[-1]
        result = ore_quotient(algebra, d)
        cases.append((algebra, result.algebra, result.embed))
        phi = sample_automorphisms(algebra, random.Random(5), 2)[-1]
        result = laurent_quotient(algebra, phi)
        cases.append((algebra, result.algebra, result.embed))
        t = Mat.from_rows([[F(rng.randint(-2, 2), rng.randint(1, 3)) if r != c else ONE
                            for c in range(algebra.dim)] for r in range(algebra.dim)])
        if inverse(t) is not None:
            changed = change_of_basis(algebra, t)
            cases += [(changed, algebra, t), (algebra, changed, inverse(t))]
    found = set()
    for source, target, m in cases:
        for n in (m, perturbed(rng, m)):
            got = _first_unmultiplicative_pair(source, target, fresh(n))
            assert got == expected_pair(source, target, n)
            found.add(got is None)
    assert found == {True, False}
    assert any(s.integer_sc[0] != t.integer_sc[0] for s, t, _ in cases)


def test_derivation_space_matches_fraction_system(corpus):
    algebras = list(corpus.items()) + [(name, a) for name, a, _ in explorer_algebras()]
    algebras.append(("c4", cyclic_group_algebra(4)))
    for name, algebra in algebras:
        assert [d.matrix for d in derivation_space(algebra)] == ref_derivation_space(algebra), name


# -- no Fraction arithmetic -----------------------------------------------------

def test_certificates_and_nilpotency_do_no_fraction_arithmetic(monkeypatch):
    m2 = matrix_algebra(2)
    u = (F(1, 2), F(-2, 3), F(5, 7), F(3, 4))
    d = inner_derivation(m2, u).matrix
    phi = inner_automorphism(m2, (F(2), F(1, 3), ZERO, F(-1, 5))).matrix
    nilpotent = Mat.from_rows([[F(1, 2), F(-1, 4)], [1, F(-1, 2)]])
    counts = {"mul": 0, "add": 0}

    def counting(name, method):
        def wrapper(a, b):
            counts[name] += 1
            return method(a, b)
        return wrapper

    monkeypatch.setattr(Fraction, "__mul__", counting("mul", Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__add__", counting("add", Fraction.__add__))
    assert Fraction(1, 2) * Fraction(1, 3) + Fraction(1) == Fraction(7, 6)
    assert counts == {"mul": 1, "add": 1}
    counts.update(mul=0, add=0)

    assert is_nilpotent(fresh(nilpotent))
    assert not is_nilpotent(fresh(phi))
    assert is_derivation(m2, fresh(d)) == (True, None)
    assert is_derivation(m2, fresh(phi))[0] is False
    assert is_endomorphism(m2, fresh(phi)) == (True, None)
    assert is_endomorphism(m2, fresh(d), False)[0] is False
    assert counts == {"mul": 0, "add": 0}


# -- the stored integer form -----------------------------------------------------

def ref_grid(m):
    return [list(row) for row in m.entries]


def ref_combine(a, b, sign):
    return [[x + sign * y for x, y in zip(r, s)] for r, s in zip(a.entries, b.entries)]


def ref_gauss(rows):
    """Gauss-Jordan in Fractions, in place; returns the pivot columns."""
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def ref_inverse_grid(m):
    n = m.rows
    rows = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(m.entries)]
    if ref_gauss(rows)[:n] != list(range(n)):
        return None
    return [r[n:] for r in rows]


def ref_minimal_polynomial(m):
    """The first power M^k that is a combination of I .. M^(k-1), all in Fractions."""
    n = m.rows
    powers = [[x for row in ref_power(m, k).entries for x in row] for k in range(n + 1)]
    for k in range(n + 1):
        rows = [[p[i] for p in powers[:k]] + [powers[k][i]] for i in range(n * n)]
        pivots = ref_gauss(rows)
        if k not in pivots:
            coeffs = [ZERO] * k
            for r, c in enumerate(pivots):
                coeffs[c] = -rows[r][-1]
            return Poly.of(coeffs + [ONE])
    raise AssertionError("no relation among the first n + 1 powers")


def assert_holds(m, grid, rows, cols):
    """m is the rows x cols matrix grid: its Fraction view is grid, and its
    stored form is (L, L grid) for L the lcm of grid's denominators."""
    scale = lcm(*(x.denominator for row in grid for x in row))
    assert (m.rows, m.cols) == (rows, cols)
    assert m.integer_form == (scale, tuple(tuple(int(x * scale) for x in row) for row in grid))
    assert m.entries == tuple(map(tuple, grid))


def check_stored_form(rng, a, b):
    """Every operation on two matrices of one shape against the Fraction code."""
    rows, cols = a.rows, a.cols
    assert_holds(a, ref_grid(a), rows, cols)
    assert_holds(a + b, ref_combine(a, b, 1), rows, cols)
    assert_holds(a - b, ref_combine(a, b, -1), rows, cols)
    assert_holds(-a, [[-x for x in row] for row in a.entries], rows, cols)
    for c in (0, F(-3, 4), 5):
        assert_holds(a.scale(c), [[c * x for x in row] for row in a.entries], rows, cols)
    reduced, pivots, rank = rref(a)
    grid = ref_grid(a)
    assert (pivots, rank) == (ref_gauss(grid), len(pivots))
    assert_holds(reduced, grid, rows, cols)
    v = tuple(random_matrix(rng, 1, cols).entries[0]) if cols else ()
    assert a.apply(v) == ref_apply(a, v)
    c = random_matrix(rng, cols, 2)
    # the Fraction product leaves rows of length 0 when a has no columns
    product = ref_grid(ref_mul(a, c)) if cols else [[ZERO] * 2 for _ in range(rows)]
    assert_holds(a * c, product, rows, 2)
    if rows != cols:
        return
    assert a.trace() == sum((a.entries[i][i] for i in range(rows)), ZERO)
    for k in (0, 1, 3):
        assert_holds(a.power(k), ref_grid(ref_power(a, k)), rows, rows)
    grid = ref_inverse_grid(a)
    got = inverse(a)
    assert (got is None) == (grid is None)
    if got is not None:
        assert_holds(got, grid, rows, rows)
    assert minimal_polynomial(a) == ref_minimal_polynomial(a)


def test_stored_form_matches_fraction_code_on_random_matrices():
    rng = random.Random(4099)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 3), (3, 2), (3, 3), (4, 4)]
    inverted = 0
    for _ in range(30):
        for rows, cols in shapes:
            a = random_matrix(rng, rows, cols)
            check_stored_form(rng, a, random_matrix(rng, rows, cols))
            check_stored_form(rng, a, a)
            inverted += rows == cols and rows > 0 and inverse(a) is not None
    assert inverted > 20


def test_stored_form_matches_fraction_code_on_corpus_and_explorer_maps(corpus):
    for name, algebra, rng in corpus_and_explorer(corpus):
        maps = [d.matrix for d in derivation_space(algebra)]
        maps += [phi.matrix for phi in sample_automorphisms(algebra, rng, 3)]
        for a, b in zip(maps, maps[1:] + maps[:1]):
            check_stored_form(rng, a, b)


def ref_slot_endomorphism(recipe, sources, block_maps):
    n = recipe.algebra.dim
    grid = [[ZERO] * n for _ in range(n)]
    for j, (src, psi) in enumerate(zip(sources, block_maps)):
        for r, row in enumerate(psi.entries):
            for c, x in enumerate(row):
                grid[recipe.offsets[j] + r][recipe.offsets[src] + c] = x
    return grid


def ref_direct_product(a, b):
    """The product algebra built from the dense Fraction tables."""
    dim = a.dim + b.dim
    sc = [[(ZERO,) * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(a.dim):
        for j in range(a.dim):
            sc[i][j] = tuple(a.sc[i][j]) + (ZERO,) * b.dim
    for i in range(b.dim):
        for j in range(b.dim):
            sc[a.dim + i][a.dim + j] = (ZERO,) * a.dim + tuple(b.sc[i][j])
    labels = [f"({lab},0)" for lab in a.labels] + [f"(0,{lab})" for lab in b.labels]
    return make_algebra(dim, sc, tuple(a.unit) + tuple(b.unit), labels)


def ref_change_of_basis(algebra, t):
    """The basis change with the products and coordinates taken in Fractions."""
    n = algebra.dim
    t_inv = Mat.from_entries(n, n, ref_inverse_grid(t))
    columns = [t.column(j) for j in range(n)]
    sc = [[ref_apply(t_inv, ref_multiply(algebra, x, y)) for y in columns] for x in columns]
    return make_algebra(n, sc, ref_apply(t_inv, algebra.unit), [f"b{i}" for i in range(n)])


def same_algebra(got, want):
    assert (got.dim, got.labels, got.unit) == (want.dim, want.labels, want.unit)
    assert got.integer_sc == want.integer_sc
    assert got.sc == want.sc
    assert got.generators == want.generators


def test_trial_algebras_and_slot_maps_match_fraction_code():
    """Explorer recipes: their products, basis changes and slot maps."""
    slots = changed = 0
    for seed in range(40):
        rng = random.Random(seed)
        recipe = random_recipe(rng, 5)
        want = recipe.blocks[0]
        for block in recipe.blocks[1:]:
            want = ref_direct_product(want, block)
        same_algebra(recipe.algebra, want)
        t = Mat.from_rows([[rng.randint(-2, 2) for _ in range(want.dim)] for _ in range(want.dim)])
        if inverse(t) is not None:
            same_algebra(change_of_basis(recipe.algebra, t), ref_change_of_basis(want, t))
            changed += 1
        else:
            with pytest.raises(ValueError):
                change_of_basis(recipe.algebra, t)
        for _ in range(3):
            sources = [rng.choice([i for i, other in enumerate(recipe.blocks)
                                   if other.sc == blk.sc]) for blk in recipe.blocks]
            block_maps = [rng.choice(recipe.slot_maps[src]) for src in sources]
            m = slot_endomorphism(recipe, sources, block_maps)
            n = recipe.algebra.dim
            assert_holds(m, ref_slot_endomorphism(recipe, sources, block_maps), n, n)
            slots += any(src != j for j, src in enumerate(sources))
    assert slots > 5 and changed > 10


def test_equal_matrices_from_different_routes_are_equal_and_hash_equal():
    m = Mat.from_rows([[1, 2], [3, 4]])
    half = Mat.from_rows([[F(1, 2), 1], [F(3, 2), 2]])
    routes = [
        half,
        m.scale(F(1, 2)),
        (m + m).scale(F(1, 4)),
        m * Mat.identity(2).scale(F(1, 2)),
        Mat.identity(2).scale(F(1, 2)) * m,
        inverse(inverse(half)),
        -(-half),
        half - Mat.zeros(2, 2),
        Mat.from_columns([(F(1, 2), F(3, 2)), (ONE, F(2))]),
        Mat.from_entries(2, 2, ((F(2, 4), F(3, 3)), (F(6, 4), F(8, 4)))),
        Mat._from_integers([[2, 4], [6, 8]], 2, 4),
        Mat._from_integers([[3, 6], [9, 12]], 2, 6),
    ]
    assert all(r == half for r in routes)
    assert {hash(r) for r in routes} == {hash(half)}
    assert len(set(routes)) == 1
    assert all(r.integer_form == (2, ((1, 2), (3, 4))) for r in routes)
    thirds = Mat.from_rows([[F(1, 3), F(-1, 6)], [0, F(5, 7)]])
    zeros = [Mat.zeros(2, 2), thirds - thirds, thirds.scale(0), thirds * Mat.zeros(2, 2),
             Mat._from_integers([[0, 0], [0, 0]], 2, 42), Mat.from_rows([[0, 0], [0, 0]])]
    assert len(set(zeros)) == 1
    assert all(z.integer_form == (1, ((0, 0), (0, 0))) and z.is_zero() for z in zeros)
    assert Mat.zeros(0, 3) != Mat.zeros(3, 0)
    assert half != m and hash(half) != hash(m)


def test_integer_matrix_routes_make_no_fraction(monkeypatch):
    """identity, products, powers, inverse, the trial algebras, the slot maps
    and the derivation samplers make no Fraction; a basis change makes only
    its new unit."""
    rng = random.Random(8)
    recipes = []
    while len(recipes) < 2:
        recipe = random_recipe(rng, 5)
        if len(recipe.blocks) > 1:
            recipes.append(recipe)
    m = Mat.from_rows([[F(1, 2), F(-1, 3), 0], [2, F(5, 4), 1], [0, F(1, 6), F(7, 2)]])
    t = Mat.from_rows([[1, 2, 0, -1], [0, 1, 1, 0], [F(1, 2), 0, 1, 0], [0, 0, 0, 3]])
    m2, c3 = matrix_algebra(2), cyclic_group_algebra(3)
    made = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    assert Fraction(1, 2) and len(made) == 1
    made.clear()

    assert Mat.identity(4).integer_form[0] == 1
    assert (m * m).power(3) * m.power(0) == m.power(6)
    assert inverse(m) * m == Mat.identity(3)
    assert direct_product(m2, c3).dim == 7
    assert len(derivation_space(m2)) == 3
    assert nilpotent_derivations(m2, random.Random(1), 3)
    for recipe in recipes:
        sources = list(range(len(recipe.blocks)))
        slot_endomorphism(recipe, sources, [maps[-1] for maps in recipe.slot_maps])
    assert made == []
    changed = change_of_basis(m2, t)
    # only the new unit, t^-1 applied to the old one, is made of Fractions
    assert 0 < len(made) <= sum(1 for x in changed.unit if x)
