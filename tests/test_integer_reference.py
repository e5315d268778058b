"""Differential tests of the integer exact core against the Fraction code.

The reference functions below are the rational Gauss-Jordan elimination, the
Subspace residual and the absorption loops the library used before its exact
core moved to integers.  rref, solve, inverse, kernel, span, intersect,
contains, reduce, is_ideal and the absorption check of the free-model
oracle's quotient_by_relations must agree with them exactly, on seeded random matrices and on the systems
and extensions of the test corpus.  f(phi) for a scalar Laurent polynomial f
must equal its Fraction sum of scaled powers.
"""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from free_model_oracle import free_model, quotient_by_relations, rational_xpow
from skewex import _extension, maps
from skewex._extension import poly_of_element
from skewex.algebra import (
    _first_unabsorbed,
    ideal_closure,
    is_ideal,
    radical,
    subalgebra_generated,
)
from skewex.errors import AssociativityFails, SkewexError
from skewex.laurent import _scalar_poly_at, laurent_quotient
from skewex.linalg import (
    ONE,
    ZERO,
    Mat,
    Poly,
    _divisors,
    _integer_rref,
    full_space,
    inverse,
    kernel,
    rref,
    solve,
    span,
    unit_vec,
    zero_subspace,
    zero_vec,
)
from skewex.maps import derivation_space
from skewex.ore import ore_quotient
from skewex.sampling import random_element, sample_automorphisms

F = Fraction


# -- reference code ----------------------------------------------------------

def ref_rref_rows(rows):
    """In-place Gauss-Jordan in Fractions; returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        lead = rows[r]
        for i in range(len(rows)):
            if i == r:
                continue
            f = rows[i][c]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], lead)]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_rref(m):
    rows, pivots = ref_rref_rows([list(r) for r in m.entries])
    return Mat.from_entries(m.rows, m.cols, tuple(tuple(r) for r in rows)), pivots, len(pivots)


def ref_solve(m, b):
    rows, pivots = ref_rref_rows([list(r) + [b[i]] for i, r in enumerate(m.entries)])
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][-1]
    return tuple(x)


def ref_inverse(m):
    if m.rows != m.cols:
        return None
    n = m.rows
    rows = [list(r) + list(unit_vec(i, n)) for i, r in enumerate(m.entries)]
    rows, pivots = ref_rref_rows(rows)
    if pivots[:n] != list(range(n)):
        return None
    return Mat.from_entries(n, n, tuple(tuple(r[n:]) for r in rows[:n]))


def ref_span_basis(vectors, n):
    rows, pivots = ref_rref_rows([list(v) for v in vectors if any(v)])
    return tuple(tuple(r) for r in rows[: len(pivots)])


def ref_kernel_basis(m):
    reduced, pivots, _ = ref_rref(m)
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [ZERO] * m.cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced.entries[r][f]
        basis.append(tuple(v))
    return ref_span_basis(basis, m.cols)


def ref_intersect_basis(a, b):
    n = a.ambient_dim
    block = [list(v) + list(v) for v in a.basis] + [list(v) + [ZERO] * n for v in b.basis]
    rows, _ = ref_rref_rows(block)
    inter = [tuple(r[n:]) for r in rows if all(x == 0 for x in r[:n]) and any(r[n:])]
    return ref_span_basis(inter, n)


def echelon_rows(subspace):
    """(pivot, nonzero (column, entry) pairs) of each basis row."""
    rows = ([(j, x) for j, x in enumerate(row) if x] for row in subspace.basis)
    return [(entries[0][0], entries) for entries in rows]


def ref_residual(subspace, v, rows=None):
    """Subspace._residual: eliminate v against each echelon row in turn."""
    residual = list(v)
    for p, entries in rows or echelon_rows(subspace):
        f = residual[p]
        if f:
            for j, y in entries:
                residual[j] -= f * y
    return residual


def ref_contains(subspace, v, rows=None):
    return all(x == 0 for x in ref_residual(subspace, v, rows))


def ref_first_unabsorbed(multiply, subspace, dim):
    """The absorption loop of quotient_by_relations and is_ideal: a product,
    then a membership test, per (basis row, basis element) and side."""
    rows = echelon_rows(subspace)
    for index, v in enumerate(subspace.basis):
        for r in range(dim):
            basis_vec = unit_vec(r, dim)
            if not ref_contains(subspace, multiply(basis_vec, v), rows):
                return index, r, "left"
            if not ref_contains(subspace, multiply(v, basis_vec), rows):
                return index, r, "right"
    return None


# -- inputs ------------------------------------------------------------------

def random_matrix(rng):
    """A seeded matrix of 0-8 rows by 0-10 columns in one of several shapes."""
    kind = rng.choice(("dense", "sparse", "deficient", "square", "height"))
    rows = rng.randint(0, 8)
    cols = rows if kind == "square" else rng.randint(0, 10)

    def entry():
        if kind == "height":
            return F(rng.randint(-10 ** 18, 10 ** 18), rng.randint(1, 10 ** 12))
        if rng.random() < (0.6 if kind == "sparse" else 0.15):
            return ZERO
        return F(rng.randint(-9, 9), rng.randint(1, 7))

    grid = [[entry() for _ in range(cols)] for _ in range(rows)]
    if kind in ("deficient", "square") and rows >= 2 and rng.random() < 0.7:
        # later rows as rational combinations of the first few: rank deficient
        keep = rng.randint(1, rows - 1)
        for i in range(keep, rows):
            coeffs = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(keep)]
            grid[i] = [sum((c * grid[k][j] for k, c in enumerate(coeffs)), ZERO)
                       for j in range(cols)]
    if rows >= 2 and rng.random() < 0.3:
        grid[rng.randrange(rows)] = [ZERO] * cols
    if rows >= 2 and rng.random() < 0.3:
        grid[rng.randrange(rows)] = list(grid[rng.randrange(rows)])
    rng.shuffle(grid)
    return Mat.from_entries(rows, cols, tuple(tuple(r) for r in grid))


def probes(rng, subspace, count=6):
    """Members (combinations of the basis) and random vectors of the ambient space."""
    n = subspace.ambient_dim
    out = [tuple(F(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n))
           for _ in range(count)]
    for _ in range(count):
        v = [ZERO] * n
        for row in subspace.basis:
            c = F(rng.randint(-4, 4), rng.randint(1, 5))
            v = [x + c * y for x, y in zip(v, row)]
        out.append(tuple(v))
    return out


def check_matrix(m, rng):
    """Every entry point of the kernel against the reference on one matrix."""
    reduced, pivots, rank = rref(m)
    assert (reduced, pivots, rank) == ref_rref(m)
    b = tuple(F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(m.rows))
    assert solve(m, b) == ref_solve(m, b)
    if m.cols:
        column = m.column(rng.randrange(m.cols))
        assert solve(m, column) == ref_solve(m, column)
    assert inverse(m) == ref_inverse(m)
    null = kernel(m)
    assert null.basis == ref_kernel_basis(m)
    rows = span(list(m.entries), m.cols)
    assert rows.basis == ref_span_basis(m.entries, m.cols)
    other = span(probes(rng, null, 2)[:2] + list(m.entries[:1]), m.cols)
    for a, c in ((rows, null), (rows, other), (null, other), (other, rows)):
        assert a.intersect(c).basis == ref_intersect_basis(a, c)
    for subspace in (rows, null, other):
        for v in probes(rng, subspace) + list(m.entries):
            assert subspace.reduce(v) == tuple(ref_residual(subspace, v))
            assert subspace.contains(v) == ref_contains(subspace, v)


# -- the elimination kernel --------------------------------------------------

def test_kernel_matches_fraction_elimination_on_random_matrices():
    rng = random.Random(5150)
    ranks = set()
    for _ in range(250):
        m = random_matrix(rng)
        check_matrix(m, rng)
        ranks.add((rref(m)[2], min(m.rows, m.cols)))
    # full-rank and rank-deficient systems, and empty ones, were all reached
    assert any(r == full for r, full in ranks)
    assert any(r < full for r, full in ranks)
    assert (0, 0) in ranks


def test_kernel_matches_on_singular_and_special_matrices():
    rng = random.Random(77)
    half, third = F(1, 2), F(1, 3)
    cases = [
        Mat.from_entries(0, 0, ()),
        Mat.from_entries(0, 4, ()),
        Mat.from_entries(3, 0, ((), (), ())),
        Mat.zeros(3, 3),
        Mat.identity(4),
        Mat.from_rows([[1, 2], [2, 4]]),
        Mat.from_rows([[half, third], [3, 2]]),
        Mat.from_rows([[0, 0, 1], [0, 1, 0], [1, 0, 0]]),
        Mat.from_rows([[1, 2, 3], [1, 2, 3], [0, 0, 0], [-1, -2, -3]]),
        Mat.from_rows([[F(10 ** 30, 7), 1], [1, F(7, 10 ** 30)]]),
        Mat.from_rows([[-6, 4, 2], [9, -6, -3]]),
    ]
    for m in cases:
        check_matrix(m, rng)
    assert inverse(Mat.from_rows([[1, 2], [2, 4]])) is None


def test_integer_rows_stay_primitive():
    """The integer core keeps each row divided by its content, and dividing
    its rows by their pivots gives the reduced echelon form."""
    rng = random.Random(99)
    for _ in range(200):
        m = random_matrix(rng)
        scale = 1
        for row in m.entries:
            for x in row:
                scale = scale * x.denominator // gcd(scale, x.denominator)
        ints = [[int(x * scale) * factor for x in row]
                for row, factor in zip(m.entries, (rng.choice((1, 6, -10)) for _ in m.entries))]
        pivots = _integer_rref(ints)
        reduced, ref_pivots, _ = ref_rref(m)
        assert pivots == ref_pivots
        for i, row in enumerate(ints):
            if i < len(pivots):
                assert gcd(*row) == 1
                assert [F(x, row[pivots[i]]) for x in row] == list(reduced.entries[i])
            else:
                assert not any(row)


def derivation_systems(corpus):
    """The product-rule system of maps._leibniz_rows for every corpus algebra:
    the rows derivation_space solves unless it certifies Der(A) = 0 first."""
    return {name: Mat.from_rows(maps._leibniz_rows(algebra)) for name, algebra in corpus.items()}


def test_kernel_matches_on_corpus_derivation_systems(corpus):
    rng = random.Random(4242)
    systems = derivation_systems(corpus)
    assert set(systems) == set(corpus)
    for name, system in systems.items():
        check_matrix(system, rng)


# -- absorption --------------------------------------------------------------

def corpus_extensions(corpus, monkeypatch):
    """(name, model, relations) for every nonzero relation submodule that
    quotient_by_relations sees while the corpus extensions are built, with
    the oracle's dense free model of each."""
    seen = []
    real = _extension.quotient_by_relations

    def spy(base, p, xpow, beta, relations):
        if relations.dim:
            seen.append((current, free_model(base, p, rational_xpow(xpow, base.dim)), relations))
        return real(base, p, xpow, beta, relations)

    monkeypatch.setattr(_extension, "quotient_by_relations", spy)
    for name, algebra in corpus.items():
        current = f"{name}/derivation"
        for d in derivation_space(algebra)[:2]:
            ore_quotient(algebra, d)
        current = f"{name}/automorphism"
        # the pool starts with the identity, whose extension needs no quotient
        for phi in sample_automorphisms(algebra, random.Random(len(name)), 2)[1:]:
            laurent_quotient(algebra, phi)
    monkeypatch.undo()
    return seen


def test_absorption_matches_reference_on_corpus_extensions(corpus, monkeypatch):
    rng = random.Random(2718)
    extensions = corpus_extensions(corpus, monkeypatch)
    kinds = {name.split("/")[1] for name, _, _ in extensions}
    assert kinds == {"derivation", "automorphism"}
    raised = 0
    assert max(model.dim for _, model, _ in extensions) == 63
    for name, model, relations in extensions:
        assert _first_unabsorbed(model.integer_sc, relations) is None, name
        if model.dim <= 30:  # the Fraction loop passing the 63-dim M_3 model takes seconds
            assert ref_first_unabsorbed(model.multiply, relations, model.dim) is None, name
        stray = tuple(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(model.dim))
        candidates = [span([stray], model.dim)]
        drop = rng.randrange(relations.dim)
        candidates.append(span([v for i, v in enumerate(relations.basis) if i != drop],
                               model.dim))
        for subspace in candidates:
            expected = ref_first_unabsorbed(model.multiply, subspace, model.dim)
            assert _first_unabsorbed(model.integer_sc, subspace) == expected, name
            if expected is None:
                continue
            with pytest.raises(AssociativityFails) as caught:
                quotient_by_relations(model, subspace)
            assert str(caught.value) == str(AssociativityFails(
                f"relation submodule is not {expected[2]} absorbing")), name
            raised += 1
    assert raised >= len(extensions)


def test_is_ideal_matches_reference(corpus):
    rng = random.Random(31337)
    verdicts = set()
    for name, algebra in corpus.items():
        n = algebra.dim
        x = random_element(algebra, rng)
        candidates = [
            zero_subspace(n),
            full_space(n),
            radical(algebra),
            ideal_closure(algebra, [x]),
            ideal_closure(algebra, [x], "left"),
            ideal_closure(algebra, [x], "right"),
            subalgebra_generated(algebra, [x]),
            span([x], n),
            span([x, random_element(algebra, rng)], n),
        ]
        for subspace in candidates:
            expected = ref_first_unabsorbed(algebra.multiply, subspace, n) is None
            assert is_ideal(algebra, subspace) == expected, name
            verdicts.add(expected)
    assert verdicts == {True, False}


# -- rational roots ------------------------------------------------------------

def ref_rational_roots(p):
    """Poly.rational_roots as it was, every candidate tested by Fraction Horner."""
    if p.is_zero():
        raise ValueError("zero polynomial has every root")
    roots = []
    if p.coeff(0) == 0:
        roots.append(ZERO)
        while p.coeff(0) == 0 and p.degree >= 1:
            p = Poly.of(p.coeffs[1:])
    if p.degree < 1:
        return sorted(set(roots))
    ints = [c.numerator * (lcm(*(x.denominator for x in p.coeffs)) // c.denominator)
            for c in p.coeffs]
    lead, const = ints[-1], ints[0]
    for num in _divisors(abs(const)):
        for den in _divisors(abs(lead)):
            for cand in (Fraction(num, den), Fraction(-num, den)):
                if p.eval(cand) == 0:
                    roots.append(cand)
    return sorted(set(roots))


def test_rational_roots_match_fraction_horner():
    rng = random.Random(1618)
    polys = [Poly.of([5]), Poly.of([0, 3]), Poly.of([0, 0, 1]), Poly.of([1, 0, 1]),
             Poly.of([-4, 0, 9]), Poly.of([F(1, 2), F(-3, 4), F(1, 6)])]
    for _ in range(400):
        p = Poly.of([rng.choice([1, 2, 3, 4, 6, -1, -2, F(2, 3), F(-5, 4)])])
        for _ in range(rng.randint(0, 4)):  # rational linear factors, repeats likely
            p = p * Poly.of([rng.randint(-4, 4), rng.choice([1, 1, 2, 3, -2, 6])])
        for _ in range(rng.randint(0, 1)):  # a factor with no rational root
            p = p * Poly.of([rng.randint(1, 3), 0, rng.randint(1, 3)])
        if rng.random() < 0.3:
            p = p + Poly.of([rng.randint(-3, 3)])
        if not p.is_zero():
            polys.append(p)
    kinds = set()
    for p in polys:
        got = p.rational_roots()
        assert got == ref_rational_roots(p), p
        assert all(type(r) is Fraction for r in got)
        kinds.add((p.coeff(0) == 0, not p.is_monic(),
                   any(p.divmod(Poly.of([-r, 1]) * Poly.of([-r, 1]))[1].is_zero() for r in got)))
    # zero constant terms, non-monic leading coefficients and repeated roots
    assert all(any(kind[i] for kind in kinds) for i in range(3))
    assert any(p.rational_roots() and not p.is_monic() and p.coeff(0) != 0 for p in polys)
    with pytest.raises(ValueError):
        Poly.zero().rational_roots()


# -- the power chain of verify_extension -----------------------------------------

def ref_verify_powers(ext, u, p):
    """p(u) and, when p(0) != 0, u^(-1) = -(sum_(i >= 1) p_i u^(i-1)) / p(0), by
    the Fraction power chain verify_extension once built."""
    p_of_u = poly_of_element(ext, p, u)
    if p.coeff(0) == 0:
        return p_of_u, None
    powers = [ext.unit]
    for _ in range(p.degree - 1):
        powers.append(ext.multiply(powers[-1], u))
    acc = zero_vec(ext.dim)
    for c, power in zip(p.coeffs[1:], powers):
        acc = tuple(a + c * x for a, x in zip(acc, power))
    return p_of_u, tuple(-x / p.coeff(0) for x in acc)


def test_verify_extension_powers_match_fraction_chain(corpus, monkeypatch):
    calls = []
    real = _extension.verify_extension

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(_extension, "verify_extension", spy)
    for name, algebra in corpus.items():
        for d in derivation_space(algebra)[:2]:
            ore_quotient(algebra, d)
        for phi in sample_automorphisms(algebra, random.Random(len(name)), 3):
            laurent_quotient(algebra, phi)
    monkeypatch.undo()
    assert {args[0] for args in calls} == {"derivation", "automorphism"}
    rejected = 0
    for mode, base, ext, embed, u, p, twist in calls:
        p_of_u, inverse_ref = ref_verify_powers(ext, u, p)
        assert not any(p_of_u)
        got = real(mode, base, ext, embed, u, p, twist)
        if mode == "automorphism":
            assert got == inverse_ref and all(type(x) is Fraction for x in got)
            assert ext.multiply(u, got) == ext.unit
        else:
            assert got is None
        shifted = tuple(x + y for x, y in zip(u, ext.unit))
        if any(ref_verify_powers(ext, shifted, p)[0]):
            with pytest.raises(SkewexError, match=r"p\(u\) != 0"):
                real(mode, base, ext, embed, shifted, p, twist)
            rejected += 1
    assert len(calls) >= 30 and rejected == len(calls), (len(calls), rejected)


def ref_scalar_poly_at(phi, scalar_terms):
    n = phi.algebra.dim
    total = Mat.zeros(n, n)
    for exp, coeff in scalar_terms:
        total = total + phi.power(exp).scale(Fraction(coeff))
    return total


def test_scalar_poly_at_matches_fraction_sum(corpus):
    """Negative exponents, zero, integer and fractional coefficients, repeated
    exponents, terms that cancel, and no terms at all."""
    rng = random.Random(5151)
    coefficients = (0, 1, -2, F(1, 2), F(-3, 4), F(5, 3))
    checked = zero_results = 0
    for name, algebra in corpus.items():
        if algebra.dim > 4:
            continue
        for phi in sample_automorphisms(algebra, random.Random(len(name)), 4):
            cases = [[], [(0, F(0))], [(-1, F(1, 2)), (1, F(1, 2))],
                     [(2, F(1, 3)), (2, F(-1, 3))], [(-3, 1), (0, -1), (3, F(7, 2))]]
            for _ in range(6):
                cases.append([(rng.randint(-3, 3), rng.choice(coefficients))
                              for _ in range(rng.randint(1, 4))])
            for terms in cases:
                expected = ref_scalar_poly_at(phi, terms)
                got = _scalar_poly_at(phi, terms)
                assert got == expected, (name, terms)
                assert got.integer_form == expected.integer_form, (name, terms)
                checked += 1
                zero_results += expected.is_zero()
    assert checked >= 200 and zero_results >= 40
