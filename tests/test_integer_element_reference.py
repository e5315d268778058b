"""Differential tests of the integer element routines against the Fraction code.

The reference functions below are ideal_closure (all three sides),
power_span, ms_witness_check, the unit-law check, the regular
representations and nilpotent_derivations as they were before their
vectors became integer rows; skew_mul is checked against the rewriter of
rewrite_oracle, which steps X once per degree.
Their products are summed over the dense Fraction structure constants and
their spans come from a Fraction Gauss-Jordan elimination, so they share no
code with the integer kernel.  The library must agree with them exactly on
the test corpus (M_3 included) and on 24 seeded explorer algebras after a
basis change, for inputs with denominators, zero generators and zero
elements.  A last test makes sure that the integer routines, skew_mul,
laurent_mul and a whole lemma_suite run do no Fraction arithmetic.
"""

import functools
import random
from fractions import Fraction

import pytest

from skewex.algebra import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Algebra,
    _check_unit_law,
    ideal_closure,
    make_algebra,
    matrix_algebra,
    radical,
    upper_triangular,
)
from skewex.errors import DimensionMismatch, UnitFails
from skewex.idempotents import _witness_probe, ms_witness_check, power_span
from skewex.linalg import (
    ZERO,
    Mat,
    Poly,
    full_space,
    is_nilpotent,
    span,
    zero_subspace,
    zero_vec,
)
from skewex.laurent import LaurentSkewPoly, laurent_mul
from skewex.maps import Derivation, derivation_space, inner_automorphism, inner_derivation
from skewex.ore import SkewPoly, ore_quotient, skew_mul
from skewex.sampling import nilpotent_derivations
from skewex.suites import SuiteContext, suite_lemma
from rewrite_oracle import ref_laurent_mul, ref_skew_mul
from test_matrix_kernel_reference import explorer_algebras, ref_multiply

F = Fraction
SIDES = ("left", "right", "two")


# -- reference code ----------------------------------------------------------

def ref_span(vectors, n):
    """Reduced echelon basis by Gauss-Jordan elimination over Fractions.

    The form is canonical, so comparing it with a Subspace's basis tuple
    decides equality of the spans."""
    rows = [list(v) for v in vectors if any(v)]
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        lead = rows[r][c]
        rows[r] = [x / lead for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        r += 1
    return tuple(tuple(row) for row in rows[:r])


def ref_contains(basis, x):
    """x minus x[p] times the basis row of each pivot p is zero."""
    residual = list(x)
    for row in basis:
        p = next(j for j, y in enumerate(row) if y)
        f = residual[p]
        if f:
            residual = [r - f * y for r, y in zip(residual, row)]
    return not any(residual)


def ref_ideal_closure(algebra, gens, side="two"):
    basis = [algebra.basis_element(a) for a in range(algebra.dim)]

    def products(vs, left):
        return ref_span([ref_multiply(algebra, e, v) if left else ref_multiply(algebra, v, e)
                         for v in vs for e in basis], algebra.dim)

    if side == "two":
        return products(products(gens, True), False)
    return products(gens, side == "left")


@functools.lru_cache(maxsize=None)
def ref_power_span(algebra, a):
    n = algebra.dim
    chain = [a]
    for _ in range(2 * n):
        chain.append(ref_multiply(algebra, chain[-1], a))
    return ref_span(chain[:n + 1], n), ref_span(chain[n:], n)


def ref_ms_witness_check(algebra, v, a, b, c, side="two"):
    powers, tail = ref_power_span(algebra, a)
    if not all(ref_contains(v.basis, x) for x in powers):
        return NOT_APPLICABLE
    if side == "left":
        products = [ref_multiply(algebra, b, t) for t in tail]
    elif side == "right":
        products = [ref_multiply(algebra, t, c) for t in tail]
    else:
        products = [ref_multiply(algebra, ref_multiply(algebra, b, t), c) for t in tail]
    return PASS if all(ref_contains(v.basis, x) for x in products) else FAIL


def ref_unit_failure(algebra):
    """The first basis element the unit fails on, or None."""
    for i in range(algebra.dim):
        e = algebra.basis_element(i)
        if (ref_multiply(algebra, algebra.unit, e) != e
                or ref_multiply(algebra, e, algebra.unit) != e):
            return i
    return None


def ref_regular(algebra, x, left):
    cols = [ref_multiply(algebra, x, algebra.basis_element(j)) if left else
            ref_multiply(algebra, algebra.basis_element(j), x) for j in range(algebra.dim)]
    return Mat.from_columns(cols)


def ref_nilpotent_derivations(algebra, rng, count, tries=200, derivations=None):
    """The sampler summing each combination as Fraction matrices."""
    basis = derivation_space(algebra) if derivations is None else derivations
    found = []
    seen = set()
    for d in basis:
        if not d.matrix.is_zero() and is_nilpotent(d.matrix) and d.matrix.entries not in seen:
            seen.add(d.matrix.entries)
            found.append(d)
    drawn = set()
    attempts = 0
    while len(found) < count and attempts < tries and basis:
        attempts += 1
        coeffs = tuple(rng.randint(-2, 2) for _ in basis)
        if coeffs in drawn:
            continue
        drawn.add(coeffs)
        m = Mat.zeros(algebra.dim, algebra.dim)
        for c, d in zip(coeffs, basis):
            if c:
                m = m + d.matrix.scale(c)
        if m.is_zero() or m.entries in seen or not is_nilpotent(m):
            continue
        seen.add(m.entries)
        found.append(Derivation.certify(algebra, m))
    return found[:count]


# -- inputs ------------------------------------------------------------------

def rational_element(rng, n, density=0.7):
    return tuple(F(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 5))) if rng.random() < density
                 else ZERO for _ in range(n))


def algebras_of(corpus):
    out = [(name, algebra, random.Random(len(name))) for name, algebra in corpus.items()]
    return out + explorer_algebras()


def elements_of(algebra, rng):
    """The unit, zero, a basis element, the radical's basis and rational elements."""
    n = algebra.dim
    elements = [algebra.unit, zero_vec(n), algebra.basis_element(n - 1)]
    elements += radical(algebra).basis[:2]
    elements += [rational_element(rng, n) for _ in range(2)]
    elements.append(rational_element(rng, n, density=0.3))
    return elements


def generator_sets(algebra, rng):
    n = algebra.dim
    zero = zero_vec(n)
    return [[], [zero], [algebra.unit], [algebra.basis_element(0)],
            [rational_element(rng, n, density=0.3)],
            [rational_element(rng, n), zero, rational_element(rng, n, density=0.4)]]


def subspaces_for(algebra, a, rng):
    """Subspaces that do and do not hold the powers of a."""
    n = algebra.dim
    powers = ref_power_span(algebra, a)[0]
    return [zero_subspace(n), full_space(n), span(powers, n),
            span(ref_span(list(powers) + [rational_element(rng, n)], n), n),
            span(ref_ideal_closure(algebra, [a], "left"), n)]


# -- ideals ------------------------------------------------------------------

def test_ideal_closure_matches_fraction_code(corpus):
    proper = grew = 0
    for name, algebra, rng in algebras_of(corpus):
        for gens in generator_sets(algebra, rng):
            spans = {}
            for side in SIDES:
                spans[side] = ideal_closure(algebra, gens, side)
                assert spans[side].basis == ref_ideal_closure(algebra, gens, side), \
                    (name, side, gens)
                proper += 0 < spans[side].dim < algebra.dim
            grew += spans["two"].dim > spans["left"].dim
    assert proper >= 30
    # the right products of the two-sided closure add something on these inputs
    assert grew >= 5


def test_ideal_closure_rejects_wrong_lengths(m2):
    with pytest.raises(DimensionMismatch):
        ideal_closure(m2, [(F(1), F(0))], "left")


# -- powers and the witness check ------------------------------------------------

def test_power_span_matches_fraction_code(corpus):
    compared = 0
    for name, algebra, rng in algebras_of(corpus):
        for a in elements_of(algebra, rng):
            got = power_span(algebra, a)
            assert (got.powers.basis, got.tail.basis) == ref_power_span(algebra, a), (name, a)
            compared += 1
    assert compared >= 200


def test_ms_witness_check_matches_fraction_code(corpus):
    statuses = set()
    for name, algebra, rng in algebras_of(corpus):
        n = algebra.dim
        for a in elements_of(algebra, rng)[:5]:
            for v in subspaces_for(algebra, a, rng):
                b, c = rational_element(rng, n), rational_element(rng, n)
                for side in SIDES:
                    for bb, cc in ((b, c), (zero_vec(n), c), (algebra.unit, algebra.unit)):
                        got = ms_witness_check(algebra, v, a, bb, cc, side)
                        assert got == ref_ms_witness_check(algebra, v, a, bb, cc, side), \
                            (name, a, side)
                        statuses.add(got)
    assert statuses == {PASS, FAIL, NOT_APPLICABLE}


def test_one_witness_probe_serves_every_b_c_and_side(corpus):
    statuses = set()
    for name, algebra, rng in algebras_of(corpus)[:12]:
        n = algebra.dim
        for a in elements_of(algebra, rng)[:4]:
            for v in subspaces_for(algebra, a, rng):
                probe = _witness_probe(algebra, v, a)
                for _ in range(2):
                    b, c = rational_element(rng, n), rational_element(rng, n)
                    for side in SIDES:
                        got = probe(b, c, side)
                        assert got == ref_ms_witness_check(algebra, v, a, b, c, side), \
                            (name, a, side)
                        statuses.add(got)
    assert statuses == {PASS, FAIL, NOT_APPLICABLE}


# -- unit law and regular representations -------------------------------------------

def test_unit_law_matches_fraction_code(corpus):
    failures = set()
    for name, algebra, rng in algebras_of(corpus):
        n = algebra.dim
        units = [algebra.unit, zero_vec(n), tuple(x / 2 for x in algebra.unit),
                 tuple(x + y for x, y in zip(algebra.unit, algebra.basis_element(n - 1))),
                 rational_element(rng, n)]
        for unit in units:
            broken = Algebra(n, algebra.sc, unit)
            expected = ref_unit_failure(broken)
            if expected is None:
                _check_unit_law(broken)
            else:
                with pytest.raises(UnitFails) as caught:
                    _check_unit_law(broken)
                assert caught.value.index == expected, (name, unit)
            failures.add(expected)
    assert None in failures and len(failures) >= 4


def test_regular_representations_match_fraction_code(corpus):
    for name, algebra, rng in algebras_of(corpus):
        for x in elements_of(algebra, rng):
            assert algebra.left_regular(x) == ref_regular(algebra, x, True), (name, x)
            assert algebra.right_regular(x) == ref_regular(algebra, x, False), (name, x)


# -- the skew rewriter ------------------------------------------------------------

def random_skew_poly(algebra, rng, degree):
    n = algebra.dim
    coeffs = [rational_element(rng, n, density=rng.choice((0.0, 0.4, 0.8)))
              for _ in range(degree + 1)]
    return SkewPoly.of(algebra, coeffs)


def derivations_of(algebra, rng):
    """Basis derivations, rationally scaled ones and a rational inner one."""
    basis = [d for d in derivation_space(algebra) if not d.matrix.is_zero()][:3]
    out = list(basis)
    out += [Derivation.certify(algebra, d.matrix.scale(F(rng.choice((-2, 1, 3)),
                                                         rng.choice((2, 3, 7)))))
            for d in basis[:2]]
    out.append(inner_derivation(algebra, rational_element(rng, algebra.dim)))
    return out


def test_skew_mul_matches_rewriting_oracle(corpus):
    scaled = 0
    for name, algebra, rng in algebras_of(corpus):
        if algebra.dim > 4 and name != "m3":
            continue
        for d in derivations_of(algebra, rng):
            for deg_f, deg_g in ((0, 2), (1, 1), (2, 0), (3, 2), (-1, 1), (2, -1)):
                f = random_skew_poly(algebra, rng, deg_f)
                g = random_skew_poly(algebra, rng, deg_g)
                got = skew_mul(f, g, d)
                assert got.coeffs == ref_skew_mul(f, g, d).coeffs, (name, deg_f, deg_g)
                scaled += (d.matrix.integer_form[0] > 1 and f.degree >= 1
                           and not got.is_zero() and any(map(any, d.matrix.entries)))
    # the running scale's factor L_D matters on these products
    assert scaled >= 30


# -- nilpotent derivations -----------------------------------------------------------

def test_nilpotent_derivations_match_fraction_sums(corpus):
    kept = 0
    for name, algebra, rng in algebras_of(corpus):
        if algebra.dim > 4:
            continue
        basis = derivation_space(algebra)
        scaled = [Derivation(algebra, d.matrix.scale(F(1, k + 2))) for k, d in enumerate(basis)]
        for derivations in (basis, scaled):
            seed = rng.randrange(10 ** 6)
            expected_rng, got_rng = random.Random(seed), random.Random(seed)
            for count, tries in ((4, 200), (20, 30)):
                expected = ref_nilpotent_derivations(algebra, expected_rng, count, tries,
                                                     derivations)
                got = nilpotent_derivations(algebra, got_rng, count, tries, derivations)
                assert [d.matrix for d in got] == [d.matrix for d in expected], name
                assert got_rng.getstate() == expected_rng.getstate(), name
                kept += len(got)
    assert kept >= 60


def test_the_zero_algebra():
    zero = make_algebra(0, [], [])
    d = Derivation(zero, Mat.from_entries(0, 0, ()))
    assert [ideal_closure(zero, [()], side).dim for side in SIDES] == [0, 0, 0]
    assert (power_span(zero, ()).powers.dim, zero.left_regular(()).rows) == (0, 0)
    assert skew_mul(SkewPoly.x(zero), SkewPoly.x(zero), d).is_zero()
    result = ore_quotient(zero, d, Poly.of([0, 0, 1]))
    assert (result.algebra.dim, result.defect_dim) == (0, 0)


# -- no Fraction arithmetic -----------------------------------------------------------

def warm_context(algebra, seed=0):
    """A suite context whose derivations, automorphisms, their minimal
    polynomials and their extensions are built, as the suites before
    lemma_suite leave them in a run of all suites."""
    ctx = SuiteContext(algebra, [], random.Random(seed))
    for twist in ctx.derivations() + ctx.automorphisms():
        ctx.extension(twist)
    return ctx


def test_integer_routines_do_no_fraction_arithmetic(monkeypatch):
    m2 = matrix_algebra(2)
    # two rank-one matrices, so the one-sided ideals are proper
    gens = [(F(1, 2), F(-2, 3), F(3, 4), F(-1)), (F(5, 7), ZERO, F(1, 3), ZERO)]
    a = (F(1, 2), F(1, 3), ZERO, F(-1, 5))
    nilpotent = (ZERO, F(2, 3), ZERO, ZERO)
    d = inner_derivation(m2, (F(1, 2), F(-2, 3), F(5, 7), F(3, 4)))
    f = SkewPoly.of(m2, [gens[0], a, gens[1]])
    g = SkewPoly.of(m2, [a, gens[1]])
    v = span(ref_ideal_closure(m2, [a], "left"), 4)
    ideals = [ref_ideal_closure(m2, gens[:k], side) for side in SIDES for k in (1, 2)]
    powers = [ref_power_span(m2, x) for x in (a, nilpotent)]
    regular = [ref_regular(m2, a, True), ref_regular(m2, a, False)]
    product = ref_skew_mul(f, g, d)
    phi = inner_automorphism(m2, (F(1, 2), F(1, 3), ZERO, F(2)))
    lf = LaurentSkewPoly.of(m2, [(-2, gens[0]), (1, a), (0, nilpotent)])
    lg = LaurentSkewPoly.of(m2, [(-1, a), (3, gens[1])])
    laurent_product = ref_laurent_mul(lf, lg, phi)
    algebras = [m2, upper_triangular(2)]
    expected = [[(r.check, r.status, r.witness) for r in suite_lemma(warm_context(x))]
                for x in algebras]
    contexts = [warm_context(x) for x in algebras]
    counts = {"mul": 0, "add": 0}

    def counting(name, method):
        def wrapper(x, y):
            counts[name] += 1
            return method(x, y)
        return wrapper

    monkeypatch.setattr(Fraction, "__mul__", counting("mul", Fraction.__mul__))
    monkeypatch.setattr(Fraction, "__add__", counting("add", Fraction.__add__))
    assert Fraction(1, 2) * Fraction(1, 3) + Fraction(1) == Fraction(7, 6)
    assert counts == {"mul": 1, "add": 1}
    counts.update(mul=0, add=0)

    closures = [ideal_closure(m2, gens[:k], side) for side in SIDES for k in (1, 2)]
    spans = [power_span(m2, a), power_span(m2, nilpotent)]
    assert ms_witness_check(m2, v, a, gens[0], gens[1], "left") == PASS
    assert [m2.left_regular(a), m2.right_regular(a)] == regular
    assert skew_mul(f, g, d).coeffs == product.coeffs
    assert laurent_mul(lf, lg, phi).terms == laurent_product.terms
    records = [suite_lemma(ctx) for ctx in contexts]
    assert counts == {"mul": 0, "add": 0}
    assert [[(r.check, r.status, r.witness) for r in run] for run in records] == expected
    assert all(r.status == PASS for run in records for r in run)
    assert all(r.witness["instances"] > 0 for run in records for r in run
               if r.check not in ("kernel_chain_preimage", "extension_embeddings"))
    assert [x.basis for x in closures] == ideals
    assert [(p.powers.basis, p.tail.basis) for p in spans] == powers
    assert [len(x) for x in ideals] == [2, 4, 2, 4, 4, 4]
