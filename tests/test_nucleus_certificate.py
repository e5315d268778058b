"""The extension's associativity certificate against the full triple check.

dense_make_algebra (test_sparse_reference) checks associativity on every
basis triple.  verify_extension checks only the associators
(e_i, g, e_k) for g among generators of the extension; here they are the
embedded basis and u, whose products embed(a) u^i span the extension.
Since the middle nucleus is a subalgebra, that decides the same thing.  The
full triple check is the oracle here: on every extension the tests build,
on seeded single-constant perturbations of those tables and on a hand-built
nonassociative table.  A last test pins that the quotient and the
verifier's unit law, word span and associators run neither make_algebra
nor any Fraction arithmetic.
"""

import random
from fractions import Fraction

import pytest

from free_model_oracle import integer_tables
from skewex import _extension, algebra as algebra_module
from skewex.algebra import (
    Algebra,
    _LeftWords,
    _check_unit_law,
    _first_nonassociative_at,
    _nonzero,
    make_algebra,
    matrix_algebra,
)
from skewex.errors import NotAssociative, UnitFails
from skewex.linalg import _integer_row, span
from skewex.maps import inner_derivation
from test_relation_certificate import build
from test_relation_closure import annihilating_corpus_cases, fuzz_cases, m3_pair
from test_sparse_reference import dense_make_algebra

F = Fraction


def m4_shift_case():
    m4 = matrix_algebra(4)
    shift = m4.element([1 if j == i + 1 else 0 for i in range(4) for j in range(4)])
    d = inner_derivation(m4, shift)
    yield "m4/shift", "derivation", m4, d, d.minimal_polynomial


def extensions(corpus, m3):
    for source, cases in (("corpus", annihilating_corpus_cases(corpus)),
                          ("fuzz", fuzz_cases()), ("m3", m3_pair(m3)),
                          ("m4", m4_shift_case())):
        for label, mode, algebra, twist, p in cases:
            yield source, label, build(mode, algebra, twist, p)


def generators(result):
    return result.embed.columns() + [result.u]


def full_route(ext):
    """The full triple check's verdict: None, or the name of the error it raises."""
    try:
        dense_make_algebra(ext.dim, ext.sc, ext.unit)
    except (NotAssociative, UnitFails) as exc:
        return type(exc).__name__
    return None


def generator_route(ext, result):
    """The quotient's unit law and generator check, then verify_extension's
    span check: None, or which of them rejects."""
    try:
        _check_unit_law(ext)
    except UnitFails:
        return "unit"
    if _first_nonassociative_at(ext.integer_sc, generators(result)) is not None:
        return "generators"
    powers = [ext.unit]
    for _ in range(result.p.degree - 1):
        powers.append(ext.multiply(powers[-1], result.u))
    images = result.embed.columns()
    if span([ext.multiply(img, w) for w in powers for img in images], ext.dim).dim != ext.dim:
        return "span"
    return None


def perturbed(ext, rng):
    """ext with one structure constant moved by a small nonzero rational."""
    i, j, k = (rng.randrange(ext.dim) for _ in range(3))
    delta = F(rng.choice([-2, -1, 1, 2]), rng.choice([1, 2, 3]))
    sc = [list(row) for row in ext.sc]
    sc[i][j] = tuple(x + delta if t == k else x for t, x in enumerate(sc[i][j]))
    return Algebra(ext.dim, sc, ext.unit)


def test_generator_check_agrees_with_the_full_check(corpus, m3):
    rng = random.Random(8191)
    counts = {}
    verdicts = {}
    for source, label, result in extensions(corpus, m3):
        ext = result.algebra
        assert _first_nonassociative_at(ext.integer_sc, generators(result)) is None, label
        assert full_route(ext) is None, label
        counts[source] = counts.get(source, 0) + 1
        for _ in range(3 if ext.dim <= 16 else 1):
            broken = perturbed(ext, rng)
            full, by_generators = full_route(broken), generator_route(broken, result)
            if full is None:
                # an associative table passes every associator
                assert _first_nonassociative_at(broken.integer_sc, generators(result)) is None
            else:
                assert by_generators is not None, label
            verdicts[full, by_generators] = verdicts.get((full, by_generators), 0) + 1
    assert counts == {"corpus": 127, "fuzz": 54, "m3": 2, "m4": 1}
    # the unit law rejects exactly what make_algebra's unit law rejects, and a
    # table with a unit but a nonzero associator fails at a generator or at
    # the span; a few perturbations leave the table associative
    assert set(verdicts) <= {("UnitFails", "unit"), ("NotAssociative", "generators"),
                             ("NotAssociative", "span"), (None, None)}, verdicts
    assert verdicts[("NotAssociative", "generators")] >= 200, verdicts
    assert verdicts[("UnitFails", "unit")] >= 250, verdicts


def test_hand_built_nonassociative_witness():
    # basis 1, a, b with a a = b, b a = a and every other product of a and b
    # zero: (a a) a = a but a (a a) = 0, and (a b) a = 0 but a (b a) = b
    zero, one = F(0), F(1)
    e = [tuple(one if t == s else zero for t in range(3)) for s in range(3)]
    z = (zero,) * 3
    sc = [[e[0], e[1], e[2]], [e[1], e[2], z], [e[2], e[1], z]]
    table = Algebra(3, sc, e[0])
    assert table.generators == (1,)
    for build in (dense_make_algebra, make_algebra):
        # the first basis triple, and the first with a in the middle
        with pytest.raises(NotAssociative) as caught:
            build(3, sc, e[0])
        assert caught.value.triple == (1, 1, 1), build
    # generators in (g, i, k) order: b comes first and fails at (a, b, a)
    assert _first_nonassociative_at(table.integer_sc, [e[2], e[1]]) == (1, 0, 1)
    assert _first_nonassociative_at(table.integer_sc, [e[1]]) == (1, 0, 1)
    assert _first_nonassociative_at(table.integer_sc, [e[0]]) is None
    # a fractional generator scales both sides alike
    assert _first_nonassociative_at(table.integer_sc, [(zero, F(1, 3), F(-2, 7))]) == (1, 0, 1)


def test_quotient_does_no_fraction_arithmetic_and_no_full_check(monkeypatch, m3):
    """On the M_3 pair the quotient, handed the integer twist and folding
    tables, makes no Fraction arithmetic in its cells and projection, nor do
    verify_extension's first steps on the result, the unit law, the word
    span and the associators at embed(G) and u, and make_algebra never
    runs."""
    counts = {}

    def counting(name, method):
        def wrapper(*args):
            counts[name] = counts.get(name, 0) + 1
            return method(*args)
        return wrapper

    def full_check(*args):
        counts["make_algebra"] = counts.get("make_algebra", 0) + 1
        return make_algebra(*args)

    for label, mode, algebra, twist, p in m3_pair(m3):
        xpow, beta = integer_tables(mode, twist, p)
        relations = _extension.relation_submodule(algebra, p, xpow, beta)
        expected, embed, u = _extension.quotient_by_relations(algebra, p, xpow, beta, relations)

        with monkeypatch.context() as patch:
            patch.setattr(algebra_module, "make_algebra", full_check)
            for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                         "__truediv__", "__rtruediv__"):
                patch.setattr(Fraction, name, counting(name, getattr(Fraction, name)))
            assert F(1, 2) * F(1, 3) + F(1) == F(7, 6)
            assert counts == {"__mul__": 1, "__add__": 1}
            counts.clear()
            got = _extension.quotient_by_relations(algebra, p, xpow, beta, relations)
            ext = got[0]
            _check_unit_law(ext)
            middles = [embed.column(g) for g in algebra.generators] + [u]
            words = _LeftWords(ext.integer_sc[1], _integer_row(ext.unit)[1])
            for y in middles:
                words.add(_nonzero(_integer_row(y)[1]))
            assert words.rank == ext.dim, label
            assert _first_nonassociative_at(ext.integer_sc, middles) is None, label
            assert counts == {}, (label, counts)
        assert (got[0].sc, got[0].unit, got[0].labels) == (expected.sc, expected.unit,
                                                           expected.labels), label
        assert got[1:] == (embed, u), label
