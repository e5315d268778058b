"""The relation submodule is the consistency certificate of the free model.

An extension is the rank-d free model, the window, divided by its relation
submodule; the dense model is kept in free_model_oracle.  Its consistency
used to be tested separately, by comparing both reduction orders of X^d e_b;
confluence_check below is that test, kept as the oracle.  Route one minus route two is the reduced k = 0 relation generator,
and every k > 0 generator is that one times X^k, so the oracle passes exactly
when the submodule is zero.  On a zero submodule the quotient is the free
model itself, its cells reordered from the grid's highest-power-first layout
to ascending powers by the projection, and the private
_skip_annihilator_check hook raises AssociativityFails exactly when the
oracle reports a mismatch.
"""

import random

import pytest

from free_model_oracle import (
    fraction_xpow,
    free_model,
    quotient_by_relations,
    relation_generators,
    relation_submodule,
)
from skewex.errors import AnnihilatorFails, AssociativityFails
from skewex.laurent import laurent_quotient
from skewex.linalg import Mat, Poly, minimal_polynomial, unit_vec
from skewex.maps import derivation_space
from skewex.ore import ore_quotient
from skewex.sampling import sample_automorphisms


def confluence_check(model, xpow):
    """Compare both reduction orders of X^d * e_b; None when they agree.

    Route one folds X^d into the window first and multiplies inside the
    model; route two rewrites X^d past e_b in the unreduced ring, which is
    xpow[b][d], and folds afterwards.
    """
    xd_reduced = model.reduce_terms([(model.d, model.base.unit)])
    for b in range(model.n):
        route_one = model.multiply(xd_reduced, model.slice0(model.base.basis_element(b)))
        route_two = model.reduce_terms(xpow[b][model.d])
        if route_one != route_two:
            return f"X^{model.d} * basis {b} reduces inconsistently"
    return None


def seeded_monic(rng, minimal):
    """A monic polynomial with nonzero constant term: random of degree 1 to 3,
    or, for a small minimal polynomial, a multiple of it that annihilates."""
    if minimal.degree <= 2 and rng.random() < 0.5:
        p = minimal * Poly.of([rng.choice([-2, -1, 1, 2]), 1])
        if p.coeff(0) != 0:
            return p
    degree = rng.randint(1, 3)
    return Poly.of([rng.choice([-2, -1, 1, 2])]
                   + [rng.randint(-2, 2) for _ in range(degree - 1)] + [1])


def twist_cases(corpus):
    """(label, mode, algebra, twist, p) for every corpus derivation-basis
    element and six pooled automorphisms per corpus algebra, each with its
    minimal polynomial and six seeded monic polynomials.  M_3, whose models
    take seconds each, is left to test_m3_extensions."""
    rng = random.Random(2024)
    for name, algebra in corpus.items():
        if algebra.dim > 4:
            continue
        twists = [("derivation", d) for d in derivation_space(algebra)]
        twists += [("automorphism", phi)
                   for phi in sample_automorphisms(algebra, random.Random(len(name)), 6)]
        for index, (mode, twist) in enumerate(twists):
            minimal = minimal_polynomial(twist.matrix)
            for p in [minimal] + [seeded_monic(rng, minimal) for _ in range(6)]:
                yield f"{name}/{mode}[{index}]/{p.coeffs}", mode, algebra, twist, p


def build(mode, algebra, twist, p, **flags):
    if mode == "derivation":
        return ore_quotient(algebra, twist, p, **flags)
    return laurent_quotient(algebra, twist, p, **flags)


def test_relation_submodule_is_the_consistency_certificate(corpus):
    zero = nonzero = 0
    for label, mode, algebra, twist, p in twist_cases(corpus):
        xpow = fraction_xpow(mode, algebra, twist, p)
        model = free_model(algebra, p, xpow)
        relations = relation_submodule(model, relation_generators(p, xpow))
        mismatch = confluence_check(model, xpow)
        assert (mismatch is None) == (relations.dim == 0), label

        if mismatch is not None:
            nonzero += 1
            with pytest.raises(AssociativityFails):
                build(mode, algebra, twist, p, _skip_annihilator_check=True)
            continue
        zero += 1
        algebra_out, proj = quotient_by_relations(model, relations)
        # the quotient is the grid itself, reordered to ascending powers
        order = model.ascending
        assert proj == Mat.from_rows([unit_vec(r, model.dim) for r in order]), label
        assert algebra_out.sc == tuple(tuple(tuple(model.sc[r][c][k] for k in order)
                                             for c in order) for r in order), label
        forced = build(mode, algebra, twist, p, _skip_annihilator_check=True)
        assert forced.free_module and forced.defect_dim == 0, label
        assert forced.algebra.sc == algebra_out.sc, label
        assert forced.embed == Mat.from_columns(
            [Mat.identity(model.dim).column(a) for a in range(algebra.dim)]), label
        if p.eval_matrix(twist.matrix).is_zero():
            assert build(mode, algebra, twist, p).algebra.sc == algebra_out.sc, label
        else:  # a central witness can realize the twist without p(twist) = 0
            with pytest.raises(AnnihilatorFails):
                build(mode, algebra, twist, p)
    # both verdicts occur, each many times
    assert zero >= 20 and nonzero >= 20, (zero, nonzero)
