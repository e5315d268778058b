"""Skew Laurent polynomials twisted by an automorphism, and the invertible
inner-witness extension.

Multiplication moves powers of X past coefficients by X^k a = phi^k(a) X^k,
valid for every integer k because phi is invertible.  The quotient
construction adjoins an invertible u with p(u) = 0 whose conjugation action
restricts to phi on the embedded base algebra.

A LaurentSkewPoly is its integer form (L, terms), the pairs (i, L a_i), as a
Mat is (linalg._canonical_form); the Fraction terms are a view.
laurent_mul reads phi^i as the integer form of AlgebraEndo.power(i), and
coefficient_sum_membership compares its two sides as cross-multiplied
integer rows, making Fractions only for the values it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Optional, Sequence

from ._extension import ExtensionResult, assemble
from .algebra import Algebra, _integer_ideal, _integer_product, _nonzero
from .errors import DimensionMismatch, NotAutomorphism, SkewexError
from .linalg import (
    Mat,
    Poly,
    Vec,
    _canonical_form,
    _common_scale_rows,
    _equal_rows,
    _integer_apply,
    _integer_row,
    _rational_row,
    rat,
)
from .maps import AlgebraEndo


@dataclass(frozen=True)
class LaurentSkewPoly:
    """Finite sum of a_i X^i over integer exponents, coefficients on the left,
    stored as its integer form.

    integer_form is (L, terms): terms holds (i, L a_i) for the nonzero a_i in
    ascending i, L > 0 and gcd(L, the rows) = 1, so the form is canonical and
    equality and hashing compare it.  terms, the pairs (i, a_i) with Fraction
    a_i, is a view built on first read and kept out of equality, hashing and
    repr.
    """

    algebra: Algebra
    integer_form: tuple[int, tuple[tuple[int, tuple[int, ...]], ...]]

    @cached_property
    def terms(self) -> tuple[tuple[int, Vec], ...]:
        scale, terms = self.integer_form
        return tuple((exp, _rational_row(row, scale)) for exp, row in terms)

    @staticmethod
    def _from_integers(algebra: Algebra, terms, scale: int) -> "LaurentSkewPoly":
        """sum row / scale X^exp over the (exp, row) of terms, scale > 0; an
        exponent may repeat."""
        collected: dict[int, list[int]] = {}
        for exp, row in terms:
            if exp in collected:
                collected[exp] = [x + y for x, y in zip(collected[exp], row)]
            else:
                collected[exp] = row
        exps = [exp for exp in sorted(collected) if any(collected[exp])]
        scale, rows = _canonical_form([collected[exp] for exp in exps], scale)
        return LaurentSkewPoly(algebra, (scale, tuple(zip(exps, rows))))

    @staticmethod
    def of(algebra: Algebra, terms) -> "LaurentSkewPoly":
        terms = [(exp, tuple(coeff)) for exp, coeff in terms]
        for _, coeff in terms:
            if len(coeff) != algebra.dim:
                raise DimensionMismatch("coefficient length differs from algebra dimension")
        scale, rows = _common_scale_rows([coeff for _, coeff in terms])
        return LaurentSkewPoly._from_integers(
            algebra, zip([exp for exp, _ in terms], rows), scale)

    @staticmethod
    def zero(algebra: Algebra) -> "LaurentSkewPoly":
        return LaurentSkewPoly(algebra, (1, ()))

    @staticmethod
    def constant(algebra: Algebra, a: Vec) -> "LaurentSkewPoly":
        return LaurentSkewPoly.of(algebra, [(0, a)])

    @staticmethod
    def monomial(algebra: Algebra, a: Vec, exp: int) -> "LaurentSkewPoly":
        return LaurentSkewPoly.of(algebra, [(exp, a)])

    @staticmethod
    def x(algebra: Algebra, exp: int = 1) -> "LaurentSkewPoly":
        return LaurentSkewPoly.of(algebra, [(exp, algebra.unit)])

    @staticmethod
    def from_scalar_terms(algebra: Algebra, terms: Sequence[tuple[int, Fraction]]
                          ) -> "LaurentSkewPoly":
        """sum_i c_i X^(e_i) with the scalars on the unit: with the c_i = C_i / Lc
        and the unit U / Lu, the rows C_i U over Lc Lu."""
        unit_scale, unit = _integer_row(algebra.unit)
        scale, cs = _integer_row([rat(c) for _, c in terms])
        return LaurentSkewPoly._from_integers(
            algebra, [(exp, [c * x for x in unit]) for (exp, _), c in zip(terms, cs)],
            scale * unit_scale)

    def __add__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        return self._combine(other, -1)

    def _combine(self, other: "LaurentSkewPoly", sign: int) -> "LaurentSkewPoly":
        """self + sign other: A (L / La) + sign B (L / Lb) over L = lcm(La, Lb)."""
        la, a = self.integer_form
        lb, b = other.integer_form
        scale = lcm(la, lb)
        fa, fb = scale // la, sign * (scale // lb)
        return LaurentSkewPoly._from_integers(
            self.algebra, [(exp, [fa * x for x in row]) for exp, row in a]
            + [(exp, [fb * x for x in row]) for exp, row in b], scale)

    def is_zero(self) -> bool:
        return not self.integer_form[1]


def laurent_mul(f: LaurentSkewPoly, g: LaurentSkewPoly, phi: AlgebraEndo) -> LaurentSkewPoly:
    """Product in left-normal form: a X^i * b X^j = a phi^i(b) X^(i+j).

    With f = F / Lf, g = G / Lg, phi^i = P_i / s_i and the constants over the
    table's L, every product is the integer product of F_i and (S / s_i) P_i G_j
    over L Lf Lg S, S the lcm of the s_i of f's exponents.
    """
    if not phi.is_invertible():
        raise NotAutomorphism("the twist must be invertible")
    algebra = f.algebra
    scale, table = algebra.integer_sc
    scale_f, fs = f.integer_form
    scale_g, gs = g.integer_form
    powers = [phi.power(i).integer_form for i, _ in fs]
    common = lcm(*(s for s, _ in powers))
    out = []
    for (i, a), (s, ints) in zip(fs, powers):
        xs = _nonzero(a)
        lift = common // s
        for j, b in gs:
            image = _nonzero([lift * x for x in _integer_apply(ints, b)])
            out.append((i + j, _integer_product(table, xs, image)))
    return LaurentSkewPoly._from_integers(algebra, out, scale * scale_f * scale_g * common)


def conjugate_by_x(a: Vec, k: int, phi: AlgebraEndo) -> Vec:
    """X^k a X^(-k) = phi^k(a), exposed as a convenience."""
    return phi.power(k).apply(a)


def _integer_sum(f: LaurentSkewPoly) -> list[int]:
    """L times the sum of the coefficients of f = (L, terms)."""
    return [sum(column) for column in
            zip([0] * f.algebra.dim, *(row for _, row in f.integer_form[1]))]


def eval_at_one(f: LaurentSkewPoly) -> Vec:
    """Sum of the left-normal coefficients.

    Only meaningful on the left-normal form, which the type maintains; a
    right-coefficient expression must be normalized first and may sum
    differently.
    """
    return _rational_row(_integer_sum(f), f.integer_form[0])


@dataclass(frozen=True)
class CoefficientSumReport:
    value: Vec
    closed_form: Vec
    member: bool


def _scalar_poly_at(phi: AlgebraEndo, scalar_terms: Sequence[tuple[int, Fraction]]) -> Mat:
    """f(phi) = sum_i c_i phi^(e_i) for the scalar terms (e_i, c_i), as one
    integer sum.  With c_i = P_i / Q_i and phi^(e_i) = A_i / L_i, each term
    is P_i A_i over Q_i L_i; brought to S, the lcm of the Q_i L_i, the sum
    is sum_i P_i (S / (Q_i L_i)) A_i over S."""
    n = phi.algebra.dim
    terms = []
    for exp, coeff in scalar_terms:
        c = rat(coeff)
        scale, ints = phi.power(exp).integer_form
        terms.append((c.numerator, c.denominator * scale, ints))
    common = lcm(*(scale for _, scale, _ in terms))
    total = [[0] * n for _ in range(n)]
    for num, scale, ints in terms:
        factor = num * (common // scale)
        if factor:
            for out, row in zip(total, ints):
                for k, x in enumerate(row):
                    out[k] += factor * x
    return Mat._from_integers(total, n, common)


def coefficient_sum_membership(
    scalar_terms: Sequence[tuple[int, Fraction]],
    b: Vec,
    c: Vec,
    j: int,
    k: int,
    phi: AlgebraEndo,
) -> CoefficientSumReport:
    """For h = b X^j f(X) c X^k with scalar f: the coefficient sum h[1] equals
    b * f(phi)(phi^j(c)) and lies in span{x * f(phi)(y)}, the left ideal
    generated by the image of f(phi), whose integer residual decides
    membership.

    With b = B / Lb, c = C / Lc, f(phi) = Q / Lq, phi^j = P / s and the
    constants over L, the closed form is the integer product of B and Q P C
    over L Lb Lq s Lc, compared cross-multiplied with h's integer sum.
    """
    algebra = phi.algebra
    f = LaurentSkewPoly.from_scalar_terms(algebra, scalar_terms)
    h = laurent_mul(LaurentSkewPoly.monomial(algebra, b, j), f, phi)
    h = laurent_mul(h, LaurentSkewPoly.monomial(algebra, c, k), phi)
    value = _integer_sum(h)
    scale_q, qm = _scalar_poly_at(phi, scalar_terms).integer_form
    scale_p, pm = phi.power(j).integer_form
    scale_b, bs = _integer_row(b)
    scale_c, cs = _integer_row(c)
    scale, table = algebra.integer_sc
    closed = _integer_product(table, _nonzero(bs),
                              _nonzero(_integer_apply(qm, _integer_apply(pm, cs))))
    if not _equal_rows(value, h.integer_form[0],
                       closed, scale * scale_b * scale_q * scale_p * scale_c):
        raise SkewexError("coefficient-sum closed form failed")
    member = not any(_integer_ideal(algebra, list(zip(*qm)), "left").residual(value))
    found = _rational_row(value, h.integer_form[0])
    return CoefficientSumReport(found, found, member)


def laurent_quotient(
    algebra: Algebra,
    phi: AlgebraEndo,
    p: Optional[Poly] = None,
    _skip_annihilator_check: bool = False,
) -> ExtensionResult:
    """Adjoin an invertible u with p(u) = 0 conjugating by phi on the base.

    phi must be invertible, and p, which defaults to its minimal polynomial,
    monic with nonzero constant term and p(phi) = 0; _extension.assemble
    checks the preconditions and the private flag.  The result has passed
    verify_extension, whose docstring lists the postconditions; in
    particular u embed(a) u^(-1) = embed(phi(a)).
    """
    return assemble(algebra, "automorphism", phi, p, _skip_annihilator_check)
