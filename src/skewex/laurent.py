"""Skew Laurent polynomials twisted by an automorphism, and the invertible
inner-witness extension.

Multiplication moves powers of X past coefficients by X^k a = phi^k(a) X^k,
valid for every integer k because phi is invertible.  The quotient
construction adjoins an invertible u with p(u) = 0 whose conjugation action
restricts to phi on the embedded base algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from ._extension import ExtensionResult, _check_annihilates, assemble
from .algebra import Algebra, ideal_closure
from .errors import (
    ConstantTermZero,
    DimensionMismatch,
    NotAutomorphism,
    NotMonic,
    SkewexError,
)
from .linalg import (
    Mat,
    Poly,
    Vec,
    is_zero_vec,
    rat,
    vec_add,
    zero_vec,
)
from .maps import AlgebraEndo


@dataclass(frozen=True)
class LaurentSkewPoly:
    """Finite sum of a_i X^i over integer exponents, coefficients on the left."""

    algebra: Algebra
    terms: tuple[tuple[int, Vec], ...]  # ascending exponents, no zero coefficients

    @staticmethod
    def of(algebra: Algebra, terms) -> "LaurentSkewPoly":
        collected: dict[int, Vec] = {}
        for exp, coeff in terms:
            coeff = tuple(coeff)
            if len(coeff) != algebra.dim:
                raise DimensionMismatch("coefficient length differs from algebra dimension")
            if exp in collected:
                collected[exp] = vec_add(collected[exp], coeff)
            else:
                collected[exp] = coeff
        cleaned = tuple(
            (exp, collected[exp]) for exp in sorted(collected) if not is_zero_vec(collected[exp])
        )
        return LaurentSkewPoly(algebra, cleaned)

    @staticmethod
    def zero(algebra: Algebra) -> "LaurentSkewPoly":
        return LaurentSkewPoly(algebra, ())

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
        return LaurentSkewPoly.of(
            algebra, [(e, tuple(rat(c) * x for x in algebra.unit)) for e, c in terms]
        )

    def __add__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        return LaurentSkewPoly.of(self.algebra, list(self.terms) + list(other.terms))

    def __sub__(self, other: "LaurentSkewPoly") -> "LaurentSkewPoly":
        negated = [(e, tuple(-x for x in c)) for e, c in other.terms]
        return LaurentSkewPoly.of(self.algebra, list(self.terms) + negated)

    def is_zero(self) -> bool:
        return not self.terms


def laurent_mul(f: LaurentSkewPoly, g: LaurentSkewPoly, phi: AlgebraEndo) -> LaurentSkewPoly:
    """Product in left-normal form: a X^i * b X^j = a phi^i(b) X^(i+j)."""
    algebra = f.algebra
    if not phi.is_invertible():
        raise NotAutomorphism("the twist must be invertible")
    out: list[tuple[int, Vec]] = []
    for i, a in f.terms:
        mat = phi.power(i)
        for j, b in g.terms:
            out.append((i + j, algebra.multiply(a, mat.apply(b))))
    return LaurentSkewPoly.of(algebra, out)


def conjugate_by_x(a: Vec, k: int, phi: AlgebraEndo) -> Vec:
    """X^k a X^(-k) = phi^k(a), exposed as a convenience."""
    return phi.power(k).apply(a)


def eval_at_one(f: LaurentSkewPoly) -> Vec:
    """Sum of the left-normal coefficients.

    Only meaningful on the left-normal form, which the type maintains; a
    right-coefficient expression must be normalized first and may sum
    differently.
    """
    acc = zero_vec(f.algebra.dim)
    for _, c in f.terms:
        acc = vec_add(acc, c)
    return acc


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
    generated by the image of f(phi)."""
    algebra = phi.algebra
    f = LaurentSkewPoly.from_scalar_terms(algebra, scalar_terms)
    h = laurent_mul(LaurentSkewPoly.monomial(algebra, b, j), f, phi)
    h = laurent_mul(h, LaurentSkewPoly.monomial(algebra, c, k), phi)
    value = eval_at_one(h)
    f_of_phi = _scalar_poly_at(phi, scalar_terms)
    closed = algebra.multiply(b, f_of_phi.apply(phi.power(j).apply(c)))
    if value != closed:
        raise SkewexError("coefficient-sum closed form failed")
    member = ideal_closure(algebra, f_of_phi.columns(), "left").contains(value)
    return CoefficientSumReport(value, closed, member)


def laurent_quotient(
    algebra: Algebra,
    phi: AlgebraEndo,
    p: Optional[Poly] = None,
    _skip_annihilator_check: bool = False,
) -> ExtensionResult:
    """Adjoin an invertible u with p(u) = 0 conjugating by phi on the base.

    p defaults to the minimal polynomial of phi; it must be monic with
    nonzero constant term and p(phi) = 0.  The result has passed
    verify_extension, whose docstring lists the postconditions; in
    particular u embed(a) u^(-1) = embed(phi(a)).  The private flag is as
    in ore_quotient.
    """
    if not phi.is_invertible():
        raise NotAutomorphism("the twist must be an automorphism")
    given = p is not None
    p = p if given else phi.minimal_polynomial  # which checks p(phi) = 0
    if not p.is_monic() or p.degree < 1:
        raise NotMonic("relation polynomial must be monic of degree >= 1")
    if p.coeff(0) == 0:
        raise ConstantTermZero("relation polynomial needs a nonzero constant term")
    if given and not _skip_annihilator_check:
        _check_annihilates(phi.matrix, p)
    return assemble(algebra, p, "automorphism", phi.matrix,
                    force_free_model=_skip_annihilator_check)
