"""Skew polynomials twisted by a derivation, and the inner-witness extension.

The ring multiplies by the single rewrite X a = a X + D(a), applied step by
step until the product is in left-normal form.  The quotient construction
adjoins an element u with p(u) = 0 whose commutator restricts to D on the
embedded base algebra.

The extension does not replay the rewriter: assemble builds the closed form
X^i b = sum_k C(i, k) D^k(b) X^(i-k) (Ore 1933) as an integer table over the
basis, from the integer orbits of D computed once per construction, as it
builds phi^i(e_b) X^i for laurent.py.  The step-by-step skew_mul stays as
the oracle that commutator_power and the suites check the closed forms
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from operator import mul
from typing import Optional

from ._extension import ExtensionResult, _check_annihilates, assemble
from .algebra import Algebra, _integer_product, _nonzero, ideal_closure, is_simple, SIMPLE
from .errors import DimensionMismatch, NotMonic, SkewexError
from .linalg import (
    Poly,
    Vec,
    _common_scale_rows,
    _rational_row,
    is_zero_vec,
    vec_add,
    vec_sub,
    zero_vec,
)
from .maps import Derivation


@dataclass(frozen=True)
class SkewPoly:
    """Left-normal form sum of a_i X^i; trailing zero coefficients trimmed."""

    algebra: Algebra
    coeffs: tuple[Vec, ...]

    @staticmethod
    def of(algebra: Algebra, coeffs) -> "SkewPoly":
        cs = [tuple(c) for c in coeffs]
        for c in cs:
            if len(c) != algebra.dim:
                raise DimensionMismatch("coefficient length differs from algebra dimension")
        while cs and is_zero_vec(cs[-1]):
            cs.pop()
        return SkewPoly(algebra, tuple(cs))

    @staticmethod
    def zero(algebra: Algebra) -> "SkewPoly":
        return SkewPoly(algebra, ())

    @staticmethod
    def constant(algebra: Algebra, a: Vec) -> "SkewPoly":
        return SkewPoly.of(algebra, [a])

    @staticmethod
    def monomial(algebra: Algebra, a: Vec, power: int) -> "SkewPoly":
        return SkewPoly.of(algebra, [zero_vec(algebra.dim)] * power + [list(a)])

    @staticmethod
    def x(algebra: Algebra, power: int = 1) -> "SkewPoly":
        return SkewPoly.monomial(algebra, algebra.unit, power)

    @staticmethod
    def from_scalar_poly(algebra: Algebra, p: Poly) -> "SkewPoly":
        return SkewPoly.of(algebra, [tuple(c * x for x in algebra.unit) for c in p.coeffs])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Vec:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return zero_vec(self.algebra.dim)

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly.of(self.algebra, [vec_add(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return SkewPoly.of(self.algebra, [vec_sub(self.coeff(i), other.coeff(i)) for i in range(n)])

    def is_zero(self) -> bool:
        return not self.coeffs


def skew_mul(f: SkewPoly, g: SkewPoly, d: Derivation) -> SkewPoly:
    """Product in left-normal form, by stepping X through g once per degree
    of f with the rewrite X (c X^p) = c X^(p+1) + D(c) X^p.

    The steps run on integer rows.  With D = M / L_D and g's coefficients
    over their common scale Lg, X^i g has integer coefficient rows over the
    running scale Lg L_D^i: a step multiplies the shifted rows by L_D and
    adds M times the rows.  The products a_i (X^i g), with f's coefficients
    over their common scale Lf and the constants over the table's L, are
    summed over the one scale L Lf Lg L_D^m, m = deg f, so term i carries
    the factor L_D^(m - i); one Fraction per nonzero entry of the result.
    """
    if f.algebra is not g.algebra and f.algebra.integer_sc != g.algebra.integer_sc:
        raise DimensionMismatch("operands live over different algebras")
    algebra = f.algebra
    n, m = algebra.dim, f.degree
    scale, table = algebra.integer_sc
    scale_d, dm = d.matrix.integer_form
    scale_f, fs = _common_scale_rows(f.coeffs)
    scale_g, current = _common_scale_rows(g.coeffs)
    acc = [[0] * n for _ in range(max(0, m + g.degree + 1))]
    for i, a in enumerate(fs):
        xs = _nonzero(a)
        if xs:
            lift = scale_d ** (m - i)
            for p, c in enumerate(current):
                ys = _nonzero(c)
                if ys:
                    acc[p] = [x + lift * y for x, y in
                              zip(acc[p], _integer_product(table, xs, ys))]
        if i < m:
            zero = [0] * n
            moved = [[sum(map(mul, row, c)) for row in dm] for c in current] + [zero]
            current = [[scale_d * x + y for x, y in zip(shifted, applied)]
                       for shifted, applied in zip([zero] + current, moved)]
    denominator = scale * scale_f * scale_g * scale_d ** max(0, m)
    return SkewPoly.of(algebra, [_rational_row(row, denominator) for row in acc])


def commutator_power(n: int, a: Vec, d: Derivation) -> tuple[SkewPoly, SkewPoly]:
    """X^n a - a X^n computed two ways: by rewriting and by the binomial sum.

    Returns (direct, formula) after asserting they agree.
    """
    algebra = d.algebra
    xn = SkewPoly.x(algebra, n) if n > 0 else SkewPoly.constant(algebra, algebra.unit)
    ca = SkewPoly.constant(algebra, a)
    direct = skew_mul(xn, ca, d) - skew_mul(ca, xn, d)
    terms = [zero_vec(algebra.dim) for _ in range(n)] if n else []
    value = tuple(a)
    for i in range(1, n + 1):
        value = d.matrix.apply(value)
        c = comb(n, i)
        terms[n - i] = tuple(c * x for x in value)
    formula = SkewPoly.of(algebra, terms)
    if direct.coeffs != formula.coeffs:
        raise SkewexError("commutator rewrite and binomial sum disagree")
    return direct, formula


def constant_terms(f: SkewPoly, d: Derivation) -> tuple[Vec, Vec]:
    """Constant coefficient in left-normal form and in right-coefficient form.

    The right form is produced top-down by peeling leading terms; converting
    back must reproduce f exactly, which is asserted.
    """
    algebra = f.algebra
    left_c0 = f.coeff(0)
    rem = f
    right: dict[int, Vec] = {}
    while not rem.is_zero():
        deg = rem.degree
        c = rem.coeffs[deg]
        right[deg] = c
        rem = rem - skew_mul(SkewPoly.x(algebra, deg), SkewPoly.constant(algebra, c), d)
    rebuilt = SkewPoly.zero(algebra)
    for power, c in right.items():
        rebuilt = rebuilt + skew_mul(
            SkewPoly.x(algebra, power), SkewPoly.constant(algebra, c), d
        )
    if rebuilt.coeffs != f.coeffs:
        raise SkewexError("left/right coefficient round-trip failed")
    return left_c0, right.get(0, zero_vec(algebra.dim))


def constant_term_identity(q: Poly, b: Vec, d: Derivation) -> tuple[Vec, Vec]:
    """Constant term of q(X) * b versus the operator value q(D)(b).

    The left side goes through full skew multiplication, the right side
    through matrix evaluation; they are asserted equal and both returned.
    """
    algebra = d.algebra
    lhs = skew_mul(SkewPoly.from_scalar_poly(algebra, q), SkewPoly.constant(algebra, b), d).coeff(0)
    rhs = q.eval_matrix(d.matrix).apply(b)
    if lhs != rhs:
        raise SkewexError("constant-term identity failed")
    return lhs, rhs


@dataclass(frozen=True)
class IdealConstantTerm:
    value: Vec
    predicted: Vec
    member: bool


def ideal_constant_term(q: Poly, b: Vec, m: int, k: int, d: Derivation) -> IdealConstantTerm:
    """Constant term of X^m q(X) b X^k: zero for k >= 1, q(D)(D^m(b)) for k = 0,
    and always inside span{x * q(D)(y)}, the left ideal generated by the image
    of q(D)."""
    algebra = d.algebra
    h = skew_mul(SkewPoly.x(algebra, m), SkewPoly.from_scalar_poly(algebra, q), d) \
        if m > 0 else SkewPoly.from_scalar_poly(algebra, q)
    h = skew_mul(h, SkewPoly.constant(algebra, b), d)
    if k > 0:
        h = skew_mul(h, SkewPoly.x(algebra, k), d)
    value = h.coeff(0)
    qd = q.eval_matrix(d.matrix)
    if k >= 1:
        predicted = zero_vec(algebra.dim)
    else:
        dm_b = b
        for _ in range(m):
            dm_b = d.matrix.apply(dm_b)
        predicted = qd.apply(dm_b)
    if value != predicted:
        raise SkewexError("ideal constant-term closed form failed")
    member = ideal_closure(algebra, qd.columns(), "left").contains(value)
    return IdealConstantTerm(value, predicted, member)


def ore_quotient(
    algebra: Algebra,
    d: Derivation,
    p: Optional[Poly] = None,
    _skip_annihilator_check: bool = False,
) -> ExtensionResult:
    """Adjoin u with p(u) = 0 whose commutator realizes d on the base.

    p defaults to the minimal polynomial of d and must be monic with
    p(d) = 0.  The result has passed verify_extension, whose docstring lists
    the postconditions; in particular [u, embed(a)] = embed(d(a)).

    The private flag skips the annihilator check and demands the raw rewrite
    grid itself, raising AssociativityFails unless its relations vanish.
    """
    given = p is not None
    p = p if given else d.minimal_polynomial  # which checks p(d) = 0
    if not p.is_monic() or p.degree < 1:
        raise NotMonic("relation polynomial must be monic of degree >= 1")
    if given and not _skip_annihilator_check:
        _check_annihilates(d.matrix, p)
    return assemble(algebra, p, "derivation", d.matrix,
                    force_free_model=_skip_annihilator_check)


@dataclass(frozen=True)
class ImageSpanReport:
    left_full: bool
    right_full: bool
    applicable: bool
    simple: str
    nonzero: bool


def simple_image_check(algebra: Algebra, d: Derivation) -> ImageSpanReport:
    """Whether span{x * D(y)} and span{D(y) * x}, the left and right ideals
    generated by the image of D, are the whole algebra.

    Both must hold when the algebra is simple and D is nonzero; the
    hypotheses are evaluated and reported alongside.
    """
    left = ideal_closure(algebra, d.matrix.columns(), "left")
    right = ideal_closure(algebra, d.matrix.columns(), "right")
    verdict, _ = is_simple(algebra)
    nonzero = not d.matrix.is_zero()
    return ImageSpanReport(
        left_full=left.dim == algebra.dim,
        right_full=right.dim == algebra.dim,
        applicable=(verdict == SIMPLE and nonzero),
        simple=verdict,
        nonzero=nonzero,
    )
