"""Skew polynomials twisted by a derivation, and the inner-witness extension.

The ring multiplies by the single rewrite X a = a X + D(a), applied step by
step until the product is in left-normal form.  The quotient construction
adjoins an element u with p(u) = 0 whose commutator restricts to D on the
embedded base algebra.

A SkewPoly is its integer form (L, rows), row i being L a_i, as a Mat is
(linalg._canonical_form); the Fraction coefficients are a view.  skew_mul
steps X on integer rows, and the checks below compare the two sides of
their identities as integer forms or as cross-multiplied integer rows and
test membership on Subspace.residual, making Fractions only for the values
they return.

The extension does not replay the rewriter: assemble builds the closed form
X^i b = sum_k C(i, k) D^k(b) X^(i-k) (Ore 1933) as an integer table over the
basis, from the integer orbits of D computed once per construction, as it
builds phi^i(e_b) X^i for laurent.py.  The step-by-step skew_mul stays as
the oracle that commutator_power and the suites check the closed forms
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import zip_longest
from math import comb, lcm
from typing import Optional

from ._extension import ExtensionResult, assemble
from .algebra import (Algebra, SIMPLE, _integer_ideal, _integer_product, _nonzero,
                      ideal_closure, is_simple)
from .errors import DimensionMismatch, SkewexError
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
    zero_vec,
)
from .maps import Derivation


@dataclass(frozen=True)
class SkewPoly:
    """Left-normal form sum of a_i X^i, stored as its integer form.

    integer_form is (L, rows) with rows[i] = L a_i, the trailing zero rows
    dropped, L > 0 and gcd(L, rows) = 1, so the form is canonical and
    equality and hashing compare it.  coeffs, the Fraction a_i, is a view
    built on first read and kept out of equality, hashing and repr.
    """

    algebra: Algebra
    integer_form: tuple[int, tuple[tuple[int, ...], ...]]

    @cached_property
    def coeffs(self) -> tuple[Vec, ...]:
        scale, rows = self.integer_form
        return tuple(_rational_row(row, scale) for row in rows)

    @staticmethod
    def _from_integers(algebra: Algebra, rows, scale: int) -> "SkewPoly":
        """The polynomial with coefficients rows[i] / scale, scale > 0."""
        rows = list(rows)
        while rows and not any(rows[-1]):
            rows.pop()
        return SkewPoly(algebra, _canonical_form(rows, scale))

    @staticmethod
    def of(algebra: Algebra, coeffs) -> "SkewPoly":
        cs = [tuple(c) for c in coeffs]
        for c in cs:
            if len(c) != algebra.dim:
                raise DimensionMismatch("coefficient length differs from algebra dimension")
        scale, rows = _common_scale_rows(cs)
        return SkewPoly._from_integers(algebra, rows, scale)

    @staticmethod
    def zero(algebra: Algebra) -> "SkewPoly":
        return SkewPoly(algebra, (1, ()))

    @staticmethod
    def constant(algebra: Algebra, a: Vec) -> "SkewPoly":
        return SkewPoly.of(algebra, [a])

    @staticmethod
    def monomial(algebra: Algebra, a: Vec, power: int) -> "SkewPoly":
        return SkewPoly.of(algebra, [zero_vec(algebra.dim)] * power + [a])

    @staticmethod
    def x(algebra: Algebra, power: int = 1) -> "SkewPoly":
        return SkewPoly.monomial(algebra, algebra.unit, power)

    @staticmethod
    def from_scalar_poly(algebra: Algebra, p: Poly) -> "SkewPoly":
        """p(X) with the scalars c on the unit: with p = C / Lp and the unit
        U / Lu, the rows c U over Lp Lu."""
        unit_scale, unit = _integer_row(algebra.unit)
        scale, cs = _integer_row(p.coeffs)
        return SkewPoly._from_integers(algebra, [[c * x for x in unit] for c in cs],
                                       scale * unit_scale)

    @property
    def degree(self) -> int:
        return len(self.integer_form[1]) - 1

    def coeff(self, i: int) -> Vec:
        scale, rows = self.integer_form
        if 0 <= i < len(rows):
            return _rational_row(rows[i], scale)
        return zero_vec(self.algebra.dim)

    def __add__(self, other: "SkewPoly") -> "SkewPoly":
        return self._combine(other, 1)

    def __sub__(self, other: "SkewPoly") -> "SkewPoly":
        return self._combine(other, -1)

    def _combine(self, other: "SkewPoly", sign: int) -> "SkewPoly":
        """self + sign other: A (L / La) + sign B (L / Lb) over L = lcm(La, Lb)."""
        la, a = self.integer_form
        lb, b = other.integer_form
        scale = lcm(la, lb)
        fa, fb = scale // la, sign * (scale // lb)
        zero = (0,) * self.algebra.dim
        return SkewPoly._from_integers(
            self.algebra, [[fa * x + fb * y for x, y in zip(r, s)]
                           for r, s in zip_longest(a, b, fillvalue=zero)], scale)

    def is_zero(self) -> bool:
        return not self.integer_form[1]


def skew_mul(f: SkewPoly, g: SkewPoly, d: Derivation) -> SkewPoly:
    """Product in left-normal form, by stepping X through g once per degree
    of f with the rewrite X (c X^p) = c X^(p+1) + D(c) X^p.

    The steps run on the integer forms.  With D = M / L_D and g = G / Lg,
    X^i g has integer coefficient rows over the running scale Lg L_D^i: a
    step multiplies the shifted rows by L_D and adds M times the rows.  The
    products a_i (X^i g), with f = F / Lf and the constants over the table's
    L, are summed over the one scale L Lf Lg L_D^m, m = deg f, so term i
    carries the factor L_D^(m - i).
    """
    if f.algebra is not g.algebra and f.algebra.integer_sc != g.algebra.integer_sc:
        raise DimensionMismatch("operands live over different algebras")
    algebra = f.algebra
    n, m = algebra.dim, f.degree
    scale, table = algebra.integer_sc
    scale_d, dm = d.matrix.integer_form
    scale_f, fs = f.integer_form
    scale_g, current = g.integer_form
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
            moved = [_integer_apply(dm, c) for c in current] + [zero]
            current = [[scale_d * x + y for x, y in zip(shifted, applied)]
                       for shifted, applied in zip([zero, *current], moved)]
    return SkewPoly._from_integers(algebra, acc, scale * scale_f * scale_g * scale_d ** max(0, m))


def commutator_power(n: int, a: Vec, d: Derivation) -> tuple[SkewPoly, SkewPoly]:
    """X^n a - a X^n computed two ways: by rewriting and by the binomial sum
    sum_{i=1..n} C(n, i) D^i(a) X^(n-i).

    With a = A / La and D = M / L_D, the sum is the rows
    C(n, i) L_D^(n-i) M^i A over La L_D^n.  Returns (direct, formula) after
    asserting that their integer forms agree.
    """
    algebra = d.algebra
    xn = SkewPoly.x(algebra, n)
    ca = SkewPoly.constant(algebra, a)
    direct = skew_mul(xn, ca, d) - skew_mul(ca, xn, d)
    scale_d, dm = d.matrix.integer_form
    scale, value = _integer_row(a)
    terms = []
    for i in range(1, n + 1):
        value = _integer_apply(dm, value)
        factor = comb(n, i) * scale_d ** (n - i)
        terms.append([factor * x for x in value])
    formula = SkewPoly._from_integers(algebra, terms[::-1], scale * scale_d ** n)
    if direct != formula:
        raise SkewexError("commutator rewrite and binomial sum disagree")
    return direct, formula


def constant_terms(f: SkewPoly, d: Derivation) -> tuple[Vec, Vec]:
    """Constant coefficient in left-normal form and in right-coefficient form.

    The right form is produced top-down by peeling leading terms; converting
    back must reproduce f exactly, which is asserted.
    """
    algebra = f.algebra
    rem = f
    right: dict[int, SkewPoly] = {}
    while not rem.is_zero():
        deg = rem.degree
        scale, rows = rem.integer_form
        right[deg] = SkewPoly._from_integers(algebra, [rows[deg]], scale)
        rem = rem - skew_mul(SkewPoly.x(algebra, deg), right[deg], d)
    rebuilt = SkewPoly.zero(algebra)
    for power, c in right.items():
        rebuilt = rebuilt + skew_mul(SkewPoly.x(algebra, power), c, d)
    if rebuilt != f:
        raise SkewexError("left/right coefficient round-trip failed")
    return f.coeff(0), right[0].coeff(0) if 0 in right else zero_vec(algebra.dim)


def _operator_image(qd: Mat, b: Vec, d: Derivation, power: int = 0) -> tuple[list[int], int]:
    """(W, s) with q(D)(D^power(b)) = W / s for qd = q(D): with qd = Q / Lq,
    D = M / L_D and b = B / Lb, W = Q M^power B and s = Lq L_D^power Lb."""
    scale_q, qm = qd.integer_form
    scale_d, dm = d.matrix.integer_form
    scale, w = _integer_row(b)
    for _ in range(power):
        w = _integer_apply(dm, w)
    return _integer_apply(qm, w), scale_q * scale_d ** power * scale


def _constant_row(f: SkewPoly) -> list[int]:
    """L a_0 for f's integer form (L, rows)."""
    rows = f.integer_form[1]
    return list(rows[0]) if rows else [0] * f.algebra.dim


def constant_term_identity(q: Poly, b: Vec, d: Derivation) -> tuple[Vec, Vec]:
    """Constant term of q(X) * b versus the operator value q(D)(b).

    The left side goes through full skew multiplication, the right side
    through matrix evaluation; their integer rows are asserted equal
    cross-multiplied, and the value is returned for both.
    """
    algebra = d.algebra
    lhs = skew_mul(SkewPoly.from_scalar_poly(algebra, q), SkewPoly.constant(algebra, b), d)
    rhs = _operator_image(q.eval_matrix(d.matrix), b, d)
    if not _equal_rows(_constant_row(lhs), lhs.integer_form[0], *rhs):
        raise SkewexError("constant-term identity failed")
    value = lhs.coeff(0)
    return value, value


@dataclass(frozen=True)
class IdealConstantTerm:
    value: Vec
    predicted: Vec
    member: bool


def ideal_constant_term(q: Poly, b: Vec, m: int, k: int, d: Derivation) -> IdealConstantTerm:
    """Constant term of X^m q(X) b X^k: zero for k >= 1, q(D)(D^m(b)) for k = 0,
    and always inside span{x * q(D)(y)}, the left ideal generated by the image
    of q(D), whose integer residual decides membership."""
    algebra = d.algebra
    h = SkewPoly.from_scalar_poly(algebra, q)
    if m > 0:
        h = skew_mul(SkewPoly.x(algebra, m), h, d)
    h = skew_mul(h, SkewPoly.constant(algebra, b), d)
    if k > 0:
        h = skew_mul(h, SkewPoly.x(algebra, k), d)
    scale, value = h.integer_form[0], _constant_row(h)
    qd = q.eval_matrix(d.matrix)
    predicted = ([0] * algebra.dim, 1) if k >= 1 else _operator_image(qd, b, d, m)
    if not _equal_rows(value, scale, *predicted):
        raise SkewexError("ideal constant-term closed form failed")
    images = list(zip(*qd.integer_form[1]))
    member = not any(_integer_ideal(algebra, images, "left").residual(value))
    found = _rational_row(value, scale)
    return IdealConstantTerm(found, found, member)


def ore_quotient(
    algebra: Algebra,
    d: Derivation,
    p: Optional[Poly] = None,
    _skip_annihilator_check: bool = False,
) -> ExtensionResult:
    """Adjoin u with p(u) = 0 whose commutator realizes d on the base.

    p defaults to the minimal polynomial of d and must be monic with
    p(d) = 0; _extension.assemble checks the preconditions and the private
    flag.  The result has passed verify_extension, whose docstring lists the
    postconditions; in particular [u, embed(a)] = embed(d(a)).
    """
    return assemble(algebra, "derivation", d, p, _skip_annihilator_check)


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
