"""The skew and Laurent rewriters on Fraction coefficients, as test oracles.

FractionSkewPoly and FractionLaurentPoly are SkewPoly and LaurentSkewPoly as
they were before they were stored as integer forms: tuples of Fraction
coefficients added entry by entry.  ref_skew_mul applies the rewrite
X c = c X + D(c) one step at a time, and ref_laurent_mul moves X^i past b as
phi^i(b).  Both multiply over the dense Fraction structure constants and
apply matrices entry by entry (ref_multiply, ref_apply), so they share no
code with the integer forms.  The ref_* checks are commutator_power,
constant_terms, constant_term_identity, ideal_constant_term and
coefficient_sum_membership as they were, on these types; ideal membership
goes through ideal_closure, which test_integer_element_reference checks
against its own Fraction oracle.
"""

from dataclasses import dataclass
from math import comb

from skewex.algebra import ideal_closure
from skewex.errors import DimensionMismatch, NotAutomorphism, SkewexError
from skewex.linalg import ZERO, Mat, rat, zero_vec
from test_matrix_kernel_reference import ref_apply, ref_eval_matrix, ref_multiply


def vec_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


# -- skew polynomials ----------------------------------------------------------

@dataclass(frozen=True)
class FractionSkewPoly:
    """Left-normal form sum of a_i X^i; trailing zero coefficients trimmed."""

    algebra: object
    coeffs: tuple

    @staticmethod
    def of(algebra, coeffs):
        cs = [tuple(c) for c in coeffs]
        for c in cs:
            if len(c) != algebra.dim:
                raise DimensionMismatch("coefficient length differs from algebra dimension")
        while cs and not any(cs[-1]):
            cs.pop()
        return FractionSkewPoly(algebra, tuple(cs))

    @staticmethod
    def constant(algebra, a):
        return FractionSkewPoly.of(algebra, [a])

    @staticmethod
    def x(algebra, power=1):
        return FractionSkewPoly.of(algebra, [zero_vec(algebra.dim)] * power + [algebra.unit])

    @staticmethod
    def from_scalar_poly(algebra, p):
        return FractionSkewPoly.of(algebra, [tuple(c * x for x in algebra.unit)
                                             for c in p.coeffs])

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else zero_vec(self.algebra.dim)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionSkewPoly.of(self.algebra, [vec_add(self.coeff(i), other.coeff(i))
                                                  for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return FractionSkewPoly.of(self.algebra, [vec_sub(self.coeff(i), other.coeff(i))
                                                  for i in range(n)])

    def is_zero(self):
        return not self.coeffs


def ref_x_step(algebra, d_matrix, coeffs):
    """One application of the rewrite: X * (sum c_p X^p)."""
    out = [zero_vec(algebra.dim) for _ in range(len(coeffs) + 1)]
    for p, c in enumerate(coeffs):
        if not any(c):
            continue
        out[p + 1] = vec_add(out[p + 1], c)
        out[p] = vec_add(out[p], ref_apply(d_matrix, c))
    while out and not any(out[-1]):
        out.pop()
    return out


def ref_skew_mul(f, g, d):
    """f g in left-normal form, for f and g of either skew polynomial type."""
    algebra = f.algebra
    acc = [zero_vec(algebra.dim) for _ in range(max(0, f.degree + g.degree + 1))]
    current = list(g.coeffs)
    for i in range(f.degree + 1):
        a_i = f.coeff(i)
        if any(a_i):
            for p, c in enumerate(current):
                if any(c):
                    acc[p] = vec_add(acc[p], ref_multiply(algebra, a_i, c))
        current = ref_x_step(algebra, d.matrix, current)
    return FractionSkewPoly.of(algebra, acc)


def ref_commutator_power(n, a, d):
    algebra = d.algebra
    xn = FractionSkewPoly.x(algebra, n)
    ca = FractionSkewPoly.constant(algebra, a)
    direct = ref_skew_mul(xn, ca, d) - ref_skew_mul(ca, xn, d)
    terms = [zero_vec(algebra.dim) for _ in range(n)]
    value = tuple(a)
    for i in range(1, n + 1):
        value = ref_apply(d.matrix, value)
        terms[n - i] = tuple(comb(n, i) * x for x in value)
    formula = FractionSkewPoly.of(algebra, terms)
    if direct.coeffs != formula.coeffs:
        raise SkewexError("commutator rewrite and binomial sum disagree")
    return direct, formula


def ref_constant_terms(f, d):
    algebra = f.algebra
    rem = f
    right = {}
    while not rem.is_zero():
        deg = rem.degree
        c = rem.coeffs[deg]
        right[deg] = c
        rem = rem - ref_skew_mul(FractionSkewPoly.x(algebra, deg),
                                 FractionSkewPoly.constant(algebra, c), d)
    rebuilt = FractionSkewPoly.of(algebra, [])
    for power, c in right.items():
        rebuilt = rebuilt + ref_skew_mul(FractionSkewPoly.x(algebra, power),
                                         FractionSkewPoly.constant(algebra, c), d)
    if rebuilt.coeffs != f.coeffs:
        raise SkewexError("left/right coefficient round-trip failed")
    return f.coeff(0), right.get(0, zero_vec(algebra.dim))


def ref_constant_term_identity(q, b, d):
    algebra = d.algebra
    lhs = ref_skew_mul(FractionSkewPoly.from_scalar_poly(algebra, q),
                       FractionSkewPoly.constant(algebra, b), d).coeff(0)
    rhs = ref_apply(ref_eval_matrix(q, d.matrix), b)
    if lhs != rhs:
        raise SkewexError("constant-term identity failed")
    return lhs, rhs


def ref_ideal_constant_term(q, b, m, k, d):
    """(value, predicted, member) of ideal_constant_term."""
    algebra = d.algebra
    h = FractionSkewPoly.from_scalar_poly(algebra, q)
    if m > 0:
        h = ref_skew_mul(FractionSkewPoly.x(algebra, m), h, d)
    h = ref_skew_mul(h, FractionSkewPoly.constant(algebra, b), d)
    if k > 0:
        h = ref_skew_mul(h, FractionSkewPoly.x(algebra, k), d)
    value = h.coeff(0)
    qd = ref_eval_matrix(q, d.matrix)
    if k >= 1:
        predicted = zero_vec(algebra.dim)
    else:
        dm_b = tuple(b)
        for _ in range(m):
            dm_b = ref_apply(d.matrix, dm_b)
        predicted = ref_apply(qd, dm_b)
    if value != predicted:
        raise SkewexError("ideal constant-term closed form failed")
    return value, predicted, ideal_closure(algebra, qd.columns(), "left").contains(value)


# -- skew Laurent polynomials ----------------------------------------------------------

@dataclass(frozen=True)
class FractionLaurentPoly:
    """Finite sum of a_i X^i over integer exponents, coefficients on the left."""

    algebra: object
    terms: tuple  # ascending exponents, no zero coefficients

    @staticmethod
    def of(algebra, terms):
        collected = {}
        for exp, coeff in terms:
            coeff = tuple(coeff)
            if len(coeff) != algebra.dim:
                raise DimensionMismatch("coefficient length differs from algebra dimension")
            collected[exp] = vec_add(collected[exp], coeff) if exp in collected else coeff
        return FractionLaurentPoly(algebra, tuple(
            (exp, collected[exp]) for exp in sorted(collected) if any(collected[exp])))

    @staticmethod
    def monomial(algebra, a, exp):
        return FractionLaurentPoly.of(algebra, [(exp, a)])

    @staticmethod
    def from_scalar_terms(algebra, terms):
        return FractionLaurentPoly.of(
            algebra, [(e, tuple(rat(c) * x for x in algebra.unit)) for e, c in terms])

    def __add__(self, other):
        return FractionLaurentPoly.of(self.algebra, self.terms + other.terms)

    def __sub__(self, other):
        negated = tuple((e, tuple(-x for x in c)) for e, c in other.terms)
        return FractionLaurentPoly.of(self.algebra, self.terms + negated)


def ref_laurent_mul(f, g, phi):
    """f g in left-normal form, a X^i * b X^j = a phi^i(b) X^(i+j), for f and g
    of either Laurent type."""
    if not phi.is_invertible():
        raise NotAutomorphism("the twist must be invertible")
    algebra = f.algebra
    out = []
    for i, a in f.terms:
        mat = phi.power(i)
        for j, b in g.terms:
            out.append((i + j, ref_multiply(algebra, a, ref_apply(mat, b))))
    return FractionLaurentPoly.of(algebra, out)


def ref_eval_at_one(f):
    acc = zero_vec(f.algebra.dim)
    for _, c in f.terms:
        acc = vec_add(acc, c)
    return acc


def ref_coefficient_sum_membership(scalar_terms, b, c, j, k, phi):
    """(value, closed_form, member) of coefficient_sum_membership."""
    algebra = phi.algebra
    n = algebra.dim
    f = FractionLaurentPoly.from_scalar_terms(algebra, scalar_terms)
    h = ref_laurent_mul(FractionLaurentPoly.monomial(algebra, b, j), f, phi)
    h = ref_laurent_mul(h, FractionLaurentPoly.monomial(algebra, c, k), phi)
    value = ref_eval_at_one(h)
    entries = [[ZERO] * n for _ in range(n)]
    for exp, coeff in scalar_terms:
        power = phi.power(exp).entries
        for r in range(n):
            for s in range(n):
                entries[r][s] += rat(coeff) * power[r][s]
    f_of_phi = Mat.from_entries(n, n, entries)
    closed = ref_multiply(algebra, b, ref_apply(f_of_phi, ref_apply(phi.power(j), c)))
    if value != closed:
        raise SkewexError("coefficient-sum closed form failed")
    return value, closed, ideal_closure(algebra, f_of_phi.columns(), "left").contains(value)
