"""Exact linear algebra over the rationals.

All results are exact: rank, kernel and minimal-polynomial computations
never see rounding.  Vectors at the public boundary are plain tuples of
`fractions.Fraction`; matrices, subspaces and the skew polynomials of ore.py
and laurent.py are small immutable wrappers stored in integers, in canonical
forms (_canonical_form), which makes equality a structural comparison.  A
Mat's Fraction entries and a Subspace's Fraction basis are views for the
boundary.

Fractions are the boundary, integers the inside.  Elimination scales each
row to integers by the lcm of its denominators and runs Gauss-Jordan without
fractions (Bareiss, Math. Comp. 1968), keeping each row divided by its
content; the finished pivot rows over their pivots are the same unique
reduced echelon form as rational elimination gives.  Spans take integer
rows: the reduced echelon form does not change when a row is scaled by a
nonzero factor, so callers that build vectors only to span them or test them
for membership keep any nonzero multiples as integer rows and pass them to
_integer_span, which makes no Fraction.  Membership, quotient coordinates,
sums and intersections read the stored integer rows.
A Mat is its integer form (L, A), L the lcm of its denominators and A = L M.
Sums, products, powers, inverses, echelon forms and polynomials in a matrix
compute an integer pair (s, B) with M = B / s and divide both by
gcd(s, B), which gives the stored form again and makes no Fraction; a
matrix-vector product makes one Fraction per nonzero entry of the result.
The nilpotency test makes no Fraction at all, and the minimal polynomial
makes Fractions only for the Poly it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import DimensionMismatch

Rat = Fraction
Vec = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def vec(values: Iterable) -> Vec:
    return tuple(rat(v) for v in values)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(i: int, n: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


@dataclass(frozen=True)
class Mat:
    """Immutable rational matrix M, row-major, stored as its integer form.

    integer_form is (L, A): L the lcm of the denominators of M's entries (1
    for a zero matrix) and A = L M, so gcd(L, A) = 1 and the form is
    canonical; equality and hashing compare it.  Arithmetic runs on A, and
    entries, the Fraction rows, is a view built on first read and kept out
    of equality, hashing and repr.
    """

    rows: int
    cols: int
    integer_form: tuple[int, tuple[tuple[int, ...], ...]]

    @cached_property
    def entries(self) -> tuple[Vec, ...]:
        scale, ints = self.integer_form
        return tuple(_rational_row(row, scale) for row in ints)

    @staticmethod
    def _from_integers(ints: Sequence[Sequence[int]], cols: int, scale: int) -> "Mat":
        """The matrix ints / scale, scale > 0, in its integer form."""
        return Mat(len(ints), cols, _canonical_form(ints, scale))

    @staticmethod
    def from_entries(rows: int, cols: int, entries: Sequence[Sequence[Fraction]]) -> "Mat":
        """The rows x cols matrix with the given int or Fraction entries."""
        scale, ints = _common_scale_rows(entries)
        return Mat(rows, cols, (scale, tuple(map(tuple, ints))))

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Mat":
        grid = [[rat(x) for x in r] for r in rows]
        ncols = len(grid[0]) if grid else 0
        if any(len(r) != ncols for r in grid):
            raise DimensionMismatch("ragged rows")
        return Mat.from_entries(len(grid), ncols, grid)

    @staticmethod
    def identity(n: int) -> "Mat":
        return Mat(n, n, (1, tuple(tuple(int(r == c) for c in range(n)) for r in range(n))))

    @staticmethod
    def zeros(rows: int, cols: int) -> "Mat":
        return Mat(rows, cols, (1, ((0,) * cols,) * rows))

    @staticmethod
    def from_columns(cols: Sequence[Vec]) -> "Mat":
        return Mat.from_entries(len(cols[0]) if cols else 0, len(cols), list(zip(*cols)))

    def column(self, j: int) -> Vec:
        scale, ints = self.integer_form
        return _rational_row([row[j] for row in ints], scale)

    def columns(self) -> list[Vec]:
        return [self.column(j) for j in range(self.cols)]

    def apply(self, v: Vec) -> Vec:
        """Matrix-vector product: with v = w / Lv, it is A w over L Lv."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"expected length {self.cols}, got {len(v)}")
        scale, ints = self.integer_form
        lv, w = _integer_row(v)
        return _rational_row(_integer_apply(ints, w), scale * lv)

    def __add__(self, other: "Mat") -> "Mat":
        return self._combine(other, 1)

    def __sub__(self, other: "Mat") -> "Mat":
        return self._combine(other, -1)

    def _combine(self, other: "Mat", sign: int) -> "Mat":
        """self + sign other: A (L / La) + sign B (L / Lb) over L = lcm(La, Lb)."""
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        la, a = self.integer_form
        lb, b = other.integer_form
        scale = lcm(la, lb)
        fa, fb = scale // la, sign * (scale // lb)
        return Mat._from_integers([[fa * x + fb * y for x, y in zip(r, s)] for r, s in zip(a, b)],
                                  self.cols, scale)

    def __neg__(self) -> "Mat":
        scale, ints = self.integer_form
        return Mat(self.rows, self.cols, (scale, tuple(tuple(-x for x in row) for row in ints)))

    def scale(self, c) -> "Mat":
        c = rat(c)
        scale, ints = self.integer_form
        return Mat._from_integers([[c.numerator * x for x in row] for row in ints], self.cols,
                                  scale * c.denominator)

    def __mul__(self, other: "Mat") -> "Mat":
        """Matrix product: A B over La Lb."""
        if self.cols != other.rows:
            raise DimensionMismatch("inner dimensions differ")
        la, a = self.integer_form
        lb, b = other.integer_form
        return Mat._from_integers(_integer_matmul(a, b, other.cols), other.cols, la * lb)

    def power(self, k: int) -> "Mat":
        """M^k for k >= 0: A^k over L^k."""
        if self.rows != self.cols:
            raise DimensionMismatch("power of a non-square matrix")
        scale, ints = self.integer_form
        return Mat._from_integers(_integer_matrix_power(ints, self.rows, k), self.cols, scale ** k)

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        scale, ints = self.integer_form
        return Fraction(sum(row[i] for i, row in enumerate(ints)), scale)

    def is_zero(self) -> bool:
        return not any(map(any, self.integer_form[1]))


def _canonical_form(ints: Sequence[Sequence[int]], scale: int
                    ) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(s, B) for the rational rows ints / scale, scale > 0: both divided by
    g = gcd(scale, ints), so gcd(s, B) = 1 and equal rows give equal forms."""
    g = gcd(scale, *(x for row in ints for x in row))
    if g != 1:
        return scale // g, tuple(tuple(x // g for x in row) for row in ints)
    return scale, tuple(map(tuple, ints))


def _integer_row(row: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(L, L * row) for L the lcm of the row's denominators."""
    scale = lcm(*(x.denominator for x in row))
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def _common_scale_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """(L, L * rows) for L the lcm of the denominators of all the rows."""
    scale = lcm(*(x.denominator for row in rows for x in row))
    return scale, [[x.numerator * (scale // x.denominator) for x in row] for row in rows]


def _integer_apply(ints: Sequence[Sequence[int]], w: Sequence[int]) -> list[int]:
    """The product of the integer matrix given by its rows and the integer vector w."""
    return [sum(map(mul, row, w)) for row in ints]


def _equal_rows(x: Sequence[int], x_scale: int, y: Sequence[int], y_scale: int) -> bool:
    """Whether x / x_scale = y / y_scale, compared cross-multiplied."""
    return all(a * y_scale == b * x_scale for a, b in zip(x, y))


def _rational_row(ints: Sequence[int], scale: int) -> Vec:
    """The row ints / scale, with one Fraction per nonzero entry."""
    return tuple([Fraction(x, scale) if x else ZERO for x in ints])


def _integer_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]],
                    cols: int) -> list[list[int]]:
    """The product of integer matrices given by rows; b has cols columns."""
    bt = list(zip(*b)) if b else [()] * cols
    return [[sum(map(mul, row, col)) for col in bt] for row in a]


def _integer_matrix_power(base: Sequence[Sequence[int]], n: int, k: int) -> list[list[int]]:
    """The k-th power of an n x n integer matrix, by repeated squaring."""
    result = [[int(r == c) for c in range(n)] for r in range(n)] if k == 0 else None
    while k:
        if k & 1:
            result = base if result is None else _integer_matmul(result, base, n)
        k >>= 1
        if k:
            base = _integer_matmul(base, base, n)
    return result


def _integer_is_nilpotent(ints: Sequence[Sequence[int]], n: int) -> bool:
    """A^n = 0 for the n x n integer matrix A."""
    return not any(map(any, _integer_matrix_power(ints, n, n)))


def _primitive(row: list[int]) -> list[int]:
    """The row divided by its content, the gcd of its entries; zero rows stay."""
    content = gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _integer_rref(ints: list[list[int]]) -> list[int]:
    """Fraction-free Gauss-Jordan on integer rows, in place; returns the pivots.

    Afterwards the first rank rows have their pivots in ascending columns and
    zeros in every other pivot column, each row has content 1, and the rows
    below are zero.  Dividing each row by its pivot gives the reduced echelon
    form.
    """
    if not ints:
        return []
    nrows = len(ints)
    for i in range(nrows):
        ints[i] = _primitive(ints[i])
    pivots: list[int] = []
    r = 0
    for c in range(len(ints[0])):
        pivot_row = next((i for i in range(r, nrows) if ints[i][c]), None)
        if pivot_row is None:
            continue
        ints[r], ints[pivot_row] = ints[pivot_row], ints[r]
        lead = ints[r]
        a = lead[c]
        for i in range(nrows):
            row = ints[i]
            f = row[c]
            if f and i != r:
                # row <- (a/g) row - (f/g) lead clears column c
                g = gcd(a, f)
                ag, fg = a // g, f // g
                ints[i] = _primitive([ag * x - fg * y for x, y in zip(row, lead)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


class _IntegerEchelon:
    """Integer rows in echelon form, grown one vector at a time.

    Each row is zero on the pivots of the rows kept before it, so reducing a
    vector against the rows in the order they were kept clears every pivot,
    and the vector lies in their span exactly when its residual is zero.
    Each step is the fraction-free row operation of _integer_rref, and the
    residual is kept divided by its content.
    """

    def __init__(self) -> None:
        self.rows: list[tuple[int, list[int]]] = []

    def reduce(self, w: list[int]) -> list[int]:
        """A nonzero multiple of w minus a combination of the rows, zero on every pivot."""
        for p, row in self.rows:
            f = w[p]
            if f:
                a = row[p]
                g = gcd(a, f)
                ag, fg = a // g, f // g
                w = _primitive([ag * x - fg * y for x, y in zip(w, row)])
        return w

    def keep(self, residual: list[int]) -> None:
        """Add a nonzero residual of reduce as a row; its first nonzero entry is its pivot."""
        self.rows.append((next(j for j, x in enumerate(residual) if x), residual))

    def add(self, w: list[int]) -> bool:
        """Keep w's residual when it is nonzero; whether it was."""
        residual = self.reduce(w)
        if not any(residual):
            return False
        self.keep(residual)
        return True


def _pivot_rows(ints: list[list[int]]) -> tuple[int, list[list[int]], list[int]]:
    """(D, rows, pivots) for rows D R, R the reduced echelon rows of the integer
    rows (reduced in place by _integer_rref) and D the lcm of their pivots."""
    pivots = _integer_rref(ints)
    common = lcm(*(ints[r][c] for r, c in enumerate(pivots)))
    return common, [[common // row[c] * x for x in row] for row, c in zip(ints, pivots)], pivots


def rref(m: Mat) -> tuple[Mat, list[int], int]:
    """Unique reduced row-echelon form along with pivot columns and rank."""
    ints = [list(row) for row in m.integer_form[1]]
    common, rows, pivots = _pivot_rows(ints)
    rows += ints[len(pivots):]
    return Mat._from_integers(rows, m.cols, common), pivots, len(pivots)


def solve(m: Mat, b: Vec) -> Optional[Vec]:
    """One solution of m x = b, free variables set to zero; None if inconsistent.

    With m = A / L and b = w / Lb, the system is Lb A x = L w, eliminated on
    its integer augmented rows."""
    if len(b) != m.rows:
        raise DimensionMismatch("right-hand side length differs from row count")
    scale, ints = m.integer_form
    lb, w = _integer_row(b)
    common, rows, pivots = _pivot_rows([[lb * x for x in row] + [scale * y]
                                        for row, y in zip(ints, w)])
    # A pivot in the augmented column means the system is inconsistent.
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return _rational_row(x, common)


def inverse(m: Mat) -> Optional[Mat]:
    """M^-1 = L A^-1 for M = A / L, or None: the rows of [A | I] reduce to
    D (I | A^-1), D the lcm of the pivots."""
    if m.rows != m.cols:
        return None
    n = m.rows
    scale, ints = m.integer_form
    common, rows, pivots = _pivot_rows([[*row, *(int(i == j) for j in range(n))]
                                        for i, row in enumerate(ints)])
    if pivots[:n] != list(range(n)):
        return None
    return Mat._from_integers([[scale * x for x in row[n:]] for row in rows], n, common)


@dataclass(frozen=True)
class Subspace:
    """Subspace of Q^n, stored as its reduced row-echelon basis R in integers.

    scale is L, the lcm of the denominators of R, and echelon holds each
    row's pivot p with the nonzero (column, L * R[column]) pairs after p.  R
    is canonical, so two Subspaces are equal exactly when these fields are.
    Callers work on the integer API (residual, rows, kept, project); basis,
    the Fraction rows, is a view built on first read and kept out of equality.
    """

    ambient_dim: int
    scale: int
    echelon: tuple[tuple[int, tuple[tuple[int, int], ...]], ...]

    @property
    def dim(self) -> int:
        return len(self.echelon)

    @cached_property
    def basis(self) -> tuple[Vec, ...]:
        """The reduced echelon rows as Fraction vectors."""
        return tuple(_rational_row(row, self.scale) for row in self.rows())

    def rows(self) -> list[list[int]]:
        """The reduced echelon rows as dense integers, L R for L = scale."""
        out = [[0] * self.ambient_dim for _ in self.echelon]
        for row, (p, entries) in zip(out, self.echelon):
            for j, x in ((p, self.scale), *entries):
                row[j] = x
        return out

    def pivots(self) -> list[int]:
        return [p for p, _ in self.echelon]

    def contains(self, v: Vec) -> bool:
        """Membership by the integer residual against the echelon basis."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
        return not any(self.residual(_integer_row(v)[1]))

    def reduce(self, v: Vec) -> Vec:
        """Residual of v after eliminating against the basis."""
        scale, w = _integer_row(v)
        return _rational_row(self.residual(w), scale * self.scale)

    @cached_property
    def _kept(self) -> tuple[int, ...]:
        """kept(), found once per Subspace, outside equality and hashing."""
        pivots = set(self.pivots())
        return tuple(j for j in range(self.ambient_dim) if j not in pivots)

    def kept(self) -> list[int]:
        """The non-pivot coordinates, which a quotient by the subspace keeps."""
        return list(self._kept)

    def residual(self, w: Sequence[int]) -> list[int]:
        """L times the residual of the integer vector w, L = scale.

        Each reduced echelon row is 1 on its own pivot and 0 on the others, so
        the residual is w minus w[p] times the row of each pivot p, with zeros
        on the pivots, whatever the order of the rows.  It is zero exactly
        when w lies in the subspace.
        """
        residual = [self.scale * x for x in w]
        for p, entries in self.echelon:
            f = w[p]
            if f:
                residual[p] = 0
                for j, y in entries:
                    residual[j] -= f * y
        return residual

    def project(self, w: Sequence[int]) -> list[int]:
        """The kept coordinates of residual(w): L times w's image in the quotient."""
        residual = self.residual(w)
        return [residual[j] for j in self._kept]

    def is_subspace_of(self, other: "Subspace") -> bool:
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return not any(any(other.residual(row)) for row in self.rows())

    def sum(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        return _integer_span(self.rows() + other.rows(), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus block elimination on the integer rows."""
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch("ambient dimensions differ")
        n = self.ambient_dim
        block = [v + v for v in self.rows()] + [v + [0] * n for v in other.rows()]
        rank = len(_integer_rref(block))
        return _integer_span([r[n:] for r in block[:rank] if not any(r[:n])], n)


def span(vectors: Sequence[Vec], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given vectors (empty list -> zero)."""
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch("vector length differs from ambient dimension")
    return _integer_span([_integer_row(v)[1] for v in vectors], ambient_dim)


def _integer_span(ints: Sequence[Sequence[int]], ambient_dim: int) -> Subspace:
    """The subspace spanned by integer rows of length ambient_dim.

    Each row _integer_rref leaves has content 1, so dividing it by its pivot a
    gives a reduced echelon row whose denominators have lcm |a|: L is the lcm
    of the |a| and the stored entries are (L // a) x, with no Fraction made.
    Scaling a row by a nonzero factor leaves the reduced echelon form alone,
    so any nonzero multiples of the vectors give the same Subspace.
    """
    rows = [row for row in ints if any(row)]
    pivots = _integer_rref(rows)
    scale = lcm(*(rows[r][c] for r, c in enumerate(pivots)))
    return Subspace(ambient_dim, scale, tuple(
        (c, tuple((j, scale // row[c] * x) for j, x in enumerate(row) if x and j > c))
        for row, c in zip(rows, pivots)))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, 1, ())


def full_space(n: int) -> Subspace:
    return Subspace(n, 1, tuple((i, ()) for i in range(n)))


def kernel(m: Mat) -> Subspace:
    """Null space {x : m x = 0} in canonical form."""
    return _integer_kernel([list(row) for row in m.integer_form[1]], m.cols)


def _integer_kernel(ints: list[list[int]], ncols: int) -> Subspace:
    """Null space of the integer rows, each of length ncols; reduces them in place.

    Free column f gives M times the kernel vector with 1 on f: M on f and
    -row[f] (M // row[p]) on the pivot p of each row, M the lcm of those row[p]."""
    pivots = _integer_rref(ints)
    vectors = []
    for f in range(ncols):
        if f in pivots:
            continue
        rows = [(row, p) for row, p in zip(ints, pivots) if row[f]]
        scale = lcm(*(row[p] for row, p in rows))
        v = [0] * ncols
        v[f] = scale
        for row, p in rows:
            v[p] = -row[f] * (scale // row[p])
        vectors.append(v)
    return _integer_span(vectors, ncols)


def column_space(m: Mat) -> Subspace:
    return _integer_span([list(col) for col in zip(*m.integer_form[1])], m.rows)


@dataclass(frozen=True)
class Poly:
    """Univariate rational polynomial, coefficients from the constant term up.

    The zero polynomial stores an empty tuple; otherwise the leading
    coefficient is nonzero.
    """

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(coeffs: Iterable) -> "Poly":
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly(tuple(cs))

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((ONE,))

    @staticmethod
    def x() -> "Poly":
        return Poly((ZERO, ONE))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else ZERO

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.of([self.coeff(i) + other.coeff(i) for i in range(n)])

    def __sub__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly.of([self.coeff(i) - other.coeff(i) for i in range(n)])

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly.of(out)

    def scale(self, c) -> "Poly":
        c = rat(c)
        return Poly.of([c * a for a in self.coeffs])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self.scale(ONE / self.coeffs[-1])

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dd = divisor.degree
        lead = dcs[-1]
        quot = [ZERO] * max(0, len(rem) - dd)
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            f = rem[-1] / lead
            quot[k] = f
            for i in range(dd + 1):
                rem[k + i] -= f * dcs[i]
            while rem and rem[-1] == 0:
                rem.pop()
        return Poly.of(quot), Poly.of(rem)

    def mod(self, divisor: "Poly") -> "Poly":
        return self.divmod(divisor)[1]

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.mod(b)
        return a.monic()

    def lcm(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        return (self * other).divmod(self.gcd(other))[0].monic()

    def derivative(self) -> "Poly":
        return Poly.of([i * c for i, c in enumerate(self.coeffs)][1:])

    def squarefree_part(self) -> "Poly":
        if self.degree < 1:
            return self.monic()
        return self.divmod(self.gcd(self.derivative()))[0].monic()

    def eval(self, x) -> Fraction:
        x = rat(x)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: Mat) -> Mat:
        """p(M) by Horner's rule on integers.

        With M = A / L and coefficients c_i = C_i / Lc, the Horner steps
        S <- S A + C_i L^(d-i) I leave sum_i C_i A^i L^(d-i), which is p(M)
        over Lc L^d, d the degree.
        """
        if self.is_zero():
            return Mat.zeros(m.rows, m.cols)
        if m.rows != m.cols:
            raise DimensionMismatch("inner dimensions differ")
        n = m.rows
        scale, a = m.integer_form
        lc, cs = _integer_row(self.coeffs)
        acc = [[cs[-1] if r == c else 0 for c in range(n)] for r in range(n)]
        power = 1
        for c in reversed(cs[:-1]):
            power *= scale
            acc = _integer_matmul(acc, a, n)
            for r in range(n):
                acc[r][r] += c * power
        return Mat._from_integers(acc, n, lc * power)

    def rational_roots(self) -> list[Fraction]:
        """All rational roots, via the rational-root bound on a cleared form.

        With integer coefficients c_0 .. c_d, c_0 != 0, a root in lowest
        terms is +-num/den with num | c_0 and den | c_d; it is one exactly
        when sum c_i num^i den^(d-i) = 0, tested in integers.  A pair with a
        common factor repeats the candidate of its reduced pair and is skipped.
        """
        if self.is_zero():
            raise ValueError("zero polynomial has every root")
        p = self
        roots = []
        if p.coeff(0) == 0:
            roots.append(ZERO)
            while p.coeff(0) == 0 and p.degree >= 1:
                p = Poly.of(p.coeffs[1:])
        if p.degree < 1:
            return roots
        ints = _integer_row(p.coeffs)[1]
        lead, const = ints[-1], ints[0]
        for num in _divisors(abs(const)):
            for den in _divisors(abs(lead)):
                if gcd(num, den) > 1:
                    continue
                for signed in (num, -num):
                    # homogeneous Horner: c_d num^d + c_(d-1) num^(d-1) den + ...
                    acc, den_power = 0, 1
                    for c in reversed(ints):
                        acc = acc * signed + c * den_power
                        den_power *= den
                    if acc == 0:
                        roots.append(Fraction(signed, den))
        return sorted(roots)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{i}" if c != 1 else f"t^{i}")
        return " + ".join(parts)


def power_reduction_table(p: Poly, max_power: int) -> list[Vec]:
    """beta[m] with X^m = sum_q beta[m][q] X^q modulo the monic p, m <= max_power."""
    d = p.degree
    table = [unit_vec(m, d) for m in range(d)]
    for m in range(d, max_power + 1):
        prev = table[m - 1]
        shifted = [ZERO] + list(prev[:-1])
        top = prev[-1]
        if top:
            shifted = [s - top * p.coeffs[q] for q, s in enumerate(shifted)]
        table.append(tuple(shifted))
    return table


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def is_nilpotent(m: Mat) -> bool:
    """m^n = 0 for an n x n matrix m, decided as A^n = 0 on the integer form.

    Exact by Cayley-Hamilton: the verdict is the same as asking whether the
    minimal polynomial is a pure power of t.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("power of a non-square matrix")
    return _integer_is_nilpotent(m.integer_form[1], m.rows)


def krylov_relation(step: Callable[[Vec], Vec], v: Vec) -> Poly:
    """The monic relation of least degree among v, step(v), step(step(v)), ...,
    found by _integer_krylov on the iterates scaled to integers.  For v = 0
    the relation is 1."""
    def iterates():
        current = v
        while True:
            scale, row = _integer_row(current)
            yield row, scale
            current = step(current)

    relation = _integer_krylov(iterates())[1]
    return Poly.of([Fraction(a, relation[-1]) for a in relation])


def _integer_krylov(iterates: Iterable[tuple[list[int], int]]
                    ) -> tuple[list[tuple[list[int], int]], list[int]]:
    """The first linear relation in a chain of vectors v_0, v_1, ..., each
    given as (V, s) with v_k = V / s, s > 0, and read only as far as needed.

    One integer echelon form of the chain is kept, each row tagged with the
    combination of iterates it is: v_k enters as (V | s e_k) = s (v_k | e_k),
    so every row is a multiple of (sum a_j v_j | a).  Each new iterate is
    reduced once; the first whose residual is zero on the vector part gives
    sum a_j v_j = 0 with a_k != 0.  That relation is unique up to a factor,
    so its monic form is the one a solve of the whole chain would give.
    Returns the independent iterates (V, s) before v_k, and the integers
    a_0 .. a_k.
    """
    echelon = _IntegerEchelon()
    chain = []
    for k, (row, scale) in enumerate(iterates):
        n = len(row)
        tag = [0] * (n + 1)
        tag[k] = scale
        residual = echelon.reduce(row + tag)
        if not any(residual[:n]):
            return chain, residual[n:n + k + 1]
        echelon.keep(residual)
        chain.append((row, scale))
    raise AssertionError("the chain ended before its first relation")


def minimal_polynomial(m: Mat) -> Poly:
    """Monic minimal polynomial: the lcm of the Krylov relations mu_i of the
    basis vectors e_i, built as a product with no gcd taken.

    Keep f, the lcm of mu_1 .. mu_(i-1), and V = f(M).  The annihilator g
    of f(M) e_i, the Krylov relation of the column V e_i, is
    mu_i / gcd(mu_i, f), so f g = lcm(f, mu_i), and V becomes g(M) V; when
    V e_i = 0, f is already a multiple of mu_i.  Each step zeroes its column
    of V and keeps the earlier ones zero, so the final check that f
    annihilates M reads V.

    In integers, with M = A / L: V is kept as an integer matrix up to a
    nonzero factor, which moves neither a column's relation nor its
    zeroness.  The relation a_0 .. a_k of a column w is _integer_krylov's
    on the iterates A^j w / L^j, and V becomes sum_j a_j L^(k-j) A^j V by
    Horner's rule.  f is the product of these integer relations, made monic
    once at the end.
    """
    if m.rows != m.cols:
        raise DimensionMismatch("minimal polynomial of a non-square matrix")
    n = m.rows
    scale, base = m.integer_form
    result = [1]
    value = [[int(r == c) for c in range(n)] for r in range(n)]
    for i in range(n):
        column = [row[i] for row in value]
        if not any(column):
            continue
        relation = _integer_krylov(_matrix_iterates(base, scale, column))[1]
        product = [0] * (len(result) + len(relation) - 1)
        for p, a in enumerate(result):
            for q, b in enumerate(relation):
                product[p + q] += a * b
        result = _primitive(product)
        acc = [[relation[-1] * x for x in row] for row in value]
        power = 1
        for a in reversed(relation[:-1]):
            power *= scale
            acc = [[x + a * power * y for x, y in zip(high, low)]
                   for high, low in zip(_integer_matmul(base, acc, n), value)]
        content = gcd(*(x for row in acc for x in row))
        value = [[x // content for x in row] for row in acc] if content > 1 else acc
    if any(map(any, value)):
        raise AssertionError("minimal polynomial candidate does not annihilate the matrix")
    return Poly.of([Fraction(a, result[-1]) for a in result])


def _matrix_iterates(base: Sequence[Sequence[int]], scale: int, w: list[int]
                     ) -> Iterator[tuple[list[int], int]]:
    """(A^j w, L^j) for j = 0, 1, ...: the iterates M^j w of M = A / L."""
    power = 1
    while True:
        yield w, power
        w, power = _integer_apply(base, w), power * scale
