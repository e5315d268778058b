"""Derivations, algebra endomorphisms, and difference maps I - phi.

Role wrappers (Derivation, AlgebraEndo, EDerivation) certify their defining
identity at construction time on the pairs (x, e_j), x the unit and then e_g
for g in Algebra.generators.  The x at which it holds for all e_j form a
subalgebra, which the unit row puts 1 in, so it holds on the words in G and
everywhere.  An E-derivation is certified by its definition, I - m being an
endomorphism, and that one check also certifies the phi it carries.  Each
map computes its minimal polynomial at most once.

The certificates run on integers: the matrix's integer form (L, A) from
linalg and the algebra's integer structure constants, summed by the one
integer product loop of algebra.  Each pair compares two integer vectors
that are both sides of the identity over one common denominator, so
the verdicts and witnesses are those of the rational identity.  The
derivation space is read off the same constants: on a semisimple algebra,
certified by the trace form's dual basis (algebra.separability), it is the
span of the inner derivations ad_{e_j}; elsewhere it is solved from the
integer product-rule rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .algebra import Algebra, _commutator_matrix, _integer_product, _nonzero, is_ideal, quotient
from .algebra import separability
from .errors import (
    DimensionMismatch,
    NotAutomorphism,
    NotDerivation,
    NotEndomorphism,
    NotInKernelChain,
    NotInvertible,
    NotLocallyNilpotent,
    SkewexError,
)
from .linalg import (
    Mat,
    Poly,
    Subspace,
    Vec,
    _integer_kernel,
    _integer_matmul,
    _integer_row,
    _integer_rref,
    _integer_span,
    _power_residues,
    inverse,
    is_zero_vec,
    minimal_polynomial,
    rat,
    solve,
    vec_add,
    vec_sub,
    zero_subspace,
    zero_vec,
)


@dataclass(frozen=True)
class LinearEndo:
    """A linear map on an algebra's coordinate space."""

    algebra: Algebra
    matrix: Mat

    def __call__(self, v: Vec) -> Vec:
        return self.matrix.apply(v)

    @cached_property
    def minimal_polynomial(self) -> Poly:
        """Minimal polynomial of the matrix; computed once, outside equality,
        hashing and repr."""
        return minimal_polynomial(self.matrix)


def _integer_columns(m: Mat, rows: int, cols: int) -> tuple[int, list[list[tuple[int, int]]]]:
    """(L, columns): the nonzero (r, A[r][c]) of each column c of the integer
    form of m, which must be rows x cols."""
    if (m.rows, m.cols) != (rows, cols):
        raise DimensionMismatch(f"expected a {rows} x {cols} matrix, got {m.rows} x {m.cols}")
    scale, ints = m.integer_form
    return scale, [[(r, row[c]) for r, row in enumerate(ints) if row[c]] for c in range(m.cols)]


def _integer_image(columns: list[list[tuple[int, int]]], xs, rows: int) -> list[int]:
    """A x for the sparse columns of A and the nonzero (k, x) pairs of x."""
    out = [0] * rows
    for k, x in xs:
        for r, a in columns[k]:
            out[r] += a * x
    return out


def _certificate_rows(algebra: Algebra) -> list[tuple]:
    """(name, X, products): the unit, "unit", then e_g, g, for g in G, as the
    nonzero pairs of X = Lx x and of each X e_j, L Lx e_j for x = 1 by the unit law."""
    scale, unit = _integer_row(algebra.unit)
    step = scale * algebra.integer_sc[0]
    return [("unit", _nonzero(unit), [[(j, step)] for j in range(algebra.dim)])] + [
        (g, [(g, 1)], algebra.integer_sc[1][g]) for g in algebra.generators]


def is_derivation(algebra: Algebra, m: Mat) -> tuple[bool, Optional[tuple]]:
    """Product rule D(x e_j) = D(x) e_j + x D(e_j) on the rows of
    _certificate_rows; witness ("unit", j) or (g, j).  The unit row holds
    exactly when D(1) = 0.

    With D = A / L, the constants C / Lc and x = X / Lx, both sides are
    integer vectors over L Lc Lx: A (X e_j C), and (A X) e_j C + X A_j C.
    """
    _, columns = _integer_columns(m, algebra.dim, algebra.dim)
    table = algebra.integer_sc[1]
    for name, xs, products in _certificate_rows(algebra):
        image = _nonzero(_integer_image(columns, xs, algebra.dim))
        for j, product in enumerate(products):
            lhs = _integer_image(columns, product, algebra.dim)
            rhs = [x + y for x, y in zip(_integer_product(table, image, [(j, 1)]),
                                         _integer_product(table, xs, columns[j]))]
            if lhs != rhs:
                return False, (name, j)
    return True, None


def _first_unmultiplicative_pair(source: Algebra, target: Algebra, m: Mat) -> Optional[tuple]:
    """First (x, e_j) on the rows of _certificate_rows of source with
    m(x e_j) != m(x) m(e_j) in target, ("unit", j) or (g, j); or None.

    With m = A / L, x = X / Lx and the constants Cs / Ls of source and
    Ct / Lt of target, the two sides are A (X e_j Cs) over L Ls Lx and
    (A X) A_j Ct over L^2 Lx Lt; they agree exactly when
    L Lt (A (X e_j Cs)) = Ls ((A X) A_j Ct).
    """
    scale, columns = _integer_columns(m, target.dim, source.dim)
    source_scale = source.integer_sc[0]
    target_scale, target_table = target.integer_sc
    left = scale * target_scale
    for name, xs, products in _certificate_rows(source):
        image = _nonzero(_integer_image(columns, xs, m.rows))
        for j, product in enumerate(products):
            lhs = _integer_image(columns, product, m.rows)
            rhs = _integer_product(target_table, image, columns[j])
            if any(left * x != source_scale * y for x, y in zip(lhs, rhs)):
                return name, j
    return None


def is_endomorphism(
    algebra: Algebra, m: Mat, require_unital: bool = True
) -> tuple[bool, Optional[tuple]]:
    """Unit preservation when required, witness ("unit",), then multiplicativity."""
    if require_unital and m.apply(algebra.unit) != algebra.unit:
        return False, ("unit",)
    pair = _first_unmultiplicative_pair(algebra, algebra, m)
    return pair is None, pair


def is_automorphism(algebra: Algebra, m: Mat, require_unital: bool = True) -> bool:
    ok, _ = is_endomorphism(algebra, m, require_unital)
    return ok and inverse(m) is not None


def is_ederivation(algebra: Algebra, m: Mat, require_unital: bool = True) -> bool:
    """Whether m = I - phi for an algebra endomorphism phi, which is what an
    E-derivation is; phi must be unital when required."""
    return is_endomorphism(algebra, Mat.identity(algebra.dim) - m, require_unital)[0]


@dataclass(frozen=True)
class Derivation(LinearEndo):
    """Certified derivation."""

    @staticmethod
    def certify(algebra: Algebra, m: Mat) -> "Derivation":
        ok, witness = is_derivation(algebra, m)
        if not ok:
            raise NotDerivation(witness)
        return Derivation(algebra, m)


@dataclass(frozen=True)
class AlgebraEndo(LinearEndo):
    """Certified algebra endomorphism (unital unless stated otherwise)."""

    unital: bool = True

    @staticmethod
    def certify(algebra: Algebra, m: Mat, require_unital: bool = True) -> "AlgebraEndo":
        ok, witness = is_endomorphism(algebra, m, require_unital)
        if not ok:
            raise NotEndomorphism(witness)
        return AlgebraEndo(algebra, m, require_unital)

    @cached_property
    def inverse_matrix(self) -> Optional[Mat]:
        """Inverse of the matrix, or None; computed once, outside equality,
        hashing and repr."""
        return inverse(self.matrix)

    def is_invertible(self) -> bool:
        return self.inverse_matrix is not None

    @cached_property
    def _powers(self) -> dict[int, Mat]:
        return {0: Mat.identity(self.algebra.dim)}

    def power(self, k: int) -> Mat:
        """The matrix of phi^k for any integer k; NotAutomorphism unless the
        map is invertible.  Each power is computed once per map, outside
        equality, hashing and repr."""
        if self.inverse_matrix is None:
            raise NotAutomorphism("the twist must be invertible")
        powers = self._powers
        if k not in powers:
            powers[k] = (self.power(k - 1) * self.matrix if k > 0
                         else self.power(k + 1) * self.inverse_matrix)
        return powers[k]

    def compose(self, other: "AlgebraEndo") -> "AlgebraEndo":
        """self after other, without a new certification.

        Both are certified endomorphisms of the same algebra, so their
        composite is multiplicative, and unital when both are.  Raises
        SkewexError when the two act on different algebras.
        """
        if self.algebra is not other.algebra:
            raise SkewexError("cannot compose endomorphisms of different algebras")
        return AlgebraEndo(self.algebra, self.matrix * other.matrix, self.unital and other.unital)


@dataclass(frozen=True)
class EDerivation(LinearEndo):
    """Certified map of the form I - phi with phi an algebra endomorphism."""

    phi: AlgebraEndo = None

    @staticmethod
    def certify(algebra: Algebra, m: Mat, require_unital: bool = True) -> "EDerivation":
        # the check of I - m certifies phi, which needs no second one
        phi = Mat.identity(algebra.dim) - m
        ok, witness = is_endomorphism(algebra, phi, require_unital)
        if not ok:
            raise NotEndomorphism(witness, reason="difference-map identity")
        return EDerivation(algebra, m, AlgebraEndo(algebra, phi, require_unital))


def inner_derivation(algebra: Algebra, u: Vec) -> Derivation:
    """a -> u a - a u."""
    m = algebra.left_regular(u) - algebra.right_regular(u)
    return Derivation.certify(algebra, m)


def invert_element(algebra: Algebra, u: Vec) -> Vec:
    """Two-sided inverse of u, or NotInvertible."""
    mu = algebra.left_regular(u)
    u_inv = solve(mu, algebra.unit)
    if u_inv is None or algebra.multiply(u_inv, u) != algebra.unit:
        raise NotInvertible(f"element {u} has no two-sided inverse")
    return u_inv


def inner_automorphism(algebra: Algebra, u: Vec) -> AlgebraEndo:
    """a -> u a u^(-1); requires u invertible."""
    u_inv = invert_element(algebra, u)
    m = algebra.left_regular(u) * algebra.right_regular(u_inv)
    endo = AlgebraEndo.certify(algebra, m)
    if not endo.is_invertible():
        raise NotAutomorphism("conjugation matrix unexpectedly singular")
    return endo


@dataclass(frozen=True)
class FinitenessReport:
    is_ln: bool
    nilpotency_index: Optional[int]
    min_poly: Poly


def local_finiteness_report(endo: LinearEndo) -> FinitenessReport:
    """In finite dimension every map is locally finite; the minimal polynomial
    is the certificate.  The map is locally nilpotent exactly when the minimal
    polynomial is a pure power of t."""
    p = endo.minimal_polynomial
    pure_power = all(c == 0 for c in p.coeffs[:-1])
    return FinitenessReport(pure_power, p.degree if pure_power else None, p)


def kernel_chain(phi: AlgebraEndo) -> tuple[Subspace, int]:
    """Union of Ker(phi^i); stabilizes within dim steps and is a two-sided ideal.

    The kernels grow with i, so Ker phi^i = Ker phi^(i+1) exactly when the
    two powers have the same rank, and the rank drops at every step until
    then; an injective phi has chain 0 at once.  With phi = A / L the powers
    are the integer matrices A^i, each divided by its content, which changes
    neither rank nor kernel; only the last kernel becomes a Subspace.
    Returns the chain and the least index i at which it stops growing.
    """
    algebra = phi.algebra
    n = algebra.dim
    base = phi.matrix.integer_form[1]
    power = base
    rank = _integer_rank(power)
    index = 1
    while rank < n:
        following = _integer_matmul(power, base, n)
        content = math.gcd(*(x for row in following for x in row))
        if content > 1:
            following = [[x // content for x in row] for row in following]
        following_rank = _integer_rank(following)
        if following_rank == rank:
            break
        power, rank = following, following_rank
        index += 1
    chain = _integer_kernel([list(row) for row in power], n) if rank < n else zero_subspace(n)
    if not is_ideal(algebra, chain):
        raise SkewexError("kernel chain failed to be a two-sided ideal")
    return chain, index


def _integer_rank(ints: list[list[int]]) -> int:
    """The rank of integer rows, reduced in a copy."""
    return len(_integer_rref([list(row) for row in ints]))


@dataclass(frozen=True)
class InducedQuotient:
    quotient: Algebra
    projection: Mat
    induced: AlgebraEndo
    chain: Subspace


def induced_map(phi: AlgebraEndo) -> InducedQuotient:
    """Quotient by the kernel chain C together with the map phi induces on it.

    The induced map satisfies induced . projection = projection . phi on every
    basis vector and is an automorphism (Fitting's lemma): kernel_chain stops
    at Ker phi^v = Ker phi^(v+1) = C, so phi(x) in C gives phi^(v+1)(x) = 0
    and x in C.  The induced map is injective, hence bijective in finite
    dimension; its rank is checked as a consistency test.  When C = 0, phi
    itself is injective.
    """
    algebra = phi.algebra
    chain, _ = kernel_chain(phi)
    if chain.dim == 0:
        ident = Mat.identity(algebra.dim)
        return InducedQuotient(algebra, ident, AlgebraEndo(algebra, phi.matrix, phi.unital), chain)
    quot, proj = quotient(algebra, chain)
    # the section is the inclusion of the kept coordinates, so the induced
    # matrix is those columns of proj phi
    projected = proj * phi.matrix
    kept = chain.kept()
    scale, ints = projected.integer_form
    induced_matrix = Mat._from_integers([[row[c] for c in kept] for row in ints], quot.dim, scale)
    if induced_matrix * proj != projected:
        raise SkewexError("induced map does not commute with the projection")
    induced = AlgebraEndo.certify(quot, induced_matrix)
    if _integer_rank(induced_matrix.integer_form[1]) != quot.dim:
        raise SkewexError("induced map on the kernel-chain quotient must be injective")
    return InducedQuotient(quot, proj, induced, chain)


def kernel_chain_preimage(phi: AlgebraEndo, a: Vec) -> Vec:
    """b = a + phi(a) + ... + phi^(n-1)(a), n = dim, with (I - phi)(b) = a.

    The kernel chain is Ker phi^n, since Ker phi^k is stable by k = n; so a
    lies in it exactly when phi^n(a) = 0, and NotInKernelChain is raised
    otherwise.  Then (I - phi)(b) = a - phi^n(a) = a, the chain's inclusion
    in Im(I - phi); the identity is checked as a consistency test.
    """
    n = phi.algebra.dim
    b = zero_vec(n)
    term = a
    for _ in range(n):
        b = vec_add(b, term)
        term = phi.matrix.apply(term)
    if not is_zero_vec(term):
        raise NotInKernelChain(f"no power up to {n} kills the element")
    if vec_sub(b, phi.matrix.apply(b)) != tuple(a):
        raise SkewexError("preimage identity failed; internal inconsistency")
    return b


def automorphism_order(phi: AlgebraEndo, bound: int = 64) -> Optional[int]:
    """Least m <= bound with phi^m = I, or None; read off the powers X^m
    modulo the minimal polynomial of phi, since phi^m = I iff X^m = 1 there.

    The residues are linalg._power_residues, walked until the first 1.
    """
    if not phi.is_invertible():
        raise NotAutomorphism("order is only defined for automorphisms")
    p = phi.minimal_polynomial
    if p.degree == 0:  # the zero algebra, on which phi is the identity
        return 1 if bound >= 1 else None
    residues = _power_residues(p)
    next(residues)  # X^0
    for m, (scale, residue) in zip(range(1, bound + 1), residues):
        if residue[0] == scale and not any(residue[1:]):
            return m
    return None


def exp_derivation(d: Derivation) -> AlgebraEndo:
    """exp(D) for nilpotent D: a finite sum that is an automorphism with
    inverse exp(-D)."""
    report = local_finiteness_report(d)
    if not report.is_ln:
        raise NotLocallyNilpotent(f"minimal polynomial {report.min_poly} is not a pure power")
    n = d.algebra.dim
    k = report.nilpotency_index

    def exp_matrix(m: Mat) -> Mat:
        acc = Mat.identity(n)
        term = Mat.identity(n)
        for i in range(1, k):
            term = term * m
            acc = acc + term.scale(rat(1) / math.factorial(i))
        return acc

    forward = exp_matrix(d.matrix)
    backward = exp_matrix(-d.matrix)
    if forward * backward != Mat.identity(n):
        raise SkewexError("exp(D) exp(-D) != I; internal inconsistency")
    endo = AlgebraEndo.certify(d.algebra, forward)
    if not endo.is_invertible():
        raise NotAutomorphism("exponential of a nilpotent derivation must be invertible")
    return endo


def _leibniz_rows(algebra: Algebra) -> list[list[int]]:
    """The product-rule system derivation_space solves, as integer rows in
    the n^2 unknowns m[r][c], zero rows and repeated rows dropped (neither
    changes the kernel).

    The rule is imposed on the pairs (e_g, e_j) for g among the algebra's
    generators G, n scalar equations each, and D(1) = 0 adds n more:
    |G| n^2 + n rows instead of n^3.  The rows are read off the integer
    structure constants and the unit (common scales do not change the
    kernel).
    """
    n = algebra.dim
    table = algebra.integer_sc[1]
    _, unit = _integer_row(algebra.unit)
    # row k of D(1) = 0: coefficients of m[k][c] in sum_c m[k][c] unit[c]
    rows = [[0] * (k * n) + unit + [0] * ((n - 1 - k) * n) for k in range(n)]
    for i in algebra.generators:
        for j in range(n):
            # row k: coefficients of m[r][c] in D(e_i e_j)_k - (D(e_i) e_j)_k - (e_i D(e_j))_k
            block = [[0] * (n * n) for _ in range(n)]
            for c, x in table[i][j]:
                for k in range(n):
                    block[k][k * n + c] += x
            for r in range(n):
                # D(e_i) = column i of m; (D(e_i) e_j)_k = sum_r m[r][i] sc[r][j][k]
                for k, x in table[r][j]:
                    block[k][r * n + i] -= x
                for k, x in table[i][r]:
                    block[k][r * n + j] -= x
            rows.extend(block)
    return [list(row) for row in dict.fromkeys(tuple(row) for row in rows if any(row))]


def derivation_space(algebra: Algebra) -> list[Derivation]:
    """Basis of the space of derivations.

    A semisimple algebra has only inner derivations (Hochschild): when
    separability gives the dual basis f_i of the trace form, any derivation
    D is ad_v, a -> v a - a v, for v = sum_i D(e_i) f_i.  The Casimir
    element commutes with A, so sum_i D(a e_i) f_i = v a, and the product
    rule turns the left side into D(a) + a v, using sum_i e_i f_i = 1.  So
    the space is the span of the ad_{e_j}, read off the integer table, and
    no system is built; on a commutative semisimple algebra that span is 0.

    Otherwise the product-rule system of _leibniz_rows is solved, its
    unknowns the n^2 matrix entries.  Its pairs (e_g, e_j) and D(1) = 0
    suffice, since {x : D(x y) = D(x) y + x D(y) for all y} is closed under
    products in an associative algebra and holds 1 exactly when D(1) = 0,
    so it holds the subalgebra G generates, all of it.  Either way the space
    is a canonical Subspace, and every returned map re-passes
    Derivation.certify.
    """
    n = algebra.dim
    if separability(algebra) is not None:
        # -ad_{e_j} is the commutator matrix of e_j, entry (r, c) at r n + c
        space = _integer_span([[x for row in _commutator_matrix(algebra, j) for x in row]
                               for j in range(n)], n * n)
    else:
        space = _integer_kernel(_leibniz_rows(algebra), n * n)
    return [Derivation.certify(algebra, Mat._from_integers(
        [v[r * n:(r + 1) * n] for r in range(n)], n, space.scale)) for v in space.rows()]
