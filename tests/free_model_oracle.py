"""The dense free model, kept as the oracle of the extension construction.

An extension used to be built from the whole rank-d free module over the
base: a Fraction grid of every product (e_a X^i)(e_b X^j) folded into the
window, the relation submodule spanned by the reduced generators
p(X) e_b X^k and their left multiples inside that grid, and a quotient that
first checked the submodule to absorb multiplication by every basis element
on both sides.  skewex._extension now closes the k = 0 generators under the
two actions and builds only the kept cells; the tests compare it with this
code.

The grid reads the twist from a Fraction table xpow[b][i], the left-normal
form of X^i e_b: leibniz_table and orbit_table below build it by applying
the twist's Fraction matrix to each basis element, as the library did before
its twist_table moved to integers.  It folds X^m with power_reduction_table
below, the Fraction stepper the library's integer table replaced.

The grid uses the library's window coordinates, power blocks from the
highest down (e_a X^i at (d - 1 - i) n + a), so its relation submodule is
the same Subspace and pivots on the highest powers; the quotient keeps the
other cells in ascending (power, base index), as the library does.
"""

from fractions import Fraction
from math import comb
from typing import Callable, Optional, Sequence

from skewex._extension import (
    ExtensionResult,
    IntegerBeta,
    IntegerXPow,
    _integer_beta,
    twist_table,
    verify_extension,
)
from skewex.algebra import (
    Algebra,
    _integer_product,
    _multiply,
    _nonzero,
    make_algebra,
)
from skewex.errors import AssociativityFails, NotAssociative, UnitFails
from skewex.linalg import (
    Mat,
    Poly,
    Subspace,
    Vec,
    ZERO,
    is_zero_vec,
    span,
    unit_vec,
)

# A term list is a left-normal form: pairs (power, coefficient in the base
# algebra), powers arbitrary non-negative integers before reduction.
TermList = list[tuple[int, Vec]]
# xpow[b][i] is X^i e_b as a term list, for i <= deg p.
XPowTable = list[list[TermList]]


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


def basis_orbits(base: Algebra, twist: Mat, length: int) -> list[list[Vec]]:
    """orbits[b][k] = twist^k(e_b) for k <= length, in Fractions."""
    orbits = []
    for b in range(base.dim):
        orbit = [base.basis_element(b)]
        for _ in range(length):
            orbit.append(twist.apply(orbit[-1]))
        orbits.append(orbit)
    return orbits


def leibniz_table(algebra: Algebra, d, p: Poly) -> XPowTable:
    """xpow[b][i] = X^i e_b = sum_k C(i, k) D^k(e_b) X^(i-k), i <= deg p, for
    the derivation d, leaving out the terms with D^k(e_b) = 0."""
    return [
        [[(i - k, tuple(comb(i, k) * x for x in d_powers[k]))
          for k in range(i + 1) if not is_zero_vec(d_powers[k])]
         for i in range(p.degree + 1)]
        for d_powers in basis_orbits(algebra, d.matrix, p.degree)
    ]


def orbit_table(algebra: Algebra, phi, p: Poly) -> XPowTable:
    """xpow[b][i] = X^i e_b = phi^i(e_b) X^i, i <= deg p, for the automorphism phi."""
    return [[[(i, image)] for i, image in enumerate(orbit)]
            for orbit in basis_orbits(algebra, phi.matrix, p.degree)]


def fraction_xpow(mode: str, algebra: Algebra, twist, p: Poly) -> XPowTable:
    """The Fraction table of the derivation or automorphism twist."""
    table = leibniz_table if mode == "derivation" else orbit_table
    return table(algebra, twist, p)


def rational_xpow(xpow: IntegerXPow, n: int) -> XPowTable:
    """An integer twist table over its scale as the Fraction table, zero
    coordinates filled in, for a base of dimension n."""
    scale, rows = xpow
    return [[[(m, tuple(Fraction(dict(coeff).get(a, 0), scale) for a in range(n)))
              for m, coeff in terms] for terms in row] for row in rows]


def integer_tables(mode: str, twist, p: Poly
                   ) -> tuple[IntegerXPow, tuple[int, IntegerBeta]]:
    """(xpow, beta) as assemble hands them to relation_submodule and
    quotient_by_relations: the library's integer twist table and the folding
    of X^m, m <= 2 deg p."""
    return twist_table(mode, twist.matrix, p.degree), _integer_beta(p, 2 * p.degree)


class FreeModel:
    """The rank-d free module over the base with the rewrite multiplication;
    sc and integer_sc are its grid as in algebra.Algebra."""

    def __init__(
        self,
        base: Algebra,
        p: Poly,
        monomial_product: Callable[[int, int, int, int], TermList],
    ):
        """Fold monomial_product(a, i, b, j), the left-normal form of
        (e_a X^i)(e_b X^j), into the window for every pair of grid indices."""
        self.base = base
        self.d = p.degree
        self.n = base.dim
        self.dim = self.d * self.n
        self.beta = power_reduction_table(p, 2 * self.d)
        # grid index (a, i) -> (d - 1 - i) * n + a: the highest power block
        # first, so the base sits at the end
        cells = [(a, i) for i in reversed(range(self.d)) for a in range(self.n)]
        self.sc = [[self.reduce_terms(monomial_product(a, i, b, j)) for b, j in cells]
                   for a, i in cells]
        self.integer_sc = Algebra(self.dim, self.sc, self.slice0(base.unit)).integer_sc
        # the grid indices in ascending (power, base index), the free-module order
        self.ascending = [self.index(a, i) for i in range(self.d) for a in range(self.n)]

    def index(self, a: int, i: int) -> int:
        return (self.d - 1 - i) * self.n + a

    def slice0(self, x: Vec) -> Vec:
        return (ZERO,) * (self.dim - self.n) + tuple(x)

    def reduce_terms(self, terms: TermList) -> Vec:
        """Fold a left-normal term list into window coordinates."""
        out = [ZERO] * self.dim
        for power, coeff in terms:
            if is_zero_vec(coeff):
                continue
            for q, factor in enumerate(self.beta[power]):
                if factor:
                    offset = self.index(0, q)
                    for a, c in enumerate(coeff):
                        if c:
                            out[offset + a] += factor * c
        return tuple(out)

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return _multiply(self.integer_sc, x, y)

    def labels(self) -> list[str]:
        """The labels of the grid indices."""
        out = []
        for i in reversed(range(self.d)):
            for lab in self.base.labels:
                if i == 0:
                    out.append(lab)
                else:
                    power = "X" if i == 1 else f"X^{i}"
                    out.append(power if lab == "1" else f"{lab}*{power}")
        return out


def grid_product(base: Algebra, xpow: XPowTable) -> Callable[[int, int, int, int], TermList]:
    """The FreeModel callback: (e_a X^i)(e_b X^j) = sum e_a c X^(m+j) over the
    terms (m, c) of xpow[b][i]."""

    def monomial_product(a: int, i: int, b: int, j: int) -> TermList:
        ea = base.basis_element(a)
        return [(power + j, base.multiply(ea, coeff)) for power, coeff in xpow[b][i]]

    return monomial_product


def free_model(base: Algebra, p: Poly, xpow: XPowTable) -> FreeModel:
    return FreeModel(base, p, grid_product(base, xpow))


def relation_generators(p: Poly, xpow: XPowTable) -> list[TermList]:
    """p(X) e_b X^k in left-normal form, for every basis element b and k < deg p."""
    out = []
    for row in xpow:
        terms = [(power, tuple(c * x for x in coeff))
                 for i, c in enumerate(p.coeffs) if c
                 for power, coeff in row[i]]
        for k in range(p.degree):
            out.append([(power + k, coeff) for power, coeff in terms])
    return out


def relation_submodule(model: FreeModel, generator_polys: list[TermList]) -> Subspace:
    """Span of the reduced relation generators under base left multiplication.

    e_a w is the grid product of e_a X^0 and w, since X^0 e_b = e_b.
    """
    base = [model.slice0(model.base.basis_element(a)) for a in range(model.n)]
    vectors = []
    for terms in generator_polys:
        w = model.reduce_terms(terms)
        if is_zero_vec(w):
            continue
        vectors.append(w)
        vectors.extend(model.multiply(e, w) for e in base)
    return span(vectors, model.dim)


def _collapse(cell: Callable[[int, int], Vec], unit: Vec, labels: Sequence[str],
              ideal: Subspace, order: Sequence[int]) -> tuple[Algebra, Mat]:
    """The quotient of a product table by a subspace, with the projection
    matrix.

    cell(i, j) is the product of basis elements i and j in ambient
    coordinates; it is asked only for the non-pivot coordinates the section
    keeps, listed as they come in order, and the quotient's constants are
    those products projected.  make_algebra re-verifies them.  The result is
    the quotient when the subspace absorbs every product, which
    quotient_by_relations checks first.
    """
    kept = set(ideal.kept())
    coords = [j for j in order if j in kept]

    def project(x: Vec) -> Vec:
        residual = ideal.reduce(x)
        return tuple(residual[j] for j in coords)

    quot = make_algebra(
        len(coords),
        [[project(cell(i, j)) for j in coords] for i in coords],
        project(unit),
        [labels[j] for j in coords],
    )
    n = ideal.ambient_dim
    return quot, Mat.from_columns([project(unit_vec(c, n)) for c in range(n)])


def _first_unabsorbed(integer_sc, subspace: Subspace) -> Optional[tuple[int, int, str]]:
    """First (index, r, side) at which the subspace fails to absorb a product,
    or None when it is a two-sided ideal of the table; every basis element is
    tried, as a free model need not be associative.

    For each basis row v of the subspace (index its position) and each basis
    element e_r, in that order, "left" means e_r v and then "right" means
    v e_r lies outside the subspace.  The products are formed from the
    integer table and the subspace's integer rows, so each is a positive
    multiple of the rational product, and the subspace's integer residual
    decides membership exactly.
    """
    table = integer_sc[1]
    residual = subspace.residual
    for index, row in enumerate(subspace.rows()):
        w = _nonzero(row)
        for r in range(len(table)):
            if any(residual(_integer_product(table, [(r, 1)], w))):
                return index, r, "left"
            if any(residual(_integer_product(table, w, [(r, 1)]))):
                return index, r, "right"
    return None


def quotient_by_relations(model: FreeModel, relations: Subspace):
    """Collapse the free model along the relation submodule.

    Returns (algebra, projection), the kept cells in ascending (power, base
    index).  The relation submodule is first checked
    to absorb multiplication by every basis element on both sides (all of
    them: the free model need not be associative), so the quotient
    multiplication is well defined regardless of the section used to compute
    it.
    """
    unabsorbed = _first_unabsorbed(model.integer_sc, relations)
    if unabsorbed is not None:
        raise AssociativityFails(f"relation submodule is not {unabsorbed[2]} absorbing")
    try:
        return _collapse(lambda i, j: model.sc[i][j], model.slice0(model.base.unit),
                         model.labels(), relations, model.ascending)
    except (NotAssociative, UnitFails) as exc:
        raise AssociativityFails(str(exc)) from exc


def oracle_relations(base: Algebra, p: Poly, xpow: XPowTable) -> Subspace:
    """The relation submodule of the dense grid."""
    return relation_submodule(free_model(base, p, xpow), relation_generators(p, xpow))


def oracle_extension(base: Algebra, p: Poly, mode: str, twist: Mat, xpow: XPowTable
                     ) -> tuple[Subspace, ExtensionResult]:
    """assemble as it was, with the grid, its relations and the absorbing
    quotient; returns the relation submodule and the extension."""
    model = free_model(base, p, xpow)
    relations = relation_submodule(model, relation_generators(p, xpow))
    algebra, proj = quotient_by_relations(model, relations)
    embed = Mat.from_columns([proj.column(model.index(a, 0)) for a in range(base.dim)])
    u = proj.apply(model.reduce_terms([(1, base.unit)]))
    u_inverse = verify_extension(mode, base, algebra, embed, u, p, twist)
    return relations, ExtensionResult(
        mode, base, algebra, embed, u, u_inverse, p,
        free_module=(relations.dim == 0), defect_dim=relations.dim,
    )
