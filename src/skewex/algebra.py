"""Finite-dimensional unital associative algebras over Q by structure constants.

An Algebra is its structure constants c[i][j][k], with e_i e_j = sum_k
c[i][j][k] e_k, plus a distinguished unit vector.  The constants are kept as
one table of the nonzero ones, sparse integer cells over one scale, and a
dense table given to Algebra() is converted and dropped.  Products, traces,
the center and the associativity and ideal checks sum over that table in
integer loops; the dense tensor sc is a view of it, formed only on a read.
make_algebra and the extension quotient in _extension certify a table alike:
the two-sided unit law, then the associators (e_i, y, e_k) at elements y
whose left-normed words span it (_first_nonassociative_at), e_g for g in
Algebra.generators here and the embedded generators and u there.  So any
Algebra in circulation is genuinely an associative unital algebra.

Elements are plain coordinate tuples (linalg.Vec) relative to the basis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .errors import (
    DimensionMismatch,
    ImproperIdeal,
    NotAnIdeal,
    NotAssociative,
    SkewexError,
    UnitFails,
)
from .linalg import (
    Mat,
    Poly,
    Subspace,
    Vec,
    ZERO,
    ONE,
    _IntegerEchelon,
    _common_scale_rows,
    _equal_rows,
    _integer_kernel,
    _integer_row,
    _integer_rref,
    _integer_span,
    _pivot_rows,
    _rational_row,
    inverse,
    is_zero_vec,
    power_reduction_table,
    unit_vec,
    vec,
    vec_add,
    vec_scale,
    zero_vec,
)


# table[i][j] lists the nonzero (k, L c) of the dense sc[i][j], ascending in
# k, for one integer scale L; an IntegerTable is (L, table), L the lcm of the
# denominators of all the constants.
Table = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]
IntegerTable = tuple[int, Table]


def _integer_table(scale: int, cells) -> IntegerTable:
    """The canonical integer table of the constants x / scale at the (k, x) of
    cells[i][j], nonzero and strictly ascending in k < dim = len(cells), else
    DimensionMismatch: the scale and the x divided by their gcd."""
    dim = len(cells)
    if any(len(row) != dim for row in cells):
        raise DimensionMismatch("structure constants differ from dimension")
    for row in cells:
        for cell in row:
            last = -1
            for k, x in cell:
                if not last < k < dim or not x:
                    raise DimensionMismatch(f"malformed structure constant cell {cell!r}")
                last = k
    common = gcd(scale, *(x for row in cells for cell in row for _, x in cell))
    if common > 1:
        cells = [[[(k, x // common) for k, x in cell] for cell in row] for row in cells]
    return scale // common, tuple(tuple(map(tuple, row)) for row in cells)


def _nonzero(row: Sequence[int]) -> list[tuple[int, int]]:
    """The (index, entry) pairs of the nonzero entries of an integer row."""
    return [(j, x) for j, x in enumerate(row) if x]


def _dense(cell: Sequence[tuple[int, int]], n: int) -> list[int]:
    """The integer row of length n holding the (index, entry) pairs of cell."""
    row = [0] * n
    for j, x in cell:
        row[j] = x
    return row


def _integer_product(
    table: Table, xs: Sequence[tuple[int, int]], ys: Sequence[tuple[int, int]]
) -> list[int]:
    """The sum of x y table[i][j] over the nonzero (i, x) of xs and (j, y) of ys.

    This is the one loop that sums products of structure constants; its
    factors and the constants are integers.
    """
    out = [0] * len(table)
    for i, x in xs:
        row = table[i]
        for j, y in ys:
            c = x * y
            for k, s in row[j]:
                out[k] += c * s
    return out


def _multiply(integer_sc: IntegerTable, x: Vec, y: Vec) -> Vec:
    """x * y exactly: with x = X / Lx, y = Y / Ly and the constants C / L, the
    product is the integer product of X, Y and C over L Lx Ly."""
    scale, table = integer_sc
    lx, xs = _integer_row(x)
    ly, ys = _integer_row(y)
    out = _integer_product(table, _nonzero(xs), _nonzero(ys))
    denominator = scale * lx * ly
    return tuple(Fraction(v, denominator) if v else ZERO for v in out)


class _LeftWords:
    """The span of the left-normed words y_1 (y_2 (... (y_k 1))) in some
    generators y of a table, grown one generator at a time.

    It is the smallest subspace that holds the unit and is closed under left
    multiplication by every generator; in an associative algebra that is the
    subalgebra the generators generate.  Each word that joins the echelon
    form is kept as its integer product and each generator is applied to it
    once, so g generators cost about g times the rank in products.  Nothing
    here uses associativity, and the closure stops once it is the whole space.
    """

    def __init__(self, table: Table, unit: list[int]):
        self.table = table
        self.echelon = _IntegerEchelon()
        self.words: list[list[tuple[int, int]]] = []
        # each generator with the number of words it has been applied to
        self.generators: list[list] = []
        self._offer(unit)

    @property
    def rank(self) -> int:
        return len(self.words)

    def contains(self, w: list[int]) -> bool:
        return not any(self.echelon.reduce(w))

    def _offer(self, w: list[int]) -> None:
        if self.echelon.add(w):
            self.words.append(_nonzero(w))

    def add(self, y: Sequence[tuple[int, int]]) -> None:
        """Close the span under left multiplication by y, given by its nonzero
        (index, integer) pairs, and by the generators added before."""
        self.generators.append([y, 0])
        full = len(self.table)
        while self.rank < full and any(done < self.rank for _, done in self.generators):
            for entry in self.generators:
                g, done = entry
                while done < self.rank < full:
                    self._offer(_integer_product(self.table, g, self.words[done]))
                    done += 1
                entry[1] = done


class Algebra:
    """Validated structure-constant algebra; immutable by convention.

    An Algebra is (dim, integer_sc, unit, labels).  integer_sc is (L, table),
    where table[i][j] holds e_i * e_j as its nonzero (k, L c) pairs in
    ascending k, L the lcm of the denominators of all the constants.
    multiply scales both factors to integers and walks only those pairs and
    the nonzero entries of the factors, so its cost follows the number of
    nonzero constants (n^3 of the n^6 for M_n) rather than dim^3, and it
    makes one Fraction per nonzero entry of the product.  sc[i][j], the dense
    coordinate vector of e_i * e_j, is a view formed only when something
    reads it; nothing in the package does.  The regular trace is linear, so
    integer_trace, the traces of the basis elements over L, is built once on
    first use and trace_of is a dot product with it.
    """

    def __init__(self, dim: int, sc, unit: Vec, labels: Optional[Sequence[str]] = None):
        """sc is the dense table: dim x dim cells of dim rationals each."""
        if len(sc) != dim or any(len(row) != dim or any(len(cell) != dim for cell in row)
                                 for row in sc):
            raise DimensionMismatch("structure constants differ from dimension")
        scale, ints = _common_scale_rows([vec(cell) for row in sc for cell in row])
        self._build(scale, [[_nonzero(ints[i * dim + j]) for j in range(dim)]
                            for i in range(dim)], unit, labels)

    @classmethod
    def _from_cells(cls, scale: int, cells: Sequence[Sequence[Sequence[tuple[int, int]]]],
                    unit: Vec, labels: Optional[Sequence[str]] = None) -> "Algebra":
        """The algebra with constants x / scale at the (k, x) of cells[i][j], built
        from the sparse integers without a Fraction constant or a dense cell."""
        algebra = cls.__new__(cls)
        algebra._build(scale, cells, unit, labels)
        return algebra

    def _build(self, scale: int, cells, unit: Vec, labels: Optional[Sequence[str]]) -> None:
        """Both constructors end here, with sparse integer cells over scale."""
        self.dim = dim = len(cells)
        self.integer_sc = _integer_table(scale, cells)
        self.unit: Vec = vec(unit)
        self.labels = tuple(labels) if labels else tuple(f"e{i}" for i in range(dim))
        if len(self.labels) != dim:
            raise DimensionMismatch("label count differs from dimension")

    @cached_property
    def sc(self) -> tuple[tuple[Vec, ...], ...]:
        """The dense table, one Fraction per nonzero constant, read off integer_sc."""
        scale, table = self.integer_sc
        return tuple(tuple(_rational_row(_dense(c, self.dim), scale) for c in row) for row in table)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """Basis indices G whose left-normed words span the algebra, chosen greedily.

        A basis index joins G when its element lies outside the span of the
        words y_1 (y_2 (... (y_k 1))) in G so far.  Nothing here uses
        associativity, so make_algebra finds G before it knows the table is
        associative.  A property whose holders form a unital subalgebra holds
        everywhere once it holds on G.
        """
        words = _LeftWords(self.integer_sc[1], _integer_row(self.unit)[1])
        found = []
        for i in range(self.dim):
            if words.rank == self.dim:
                break
            if not words.contains([int(j == i) for j in range(self.dim)]):
                words.add([(i, 1)])
                found.append(i)
        return tuple(found)

    def basis_element(self, i: int) -> Vec:
        return unit_vec(i, self.dim)

    def element(self, values) -> Vec:
        v = vec(values)
        if len(v) != self.dim:
            raise DimensionMismatch(f"element length {len(v)} != dim {self.dim}")
        return v

    def multiply(self, x: Vec, y: Vec) -> Vec:
        """Bilinear product via the structure constants."""
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch("element length differs from algebra dimension")
        return _multiply(self.integer_sc, x, y)

    def left_regular(self, x: Vec) -> Mat:
        """Matrix of left multiplication by x (a faithful representation)."""
        return self._regular(x, True)

    def right_regular(self, x: Vec) -> Mat:
        return self._regular(x, False)

    def _regular(self, x: Vec, left: bool) -> Mat:
        """The matrix of x e_j (left) or e_j x in column j: with x = X / Lx,
        the integer products of X and the table over L Lx, L the table's scale."""
        if len(x) != self.dim:
            raise DimensionMismatch("element length differs from algebra dimension")
        scale, table = self.integer_sc
        lx, w = _integer_row(x)
        xs = _nonzero(w)
        cols = [_integer_product(table, xs, [(j, 1)]) if left else
                _integer_product(table, [(j, 1)], xs) for j in range(self.dim)]
        return Mat._from_integers(list(zip(*cols)), self.dim, scale * lx)

    @cached_property
    def integer_trace(self) -> tuple[int, ...]:
        """L t, for t_i = sum_j c[i][j][j] the regular trace of e_i and L the
        table's scale: the trace vector in integers."""
        return tuple(sum(x for j, cell in enumerate(row) for k, x in cell if k == j)
                     for row in self.integer_sc[1])

    def trace_of(self, x: Vec) -> Fraction:
        """Trace of left multiplication by x, sum x_i t_i: with x = X / Lx, the
        dot product of X with integer_trace over L Lx."""
        if len(x) != self.dim:
            raise DimensionMismatch("element length differs from algebra dimension")
        lx, xs = _integer_row(x)
        return Fraction(sum(map(mul, xs, self.integer_trace)), self.integer_sc[0] * lx)

    def is_commutative(self) -> bool:
        """Whether e_g e_j = e_j e_g for g in generators and every j.

        The elements that commute with every e_j form the center, a unital
        subalgebra of an associative algebra, so it is everything once it
        holds the generators.  The integer cells share one scale, so they
        compare as the rational ones do."""
        table = self.integer_sc[1]
        return all(table[g][j] == table[j][g] for g in self.generators for j in range(self.dim))

    def __repr__(self) -> str:
        return f"Algebra(dim={self.dim}, labels={list(self.labels)})"


def make_algebra(dim: int, sc, unit, labels: Optional[Sequence[str]] = None) -> Algebra:
    """Build and validate an algebra; raises NotAssociative / UnitFails.

    The unit law is checked first, against each basis element in turn; then
    the associators (e_i, e_g, e_k) for g in the generators, in (g, i, k)
    order, and the first failing basis triple (i, g, k) is reported.
    """
    return _validated(Algebra(dim, sc, unit, labels))


def _validated(algebra: Algebra) -> Algebra:
    """The algebra, once its unit law and associators pass make_algebra's checks."""
    _check_unit_law(algebra)
    generators = algebra.generators
    witness = _first_nonassociative_at(algebra.integer_sc,
                                       [algebra.basis_element(g) for g in generators])
    if witness is not None:
        i, g, k = witness
        raise NotAssociative(i, generators[g], k)
    return algebra


def _check_unit_law(algebra: Algebra) -> None:
    """Raise UnitFails at the first basis element the unit fails on either side.

    With the unit U / Lu and the constants over L, u e_i = e_i exactly when
    the integer product of U and e_i is L Lu e_i, and likewise on the right.
    """
    n = algebra.dim
    if len(algebra.unit) != n:
        raise DimensionMismatch("element length differs from algebra dimension")
    scale, table = algebra.integer_sc
    lu, u = _integer_row(algebra.unit)
    us = _nonzero(u)
    for i in range(n):
        e = [0] * n
        e[i] = scale * lu
        if _integer_product(table, us, [(i, 1)]) != e or _integer_product(table, [(i, 1)], us) != e:
            raise UnitFails(i)


def _first_nonassociative_at(integer_sc: IntegerTable, generators: Sequence[Vec]
                             ) -> Optional[tuple[int, int, int]]:
    """First (i, g, k) with (e_i y) e_k != e_i (y e_k) for y = generators[g],
    in (g, i, k) order, or None.

    A unital table that passes is associative once the left-normed words in
    the generators span it: by the Teichmueller identity
    a(b, c, d) + (a, b, c)d = (ab, c, d) - (a, bc, d) + (a, b, cd), the
    middle nucleus {y : (x, y, z) = 0 for all x, z} is closed under products,
    and it holds the unit.  Both sides scale by L^2 Ly, y = Y / Ly.  As the
    associator is linear in y, a middle c e_b has the witnesses of e_b, whose
    products e_i e_b and e_b e_k are the table cells [i][b] and [b][k]; any
    other middle's products are summed once, where a cell lands.  For a
    middle y and a row i, one accumulator per k that a product reaches sums
    their difference: the sparse e_i y times the nonempty cells e_l e_k,
    minus the nonempty cells e_i e_l times the sparse y e_k, read by l.  A k
    that no product reaches has both sides 0, so only the products that land
    are summed, and the first k with a nonzero accumulator is the witness.
    """
    table = integer_sc[1]
    n = len(table)
    reached = [[(k, cell) for k, cell in enumerate(row) if cell] for row in table]
    for g, y in enumerate(generators):
        ys = _nonzero(_integer_row(y)[1])
        if len(ys) == 1:
            b = ys[0][0]
            lefts, products = [row[b] for row in table], table[b]
        else:
            lefts = [_sparse_sum([(c, row[j]) for j, c in ys]) for row in table]
            products = [_sparse_sum([(c, table[j][k]) for j, c in ys]) for k in range(n)]
        # rights[l] holds the (k, c) with c the l-th coordinate of y e_k
        rights = [[] for _ in range(n)]
        for k, cell in enumerate(products):
            for l, c in cell:
                rights[l].append((k, c))
        for i in range(n):
            accs = [None] * n
            for l, c in lefts[i]:
                for k, cell in reached[l]:
                    acc = accs[k]
                    if acc is None:
                        acc = accs[k] = [0] * n
                    for m, s in cell:
                        acc[m] += c * s
            for l, cell in reached[i]:
                for k, c in rights[l]:
                    acc = accs[k]
                    if acc is None:
                        acc = accs[k] = [0] * n
                    for m, s in cell:
                        acc[m] -= c * s
            if any(map(any, filter(None, accs))):
                return i, g, next(k for k, acc in enumerate(accs) if acc and any(acc))
    return None


def _sparse_sum(terms: Sequence[tuple[int, Sequence[tuple[int, int]]]]) -> list[tuple[int, int]]:
    """The nonzero (k, x) of sum c cell over the (c, cell) of terms."""
    out: dict[int, int] = {}
    for c, cell in terms:
        for k, s in cell:
            out[k] = out.get(k, 0) + c * s
    return [(k, x) for k, x in out.items() if x]


def poly_of_element(algebra: Algebra, p: Poly, x: Vec, unit: Optional[Vec] = None) -> Vec:
    """p(x) computed in the algebra, or in its corner whose unit is the given one."""
    acc = zero_vec(algebra.dim)
    power = algebra.unit if unit is None else unit
    for c in p.coeffs:
        if c:
            acc = vec_add(acc, vec_scale(c, power))
        power = algebra.multiply(power, x)
    return acc


def ideal_closure(algebra: Algebra, gens: Sequence[Vec], side: str = "two") -> Subspace:
    """The left, right or two-sided ideal generated by gens, in closed form.

    side is "left", "right", or "two".  The left ideal is span{e_a g}, the
    right one span{g e_b}, and the two-sided one span{e_a g e_b}, formed as
    the right products of a basis of the left ideal.  No closure loop is
    needed: every Algebra has passed make_algebra, so it is associative and
    unital.  Associativity closes each span under its side's products, since
    e_c (e_a g) = (e_c e_a) g, and the unit puts every g = 1 g = g 1 inside.

    Everything is integer rows until the final basis: each g is scaled to
    integers and its products are summed over the integer table, positive
    multiples of the rational products that span the same space.  For "two"
    the left products are reduced once by _integer_rref, and the reduced
    rows, nonzero multiples of the left ideal's basis, are multiplied on the
    right.
    """
    if side not in ("left", "right", "two"):
        raise ValueError(f"unknown side {side!r}")
    if any(len(g) != algebra.dim for g in gens):
        raise DimensionMismatch("element length differs from algebra dimension")
    return _integer_ideal(algebra, [_integer_row(g)[1] for g in gens], side)


def _integer_ideal(algebra: Algebra, gens: Sequence[Sequence[int]], side: str) -> Subspace:
    """ideal_closure of the generators given as integer rows, any nonzero
    multiples of the rational ones."""
    n = algebra.dim
    table = algebra.integer_sc[1]

    def products(rows: Sequence[list[tuple[int, int]]], left: bool) -> list[list[int]]:
        return [_integer_product(table, [(a, 1)], g) if left else
                _integer_product(table, g, [(a, 1)]) for g in rows for a in range(n)]

    rows = [_nonzero(g) for g in gens]
    if side == "two":
        lefts = [row for row in products(rows, True) if any(row)]
        rank = len(_integer_rref(lefts))
        return _integer_span(products([_nonzero(row) for row in lefts[:rank]], False), n)
    return _integer_span(products(rows, side == "left"), n)


def subalgebra_generated(algebra: Algebra, gens: Sequence[Vec]) -> Subspace:
    """Smallest unital multiplicatively closed subspace containing gens: the
    span of the left-normed words in gens applied to the unit, as the
    algebra is associative."""
    if any(len(g) != algebra.dim for g in gens):
        raise DimensionMismatch("element length differs from algebra dimension")
    words = _LeftWords(algebra.integer_sc[1], _integer_row(algebra.unit)[1])
    for g in gens:
        words.add(_nonzero(_integer_row(g)[1]))
    return _integer_span([row for _, row in words.echelon.rows], algebra.dim)


def is_ideal(algebra: Algebra, subspace: Subspace) -> bool:
    """Whether the subspace V absorbs e_g on both sides for g in Algebra.generators.

    The a with a V in V form a unital subalgebra, as (a b) V = a (b V), and
    so do the a with V a in V; once both hold the generators, they are the
    whole algebra and V is a two-sided ideal.  The products are formed from
    the integer table and V's integer rows, positive multiples of the
    rational ones, and V's integer residual decides membership exactly.
    """
    table = algebra.integer_sc[1]
    for row in subspace.rows():
        w = _nonzero(row)
        for g in algebra.generators:
            if (any(subspace.residual(_integer_product(table, [(g, 1)], w)))
                    or any(subspace.residual(_integer_product(table, w, [(g, 1)])))):
                return False
    return True


def quotient(algebra: Algebra, ideal: Subspace) -> tuple[Algebra, Mat]:
    """Quotient algebra on the non-pivot coordinates, with the projection matrix.

    The ideal must be a verified proper two-sided ideal.  The projection is a
    surjective algebra homomorphism whose kernel is the ideal.

    Everything is read off integer residuals against the ideal's echelon
    basis: with the constants C / L and the ideal's scale Lr, the kept
    coordinates of the residual of C[i][j] are the quotient's constants over
    L Lr, and the unit and the projection's columns are read the same way.
    The table is then validated as make_algebra validates one.
    """
    if ideal.ambient_dim != algebra.dim:
        raise DimensionMismatch("ideal lives in the wrong space")
    if not is_ideal(algebra, ideal):
        raise NotAnIdeal("subspace is not closed under two-sided multiplication")
    if ideal.dim == algebra.dim:
        raise ImproperIdeal("cannot divide by the whole algebra")
    n = algebra.dim
    coords = ideal.kept()
    scale, table = algebra.integer_sc
    unit_scale, unit = _integer_row(algebra.unit)
    quot = _validated(Algebra._from_cells(
        scale * ideal.scale,
        [[_nonzero(ideal.project(_dense(table[i][j], n))) for j in coords] for i in coords],
        _rational_row(ideal.project(unit), unit_scale * ideal.scale),
        [algebra.labels[j] for j in coords],
    ))
    columns = [ideal.project([int(k == c) for k in range(n)]) for c in range(n)]
    return quot, Mat._from_integers(list(zip(*columns)), n, ideal.scale)


def radical(algebra: Algebra) -> Subspace:
    """Kernel of the trace form (x, y) -> trace(mu(x y)); the maximal nilpotent ideal.

    The Gram entry of (e_i, e_j) is trace(e_i e_j), the dot product of the
    table's cell [i][j] with the trace vector, summed in integers over the
    square of the table's scale.  Verified nilpotent as an ideal before
    returning: the powers R, R^2 = R R, R^3 = R^2 R, ... of the kernel R must
    reach 0.  The trace form is associative, (x y, z) = (x, y z), so R is a
    two-sided ideal and the powers are nested, R^(k+1) inside R^k; one that
    keeps the rank of the one before it equals it, and the powers never
    reach 0.  Each power is kept as integer rows: its products with R's
    basis are summed over the integer table, positive multiples of the
    rational products, and _integer_rref reduces them to a basis.
    """
    n = algebra.dim
    table = algebra.integer_sc[1]
    rad = _integer_kernel(_trace_gram(algebra), n)
    rad_rows = [_nonzero(row) for row in rad.rows()]
    current = rad_rows
    for _ in range(n + 1):
        if not current:
            break
        products = [row for row in (_integer_product(table, x, y)
                                    for x in current for y in rad_rows) if any(row)]
        rank = len(_integer_rref(products))
        if rank == len(current):
            raise SkewexError("radical candidate is not nilpotent")
        current = [_nonzero(row) for row in products[:rank]]
    if current:
        raise SkewexError("radical candidate is not nilpotent")
    return rad


def _trace_gram(algebra: Algebra) -> list[list[int]]:
    """L^2 times the Gram matrix Tr(L_{e_i e_j}) of the trace form, L the
    table's scale: the dot products of the cells [i][j] with integer_trace.
    The form is symmetric, Tr(L_x L_y) = Tr(L_y L_x)."""
    n = algebra.dim
    table = algebra.integer_sc[1]
    trace = algebra.integer_trace
    return [[sum(x * trace[k] for k, x in table[i][j]) for j in range(n)] for i in range(n)]


class Separability(NamedTuple):
    """The dual basis f_j = dual[j] / scale of the trace form, with
    Tr(L_{e_i f_j}) = [i = j], and whether the central-simple identity holds."""

    scale: int
    dual: list[list[int]]
    central_simple: bool


def separability(algebra: Algebra) -> Optional[Separability]:
    """The dual basis of the trace form, or None when the form is degenerate.

    In characteristic 0 the form is nondegenerate exactly when the algebra
    is semisimple (Dickson's criterion).  It is invariant, (x y, z) =
    (x, y z), so the Casimir element sum e_i (x) f_i commutes with the
    algebra: sum a e_i (x) f_i = sum e_i (x) f_i a, as both sides give
    Tr(L_{a e_i f_k}) as the coefficient of e_k (x) f_i.  Its value
    sum e_i f_i is 1, since Tr(L_{x c}) = sum_i Tr(L_{x e_i f_i}) = Tr(L_x)
    for every x; that is checked here, not assumed, and a failure raises
    SkewexError.  central_simple records the identity
    sum_i e_i x f_i = Tr(L_x) / n * 1, checked at x = e_j for each j (both
    sides are linear in x); it holds on central simple algebras and fails
    where the center is larger than Q.

    With the Gram matrix G = L^2 (Tr(L_{e_i e_j})), the rows of [G | I]
    reduce to D (I | G^-1), and f_j is L^2 times row j of G^-1 (G is
    symmetric), in integers over D.  Both identities are compared
    cross-multiplied: sum_i e_i f_i is an integer row over L S, and
    sum_i (e_i e_j) f_i one over L^2 S, S = scale.
    """
    n = algebra.dim
    scale_table, table = algebra.integer_sc
    gram = _trace_gram(algebra)
    common, rows, pivots = _pivot_rows([row + [int(i == j) for j in range(n)]
                                        for i, row in enumerate(gram)])
    if pivots[:n] != list(range(n)):
        return None
    square = scale_table * scale_table
    dual = [[square * x for x in row[n:]] for row in rows]
    content = gcd(common, *(x for row in dual for x in row))
    scale, dual = common // content, [[x // content for x in row] for row in dual]
    duals = [_nonzero(row) for row in dual]
    scale_unit, unit = _integer_row(algebra.unit)
    if not _equal_rows(_casimir_sum(table, [[(i, 1)] for i in range(n)], duals),
                       scale_table * scale, unit, scale_unit):
        raise SkewexError("the trace form's Casimir element does not sum to 1")
    trace = algebra.integer_trace
    central_simple = all(
        _equal_rows(_casimir_sum(table, [table[i][j] for i in range(n)], duals),
                    square * scale, [trace[j] * x for x in unit], scale_table * n * scale_unit)
        for j in range(n))
    return Separability(scale, dual, central_simple)


def _casimir_sum(table: Table, xs: Sequence[Sequence[tuple[int, int]]],
                 duals: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """sum_i x_i f_i over the table, for the sparse integer rows x_i and f_i."""
    return [sum(column) for column in zip(*(_integer_product(table, x, f)
                                            for x, f in zip(xs, duals)))]


def center(algebra: Algebra) -> Subspace:
    """Elements x with x e_g = e_g x for every g in Algebra.generators.

    The elements that commute with a fixed x form a unital subalgebra, so x
    is central once it commutes with the generators: the system stacks the
    commutator matrices of the generators.
    """
    return _integer_kernel([row for g in algebra.generators
                            for row in _commutator_matrix(algebra, g)], algebra.dim)


def _commutator_matrix(algebra: Algebra, g: int) -> list[list[int]]:
    """L times the matrix of x -> x e_g - e_g x, the table over L: row r,
    column k holds c[k][g][r] - c[g][k][r]."""
    n = algebra.dim
    table = algebra.integer_sc[1]
    m = [[0] * n for _ in range(n)]
    for k in range(n):
        for r, x in table[k][g]:
            m[r][k] += x
        for r, x in table[g][k]:
            m[r][k] -= x
    return m


def subalgebra_as_algebra(algebra: Algebra, subspace: Subspace) -> tuple[Algebra, Mat]:
    """Present a unital multiplicatively closed subspace as an Algebra.

    Returns the small algebra plus the inclusion matrix whose columns are the
    subspace basis in ambient coordinates.  The basis is the reduced echelon
    one, R = rows() / Ls, so an element of the subspace has the coordinates
    it holds at the pivots; with the constants C / L, the product of rows i
    and j over the integer table is L Ls^2 times b_i b_j, and a nonzero
    residual shows the subspace is not closed.
    """
    if subspace.ambient_dim != algebra.dim:
        raise DimensionMismatch("subspace lives in the wrong space")
    scale, table = algebra.integer_sc
    rows = subspace.rows()
    pivots = subspace.pivots()

    def coords(w: list[int]) -> list[int]:
        if any(subspace.residual(w)):
            raise SkewexError("subspace is not multiplicatively closed")
        return [w[p] for p in pivots]

    xs = [_nonzero(row) for row in rows]
    cells = [[_nonzero(coords(_integer_product(table, x, y))) for y in xs] for x in xs]
    unit_scale, unit = _integer_row(algebra.unit)
    small = _validated(Algebra._from_cells(
        scale * subspace.scale ** 2, cells, _rational_row(coords(unit), unit_scale)))
    return small, Mat._from_integers(list(zip(*rows)), len(rows), subspace.scale)


SIMPLE = "simple"
NOT_SIMPLE = "not_simple"

# The check statuses of suite records and of ms_witness_check; is_simple
# answers INCONCLUSIVE as well.
PASS = "pass"
FAIL = "fail"
INCONCLUSIVE = "inconclusive"
NOT_APPLICABLE = "not-applicable"


def is_simple(algebra: Algebra) -> tuple[str, Optional[Subspace]]:
    """Decide simplicity via the radical and central idempotents.

    Returns (verdict, witness_ideal): NOT_SIMPLE carries a proper nonzero
    two-sided ideal; INCONCLUSIVE means central idempotent enumeration could
    not certify completeness.
    """
    from .idempotents import enumerate_idempotents

    rad = radical(algebra)
    if rad.dim > 0:
        return NOT_SIMPLE, rad
    cent = center(algebra)
    small, inclusion = subalgebra_as_algebra(algebra, cent)
    idems = enumerate_idempotents(small)
    for e_small in idems.items:
        e = inclusion.apply(e_small)
        if is_zero_vec(e) or e == algebra.unit:
            continue
        return NOT_SIMPLE, ideal_closure(algebra, [e])
    if not idems.complete:
        return INCONCLUSIVE, None
    return SIMPLE, None


# ---------------------------------------------------------------------------
# Builders for the test corpus.  Each documents its basis order.
# ---------------------------------------------------------------------------

def _matrix_units(n: int, positions: Sequence[tuple[int, int]]) -> Algebra:
    """The span of the n x n matrix units E_ij at the positions, in that
    order, with E_ij E_kl = [j = k] E_il; the positions must hold every
    (i, l) such a product reaches and every (i, i)."""
    index = {pos: k for k, pos in enumerate(positions)}
    dim = len(positions)
    cells = [[[(index[i, l], 1)] if j == k else [] for k, l in positions] for i, j in positions]
    unit = [ZERO] * dim
    for i in range(n):
        unit[index[i, i]] = ONE
    labels = [f"E{i + 1}{j + 1}" for i, j in positions]
    return _validated(Algebra._from_cells(1, cells, unit, labels))


def matrix_algebra(n: int) -> Algebra:
    """Full matrix algebra with matrix-unit basis E_ij, row-major order."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return _matrix_units(n, [(i, j) for i in range(n) for j in range(n)])


def poly_quotient(f: Poly) -> Algebra:
    """Q[t]/(f) with basis 1, t, ..., t^(d-1); f must be monic of degree >= 1."""
    if not f.is_monic() or f.degree < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    d = f.degree
    scale, reductions = power_reduction_table(f, 2 * d - 2)
    cells = [[_nonzero(reductions[i + j]) for j in range(d)] for i in range(d)]
    labels = ["1"] + [f"t^{i}" if i > 1 else "t" for i in range(1, d)]
    return _validated(Algebra._from_cells(scale, cells, unit_vec(0, d), labels))


def cyclic_group_algebra(m: int) -> Algebra:
    """Group algebra of the cyclic group of order m, basis g^0 .. g^(m-1)."""
    if m < 1:
        raise ValueError("group order must be >= 1")
    cells = [[[((i + j) % m, 1)] for j in range(m)] for i in range(m)]
    labels = [f"g^{i}" if i > 1 else ("g" if i == 1 else "1") for i in range(m)]
    return _validated(Algebra._from_cells(1, cells, unit_vec(0, m), labels))


def direct_product(a: Algebra, b: Algebra) -> Algebra:
    """Product algebra on the concatenated bases; unit is (1, 1).

    Its table is the two integer tables side by side, each brought to the
    lcm of their scales."""
    scale = lcm(a.integer_sc[0], b.integer_sc[0])
    cells = []
    for before, part, after in ((0, a, b.dim), (a.dim, b, 0)):
        factor = scale // part.integer_sc[0]
        for row in part.integer_sc[1]:
            shifted = [[(before + k, factor * x) for k, x in cell] for cell in row]
            cells.append([()] * before + shifted + [()] * after)
    labels = [f"({lab},0)" for lab in a.labels] + [f"(0,{lab})" for lab in b.labels]
    return _validated(Algebra._from_cells(scale, cells, tuple(a.unit) + tuple(b.unit), labels))


def upper_triangular(n: int) -> Algebra:
    """Upper-triangular matrices, basis E_ij with i <= j in row-major order."""
    if n < 1:
        raise ValueError("matrix size must be >= 1")
    return _matrix_units(n, [(i, j) for i in range(n) for j in range(i, n)])


def change_of_basis(algebra: Algebra, t: Mat) -> Algebra:
    """Same algebra expressed in the basis given by the columns of t.

    With t = T / Lt, its inverse S / Ls and the constants C / L, the new
    constant cell [i][j] is S times the integer product of columns i and j
    of T, over Ls Lt^2 L."""
    n = algebra.dim
    if (t.rows, t.cols) != (n, n):
        raise DimensionMismatch("change of basis matrix differs from algebra dimension")
    t_inv = inverse(t)
    if t_inv is None:
        raise ValueError("change of basis matrix must be invertible")
    scale_t, ints = t.integer_form
    scale_inv, inv = t_inv.integer_form
    scale, table = algebra.integer_sc
    columns = [_nonzero(column) for column in zip(*ints)]
    products = [[_integer_product(table, ci, cj) for cj in columns] for ci in columns]
    return _validated(Algebra._from_cells(
        scale_inv * scale_t * scale_t * scale,
        [[_nonzero([sum(map(mul, row, p)) for row in inv]) for p in row_p] for row_p in products],
        t_inv.apply(algebra.unit), [f"b{i}" for i in range(n)]))
