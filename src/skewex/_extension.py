"""Shared machinery for realizing twisted polynomial quotients as finite algebras.

Both extension flavours (derivation twist and automorphism twist) differ in
one rule only, how X^i moves past a basis element e_b.  twist_table writes
it as a table xpow[b][i], the left-normal form of X^i e_b for i <= d = deg p:
sum_k C(i, k) D^k(e_b) X^(i-k) for a derivation D (Ore 1933) and
phi^i(e_b) X^i for an automorphism phi.  It is built once per extension, in
integers over one scale, from the integer orbits of the basis under the
twist's integer form.  Everything else is derived here from that table.
assemble is the one gate of both: it alone decides the default p, the
preconditions on p and the twist, the route and the private hook that
forces the rewrite grid; ore_quotient and laurent_quotient name the mode.

Let R be the skew polynomial ring A[X; D] or A[X; phi], n = dim A, and E the
extension R/(p(X)), the quotient by the two-sided ideal.  Folding X^m by the
scalar recursion X^d = -sum alpha_i X^i maps R onto the window W, the span
of the e_a X^i with i < d, of dimension d*n: it is the quotient by the left
ideal R p(X), since a q(X) p(X) lies in it.  So E = W/N, where N, the image
of (p(X)), is spanned by the folded e_a p(X) e_b X^k with k < d (X^i p(X) =
p(X) X^i, X^i e_b is a left-normal sum, and a power X^k with k >= d folds).

The relations.  Left multiplication by e_a and right multiplication by X
are well defined on W, because R p(X) is a left ideal and R p(X) X =
R X p(X): e_a acts on each coefficient block, X shifts the blocks and folds
X^d.  The two actions commute, so N is the closure of the n generators
p(X) e_b (k = 0) under both, which relation_submodule computes: the left
multiples once, then X until nothing new appears.

The quotient.  The window lists its power blocks from the highest down
(_integer_fold), so N's reduced echelon basis pivots on the highest powers
of X, and the extension keeps the other coordinates, listed in ascending
(power, base index): its basis is the low powers e_a X^i, the Ore normal
form sum a_i X^i (Ore 1933).  A row pivoting in the X^0 block would be
zero on every higher power, a nonzero element of the base in N; where the
base embeds, as verify_extension certifies, there is none.  So the base is
the leading block of the extension, embed its identity columns, and u the
image of X.  Every complement of N gives the same algebra; the low powers
keep the table sparse and its constants small, where the high powers made
the unit and u dense (8 against 36 bits for an inner derivation of M_3,
21 against 310 for a generic one of M_5).
Only the products of the kept coordinates are formed: (e_a X^i)(e_b X^j) =
sum e_a c X^(m+j) over the terms (m, c) of xpow[b][i], folded and reduced
against N, in integers.  Fold and reduction are linear, so each monomial
e_a X^m that those products reach, m <= max(2K, 1) for K the highest kept
power, is folded and reduced once, and every product is an integer
combination of those rows.  When N is the image of (p(X)) these are
the constants of E on that section, and when N = 0 they are the whole
window in the free module's order.  The table stays in integers: the
algebra is built from it with no dense Fraction tensor.

The certificate.  Nothing checks that N absorbs products: every vector put
into N is the fold of an element of (p(X)), since the generators are and
e_a, X and folding stay inside the ideal, so N lies in the image of (p(X))
and dim E <= d*n - dim N.  verify_extension then proves that the returned
algebra B, of dimension d*n - dim N, is associative and a quotient of E;
its docstring has the argument.  So d*n - dim N = dim B <= dim E <=
d*n - dim N, the surjection E -> B is an isomorphism, and N is the whole
image of (p(X)).  An N that misses a vector cannot come back as an extension:
verify_extension rejects the table.  N = 0 means the window itself is the
extension.

The central-simple route.  When the base is not commutative, its trace form
has a dual basis f_i with the central-simple identity sum_i e_i x f_i =
Tr(L_x)/n 1 (algebra.separability), and the Casimir element gives an inner
witness (v with D = ad_v, or a unit w with phi = conj_w, checked on the
generators), assemble skips the relation closure.  Y = X - v, or
Y = w^(-1) X, is central, so R = A[Y] and p(X) = q(Y) with coefficients in
Q[v] or Q[w].  The identity gives t_a(Y) 1 = n sum_i e_i q(Y) e_a f_i in
(p(X)) for the trace polynomials t_a(Y) = Tr(L_{q(Y) e_a}), so g = gcd_a t_a,
of degree k, has dim R/(p) <= n k.  The route builds the extension on the
cells e_a X^i, i < k, from the relation X^k = sum_{i<k} r_i X^i that g(Y)
becomes (r_i in Q[v] or Q[w], which commute with X), and verify_extension
proves that the result, of dimension n k, is a quotient of R/(p): the two
are equal, and dim N = (d - k) n.  The closure keeps those same cells: they
are independent modulo N (e_a X^i = e_a (Y + v)^i is unitriangular in the
powers of Y, and e_a X^i = e_a w^i Y^i block-diagonal), and N's reduced
echelon basis, pivoting on the highest powers, leaves exactly the lowest k
blocks.  The coordinates of a quotient on a given basis are unique, so both
routes give the same table, byte for byte.  The private
_skip_annihilator_check and every other input keep the closure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, gcd, lcm
from operator import mul
from typing import Optional, Sequence

from .algebra import (
    Algebra,
    Separability,
    _LeftWords,
    _casimir_sum,
    _check_unit_law,
    _dense,
    _first_nonassociative_at,
    _integer_product,
    _nonzero,
    _trace_gram,
    separability,
)
from .algebra import poly_of_element as _poly_of_element
from .errors import (AnnihilatorFails, AssociativityFails, ConstantTermZero, NotAutomorphism,
                     NotMonic, SkewexError, UnitFails)
from .linalg import (
    Mat,
    Poly,
    Subspace,
    Vec,
    _equal_rows,
    _integer_row,
    _integer_rref,
    _integer_span,
    _primitive_gcd,
    _rational_row,
    is_zero_vec,
    kernel,
    power_reduction_table,
    vec_sub,
)
from .maps import LinearEndo, _first_unmultiplicative_pair, _integer_columns, _integer_image

# Callers of the constructions re-check p(u) = 0 with p(x) from here.
poly_of_element = _poly_of_element


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of an extension construction.

    embed maps base coordinates into the extension, as the leading identity
    block of the constructions' tables; u is the adjoined witness; u_inverse
    is present in the automorphism flavour.  defect_dim
    is the dimension of the relation submodule N, so that
    algebra.dim + defect_dim == p.degree * base.dim, and free_module records
    N = 0, which makes the extension the whole window, free of rank
    d = p.degree over the base.  In the derivation flavour free_module holds
    exactly when the derivation is zero: in characteristic zero the X^(d-1)
    coefficient of p(X) a - a p(X) is d * D(a), so the relation submodule is
    nonzero whenever D is.
    """

    mode: str
    base: Algebra
    algebra: Algebra
    embed: Mat
    u: Vec
    u_inverse: Optional[Vec]
    p: Poly
    free_module: bool
    defect_dim: int


# An integer folding table: beta[m] lists the nonzero (q, L_beta c_q) of
# X^m = sum_q c_q X^q modulo p, for one integer scale L_beta.
IntegerBeta = list[list[tuple[int, int]]]
# A sparse left-normal form: pairs (power, nonzero (index, integer) pairs).
IntegerTerms = list[tuple[int, list[tuple[int, int]]]]
# An integer twist table (L_xpow, xpow): xpow[b][i] is X^i e_b, i <= deg p,
# as integer terms over L_xpow.
IntegerXPow = tuple[int, list[list[IntegerTerms]]]


def _integer_beta(p: Poly, max_power: int) -> tuple[int, IntegerBeta]:
    """(L_beta, beta): the folding of X^m, m <= max_power, in integers over L_beta."""
    scale, rows = power_reduction_table(p, max_power)
    return scale, [_nonzero(row) for row in rows]


def twist_table(mode: str, twist: Mat, degree: int) -> IntegerXPow:
    """(L_xpow, xpow): X^i e_b for i <= degree, in integers over L_xpow, the
    lcm of the denominators of all the coefficients.

    With twist = A / L (Mat.integer_form) and the integer orbits A^k e_b,
    X^i e_b is sum_k C(i, k) L^(degree-k) A^k e_b X^(i-k) over L^degree for
    a derivation (Ore 1933), and L^(degree-i) A^i e_b X^i over L^degree for
    an automorphism; terms with A^k e_b = 0 are left out.  Dividing L^degree
    and every integer by their gcd c leaves the lcm M: L^degree / c is a
    common scale, so M divides it, and L^degree / M divides L^degree and
    every integer, hence c.
    """
    n = twist.cols
    scale, columns = _integer_columns(twist, n, n)
    lifts = [scale ** (degree - k) for k in range(degree + 1)]
    # (power, k, binomial) for each term of X^i e_b
    if mode == "derivation":
        shape = [[(i - k, k, comb(i, k)) for k in range(i + 1)] for i in range(degree + 1)]
    else:
        shape = [[(i, i, 1)] for i in range(degree + 1)]
    table = []
    for b in range(n):
        orbit = [[(b, 1)]]
        for _ in range(degree):
            orbit.append(_nonzero(_integer_image(columns, orbit[-1], n)))
        table.append([[(m, [(a, c * lifts[k] * x) for a, x in orbit[k]])
                       for m, k, c in terms if orbit[k]] for terms in shape])
    common = gcd(lifts[0], *(x for row in table for terms in row
                             for _, coeff in terms for _, x in coeff))
    if common > 1:
        table = [[[(m, [(a, x // common) for a, x in coeff]) for m, coeff in terms]
                  for terms in row] for row in table]
    return lifts[0] // common, table


def _integer_fold(terms: IntegerTerms, beta: IntegerBeta, n: int, size: int) -> list[int]:
    """sum c X^m over the (m, c) of terms, folded into window coordinates by
    beta: L_beta times the rational fold.

    The power blocks run from the highest down: e_a X^i has index
    (d - 1 - i) n + a, d = size / n, so an echelon of window vectors
    pivots on the highest powers it can."""
    out = [0] * size
    top = size - n
    for power, coeff in terms:
        for q, f in beta[power]:
            offset = top - q * n
            for a, c in coeff:
                out[offset + a] += f * c
    return out


def relation_submodule(base: Algebra, p: Poly, xpow: IntegerXPow,
                       beta: tuple[int, IntegerBeta]) -> Subspace:
    """N = span{e_a p(X) e_b X^k}, as the closure of the reduced k = 0
    generators p(X) e_b under left multiplication by the base and right
    multiplication by X.

    xpow is twist_table's and beta _integer_beta's, for powers up to at
    least d = deg p.  The vectors are in _integer_fold's window coordinates,
    the highest power first, so N's echelon basis pivots on the highest
    powers.  All vectors are integer rows until N's basis: the
    generators are folded with p's coefficients over Lp, xpow's over L_xpow
    and beta over L_beta, a positive multiple of the rational fold, and e_a
    acts on each coefficient block in one integer pass over the base's table
    per generator.  Each round of the closure adds at least one dimension,
    so there are at most dim N rounds.
    """
    n, d = base.dim, p.degree
    _, int_xpow = xpow
    _, beta = beta
    _, cp = _integer_row(p.coeffs)
    table = base.integer_sc[1]
    vectors = []
    for row in int_xpow:
        w = _integer_fold([(power, [(a, c * x) for a, x in coeff])
                           for i, c in enumerate(cp) if c
                           for power, coeff in row[i]], beta, n, d * n)
        if not any(w):
            continue
        blocks = [_nonzero(w[q * n:(q + 1) * n]) for q in range(d)]
        vectors.extend([v for ys in blocks for v in _integer_product(table, [(a, 1)], ys)]
                       for a in range(n))
    return _close_under_x(_integer_span(vectors, d * n), beta[:d + 1], n)


def _close_under_x(relations: Subspace, beta: IntegerBeta, n: int) -> Subspace:
    """The smallest subspace containing relations and closed under right
    multiplication by X; each round shifts only what the last one added.

    The shifts are folded in integers and tested against the relations'
    integer residual; beta folds X^m for m <= d, the number of blocks."""
    size, d = relations.ambient_dim, len(beta) - 1
    frontier = relations.rows()
    while frontier:
        # block k holds the power d - 1 - k, which X raises to d - k
        shifted = [_integer_fold([(d - k, _nonzero(v[k * n:(k + 1) * n])) for k in range(d)],
                                 beta, n, size) for v in frontier]
        frontier = [v for v in shifted if any(relations.residual(v))]
        if frontier:
            relations = _integer_span(relations.rows() + frontier, size)
    return relations


def quotient_by_relations(base: Algebra, p: Poly, xpow: IntegerXPow,
                          beta: tuple[int, IntegerBeta], relations: Subspace
                          ) -> tuple[Algebra, Mat, Vec]:
    """The extension on the coordinates the relation submodule keeps, with
    the embedding of the base and the image u of X.

    The kept cells e_a X^i, the window indices (d - 1 - i) n + a that are no
    pivot of the relations, are listed in ascending (power, base index), so
    the base block X^0, which holds no pivot, comes first.  xpow is
    twist_table's and beta _integer_beta's, for powers up to at least
    2d - 1.  Each monomial e_a X^m that a kept product reaches, m <=
    max(2K, 1) for K the highest kept power, is folded into the window and
    reduced against the relations once, in integers: beta scales by L_beta
    and the residual by the relations' L_N, so its row is L_beta L_N times
    the kept coordinates of the rational projection.  _kept_cell_quotient
    forms the table from those rows.  Nothing is checked here:
    verify_extension is the certificate.
    """
    n, d = base.dim, p.degree
    scale_beta, beta = beta
    # the kept window indices in ascending (power, base index): blocks last first
    coords = sorted(relations.kept(), key=lambda r: (-(r // n), r))
    kept = [(d - 1 - r // n, r % n) for r in coords]

    def monomial(m: int, a: int) -> list[tuple[int, int]]:
        residual = relations.residual(_integer_fold([(m, [(a, 1)])], beta, n, d * n))
        return _nonzero([residual[r] for r in coords])

    top = max(2 * max((i for i, _ in kept), default=0), 1)
    monomials = [[monomial(m, a) for a in range(n)] for m in range(top + 1)]
    return _kept_cell_quotient(base, xpow, kept, monomials, scale_beta * relations.scale)


def _kept_cell_quotient(base: Algebra, xpow: IntegerXPow, kept: list[tuple[int, int]],
                        monomials: list[list[list[tuple[int, int]]]], scale: int
                        ) -> tuple[Algebra, Mat, Vec]:
    """The extension on the kept cells e_a X^i, the (power, base index) pairs
    of kept, from the rows of the monomials.

    monomials[m][a] is the nonzero (position in kept, S x) pairs of e_a X^m
    in the extension, x its coordinates on the kept cells, for one integer
    scale S = scale and every m a kept product reaches.  The rows are linear
    at that one scale, so an integer combination of monomials has exactly
    the same combination of their rows.  The kept cells (e_a X^i)(e_b X^j)
    = sum e_a c X^(m+j), over the terms (m, c) of xpow[b][i], are such
    combinations with m + j <= i + j; c scales by L_xpow and the base's
    constants by its L_table, so every kept entry is an integer over
    L_table L_xpow S, and the algebra is built from that integer table.
    embed, u and the unit combine the rows of X^0 and X^1.
    """
    n = base.dim
    scale_table, table = base.integer_sc
    scale_xpow, int_xpow = xpow

    def project(terms: IntegerTerms, shift: int) -> tuple[tuple[int, int], ...]:
        """The nonzero (position in kept, S x) of sum c X^(m + shift) over the
        (m, c) of terms, x its kept coordinates, summed only where a row lands."""
        out: dict[int, int] = {}
        for m, coeff in terms:
            rows = monomials[m + shift]
            for a, x in coeff:
                for k, y in rows[a]:
                    out[k] = out.get(k, 0) + x * y
        return tuple(sorted(item for item in out.items() if item[1]))

    def rational(terms: IntegerTerms, denominator: int) -> Vec:
        return _rational_row(_dense(project(terms, 0), len(kept)), denominator)

    cells = []
    for i, a in kept:
        # the terms (m, e_a c) of e_a X^i e_b, over the (m, c) of xpow[b][i]
        lefts = [[(m, v) for m, coeff in int_xpow[b][i]
                  if (v := _nonzero(_integer_product(table, [(a, 1)], coeff)))] for b in range(n)]
        cells.append([project(lefts[b], j) if lefts[b] else () for j, b in kept])

    scale_unit, unit = _integer_row(base.unit)
    unit_terms = _nonzero(unit)
    embed = Mat.from_columns([rational([(0, [(a, 1)])], scale) for a in range(n)])
    u = rational([(1, unit_terms)], scale * scale_unit)
    labels = []
    for i, a in kept:
        lab = base.labels[a]
        power = "X" if i == 1 else f"X^{i}"
        labels.append(lab if i == 0 else power if lab == "1" else f"{lab}*{power}")
    ext_unit = rational([(0, unit_terms)], scale * scale_unit)
    return Algebra._from_cells(scale * scale_table * scale_xpow, cells, ext_unit, labels), embed, u


def _inner_witness(mode: str, base: Algebra, twist: Mat, separable: Separability
                   ) -> Optional[tuple[int, list[int]]]:
    """(s, Z) for the inner witness z = Z / s read off the Casimir element,
    or None when it does not realize the twist.

    For a derivation D, v = sum_i D(e_i) f_i, and D = ad_v, a -> v a - a v:
    D(a e_i) = D(a) e_i + a D(e_i) and sum a e_i (x) f_i = sum e_i (x) f_i a
    give sum a D(e_i) f_i = v a - D(a), as sum e_i f_i = 1.  For an
    automorphism phi, w = sum_i phi(e_i) e_b f_i satisfies w a = phi(a) w
    for every b, by the same commutation; the first b with w != 0 is taken,
    and phi = conj_w once w is a unit.  Both identities are checked on G =
    base.generators, since the elements on which two derivations, or two
    unital homomorphisms, agree form a subalgebra holding 1, and w is a unit
    exactly when left multiplication by it has full rank.  With the table
    over L, the twist over L_t and the dual basis over S, v is an integer
    row over L L_t S and w one over L^2 L_t S.
    """
    n = base.dim
    scale_table, table = base.integer_sc
    scale_twist, columns = _integer_columns(twist, n, n)
    duals = [_nonzero(f) for f in separable.dual]
    if mode == "derivation":
        scale, z = scale_table * scale_twist * separable.scale, _casimir_sum(table, columns, duals)
        zs = _nonzero(z)
        for g in base.generators:
            got = [x - y for x, y in zip(_integer_product(table, zs, [(g, 1)]),
                                         _integer_product(table, [(g, 1)], zs))]
            image = [row[g] for row in twist.integer_form[1]]
            if not _equal_rows(got, scale_table * scale, image, scale_twist):
                return None
        return scale, z
    scale = scale_table * scale_table * scale_twist * separable.scale
    for b in range(n):
        z = _casimir_sum(table, [_nonzero(_integer_product(table, column, [(b, 1)]))
                                 for column in columns], duals)
        if any(z):
            break
    else:
        return None
    zs = _nonzero(z)
    for g in base.generators:
        if not _equal_rows(_integer_product(table, zs, [(g, 1)]), scale_table * scale,
                           _integer_product(table, columns[g], zs),
                           scale_table * scale_twist * scale):
            return None
    if len(_integer_rref([_integer_product(table, zs, [(j, 1)]) for j in range(n)])) < n:
        return None
    return scale, z


def _central_simple_quotient(mode: str, base: Algebra, p: Poly, twist: Mat
                             ) -> Optional[tuple[Algebra, Mat, Vec]]:
    """The extension A (x) Q[Y]/(g) of a central simple base, with its
    embedding and u, or None when the route does not apply.

    It applies when the base is not commutative, separability finds the
    central-simple identity sum_i e_i x f_i = Tr(L_x)/n 1, and
    _inner_witness gives z: v with D = ad_v, or w with phi = conj_w.  Then
    Y = X - v, or Y = w^(-1) X, commutes with the base, so R = A[Y] and
    p(X) = q(Y) with the coefficients q_j = sum_i alpha_i C(i, j) v^(i-j),
    or q_j = alpha_j w^j, in Q[z], for p = sum alpha_i X^i.  The identity
    makes the trace polynomials t_a(Y) = Tr(L_{q(Y) e_a}), whose coefficient
    of Y^j is (Gram q_j)_a, lie in the ideal: t_a(Y) 1 =
    n sum_i e_i q(Y) e_a f_i.  So g = gcd_a t_a, of degree k, has g(Y) 1 in
    (p(X)), R/(p) is a quotient of the span of the e_a Y^i with i < k, and
    dim R/(p) <= n k.

    z commutes with X (D(v) = 0, phi(w) = w), so g(Y) is a polynomial in X
    with coefficients in Q[z], read off g(X - v) or w^k g(w^(-1) X); it
    gives X^k = sum_{i<k} r_i X^i.  That rewrites every e_a X^m as
    sum_i e_a rho_(m,i) X^i on the cells e_a X^i, i < k, where rho_m is
    X^m reduced by X^(i+1) = X X^i and the r_i, all in integers; the kept
    cells and _kept_cell_quotient then form the table on exactly the cells
    the closure keeps (module docstring).  verify_extension proves that the
    result, of dimension n k, is a quotient of R/(p), so the two are equal.
    """
    if base.is_commutative():
        return None
    separable = separability(base)
    if separable is None or not separable.central_simple:
        return None
    witness = _inner_witness(mode, base, twist, separable)
    if witness is None:
        return None
    n, d = base.dim, p.degree
    scale_table, table = base.integer_sc
    # z^i = powers[i] / scale_z, and q_j a common positive multiple of the integer rows q[j]
    scale_z, powers = _integer_powers(base, _rational_row(witness[1], witness[0]), d)
    cp = _integer_row(p.coeffs)[1]
    if mode == "derivation":
        q = [[sum(cp[i] * comb(i, j) * powers[i - j][c] for i in range(j, d + 1))
              for c in range(n)] for j in range(d + 1)]
    else:
        q = [[cp[j] * x for x in powers[j]] for j in range(d + 1)]
    traces = set()
    for row in _trace_gram(base):
        t = [sum(map(mul, row, q_j)) for q_j in q]
        while t and not t[-1]:
            t.pop()
        traces.add(tuple(t))
    cg = []
    for t in traces:
        cg = _primitive_gcd(cg, list(t))
    if len(cg) < 2:
        # a constant g puts 1 in (p(X)), which only a p that misses the twist does
        return None
    # g = cg / scale_g, and X^k = sum_{i<k} relation[i] X^i / (scale_g scale_z)
    k, scale_g = len(cg) - 1, cg[-1]
    if mode == "derivation":
        relation = [[-sum(cg[i] * comb(i, j) * (-1) ** (i - j) * powers[i - j][c]
                          for i in range(j, k + 1)) for c in range(n)] for j in range(k)]
    else:
        relation = [[-cg[j] * x for x in powers[k - j]] for j in range(k)]
    step = [_nonzero(row) for row in relation]
    lift = scale_table * scale_g * scale_z
    scale_unit, unit = _integer_row(base.unit)
    # rho_m = rows / s, its k coefficients dense integer rows over one scale s
    chain = [(scale_unit, [unit if i == m else [0] * n for i in range(k)]) for m in range(k)]
    top = max(2 * k - 2, 1)
    while len(chain) <= top:
        scale, rows = chain[-1]
        lead = _nonzero(rows[-1])
        shifted = [[0] * n] + rows[:-1]
        if lead:
            scale *= lift
            shifted = [[lift * x + y for x, y in zip(row, _integer_product(table, lead, r))]
                       for row, r in zip(shifted, step)]
            common = gcd(scale, *(x for row in shifted for x in row))
            scale, shifted = scale // common, [[x // common for x in row] for row in shifted]
        chain.append((scale, shifted))
    common = lcm(*(s for s, _ in chain))
    monomials = []
    for scale, rows in chain[:top + 1]:
        factor = common // scale
        rows = [_nonzero(row) for row in rows]
        monomials.append([[(i * n + c, factor * x) for i, row in enumerate(rows)
                           for c, x in enumerate(_integer_product(table, [(a, 1)], row)) if x]
                          for a in range(n)])
    kept = [(i, a) for i in range(k) for a in range(n)]
    return _kept_cell_quotient(base, twist_table(mode, twist, k - 1), kept, monomials,
                               scale_table * common)


def assemble(
    base: Algebra,
    mode: str,
    twist: LinearEndo,
    p: Optional[Poly] = None,
    _skip_annihilator_check: bool = False,
) -> ExtensionResult:
    """The extension of base that makes twist inner, passed through
    verify_extension; the one gate of ore_quotient and laurent_quotient.

    twist is a certified Derivation (mode "derivation") or AlgebraEndo
    (mode "automorphism").  p defaults to its minimal polynomial.  Raises,
    in this order: NotAutomorphism when an automorphism-mode twist is not
    invertible; NotMonic unless p is monic of degree >= 1; ConstantTermZero
    when p(0) = 0 in automorphism mode; AnnihilatorFails, with a witness
    column, when a given p has p(twist) != 0.

    A central simple base with an inner twist takes _central_simple_quotient,
    which needs no relation closure.  Every other input builds the twist
    table and the folding table of X^m, m <= 2 deg p, once, for both the
    relation submodule and the quotient.

    The private _skip_annihilator_check skips the annihilator check and the
    route: the rewrite grid itself must be the extension, and a nonzero
    relation submodule raises AssociativityFails.
    """
    automorphism = mode == "automorphism"
    if automorphism and not twist.is_invertible():
        raise NotAutomorphism("the twist must be an automorphism")
    given = p is not None
    p = p if given else twist.minimal_polynomial  # which checks p(twist) = 0
    if not p.is_monic() or p.degree < 1:
        raise NotMonic("relation polynomial must be monic of degree >= 1")
    if automorphism and p.coeff(0) == 0:
        raise ConstantTermZero("relation polynomial needs a nonzero constant term")
    matrix = twist.matrix
    if given and not _skip_annihilator_check:
        image = p.eval_matrix(matrix)
        if not image.is_zero():
            witness = next(j for j in range(matrix.cols) if not is_zero_vec(image.column(j)))
            raise AnnihilatorFails(witness, image.column(witness))
    quotient = (None if _skip_annihilator_check
                else _central_simple_quotient(mode, base, p, matrix))
    if quotient is None:
        xpow = twist_table(mode, matrix, p.degree)
        beta = _integer_beta(p, 2 * p.degree)
        relations = relation_submodule(base, p, xpow, beta)
        if _skip_annihilator_check and relations.dim:
            raise AssociativityFails(f"relation submodule of dimension {relations.dim}: "
                                     "the rewrite system is inconsistent")
        quotient = quotient_by_relations(base, p, xpow, beta, relations)
    algebra, embed, u = quotient
    u_inverse = verify_extension(mode, base, algebra, embed, u, p, matrix)
    defect = p.degree * base.dim - algebra.dim
    return ExtensionResult(mode, base, algebra, embed, u, u_inverse, p,
                           free_module=(defect == 0), defect_dim=defect)


def verify_extension(
    mode: str, base: Algebra, ext: Algebra, embed: Mat, u: Vec, p: Poly, twist: Mat
) -> Optional[Vec]:
    """Certify that ext, with embed and u, is an associative quotient of
    R/(p(X)) in which u realizes twist; return u^(-1), or None in the
    derivation mode.

    R is A[X; D] or A[X; phi] for A = base, and twist must be a certified
    derivation (derivation mode) or automorphism of base.  ext may be any
    table with a designated unit, such as quotient_by_relations builds.  G
    is base.generators, whose left-normed words span base, and Y is embed(G)
    and u.  Raises at the first check that fails, in this order:
    - the unit law of ext (AssociativityFails);
    - the left-normed words y_1 (y_2 (... (y_k 1))) in Y span ext
      (SkewexError).  Nothing here assumes associativity;
    - the associators (x, y, z) = (x y) z - x (y z) vanish at basis elements
      x, z for y in Y (AssociativityFails).  The middle nucleus holds the
      unit and is a subalgebra (_first_nonassociative_at), so it holds every
      word in Y, which is all of ext: ext is associative;
    - embed is injective and unital, and multiplicative on the pairs
      (1, e_j) and (e_g, e_j), g in G.  That makes it multiplicative: as ext
      and base are associative, {x : embed(x y) = embed(x) embed(y) for all y}
      is closed under products, and it holds 1;
    - p(u) = 0;
    - u embed(a) - embed(a) u (derivation mode) or u embed(a) u^(-1)
      (automorphism mode) is embed(twist(a)) for a in G.  Both sides are
      derivations along embed, or unital homomorphisms, of base into ext, and
      where two of them agree is a subalgebra holding 1, so they agree on
      all of base.
    The last three raise SkewexError.  The inverse u^(-1) = -(sum_{i >= 1} alpha_i u^(i-1)) / p(0), for
    p = sum alpha_i X^i, is read off p(u) = 0: ext is associative, so
    u u^(-1) = u^(-1) u = 1 - p(u)/p(0) = 1.  The powers u^0 .. u^(deg p) are
    formed once, as integer rows over one common scale, and serve both.

    Then ext is a quotient of R/(p(X)).  By the universal property of the
    skew polynomial ring (McConnell and Robson, Noncommutative Noetherian
    Rings, 1.2) a -> embed(a), X -> u extends to a homomorphism R -> ext,
    which kills p(X).  Its image is the subalgebra generated by embed(base)
    and u; that holds every word in Y, so it is ext.  As R is the sum of the
    A X^i and p(u) = 0 folds the powers u^i, i >= deg p, it follows that
    ext = sum_{i < deg p} embed(base) u^i; no span of those products is
    formed.
    """
    generators = base.generators
    try:
        _check_unit_law(ext)
    except UnitFails as exc:
        raise AssociativityFails(str(exc)) from exc
    images = embed.columns()
    names = [f"embed(e{g})" for g in generators] + ["u"]
    middles = [images[g] for g in generators] + [u]
    words = _LeftWords(ext.integer_sc[1], _integer_row(ext.unit)[1])
    for y in middles:
        words.add(_nonzero(_integer_row(y)[1]))
    if words.rank < ext.dim:
        raise SkewexError("the embedded generators and u do not generate the extension")
    witness = _first_nonassociative_at(ext.integer_sc, middles)
    if witness is not None:
        i, g, k = witness
        raise AssociativityFails(f"associativity fails on (e{i}, {names[g]}, e{k})")
    if kernel(embed).dim != 0:
        raise SkewexError("base does not embed; construction precondition violated")
    if embed.apply(base.unit) != ext.unit:
        raise SkewexError("embedding does not send unit to unit")
    if _first_unmultiplicative_pair(base, ext, embed) is not None:
        raise SkewexError("embedding is not multiplicative")
    scale, powers = _integer_powers(ext, u, p.degree)
    coeffs = _integer_row(p.coeffs)[1]  # a positive multiple of p's
    if any(_integer_combination(coeffs, powers)):
        raise SkewexError("p(u) != 0 in the constructed extension")
    u_inverse = None
    if mode == "automorphism":
        acc = _integer_combination(coeffs[1:], powers)
        u_inverse = _rational_row([-x for x in acc], coeffs[0] * scale)
    for a in generators:
        img = images[a]
        if mode == "derivation":
            got = vec_sub(ext.multiply(u, img), ext.multiply(img, u))
        else:
            got = ext.multiply(ext.multiply(u, img), u_inverse)
        if got != embed.apply(twist.column(a)):
            raise SkewexError(f"adjoined witness does not realize the {mode}")
    return u_inverse


def _integer_powers(ext: Algebra, u: Vec, degree: int) -> tuple[int, list[list[int]]]:
    """(S, rows) with u^i = rows[i] / S for i = 0 .. degree.

    With u = U / L_u and the table's scale L, u^(i+1) is the integer product
    of u^i = w_i / s_i and U over s_i L L_u; each (s_i, w_i) is divided by
    its gcd, and S is the lcm of the s_i.
    """
    scale, row = _integer_row(ext.unit)
    step_scale, u_row = _integer_row(u)
    step_scale *= ext.integer_sc[0]
    us = _nonzero(u_row)
    table = ext.integer_sc[1]
    chain = [(scale, row)]
    for _ in range(degree):
        row = _integer_product(table, _nonzero(row), us)
        scale *= step_scale
        common = gcd(scale, *row)
        scale, row = scale // common, [x // common for x in row]
        chain.append((scale, row))
    common = lcm(*(s for s, _ in chain))
    return common, [[x * (common // s) for x in row] for s, row in chain]


def _integer_combination(coeffs: Sequence[int], rows: Sequence[list[int]]) -> list[int]:
    """sum_i coeffs[i] rows[i], over the first len(coeffs) rows."""
    terms = [(c, row) for c, row in zip(coeffs, rows) if c]
    return [sum(c * row[k] for c, row in terms) for k in range(len(rows[0]))]
