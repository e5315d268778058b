"""The Fraction idempotent pipeline, kept as the oracle of the integer one.

enumerate_idempotents used to split, lift and close on Fraction vectors: the
corner relation by krylov_relation on Algebra.multiply by x = e d, each
projector by poly_of_element, the Newton step and the orthogonal sums by
vector arithmetic, and the lift's drift check through the projection and
section matrices of the quotient, which was built from Fraction residuals
of the dense table.  skewex now runs all of it on integer rows over common
scales; the tests compare the two.  The rank-one grid is the list
rank_one_idempotent_grid built on every call before it was built once per
size.
"""

import random
from fractions import Fraction

from skewex.algebra import Algebra, make_algebra, poly_of_element, radical
from skewex.errors import CapExceeded, NotCommutative, SkewexError
from skewex.explorer import random_basis_change, random_recipe
from skewex.idempotents import IdempotentSet, idempotent_cap
from skewex.linalg import (
    ONE,
    ZERO,
    Mat,
    Poly,
    Vec,
    is_zero_vec,
    krylov_relation,
    rat,
    unit_vec,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
)


def commutative_draws(count):
    """Commutative algebras drawn as test_single_splitting_pass_matches_fixpoint
    draws them."""
    rng = random.Random(606)
    out = []
    while len(out) < count:
        algebra = random_recipe(rng, max_dim=6).algebra
        if rng.random() < 0.5:
            algebra = random_basis_change(algebra, rng)
        if algebra.is_commutative():
            out.append(algebra)
    return out


def quotient(algebra: Algebra, ideal) -> tuple[Algebra, Mat]:
    """The quotient on the ideal's non-pivot coordinates from Fraction
    residuals of the dense table, validated by make_algebra, and the
    projection matrix."""
    pivots = set(ideal.pivots())
    coords = [j for j in range(algebra.dim) if j not in pivots]

    def project(x: Vec) -> Vec:
        residual = ideal.reduce(x)
        return tuple(residual[j] for j in coords)

    quot = make_algebra(len(coords),
                        [[project(algebra.sc[i][j]) for j in coords] for i in coords],
                        project(algebra.unit), [algebra.labels[j] for j in coords])
    n = algebra.dim
    return quot, Mat.from_columns([project(unit_vec(c, n)) for c in range(n)])


def split_block(algebra: Algebra, block: Vec, direction: Vec) -> list[Vec]:
    """Split a block along the rational eigenvalues of x = block * direction,
    with the projectors (m / (t - lam)) / m'(lam) evaluated at x."""
    x = algebra.multiply(block, direction)
    min_poly = krylov_relation(lambda v: algebra.multiply(v, x), block)
    roots = min_poly.rational_roots()
    if not roots or min_poly.degree == 1:
        return [block]
    pieces = []
    remainder = block
    for lam in roots:
        reduced, _ = min_poly.divmod(Poly.of([-lam, ONE]))
        scale = reduced.eval(lam)
        if scale == 0:
            raise SkewexError("repeated eigenvalue: the corner is not reduced")
        piece = poly_of_element(algebra, reduced.scale(ONE / scale), x, block)
        if is_zero_vec(piece):
            continue
        pieces.append(piece)
        remainder = vec_sub(remainder, piece)
    if not pieces:
        return [block]
    if not is_zero_vec(remainder):
        pieces.append(remainder)
    for piece in pieces:
        if algebra.multiply(piece, piece) != piece:
            raise SkewexError("eigen-projection failed to produce an idempotent")
    return pieces


def newton_lift(algebra: Algebra, proj: Mat, section: Mat, block: Vec) -> Vec:
    """e <- 3e^2 - 2e^3 from the section of the block until e^2 = e."""
    e = section.apply(block)
    for _ in range(algebra.dim + 2):
        square = algebra.multiply(e, e)
        if square == e:
            if proj.apply(e) != tuple(block):
                raise SkewexError("lift drifted away from its semisimple image")
            return e
        cube = algebra.multiply(square, e)
        e = vec_sub(vec_scale(rat(3), square), vec_scale(rat(2), cube))
    raise SkewexError("idempotent lifting did not converge")


def enumerate_idempotents(algebra: Algebra, cap=None) -> IdempotentSet:
    """The Fraction pipeline: radical, quotient, one splitting pass, lift,
    orthogonality and unit checks, and the 2^k sums in mask order."""
    if not algebra.is_commutative():
        raise NotCommutative("idempotent enumeration requires a commutative algebra")
    cap = idempotent_cap() if cap is None else cap
    rad = radical(algebra)
    if rad.dim == 0:
        semisimple, proj, section = algebra, Mat.identity(algebra.dim), Mat.identity(algebra.dim)
    else:
        semisimple, proj = quotient(algebra, rad)
        pivots = set(rad.pivots())
        section = Mat.from_columns([algebra.basis_element(j) for j in range(algebra.dim)
                                    if j not in pivots])
    blocks = [semisimple.unit]
    for direction in range(semisimple.dim):
        blocks = [piece for block in blocks
                  for piece in split_block(semisimple, block, semisimple.basis_element(direction))]
    complete = all(semisimple.left_regular(block).trace() <= 1 for block in blocks)

    primitives = [newton_lift(algebra, proj, section, block) for block in blocks]
    for i, e in enumerate(primitives):
        for f in primitives[i + 1:]:
            if not is_zero_vec(algebra.multiply(e, f)):
                raise SkewexError("lifted primitives are not orthogonal")
    total = zero_vec(algebra.dim)
    for e in primitives:
        total = vec_add(total, e)
    if total != algebra.unit:
        raise SkewexError("lifted primitives do not sum to the unit")

    k = len(primitives)
    if 2 ** k > cap:
        raise CapExceeded(f"2^{k} idempotents exceed the cap {cap}")
    items, provenance = [], []
    for mask in range(2 ** k):
        e = zero_vec(algebra.dim)
        size = 0
        for bit in range(k):
            if mask & (1 << bit):
                e = vec_add(e, primitives[bit])
                size += 1
        if algebra.multiply(e, e) != e:
            raise SkewexError("orthogonal sum failed to be idempotent")
        items.append(e)
        provenance.append(("lifted" if rad.dim else "primitive") if size == 1 else "sum")
    reason = None if complete else "an irreducible factor of degree >= 2 survived splitting"
    return IdempotentSet(tuple(items), complete, reason, tuple(provenance))


def rank_one_idempotent_grid(size: int, count: int = 100) -> list[Vec]:
    """v w^T / (w . v) over the grid of small rational parameters, in order."""
    if size < 2:
        raise SkewexError("rank-one grid needs a matrix size of at least 2")
    values = [rat(x) for x in
              (0, 1, -1, 2, Fraction(1, 2), 3, Fraction(-1, 2), Fraction(2, 3), -2,
               Fraction(3, 2), Fraction(1, 3), 4)]
    out: list[Vec] = []
    seen: set[Vec] = set()
    for va in values:
        for vb in values:
            if len(out) >= count:
                return out
            v = [ONE, va] + [va * va] * (size - 2)
            w = [ONE, vb] + [vb] * (size - 2)
            dot = sum(x * y for x, y in zip(v, w))
            if dot == 0:
                continue
            e = [ZERO] * (size * size)
            for i in range(size):
                for j in range(size):
                    e[i * size + j] = v[i] * w[j] / dot
            key = tuple(e)
            if key not in seen:
                seen.add(key)
                out.append(key)
    if len(out) < count:
        raise SkewexError("grid exhausted before reaching the requested count")
    return out
