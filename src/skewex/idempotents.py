"""Idempotent enumeration, trace-rank checks, and the subspace oracles.

Enumeration is exact on commutative algebras: split the semisimple quotient
along rational eigenvalues of basis directions, lift primitives through the
radical by the cubic Newton step, and close under orthogonal sums.  A block e
splits along a direction d by the minimal polynomial of x = e d in the corner
e A, the relation of its chain e, e x, e x^2, ..., which is e, e d, e d^2, ...
since e is the corner's unit; and since an idempotent's trace is its rank,
trace(e) = dim e A tells a primitive block.  The quotient by the radical is
reduced (the radical is the trace-form kernel, verified nilpotent, so it
holds every nilpotent), and in a reduced commutative algebra that minimal
polynomial is square-free: it is split as it stands, with no square-free
part taken.  When an irreducible factor of degree >= 2 survives, the (still
valid) partial set is returned flagged inconclusive rather than silently
treated as complete.

The pipeline runs on integers: an element is a pair (V, s), the vector
V / s with s > 0, multiplied on the integer structure constants.  The
chain, its relation (linalg._integer_krylov), the projectors read off the
chain, the lift and the orthogonal sums are integer rows, and every
idempotency test compares two integer vectors over one common scale.  Each
listed idempotent becomes a Fraction vector once, at the end, and keeps an
integer row that every membership test reads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from math import gcd, lcm
from operator import mul
from typing import Callable, Optional, Sequence

from .algebra import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Algebra,
    _integer_product,
    _nonzero,
    ideal_closure,
    quotient,
    radical,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    NotCommutative,
    NotIdempotent,
    SkewexError,
    ValidationError,
)
from .linalg import (
    Mat,
    Poly,
    Subspace,
    Vec,
    ZERO,
    ONE,
    _integer_krylov,
    _integer_row,
    _integer_rref,
    _integer_span,
    _primitive,
    _rational_row,
    column_space,
    is_zero_vec,
    rat,
)
from .maps import AlgebraEndo, LinearEndo, induced_map

DEFAULT_CAP = 2 ** 20
CAP_ENV_VAR = "SKEWEX_IDEMPOTENT_CAP"


def idempotent_cap() -> int:
    """The cap on enumerated idempotents: SKEWEX_IDEMPOTENT_CAP, or DEFAULT_CAP
    when it is unset or empty.  Any other value must be a positive integer,
    else ValidationError."""
    value = os.environ.get(CAP_ENV_VAR)
    if not value:
        return DEFAULT_CAP
    try:
        cap = int(value)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValidationError(f"{CAP_ENV_VAR} must be a positive integer, got {value!r}")
    return cap


@dataclass(frozen=True)
class IdempotentSet:
    """Verified idempotents of an algebra; 0 and 1 are always present."""

    items: tuple[Vec, ...]
    complete: bool
    inconclusive_reason: Optional[str] = None
    provenance: tuple[str, ...] = ()

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """L e for each item e, L the lcm of e's denominators, which membership
        tests read; built once, outside equality, hashing and repr."""
        return tuple(tuple(_integer_row(e)[1]) for e in self.items)

    def nonzero(self) -> list[Vec]:
        return [e for e in self.items if not is_zero_vec(e)]


# An integer element (V, s) is the vector V / s, s > 0.
Element = tuple[list[int], int]


def _reduced(row: list[int], scale: int) -> Element:
    """The element row / scale with row and scale divided by their gcd."""
    g = gcd(scale, *row)
    return ([x // g for x in row], scale // g) if g > 1 else (row, scale)


def _is_idempotent(integer_sc, element: Element) -> bool:
    """e e = e for e = V / s: with the constants C / L, V V C = L s V."""
    scale_c, table = integer_sc
    row, scale = element
    xs = _nonzero(row)
    return _integer_product(table, xs, xs) == [scale_c * scale * x for x in row]


def _split_block(algebra: Algebra, block: Element, direction: int) -> list[Element]:
    """Split an idempotent block along the rational eigenvalues of a basis direction.

    The corner e A (e the block) is a unital algebra with unit e, and x = e d
    lies in it.  Its regular representation is faithful, so the minimal
    polynomial m of multiplication by x on e A is the least monic p with
    p(x) = 0 there, which is the relation of the chain e, e x, e x^2, ...
    Since e x^k = e d^k, each step multiplies by the basis element d.  A
    1-dimensional corner gives a degree-1 relation and so no split.

    The algebra must be reduced, as enumerate_idempotents' quotient by the
    radical is; then m is square-free.  If m = f^2 g with f of positive
    degree, then (f g)(x)^2 = m(x) g(x) = 0, so (f g)(x) = 0 as the corner
    has no nonzero nilpotent, although f g has lower degree than m.  So
    m'(lam) != 0 at every root lam, and r(t) / r(lam), r = m / (t - lam),
    is the projector onto the lam component; r(lam) = m'(lam).  A root with
    m'(lam) = 0 is a repeated one and means the algebra was not reduced:
    SkewexError.

    In integers: the relation is a_0 .. a_k, and lam = p / q.  Synthetic
    division gives r_j = R_j / q^(k-1-j), with R_(k-1) = a_k and
    R_(j-1) = a_j q^(k-j) + p R_j, so r(lam) = D / q^(k-1) for
    D = sum_j R_j p^j, and the piece r(x) e / r(lam) is
    sum_j R_j q^j v_j / D, v_j = V_j / s_j the chain, read off its rows
    over S D, S the lcm of the s_j.

    Returns the finer orthogonal idempotents (possibly just [block]).
    """
    scale_c, table = algebra.integer_sc
    step = ((direction, 1),)

    def iterates():
        row, scale = block
        while True:
            yield row, scale
            row, scale = _reduced(_integer_product(table, _nonzero(row), step), scale * scale_c)

    chain, relation = _integer_krylov(iterates())
    k = len(relation) - 1
    roots = Poly.of(relation).rational_roots() if k > 1 else []
    if not roots:
        return [block]
    common = lcm(*(s for _, s in chain))
    weighted = [[x * (common // s) for x in row] for row, s in chain]
    pieces = []
    for lam in roots:
        p, q = lam.numerator, lam.denominator
        reduced = [0] * k
        reduced[k - 1] = relation[k]
        for j in range(k - 1, 0, -1):
            reduced[j - 1] = relation[j] * q ** (k - j) + p * reduced[j]
        denominator = sum(r * p ** j for j, r in enumerate(reduced))
        if denominator == 0:
            raise SkewexError("repeated eigenvalue: the corner is not reduced")
        sign = 1 if denominator > 0 else -1
        coefficients = [sign * r * q ** j for j, r in enumerate(reduced)]
        piece = [sum(map(mul, coefficients, column)) for column in zip(*weighted)]
        if any(piece):
            pieces.append(_reduced(piece, common * sign * denominator))
    if not pieces:
        return [block]
    row, scale = block
    total = lcm(scale, *(s for _, s in pieces))
    remainder = [x * (total // scale) for x in row]
    for piece, s in pieces:
        f = total // s
        remainder = [x - f * y for x, y in zip(remainder, piece)]
    if any(remainder):
        pieces.append(_reduced(remainder, total))
    for piece in pieces:
        if not _is_idempotent(algebra.integer_sc, piece):
            raise SkewexError("eigen-projection failed to produce an idempotent")
    return pieces


def enumerate_idempotents(algebra: Algebra, cap: Optional[int] = None) -> IdempotentSet:
    """All idempotents of a commutative algebra, or a flagged partial set.

    Pipeline: radical, semisimple quotient, rational eigen-splitting along
    every basis direction, cubic Newton lifting, closure under sums of
    orthogonal primitives.  The primitives are brought to one common scale
    M, so every orthogonal sum is a sum of integer rows over M.
    """
    if not algebra.is_commutative():
        raise NotCommutative("idempotent enumeration requires a commutative algebra")
    cap = idempotent_cap() if cap is None else cap
    rad = radical(algebra)
    semisimple = quotient(algebra, rad)[0] if rad.dim else algebra

    # One pass suffices: a direction that leaves a block whole acts on it as a
    # scalar or without rational eigenvalues, and so on every later piece.
    unit_scale, unit = _integer_row(semisimple.unit)
    blocks = [(unit, unit_scale)]
    for direction in range(semisimple.dim):
        blocks = [piece for block in blocks
                  for piece in _split_block(semisimple, block, direction)]
    # trace(e) = dim eA: a block with a corner of dimension > 1 was left unsplit;
    # trace(V / s) <= 1 reads sum V_i T_i <= L s for the integer trace T over L
    trace = semisimple.integer_trace
    trace_scale = semisimple.integer_sc[0]
    complete = all(sum(map(mul, row, trace)) <= trace_scale * scale for row, scale in blocks)

    if rad.dim:
        blocks = [_newton_lift(algebra, rad, block) for block in blocks]
    n = algebra.dim
    k = len(blocks)
    common = lcm(*(s for _, s in blocks))
    primitives = [[x * (common // s) for x in row] for row, s in blocks]
    table = algebra.integer_sc[1]
    supports = [_nonzero(row) for row in primitives]
    for i, xs in enumerate(supports):
        for ys in supports[i + 1:]:
            if any(_integer_product(table, xs, ys)):
                raise SkewexError("lifted primitives are not orthogonal")
    unit_scale, unit = _integer_row(algebra.unit)
    total = [sum(column) for column in zip(*primitives)] if primitives else [0] * n
    if [unit_scale * x for x in total] != [common * x for x in unit]:
        raise SkewexError("lifted primitives do not sum to the unit")

    if 2 ** k > cap:
        raise CapExceeded(f"2^{k} idempotents exceed the cap {cap}")
    # each sum is the sum without its lowest primitive, plus that one
    sums = [[0] * n]
    for mask in range(1, 2 ** k):
        low = mask & -mask
        sums.append([x + y for x, y in zip(sums[mask ^ low], primitives[low.bit_length() - 1])])
    kind = "lifted" if rad.dim else "primitive"
    provenance = []
    for mask, row in enumerate(sums):
        if not _is_idempotent(algebra.integer_sc, (row, common)):
            raise SkewexError("orthogonal sum failed to be idempotent")
        provenance.append(kind if mask & (mask - 1) == 0 and mask else "sum")
    reason = None if complete else "an irreducible factor of degree >= 2 survived splitting"
    return IdempotentSet(tuple(_rational_row(row, common) for row in sums), complete, reason,
                         tuple(provenance))


def _newton_lift(algebra: Algebra, rad: Subspace, block: Element) -> Element:
    """Lift an idempotent of the quotient by the radical through the radical.

    The block's entries go to the coordinates the quotient keeps, then
    e <- 3e^2 - 2e^3 is iterated; every iterate stays congruent to the block
    modulo the radical, and the loop must terminate within log2(nilpotency
    index) steps.  With e = V / s and the constants C / L, e^2 is V V C over
    L s^2 and e^3 is (V V C) V C over L^2 s^3, so the step is
    3 L s (V V C) - 2 (V V C) V C over L^2 s^3.
    """
    scale_c, table = algebra.integer_sc
    block_row, block_scale = block
    row = [0] * algebra.dim
    for c, x in zip(rad.kept(), block_row):
        row[c] = x
    scale = block_scale
    for _ in range(algebra.dim + 2):
        xs = _nonzero(row)
        square = _integer_product(table, xs, xs)
        if square == [scale_c * scale * x for x in row]:
            # e's quotient coordinates are those of its residual against the
            # radical, which project gives times the radical's scale
            lhs = [block_scale * x for x in rad.project(row)]
            if lhs != [rad.scale * scale * x for x in block_row]:
                raise SkewexError("lift drifted away from its semisimple image")
            return row, scale
        cube = _integer_product(table, _nonzero(square), xs)
        row, scale = _reduced([3 * scale_c * scale * x - 2 * y for x, y in zip(square, cube)],
                              scale_c ** 2 * scale ** 3)
    raise SkewexError("idempotent lifting did not converge")


@dataclass(frozen=True)
class TraceRank:
    trace: Fraction
    rank: int
    equal: bool


def trace_rank_idempotent(algebra: Algebra, e: Vec) -> TraceRank:
    """Exact trace and rank of left multiplication by an idempotent.

    They always agree, the trace is an integer between 0 and dim, and it is
    positive for nonzero idempotents.  The rank is that of the integer
    columns e e_j, scaled by a common factor, and the trace is read off the
    trace vector.
    """
    if len(e) != algebra.dim:
        raise DimensionMismatch("element length differs from algebra dimension")
    scale, row = _integer_row(e)
    if not _is_idempotent(algebra.integer_sc, (row, scale)):
        raise NotIdempotent(f"{e} squared differs from itself")
    xs = _nonzero(row)
    table = algebra.integer_sc[1]
    rank = len(_integer_rref([_integer_product(table, xs, ((j, 1),)) for j in range(algebra.dim)]))
    trace = algebra.trace_of(e)
    return TraceRank(trace, rank, trace == rank)


IS_MS = "is_ms"
NOT_MS = "not_ms"
INCONCLUSIVE_IDEMPOTENTS = "inconclusive_idempotents"


@dataclass(frozen=True)
class MsVerdict:
    status: str
    witness: Optional[Vec]
    checked: tuple[tuple[Vec, bool], ...]


def principal_ideal(algebra: Algebra, e: Vec, ideals: dict[Vec, Subspace]) -> Subspace:
    """The two-sided ideal generated by e, read from `ideals`, a dict from
    elements to the ideals they generate, or built and added to it."""
    ideal = ideals.get(e)
    if ideal is None:
        ideal = ideals[e] = ideal_closure(algebra, [e])
    return ideal


def _memberships(v: Subspace, idems: IdempotentSet) -> list[bool]:
    """Whether each listed idempotent lies in v, read off its integer row."""
    if any(len(row) != v.ambient_dim for row in idems.rows):
        raise DimensionMismatch("vector length differs from ambient dimension")
    return [not any(v.residual(row)) for row in idems.rows]


def ms_check(
    algebra: Algebra, v: Subspace, idems: IdempotentSet, side: str = "two",
    ideals: Optional[dict[Vec, Subspace]] = None, inside: Optional[Sequence[bool]] = None,
) -> MsVerdict:
    """Idempotent criterion: every listed idempotent inside v must generate an
    ideal inside v.  The verdict is only definitive when the set is complete.
    `ideals` is principal_ideal's dict of two-sided ideals, shared by the
    callers that audit one algebra; it needs side "two".  `inside` is
    whether each listed idempotent lies in v, when the caller already knows."""
    if ideals is not None and side != "two":
        raise ValueError("a dict of two-sided ideals needs side 'two'")
    if inside is None:
        inside = _memberships(v, idems)
    checked = []
    for e, member in zip(idems.items, inside):
        if not member:
            continue
        ideal = (ideal_closure(algebra, [e], side) if ideals is None
                 else principal_ideal(algebra, e, ideals))
        inside = ideal.is_subspace_of(v)
        checked.append((e, inside))
        if not inside:
            return MsVerdict(NOT_MS, e, tuple(checked))
    status = IS_MS if idems.complete else INCONCLUSIVE_IDEMPOTENTS
    return MsVerdict(status, None, tuple(checked))


@dataclass(frozen=True)
class PowerSpan:
    powers: Subspace
    tail: Subspace


def power_span(algebra: Algebra, a: Vec) -> PowerSpan:
    """Span of the positive powers of a, and their eventual tail span, from
    the one chain a, a^2, ..., a^(2n+1), n = dim.

    The minimal polynomial of a has degree at most n, so every a^m with
    m > n is a combination of the n powers before it, and the window
    W_N = span{a^N, ..., a^(N+n)} is span{a^m : m >= N}; W_1 spans all
    positive powers.  W_(N+1) = a W_N, so W_N decreases strictly until it
    stays fixed, and it is fixed from N = n + 1 on.  The tail W_(n+1) decides
    every "for all large m" question about powers of a exactly.  The chain
    is kept as integer rows, positive multiples of the powers (see
    _power_chain), and both windows are spans of integer rows.
    """
    n = algebra.dim
    chain = _power_chain(algebra, a)
    return PowerSpan(_integer_span(chain[:n + 1], n), _integer_span(chain[n:], n))


def _power_chain(algebra: Algebra, a: Vec) -> list[list[int]]:
    """Integer rows for a, a^2, ..., a^(2n+1), n = dim: with a = A / La, row k
    is A^k over the table's constants, a positive multiple of a^k, divided by
    its content."""
    if len(a) != algebra.dim:
        raise DimensionMismatch("element length differs from algebra dimension")
    table = algebra.integer_sc[1]
    first = _primitive(_integer_row(a)[1])
    xs = _nonzero(first)
    chain = [first]
    for _ in range(2 * algebra.dim):
        chain.append(_primitive(_integer_product(table, _nonzero(chain[-1]), xs)))
    return chain


def ms_witness_check(
    algebra: Algebra, v: Subspace, a: Vec, b: Vec, c: Vec, side: str = "two"
) -> str:
    """One instance of the defining membership test for a subspace.

    Not applicable unless every positive power of a lies in v; otherwise the
    side-appropriate eventual products must land in v, decided via the stable
    tail span rather than any finite sampling.  See _witness_probe.
    """
    if side not in ("left", "right", "two"):
        raise ValueError(f"unknown side {side!r}")
    n = algebra.dim
    if v.ambient_dim != n or len(b) != n or len(c) != n:
        raise DimensionMismatch("element length differs from algebra dimension")
    return _witness_probe(algebra, v, a)(b, c, side)


def _witness_probe(algebra: Algebra, v: Subspace, a: Vec) -> Callable[..., str]:
    """ms_witness_check for one v and a, as a function of b, c and side, so
    that probes with the same a share its powers.

    The powers are the integer rows of _power_chain, the tail the rows
    _integer_rref reduces them to, both built once here; the products b t,
    t c or b t c are formed on the integer table.  Each is a nonzero multiple
    of the rational one, so v's integer residual decides its membership
    exactly.
    """
    n = algebra.dim
    chain = _power_chain(algebra, a)
    if any(any(v.residual(power)) for power in chain[:n + 1]):
        return lambda b, c, side="two": NOT_APPLICABLE
    rows = [power for power in chain[n:] if any(power)]
    rank = len(_integer_rref(rows))
    tail = [_nonzero(t) for t in rows[:rank]]
    table = algebra.integer_sc[1]

    def verdict(b: Vec, c: Vec, side: str = "two") -> str:
        bs = _nonzero(_integer_row(b)[1])
        cs = _nonzero(_integer_row(c)[1])
        if side == "left":
            products = [_integer_product(table, bs, t) for t in tail]
        elif side == "right":
            products = [_integer_product(table, t, cs) for t in tail]
        else:
            products = [_integer_product(table, _nonzero(_integer_product(table, bs, t)), cs)
                        for t in tail]
        return FAIL if any(any(v.residual(x)) for x in products) else PASS

    return verdict


def image_idempotent_audit(
    algebra: Algebra, delta: LinearEndo, idems: IdempotentSet
) -> list[Vec]:
    """Nonzero listed idempotents inside the image of the map."""
    inside = _memberships(column_space(delta.matrix), idems)
    return [e for e, member in zip(idems.items, inside) if member and not is_zero_vec(e)]


def image_trace_certificate(algebra: Algebra, m: Mat) -> bool:
    """True when the column span of m sits inside the trace-form kernel.

    Since an idempotent's regular trace equals its rank, a trace-zero image
    cannot contain a nonzero idempotent; this certifies emptiness without any
    enumeration.
    """
    return all(algebra.trace_of(column) == 0 for column in m.columns())


def _difference_image(m: Mat) -> Subspace:
    """The column span of I - m: with m = A / L, that of L I - A."""
    scale, ints = m.integer_form
    return _integer_span([[scale * (r == c) - row[c] for r, row in enumerate(ints)]
                          for c in range(m.cols)], m.rows)


@dataclass(frozen=True)
class ImageKernelReport:
    entries: tuple[tuple[Vec, bool, bool], ...]  # (idempotent, in image, in chain)
    consistent: bool
    ideal_contained: bool


def image_kernel_idempotent_report(
    algebra: Algebra, phi: AlgebraEndo, idems: IdempotentSet,
    ideals: Optional[dict[Vec, Subspace]] = None,
) -> ImageKernelReport:
    """For each idempotent: membership in Im(I - phi) must match membership in
    the kernel chain of phi, and idempotents inside the image must drag their
    whole ideal along, which is ms_check's idempotent criterion.  The chain
    comes from induced_map, which also certifies that phi induces an
    automorphism of the quotient by it.  `ideals` is passed on to ms_check.

    Each membership is decided once, on the idempotents' integer rows, and
    the image memberships are given to ms_check."""
    chain = induced_map(phi).chain
    image = _difference_image(phi.matrix)
    in_image = _memberships(image, idems)
    in_chain = _memberships(chain, idems)
    ideal_contained = ms_check(algebra, image, idems, ideals=ideals,
                               inside=in_image).status != NOT_MS
    return ImageKernelReport(tuple(zip(idems.items, in_image, in_chain)),
                             in_image == in_chain, ideal_contained)


@cache
def rank_one_idempotent_grid(size: int, count: int = 100) -> tuple[Vec, ...]:
    """Rational rank-one idempotents of a matrix algebra, as coordinate vectors.

    Built as v w^T / (w . v) over a deterministic grid of small rational
    parameters; `count` distinct idempotents are returned, as a tuple built
    once per size and count.
    """
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
                return tuple(out)
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
    return tuple(out)
