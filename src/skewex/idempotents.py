"""Idempotent enumeration, trace-rank checks, and the subspace oracles.

Enumeration is exact on commutative algebras: split the semisimple quotient
along rational eigenvalues of basis directions, lift primitives through the
radical by the cubic Newton step, and close under orthogonal sums.  A block e
splits along a direction d by the minimal polynomial of x = e d in the corner
e A, the Krylov relation of its power chain e, x, x^2, ...; and since an
idempotent's trace is its rank, trace(e) = dim e A tells a primitive block.
The quotient by the radical is reduced (the radical is the trace-form
kernel, verified nilpotent, so it holds every nilpotent), and in a reduced
commutative algebra that minimal polynomial is square-free: it is split as
it stands, with no square-free part taken.  When an irreducible factor of
degree >= 2 survives, the (still valid) partial set is returned flagged
inconclusive rather than silently treated as complete.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    Algebra,
    _integer_product,
    _nonzero,
    ideal_closure,
    poly_of_element,
    quotient,
    quotient_section,
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
    _integer_row,
    _integer_rref,
    _integer_span,
    _primitive,
    column_space,
    is_zero_vec,
    krylov_relation,
    rat,
    rref,
    vec_add,
    vec_scale,
    vec_sub,
    zero_vec,
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

    def nonzero(self) -> list[Vec]:
        return [e for e in self.items if not is_zero_vec(e)]


def _split_block(algebra: Algebra, block: Vec, direction: Vec) -> list[Vec]:
    """Split an idempotent block along the rational eigenvalues of a direction.

    The corner e A (e the block) is a unital algebra with unit e, and x = e d
    lies in it.  Its regular representation is faithful, so the minimal
    polynomial of multiplication by x on e A is the least monic p with
    p(x) = 0 there, which is the Krylov relation of the chain e, x, x^2, ...
    A 1-dimensional corner gives a degree-1 relation and so no split.

    The algebra must be reduced, as enumerate_idempotents' quotient by the
    radical is; then the minimal polynomial m of x is square-free.  If
    m = f^2 g with f of positive degree, then (f g)(x)^2 = m(x) g(x) = 0, so
    (f g)(x) = 0 as the corner has no nonzero nilpotent, although f g has
    lower degree than m.  So m'(lam) != 0 at every root lam, and
    (m / (t - lam)) / m'(lam) is the projector onto the lam component.  A
    root with m'(lam) = 0 is a repeated one and means the algebra was not
    reduced: SkewexError.

    Returns the finer orthogonal idempotents (possibly just [block]).
    """
    x = algebra.multiply(block, direction)
    min_poly = krylov_relation(lambda v: algebra.multiply(v, x), block)
    roots = min_poly.rational_roots()
    if not roots or min_poly.degree == 1:
        return [block]
    pieces = []
    remainder = block
    for lam in roots:
        reduced, _ = min_poly.divmod(Poly.of([-lam, ONE]))  # divide out (t - lam)
        scale = reduced.eval(lam)  # m'(lam)
        if scale == 0:
            raise SkewexError("repeated eigenvalue: the corner is not reduced")
        # q(t) = (m/(t-lam)) / m'(lam) selects the lam component
        projector = reduced.scale(ONE / scale)
        piece = poly_of_element(algebra, projector, x, block)
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


def enumerate_idempotents(algebra: Algebra, cap: Optional[int] = None) -> IdempotentSet:
    """All idempotents of a commutative algebra, or a flagged partial set.

    Pipeline: radical, semisimple quotient, rational eigen-splitting along
    every basis direction, cubic Newton lifting, closure under sums of
    orthogonal primitives.
    """
    if not algebra.is_commutative():
        raise NotCommutative("idempotent enumeration requires a commutative algebra")
    cap = idempotent_cap() if cap is None else cap
    rad = radical(algebra)
    if rad.dim == 0:
        semisimple, proj, section = algebra, Mat.identity(algebra.dim), Mat.identity(algebra.dim)
    else:
        semisimple, proj = quotient(algebra, rad)
        section = quotient_section(algebra, rad)

    # One pass suffices: a direction that leaves a block whole acts on it as a
    # scalar or without rational eigenvalues, and so on every later piece.
    blocks = [semisimple.unit]
    for direction in range(semisimple.dim):
        blocks = [piece for block in blocks
                  for piece in _split_block(semisimple, block, semisimple.basis_element(direction))]
    # trace(e) = dim eA: a block with a corner of dimension > 1 was left unsplit
    complete = all(semisimple.trace_of(block) <= 1 for block in blocks)

    primitives = [_newton_lift(algebra, proj, section, block) for block in blocks]
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
    items: list[Vec] = []
    provenance: list[str] = []
    lifted_any = rad.dim > 0
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
        if size == 1:
            provenance.append("lifted" if lifted_any else "primitive")
        else:
            provenance.append("sum")
    reason = None if complete else "an irreducible factor of degree >= 2 survived splitting"
    return IdempotentSet(tuple(items), complete, reason, tuple(provenance))


def _newton_lift(algebra: Algebra, proj: Mat, section: Mat, block: Vec) -> Vec:
    """Lift an idempotent of the semisimple quotient through the radical.

    Iterates e <- 3e^2 - 2e^3; every iterate stays congruent to the block
    modulo the radical, and the loop must terminate within log2(nilpotency
    index) steps.
    """
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


@dataclass(frozen=True)
class TraceRank:
    trace: Fraction
    rank: int
    equal: bool


def trace_rank_idempotent(algebra: Algebra, e: Vec) -> TraceRank:
    """Exact trace and rank of left multiplication by an idempotent.

    They always agree, the trace is an integer between 0 and dim, and it is
    positive for nonzero idempotents.
    """
    if algebra.multiply(e, e) != tuple(e):
        raise NotIdempotent(f"{e} squared differs from itself")
    m = algebra.left_regular(e)
    _, _, rank = rref(m)
    trace = m.trace()
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


def ms_check(
    algebra: Algebra, v: Subspace, idems: IdempotentSet, side: str = "two",
    ideals: Optional[dict[Vec, Subspace]] = None,
) -> MsVerdict:
    """Idempotent criterion: every listed idempotent inside v must generate an
    ideal inside v.  The verdict is only definitive when the set is complete.
    `ideals` is principal_ideal's dict of two-sided ideals, shared by the
    callers that audit one algebra; it needs side "two"."""
    if ideals is not None and side != "two":
        raise ValueError("a dict of two-sided ideals needs side 'two'")
    checked = []
    for e in idems.items:
        if not v.contains(e):
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
    if any(any(v._integer_residual(power)) for power in chain[:n + 1]):
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
        return FAIL if any(any(v._integer_residual(x)) for x in products) else PASS

    return verdict


def image_idempotent_audit(
    algebra: Algebra, delta: LinearEndo, idems: IdempotentSet
) -> list[Vec]:
    """Nonzero listed idempotents inside the image of the map."""
    image = column_space(delta.matrix)
    return [e for e in idems.nonzero() if image.contains(e)]


def image_trace_certificate(algebra: Algebra, m: Mat) -> bool:
    """True when the column span of m sits inside the trace-form kernel.

    Since an idempotent's regular trace equals its rank, a trace-zero image
    cannot contain a nonzero idempotent; this certifies emptiness without any
    enumeration.
    """
    return all(algebra.trace_of(column) == 0 for column in m.columns())


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
    automorphism of the quotient by it.  `ideals` is passed on to ms_check."""
    induced = induced_map(phi)
    delta = Mat.identity(algebra.dim) - phi.matrix
    image = column_space(delta)
    chain = induced.chain
    entries = []
    consistent = True
    for e in idems.items:
        in_image = image.contains(e)
        in_chain = chain.contains(e)
        if in_image != in_chain:
            consistent = False
        entries.append((e, in_image, in_chain))
    ideal_contained = ms_check(algebra, image, idems, ideals=ideals).status != NOT_MS
    return ImageKernelReport(tuple(entries), consistent, ideal_contained)


def rank_one_idempotent_grid(size: int, count: int = 100) -> list[Vec]:
    """Rational rank-one idempotents of a matrix algebra, as coordinate vectors.

    Built as v w^T / (w . v) over a deterministic grid of small rational
    parameters; `count` distinct idempotents are returned.
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
