"""Seeded generators for test objects: elements, automorphisms, endomorphisms.

Everything is driven by a caller-supplied random.Random so runs are
reproducible from the seed alone.  Endomorphisms are built structurally:
polynomial substitution on one-generator blocks, slot maps on product
algebras, inner conjugation, exponentials of nilpotent derivations, and
compositions of these.

Nilpotent derivations are drawn as integer combinations of a derivation
basis.  Each coefficient tuple is evaluated once, nilpotency is tested by
M^n = 0, and only the derivations that are kept are certified.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product as iter_product
from math import lcm
from typing import Optional, Sequence

from .algebra import Algebra, direct_product
from .errors import NotInvertible, SkewexError
from .linalg import Mat, Vec, ZERO, ONE, _integer_is_nilpotent, inverse, is_nilpotent, rat, zero_vec
from .maps import (
    AlgebraEndo,
    Derivation,
    derivation_space,
    exp_derivation,
    inner_automorphism,
)


def random_element(algebra: Algebra, rng: random.Random, bound: int = 3) -> Vec:
    return tuple(rat(rng.randint(-bound, bound)) for _ in range(algebra.dim))


def random_invertible_element(algebra: Algebra, rng: random.Random,
                              tries: int = 200) -> Vec:
    for _ in range(tries):
        u = random_element(algebra, rng)
        if inverse(algebra.left_regular(u)) is not None:
            return u
    raise SkewexError("no invertible element found; the algebra may be degenerate")


def random_trace_zero_invertible(algebra: Algebra, rng: random.Random,
                                 tries: int = 500) -> Vec:
    """Invertible element whose regular trace vanishes."""
    for _ in range(tries):
        u = random_element(algebra, rng)
        if algebra.trace_of(u) != 0:
            continue
        if inverse(algebra.left_regular(u)) is not None:
            return u
    raise SkewexError("no trace-zero invertible element found")


def nilpotent_derivations(algebra: Algebra, rng: random.Random, count: int,
                          tries: int = 200,
                          derivations: Optional[Sequence[Derivation]] = None
                          ) -> list[Derivation]:
    """Nilpotent members of the derivation space, by seeded combination.

    `derivations` is a basis of the derivation space; it is computed when
    omitted.  The nonzero nilpotent basis elements come first, then integer
    combinations with coefficients drawn from -2..2, one draw per basis
    element on each of up to `tries` attempts.  A coefficient tuple drawn
    before is skipped, since it gives the same matrix and the same verdict.
    A combination is summed on the basis matrices' integer forms, each
    brought to the common scale L, the lcm of theirs; the zero test and the
    nilpotency test, M^n = 0 with n = dim, run on that integer sum, and only
    a combination that passes both becomes a rational matrix.  Only a
    combination that is kept is certified; the rejected ones were
    combinations of a certified basis and so certainly derivations.
    """
    basis = derivation_space(algebra) if derivations is None else derivations
    found: list[Derivation] = []
    seen = set()
    for d in basis:
        if not d.matrix.is_zero() and is_nilpotent(d.matrix) and d.matrix not in seen:
            seen.add(d.matrix)
            found.append(d)
    n = algebra.dim
    scale = lcm(*(d.matrix.integer_form[0] for d in basis))
    flat = [[x * (scale // s) for row in ints for x in row]
            for s, ints in (d.matrix.integer_form for d in basis)]
    drawn = set()
    attempts = 0
    while len(found) < count and attempts < tries and basis:
        attempts += 1
        coeffs = tuple(rng.randint(-2, 2) for _ in basis)
        if coeffs in drawn:
            continue
        drawn.add(coeffs)
        terms = [(c, b) for c, b in zip(coeffs, flat) if c]
        total = [sum(c * b[k] for c, b in terms) for k in range(n * n)]
        ints = [total[r * n:(r + 1) * n] for r in range(n)]
        if not any(total) or not _integer_is_nilpotent(ints, n):
            continue
        m = Mat._from_integers(ints, n, scale)
        if m in seen:
            continue
        seen.add(m)
        found.append(Derivation.certify(algebra, m))
    return found[:count]


def permutation_automorphisms(algebra: Algebra, limit: int = 24) -> list[AlgebraEndo]:
    """Basis permutations that happen to be algebra automorphisms.

    Searched exhaustively for small dimensions only.  The map e_k -> e_pi(k)
    sends e_i e_j = sum_k c_ijk e_k to sum_k c_ijk e_pi(k), and the unit
    sum_k u_k e_k to sum_k u_k e_pi(k).  So it is a unital endomorphism
    exactly when u_pi(k) = u_k and c_pi(i)pi(j)pi(k) = c_ijk for all i, j,
    k, a comparison of constants with no products; a permutation that
    passes needs no further certificate.
    """
    n = algebra.dim
    if n > 6:
        return []
    unit = algebra.unit
    table = algebra.integer_sc[1]
    out = []
    for perm in permutations(range(n)):
        if any(unit[p] != unit[k] for k, p in enumerate(perm)):
            continue
        if any(tuple(sorted((perm[k], c) for k, c in product)) != table[perm[i]][perm[j]]
               for i, row in enumerate(table) for j, product in enumerate(row)):
            continue
        m = Mat.from_columns([algebra.basis_element(perm[j]) for j in range(n)])
        out.append(AlgebraEndo(algebra, m))
        if len(out) >= limit:
            break
    return out


def substitution_endos(algebra: Algebra,
                       coeff_choices: Sequence = (-1, 0, 1, 2)) -> list[AlgebraEndo]:
    """Unital endomorphisms of a one-generator algebra by substituting for the
    generator.

    Needs the power basis 1, t, ..., t^(n-1), n = dim >= 2, with
    t = basis_element(1), which _looks_monogenic verifies; SkewexError
    otherwise.  The candidate images g of t are swept over a small
    coefficient grid without constant term, then the scalars 0 and 1
    (projections onto scalars matter for t^2 - t style blocks).

    On that basis the algebra is Q[t]/(f), with f(t) = t^n - r(t) and r(t)
    the coordinates of t^n = t^(n-1) t.  By the universal property of
    Q[t]/(f), the unital map with columns 1, g, ..., g^(n-1) is
    multiplicative exactly when f(g) = 0, that is when g^n is the map's
    image of t^n.  A candidate is kept on that one comparison, without a
    multiplicativity check.
    """
    n = algebra.dim
    if n < 2 or not _looks_monogenic(algebra):
        raise SkewexError("substitution needs a power basis 1, t, ..., t^(n-1) with n >= 2")
    grid = [(ZERO,) + coeffs
            for coeffs in iter_product([rat(c) for c in coeff_choices], repeat=n - 1)]
    scalars = [(c0,) + zero_vec(n - 1) for c0 in (ZERO, ONE)]
    t_power_n = algebra.multiply(algebra.basis_element(n - 1), algebra.basis_element(1))
    out = []
    seen = set()
    for g in grid + scalars:
        cols = [algebra.unit]
        for _ in range(1, n):
            cols.append(algebra.multiply(cols[-1], g))
        m = Mat.from_columns(cols)
        if m in seen:
            continue
        seen.add(m)
        if algebra.multiply(cols[-1], g) == m.apply(t_power_n):
            out.append(AlgebraEndo(algebra, m))
    return out


@dataclass
class ProductRecipe:
    """A direct product together with its block structure, so slot-wise
    endomorphisms can be assembled.  slot_maps[i] lists the maps the slots
    of block i may carry, block_slot_maps(blocks[i])."""

    algebra: Algebra
    blocks: list[Algebra]
    offsets: list[int]
    slot_maps: list[tuple[Mat, ...]]

    @staticmethod
    def build(blocks: Sequence[Algebra],
              slot_maps: Optional[Sequence[tuple[Mat, ...]]] = None) -> "ProductRecipe":
        """The product of the blocks in order.  slot_maps, when given, must be
        block_slot_maps of each block; it is computed when omitted."""
        if not blocks:
            raise ValueError("at least one block required")
        algebra = blocks[0]
        for b in blocks[1:]:
            algebra = direct_product(algebra, b)
        offsets = []
        at = 0
        for b in blocks:
            offsets.append(at)
            at += b.dim
        if slot_maps is None:
            slot_maps = [block_slot_maps(b) for b in blocks]
        return ProductRecipe(algebra, list(blocks), offsets, list(slot_maps))


def block_slot_maps(block: Algebra) -> tuple[Mat, ...]:
    """The maps a slot of this block may carry: its substitution
    endomorphisms when it has a power basis, the identity otherwise."""
    if block.dim >= 2 and _looks_monogenic(block):
        return tuple(e.matrix for e in substitution_endos(block))
    return (Mat.identity(block.dim),)


def slot_endomorphism(recipe: ProductRecipe, sources: Sequence[int],
                      block_maps: Sequence[Mat]) -> Mat:
    """The matrix of phi(x)_j = psi_j(x_{sources[j]}), valid when source blocks
    equal target blocks structurally; each psi_j is brought to the lcm of
    their integer scales."""
    n = recipe.algebra.dim
    scale = lcm(*(psi.integer_form[0] for psi in block_maps))
    rows = [[0] * n for _ in range(n)]
    for j, (src, psi) in enumerate(zip(sources, block_maps)):
        if recipe.blocks[j].integer_sc != recipe.blocks[src].integer_sc:
            raise SkewexError("slot map between structurally different blocks")
        psi_scale, ints = psi.integer_form
        for r, row in enumerate(ints):
            for c, x in enumerate(row):
                rows[recipe.offsets[j] + r][recipe.offsets[src] + c] = x * (scale // psi_scale)
    return Mat._from_integers(rows, n, scale)


def recipe_endomorphisms(recipe: ProductRecipe, rng: random.Random, count: int,
                         require_singular: bool = False) -> list[AlgebraEndo]:
    """Seeded slot-wise endomorphisms of a product, optionally only singular ones.

    Each slot carries one of the recipe's slot maps of its source block.  A
    slot matrix drawn before is skipped before it is certified, so each
    returned map is certified once.
    """
    compatible_sources = [
        [i for i, other in enumerate(recipe.blocks) if other.integer_sc == blk.integer_sc]
        for blk in recipe.blocks
    ]
    out: list[AlgebraEndo] = []
    seen = set()
    tries = 0
    while len(out) < count and tries < 60 * count:
        tries += 1
        sources = [rng.choice(opts) for opts in compatible_sources]
        block_maps = [rng.choice(recipe.slot_maps[src]) for src in sources]
        m = slot_endomorphism(recipe, sources, block_maps)
        if m in seen:
            continue
        seen.add(m)
        if require_singular and inverse(m) is not None:
            continue
        out.append(AlgebraEndo.certify(recipe.algebra, m))
    return out


def _looks_monogenic(block: Algebra) -> bool:
    """True for the power-basis presentation produced by poly_quotient."""
    if block.unit != tuple(ONE if i == 0 else ZERO for i in range(block.dim)):
        return False
    t = block.basis_element(1) if block.dim > 1 else block.unit
    power = block.unit
    for i in range(block.dim):
        if power != block.basis_element(i):
            return False
        power = block.multiply(power, t)
    return True


def sample_automorphisms(algebra: Algebra, rng: random.Random, count: int,
                         derivations: Optional[Sequence[Derivation]] = None,
                         slot_maps: Optional[Sequence[Mat]] = None,
                         ) -> list[AlgebraEndo]:
    """A deterministic pool: inner conjugations, exponentials of nilpotent
    derivations, basis permutations, substitution automorphisms, and pairwise
    compositions.

    `derivations`, a basis of the derivation space the caller already holds,
    is passed on to `nilpotent_derivations`; it is computed when omitted.
    `slot_maps`, block_slot_maps(algebra) when the caller holds it, gives
    the substitution endomorphisms; it is computed when omitted.  (On an
    algebra without a power basis it is the identity, already in the pool.)

    A composition draws two pool indices; a pair drawn before is not
    composed again, as the pool only grows and its product was offered to
    the pool already.  The draws themselves are unchanged.
    """
    pool: list[AlgebraEndo] = []
    seen: set = set()

    def push(endo: AlgebraEndo) -> None:
        if endo.matrix not in seen and endo.is_invertible():
            seen.add(endo.matrix)
            pool.append(endo)

    push(AlgebraEndo(algebra, Mat.identity(algebra.dim)))
    for auto in permutation_automorphisms(algebra):
        push(auto)
    for m in block_slot_maps(algebra) if slot_maps is None else slot_maps:
        push(AlgebraEndo(algebra, m))
    if not algebra.is_commutative():
        for _ in range(count):
            try:
                push(inner_automorphism(algebra, random_invertible_element(algebra, rng)))
            except NotInvertible:
                continue
    for d in nilpotent_derivations(algebra, rng, max(2, count // 2), derivations=derivations):
        push(exp_derivation(d))
    composed = set()
    attempts = 0
    while len(pool) < count and attempts < 80:
        attempts += 1
        if len(pool) < 2:
            break
        pair = (rng.randrange(len(pool)), rng.randrange(len(pool)))
        if pair not in composed:
            composed.add(pair)
            push(pool[pair[0]].compose(pool[pair[1]]))
    return pool[:count] if len(pool) > count else pool
