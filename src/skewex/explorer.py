"""Seeded random search for would-be counterexamples.

Builds random algebras from small blocks (polynomial quotients, cyclic group
algebras, matrix algebras, products, randomized basis changes), computes full
derivation bases and sampled automorphisms, and runs the image audits plus
the image/kernel biconditional on each.  Any failing record carries the
serialized algebra and map so the run can be replayed exactly.

The candidate blocks form one fixed catalogue, built and validated on first
use and shared by every draw after it: the eleven blocks in draw order, each
with its slot maps (substitution endomorphisms on a power basis, else the
identity).  A recipe is a product of catalogue blocks carrying their slot
maps, so no trial rebuilds a block or re-derives its maps; only the product,
the basis change and what the audits build are new per trial.  Nothing is
built at import.
"""

from __future__ import annotations

import random
from functools import cache
from typing import NamedTuple

from .algebra import Algebra, change_of_basis, cyclic_group_algebra, matrix_algebra, poly_quotient
from .linalg import Mat, Poly
from .maps import derivation_space
from .sampling import ProductRecipe, block_slot_maps, recipe_endomorphisms, sample_automorphisms
from .suites import (
    FAIL,
    Report,
    _audit_derivations_and_automorphisms,
    _biconditional,
    _fault_witness,
    _idempotent_context,
    _per_map,
    _Recorder,
)
from .serialize import algebra_to_json

BLOCK_POLYS = [
    Poly.of([0, 1]),        # scalars
    Poly.of([0, 0, 1]),     # nilpotent of order 2
    Poly.of([0, -1, 1]),    # split idempotent pair
    Poly.of([-1, 0, 1]),    # order-2 group algebra
    Poly.of([1, 0, 1]),     # irreducible quadratic
    Poly.of([0, 0, 0, 1]),  # nilpotent of order 3
    Poly.of([-1, 0, 0, 1]), # order-3 group algebra
]


class CatalogueBlock(NamedTuple):
    """A candidate block with the slot maps its slots may carry."""

    algebra: Algebra
    slot_maps: tuple[Mat, ...]


@cache
def _block_catalogue() -> tuple[CatalogueBlock, ...]:
    """The candidate blocks in draw order: the BLOCK_POLYS quotients, M_2,
    then the group algebras of C_2, C_3 and C_4.  Built on first use, each
    block once by its validating constructor."""
    blocks = [poly_quotient(f) for f in BLOCK_POLYS]
    blocks += [matrix_algebra(2)] + [cyclic_group_algebra(m) for m in (2, 3, 4)]
    return tuple(CatalogueBlock(b, block_slot_maps(b)) for b in blocks)


def random_recipe(rng: random.Random, max_dim: int) -> ProductRecipe:
    catalogue = _block_catalogue()
    chosen: list[CatalogueBlock] = []
    total = 0
    while True:
        options = [b for b in catalogue if total + b.algebra.dim <= max_dim]
        if not options:
            break
        block = options[rng.randrange(len(options))]
        # repeating a block enables cross-slot endomorphisms
        if chosen and rng.random() < 0.35:
            repeat = chosen[rng.randrange(len(chosen))]
            if total + repeat.algebra.dim <= max_dim:
                block = repeat
        chosen.append(block)
        total += block.algebra.dim
        if total >= max_dim or (len(chosen) >= 2 and rng.random() < 0.5):
            break
    if not chosen:
        chosen = [catalogue[0]]
    return ProductRecipe.build([b.algebra for b in chosen], [b.slot_maps for b in chosen])


def random_basis_change(algebra: Algebra, rng: random.Random) -> Algebra:
    """The algebra in the basis of the columns of the first invertible draw
    among up to 60 integer matrices; a singular draw is rejected by
    change_of_basis.  The algebra itself when every draw is singular."""
    n = algebra.dim
    for _ in range(60):
        grid = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            return change_of_basis(algebra, Mat.from_entries(n, n, grid))
        except ValueError:
            continue
    return algebra


def random_explorer(seed: int, trials: int, max_dim: int) -> Report:
    """Run the audit battery on seeded random algebras; deterministic per seed."""
    rng = random.Random(seed)
    report = Report()
    for trial in range(trials):
        recipe = random_recipe(rng, max_dim)
        algebra = recipe.algebra
        if rng.random() < 0.5:
            algebra = random_basis_change(algebra, rng)
        rec = _Recorder(f"explore[{trial}]")
        try:
            idems = _idempotent_context(algebra)
            derivations = derivation_space(algebra)
            # a lone catalogue block carries its substitution maps as slot maps
            slot_maps = recipe.slot_maps[0] if algebra is recipe.blocks[0] else None
            autos = sample_automorphisms(algebra, rng, 4, derivations=derivations,
                                         slot_maps=slot_maps)
        except Exception as exc:
            # one failed record that replays the algebra, then the next trial
            rec.add("setup", FAIL, {**_fault_witness(exc), "algebra": algebra_to_json(algebra)},
                    rec.started)
            report.extend(rec.records)
            continue
        _audit_derivations_and_automorphisms(rec, algebra, idems, derivations, autos)
        endos = autos
        if algebra is recipe.algebra:
            endos = endos + recipe_endomorphisms(recipe, rng, 2)
        ideals = {}
        _per_map(rec, "image_kernel_biconditional", list(enumerate(endos)),
                 lambda idx, phi: _biconditional(algebra, idems, ideals, phi,
                                                 {"map_index": idx, "complete": idems.complete}))
        report.extend(rec.records)
    return report
