"""Seeded random search for would-be counterexamples.

Builds random algebras from small blocks (polynomial quotients, cyclic group
algebras, matrix algebras, products, randomized basis changes), computes full
derivation bases and sampled automorphisms, and runs the image audits plus
the image/kernel biconditional on each.  Any failing record carries the
serialized algebra and map so the run can be replayed exactly.
"""

from __future__ import annotations

import random

from .algebra import Algebra, change_of_basis, cyclic_group_algebra, matrix_algebra, poly_quotient
from .idempotents import image_kernel_idempotent_report
from .linalg import Mat, Poly, inverse, rat
from .maps import derivation_space
from .sampling import ProductRecipe, recipe_endomorphisms, sample_automorphisms
from .suites import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    Report,
    _audit_derivations_and_automorphisms,
    _idempotent_context,
    _Recorder,
)
from .serialize import algebra_to_json, map_to_json

BLOCK_POLYS = [
    Poly.of([0, 1]),        # scalars
    Poly.of([0, 0, 1]),     # nilpotent of order 2
    Poly.of([0, -1, 1]),    # split idempotent pair
    Poly.of([-1, 0, 1]),    # order-2 group algebra
    Poly.of([1, 0, 1]),     # irreducible quadratic
    Poly.of([0, 0, 0, 1]),  # nilpotent of order 3
    Poly.of([-1, 0, 0, 1]), # order-3 group algebra
]


def random_recipe(rng: random.Random, max_dim: int) -> ProductRecipe:
    blocks: list[Algebra] = []
    total = 0
    while True:
        options: list[Algebra] = []
        for f in BLOCK_POLYS:
            if total + f.degree <= max_dim:
                options.append(poly_quotient(f))
        if total + 4 <= max_dim:
            options.append(matrix_algebra(2))
        for m in (2, 3, 4):
            if total + m <= max_dim:
                options.append(cyclic_group_algebra(m))
        if not options:
            break
        block = options[rng.randrange(len(options))]
        # repeating a block enables cross-slot endomorphisms
        if blocks and rng.random() < 0.35:
            repeat = blocks[rng.randrange(len(blocks))]
            if total + repeat.dim <= max_dim:
                block = repeat
        blocks.append(block)
        total += block.dim
        if total >= max_dim or (len(blocks) >= 2 and rng.random() < 0.5):
            break
    if not blocks:
        blocks = [poly_quotient(Poly.of([0, 1]))]
    return ProductRecipe.build(blocks)


def random_basis_change(algebra: Algebra, rng: random.Random) -> Algebra:
    n = algebra.dim
    for _ in range(60):
        grid = [[rat(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        m = Mat.from_rows(grid)
        if inverse(m) is not None:
            return change_of_basis(algebra, m)
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
        idems = _idempotent_context(algebra)
        derivations = derivation_space(algebra)
        autos = sample_automorphisms(algebra, rng, 4, derivations=derivations)
        _audit_derivations_and_automorphisms(rec, algebra, idems, derivations, autos)
        endos = autos
        if algebra is recipe.algebra:
            endos = endos + recipe_endomorphisms(recipe, rng, 2)
        for idx, phi in enumerate(endos):
            def check(phi=phi, idx=idx):
                result = image_kernel_idempotent_report(algebra, phi, idems)
                witness = {"map_index": idx, "complete": idems.complete}
                if not (result.consistent and result.ideal_contained):
                    witness["algebra"] = algebra_to_json(algebra)
                    witness["offending_map"] = map_to_json(phi, "endomorphism")
                    return FAIL, witness
                return (PASS if idems.complete else INCONCLUSIVE), witness

            rec.run(f"image_kernel_biconditional[{idx}]", check)
        report.extend(rec.records)
    return report
