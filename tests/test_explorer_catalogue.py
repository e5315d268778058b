"""The explorer's block catalogue against blocks built afresh.

ref_random_recipe is random_recipe as it was when it rebuilt and revalidated
every candidate block at each draw step.  The catalogue must hold the same
blocks in the same order, each with the slot maps block_slot_maps derives
for it, so that random_recipe draws the same recipes from the same random
numbers; and a run of the explorer must leave the shared blocks as built.
"""

import os
import random
import subprocess
import sys

import skewex
from skewex import suites
from skewex.algebra import (
    change_of_basis,
    cyclic_group_algebra,
    direct_product,
    matrix_algebra,
    poly_quotient,
)
from skewex.explorer import BLOCK_POLYS, _block_catalogue, random_explorer, random_recipe
from skewex.linalg import Mat, Poly
from skewex.maps import AlgebraEndo
from skewex.sampling import block_slot_maps


def ref_random_recipe(rng, max_dim):
    """The blocks of a recipe, every candidate rebuilt at each step."""
    blocks = []
    total = 0
    while True:
        options = []
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
    return blocks


def fresh_blocks():
    return ([poly_quotient(f) for f in BLOCK_POLYS] + [matrix_algebra(2)]
            + [cyclic_group_algebra(m) for m in (2, 3, 4)])


def same_algebra(a, b):
    return (a.dim, a.sc, a.unit, a.labels) == (b.dim, b.sc, b.unit, b.labels)


def test_catalogue_holds_the_candidate_blocks_in_draw_order():
    catalogue = _block_catalogue()
    fresh = fresh_blocks()
    assert len(catalogue) == len(fresh) == 11
    for entry, block in zip(catalogue, fresh):
        assert same_algebra(entry.algebra, block), block
        assert entry.algebra.integer_sc == block.integer_sc, block
    assert same_algebra(catalogue[0].algebra, poly_quotient(Poly.of([0, 1])))
    assert _block_catalogue() is catalogue


def test_catalogue_slot_maps_belong_to_their_blocks():
    catalogue = _block_catalogue()
    for entry, block in zip(catalogue, fresh_blocks()):
        assert entry.slot_maps == block_slot_maps(block), block
        for m in entry.slot_maps:
            AlgebraEndo.certify(entry.algebra, m)
    # the power-basis blocks of dimension >= 2, cyclic group algebras among
    # them, carry their substitution maps; Q[t]/(t) and M_2 the identity
    assert [len(entry.slot_maps) for entry in catalogue] == [1, 4, 3, 3, 2, 16, 3, 1, 3, 3, 7]


def test_random_recipe_matches_rebuilding_reference():
    drawn = set()
    for max_dim in (4, 5, 6):
        for seed in range(300):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            recipe = random_recipe(rng, max_dim)
            expected = ref_random_recipe(ref_rng, max_dim)
            assert rng.getstate() == ref_rng.getstate(), (max_dim, seed)
            assert len(recipe.blocks) == len(expected), (max_dim, seed)
            for got, block in zip(recipe.blocks, expected):
                assert same_algebra(got, block), (max_dim, seed)
            assert recipe.slot_maps == [block_slot_maps(b) for b in expected], (max_dim, seed)
            if seed < 40:
                product = expected[0]
                for block in expected[1:]:
                    product = direct_product(product, block)
                assert same_algebra(recipe.algebra, product), (max_dim, seed)
            drawn.add(tuple(b.sc for b in expected))
    assert len(drawn) >= 150


def test_random_recipe_falls_back_to_the_first_block():
    # max_dim 0 draws no block and falls back to Q[t]/(t)
    rng = random.Random(3)
    recipe = random_recipe(rng, 0)
    assert recipe.blocks == [_block_catalogue()[0].algebra]
    assert rng.getstate() == random.Random(3).getstate()


def test_explorer_run_leaves_the_catalogue_as_built():
    before = [(e.algebra.sc, e.algebra.unit, e.algebra.labels, e.algebra.integer_sc,
               e.slot_maps) for e in _block_catalogue()]
    random_explorer(seed=11, trials=50, max_dim=4)
    catalogue = _block_catalogue()
    after = [(e.algebra.sc, e.algebra.unit, e.algebra.labels, e.algebra.integer_sc,
              e.slot_maps) for e in catalogue]
    assert after == before
    for entry, block in zip(catalogue, fresh_blocks()):
        assert same_algebra(entry.algebra, block)


def test_catalogue_is_not_built_at_import():
    code = ("import skewex.cli, skewex.explorer as e; "
            "print(e._block_catalogue.cache_info().currsize)")
    src = os.path.dirname(os.path.dirname(skewex.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "0"


def test_matrix_size_builds_each_matrix_algebra_once(monkeypatch):
    built = []

    def spy(n):
        built.append(n)
        return matrix_algebra(n)

    monkeypatch.setattr(suites, "matrix_algebra", spy)
    suites._matrix_sc.cache_clear()
    m2, m3 = matrix_algebra(2), matrix_algebra(3)
    changed = change_of_basis(m2, Mat.from_rows([[1, 1, 0, 0], [0, 1, 0, 0],
                                                 [0, 0, 1, 0], [0, 0, 0, 1]]))
    for _ in range(3):
        assert suites._matrix_size(m2) == 2
        assert suites._matrix_size(m3) == 3
        # M_2 in another basis is not recognised
        assert suites._matrix_size(changed) is None
        assert suites._matrix_size(cyclic_group_algebra(4)) is None
    assert built == [2, 3]
    suites._matrix_sc.cache_clear()
