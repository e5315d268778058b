"""Differential tests of the samplers against their old forms.

The first reference is the nilpotent-derivation sampler as it was before it
learned to skip repeated coefficient tuples, to test nilpotency by M^n = 0
and to certify only the derivations it keeps.  The second is the
automorphism sampler as it was before it skipped composition pairs drawn
before and took its substitution maps from the caller.  The library must
return the same matrices in the same order and leave the random generator in
the same state.  The permutation search is compared with certifying every
basis permutation.
"""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from skewex.algebra import (
    change_of_basis,
    cyclic_group_algebra,
    direct_product,
    matrix_algebra,
    poly_quotient,
)
from skewex.errors import NotEndomorphism
from skewex.explorer import BLOCK_POLYS, _block_catalogue, random_basis_change, random_recipe
from skewex import explorer
from skewex.linalg import Mat, Poly, inverse, is_nilpotent, rat
from skewex.maps import (
    AlgebraEndo,
    Derivation,
    LinearEndo,
    derivation_space,
    exp_derivation,
    inner_automorphism,
    is_derivation,
    local_finiteness_report,
)
from skewex.errors import NotInvertible
from skewex.sampling import (
    _looks_monogenic,
    block_slot_maps,
    nilpotent_derivations,
    permutation_automorphisms,
    random_invertible_element,
    sample_automorphisms,
    substitution_endos,
)

F = Fraction


# -- reference code ----------------------------------------------------------

def reference_nilpotent_derivations(algebra, rng, count, tries=200):
    """Certify and test every draw by its minimal polynomial."""
    basis = derivation_space(algebra)
    found = []
    seen = set()
    for d in basis:
        if local_finiteness_report(d).is_ln and not d.matrix.is_zero():
            if d.matrix.entries not in seen:
                seen.add(d.matrix.entries)
                found.append(d)
    attempts = 0
    while len(found) < count and attempts < tries and basis:
        attempts += 1
        coeffs = [rat(rng.randint(-2, 2)) for _ in basis]
        m = Mat.zeros(algebra.dim, algebra.dim)
        for c, d in zip(coeffs, basis):
            if c:
                m = m + d.matrix.scale(c)
        if m.is_zero():
            continue
        candidate = Derivation.certify(algebra, m)
        if local_finiteness_report(candidate).is_ln and m.entries not in seen:
            seen.add(m.entries)
            found.append(candidate)
    return found[:count]


def reference_permutation_automorphisms(algebra, limit=24):
    """Certify every basis permutation on all basis pairs."""
    n = algebra.dim
    if n > 6:
        return []
    out = []
    for perm in permutations(range(n)):
        m = Mat.from_columns([algebra.basis_element(perm[j]) for j in range(n)])
        try:
            out.append(AlgebraEndo.certify(algebra, m))
        except NotEndomorphism:
            continue
        if len(out) >= limit:
            break
    return out


def reference_sample_automorphisms(algebra, rng, count, derivations=None):
    """Compose the drawn pair on every attempt, and rebuild the substitution
    endomorphisms."""
    pool = []
    seen = set()

    def push(endo):
        if endo.matrix.entries not in seen and endo.is_invertible():
            seen.add(endo.matrix.entries)
            pool.append(endo)

    push(AlgebraEndo(algebra, Mat.identity(algebra.dim)))
    for auto in permutation_automorphisms(algebra):
        push(auto)
    if _looks_monogenic(algebra) and algebra.dim >= 2:
        for endo in substitution_endos(algebra):
            push(endo)
    if not algebra.is_commutative():
        for _ in range(count):
            try:
                push(inner_automorphism(algebra, random_invertible_element(algebra, rng)))
            except NotInvertible:
                continue
    for d in nilpotent_derivations(algebra, rng, max(2, count // 2), derivations=derivations):
        push(exp_derivation(d))
    attempts = 0
    while len(pool) < count and attempts < 80:
        attempts += 1
        if len(pool) < 2:
            break
        a = pool[rng.randrange(len(pool))]
        b = pool[rng.randrange(len(pool))]
        push(a.compose(b))
    return pool[:count] if len(pool) > count else pool


# -- the algebras ------------------------------------------------------------

def random_invertible(rng, n):
    while True:
        m = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        if inverse(m) is not None:
            return m


def random_unimodular(rng, n):
    """Unit lower times unit upper triangular: an integer basis change with an
    integer inverse, so the structure constants stay small integers."""
    lower = Mat.from_rows([[1 if c == r else rng.randint(-1, 1) if c < r else 0
                            for c in range(n)] for r in range(n)])
    upper = Mat.from_rows([[1 if c == r else rng.randint(-1, 1) if c > r else 0
                            for c in range(n)] for r in range(n)])
    return lower * upper


@pytest.fixture
def algebras(corpus):
    """The corpus plus seeded basis changes of the small algebras."""
    rng = random.Random(4242)
    out = dict(corpus)
    for name in ("dual", "jet2", "m2", "ut2", "c3"):
        algebra = corpus[name]
        out[f"{name}_basis_changed"] = change_of_basis(algebra, random_unimodular(rng, algebra.dim))
    return out


SEEDS = (0, 29)
COUNTS = (2, 5)


# -- the sampler -------------------------------------------------------------

def test_nilpotent_derivations_match_reference(algebras):
    kept = 0
    for name, algebra in algebras.items():
        basis = derivation_space(algebra)
        for seed in SEEDS:
            for count in COUNTS:
                expected_rng = random.Random(seed)
                expected = reference_nilpotent_derivations(algebra, expected_rng, count)
                for given in (None, basis):
                    rng = random.Random(seed)
                    got = nilpotent_derivations(algebra, rng, count, derivations=given)
                    assert [d.matrix for d in got] == [d.matrix for d in expected], \
                        (name, seed, count)
                    assert all(isinstance(d, Derivation) for d in got)
                    assert rng.getstate() == expected_rng.getstate(), (name, seed, count)
                kept += len(expected)
    assert kept > 0


def test_nilpotent_derivations_match_reference_with_few_tries(algebras):
    """A small `tries` ends the draws early; the rng must stop at the same place."""
    for name in ("m2", "ut2", "jet2_basis_changed"):
        algebra = algebras[name]
        for tries in (1, 3, 10):
            expected_rng = random.Random(5)
            expected = reference_nilpotent_derivations(algebra, expected_rng, 6, tries)
            rng = random.Random(5)
            got = nilpotent_derivations(algebra, rng, 6, tries)
            assert [d.matrix for d in got] == [d.matrix for d in expected], (name, tries)
            assert rng.getstate() == expected_rng.getstate(), (name, tries)


def test_sample_automorphisms_with_given_basis(algebras):
    for name, algebra in algebras.items():
        if algebra.dim > 4:
            continue
        for seed in SEEDS:
            rng_omitted, rng_given = random.Random(seed), random.Random(seed)
            omitted = sample_automorphisms(algebra, rng_omitted, 4)
            given = sample_automorphisms(algebra, rng_given, 4,
                                         derivations=derivation_space(algebra))
            assert [e.matrix for e in given] == [e.matrix for e in omitted], (name, seed)
            assert rng_given.getstate() == rng_omitted.getstate(), (name, seed)


def test_pooled_automorphisms_certify(corpus, monkeypatch):
    """Compositions enter the pool through AlgebraEndo.compose, uncertified;
    every pooled map must still pass the full certificate."""
    composed = []
    real_compose = AlgebraEndo.compose

    def spy(self, other):
        composed.append(self.algebra)
        return real_compose(self, other)

    monkeypatch.setattr(AlgebraEndo, "compose", spy)
    for name, algebra in corpus.items():
        for seed in (3, 17):
            for endo in sample_automorphisms(algebra, random.Random(seed), 8):
                assert AlgebraEndo.certify(algebra, endo.matrix) == endo, (name, seed)
    # dual, qxq, c2 and c3 reach the composition step
    assert len(set(map(id, composed))) == 4


def test_composed_pool_matches_recertified_pool(corpus, monkeypatch):
    """compose in place of re-certifying each composition leaves the pool,
    its order and the generator state as they were."""
    def recertify(self, other):
        return AlgebraEndo.certify(self.algebra, self.matrix * other.matrix)

    for name, algebra in corpus.items():
        for seed in (3, 17):
            rng_new = random.Random(seed)
            pool = sample_automorphisms(algebra, rng_new, 8)
            with monkeypatch.context() as patched:
                patched.setattr(AlgebraEndo, "compose", recertify)
                rng_old = random.Random(seed)
                expected = sample_automorphisms(algebra, rng_old, 8)
            assert pool == expected, (name, seed)
            assert rng_new.getstate() == rng_old.getstate(), (name, seed)


def test_random_combination_of_derivation_basis_certifies(algebras):
    """Derivations form a vector space, which is why the sampler certifies
    no rejected combination: any integer combination of the basis passes."""
    rng = random.Random(9090)
    checked = 0
    for name, algebra in algebras.items():
        basis = derivation_space(algebra)
        for _ in range(3 if basis else 0):
            m = Mat.zeros(algebra.dim, algebra.dim)
            for d in basis:
                m = m + d.matrix.scale(rng.randint(-3, 3))
            assert is_derivation(algebra, m) == (True, None), name
            Derivation.certify(algebra, m)
            checked += 1
    assert checked >= 20


# -- the nilpotency test -----------------------------------------------------

def nilpotent_matrix(rng, n):
    """A strictly upper triangular matrix in a random basis."""
    upper = Mat.from_rows([[rng.randint(-2, 2) if c > r else 0 for c in range(n)]
                           for r in range(n)])
    t = random_invertible(rng, n)
    return inverse(t) * upper * t


def test_is_nilpotent_agrees_with_minimal_polynomial(corpus):
    rng = random.Random(6161)
    verdicts = []
    for n in range(1, 7):
        algebra = poly_quotient(Poly.of([0] * n + [1]))
        candidates = [Mat.zeros(n, n), Mat.identity(n)]
        for _ in range(12):
            candidates.append(Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                                             for _ in range(n)]))
            sparse = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(n)]
            candidates.append(Mat.from_rows(sparse))
            candidates.append(nilpotent_matrix(rng, n))
            # a nilpotent matrix, or one shifted by I/3 and so not nilpotent
            shift = Mat.identity(n).scale(F(rng.choice((0, 1)), 3))
            candidates.append(nilpotent_matrix(rng, n) + shift)
        for m in candidates:
            expected = local_finiteness_report(LinearEndo(algebra, m)).is_ln
            assert is_nilpotent(m) == expected, m
            verdicts.append(expected)
    for algebra in corpus.values():
        for d in derivation_space(algebra):
            assert is_nilpotent(d.matrix) == local_finiteness_report(d).is_ln
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 50


# -- the permutation search ----------------------------------------------------

def test_permutation_automorphisms_match_certified_permutations(algebras):
    """Every corpus algebra, every explorer block, products of two blocks,
    and seeded basis changes of the blocks."""
    rng = random.Random(8080)
    blocks = [poly_quotient(f) for f in BLOCK_POLYS]
    blocks += [matrix_algebra(2)] + [cyclic_group_algebra(m) for m in (2, 3, 4)]
    cases = dict(algebras)
    for k, block in enumerate(blocks):
        cases[f"block{k}"] = block
        cases[f"block{k}_basis_changed"] = change_of_basis(block, random_invertible(rng, block.dim))
        for other in blocks[k:]:
            if block.dim + other.dim <= 6:
                cases[f"block{k}x{other.labels}"] = direct_product(block, other)
    found = 0
    for name, algebra in cases.items():
        expected = reference_permutation_automorphisms(algebra)
        got = permutation_automorphisms(algebra)
        assert got == expected, name
        found += len(got) > 1
    # algebras with automorphisms besides the identity were reached
    assert found >= 30


# -- the automorphism sampler ------------------------------------------------

def explorer_algebras(count=300, max_dim=4):
    """The algebras of the explorer's first trial at seeds 0 .. count - 1,
    basis change included, with the recipe each came from."""
    for seed in range(count):
        rng = random.Random(seed)
        recipe = random_recipe(rng, max_dim)
        algebra = recipe.algebra
        if rng.random() < 0.5:
            algebra = random_basis_change(algebra, rng)
        yield seed, recipe, algebra


def counting_compose(monkeypatch):
    calls = []
    real_compose = AlgebraEndo.compose

    def spy(self, other):
        calls.append(1)
        return real_compose(self, other)

    monkeypatch.setattr(AlgebraEndo, "compose", spy)
    return calls


def test_sample_automorphisms_matches_composing_reference(corpus, monkeypatch):
    """A pair drawn again is not composed again: the pools, their order and
    the generator state stay those of the loop that composed every draw.
    Sixteen maps of Q[t]/(t^3) need compositions of maps that do not
    commute, so (a, b) and (b, a) are different pairs."""
    calls = counting_compose(monkeypatch)
    cases = [(f"{name}/{seed}/{count}", algebra, seed, count)
             for name, algebra in corpus.items() if algebra.dim <= 4
             for seed in (3, 17) for count in (4, 8, 16)]
    cases += [(f"explore/{seed}", algebra, seed, 4)
              for seed, _, algebra in explorer_algebras()]
    composed_new = composed_old = 0
    for label, algebra, seed, count in cases:
        basis = derivation_space(algebra)
        del calls[:]
        rng_old = random.Random(seed)
        expected = reference_sample_automorphisms(algebra, rng_old, count, basis)
        composed_old += len(calls)
        del calls[:]
        rng_new = random.Random(seed)
        got = sample_automorphisms(algebra, rng_new, count, derivations=basis)
        composed_new += len(calls)
        assert [e.matrix for e in got] == [e.matrix for e in expected], label
        assert rng_new.getstate() == rng_old.getstate(), label
    assert len(cases) == 300 + 48
    # most draws of a small pool repeat a pair
    assert composed_new * 4 < composed_old, (composed_new, composed_old)


def offered(monkeypatch):
    """The matrices offered to the pool, in order: push asks each new one
    whether it is invertible."""
    log = []
    real = AlgebraEndo.is_invertible

    def spy(self):
        log.append(self.matrix)
        return real(self)

    monkeypatch.setattr(AlgebraEndo, "is_invertible", spy)
    return log


def test_given_slot_maps_push_in_the_same_order(monkeypatch):
    log = offered(monkeypatch)
    for k, block in enumerate(_block_catalogue()):
        for seed in range(8):
            del log[:]
            rng_omitted = random.Random(seed)
            omitted = sample_automorphisms(block.algebra, rng_omitted, 4)
            pushed_omitted = list(log)
            del log[:]
            rng_given = random.Random(seed)
            given = sample_automorphisms(block.algebra, rng_given, 4,
                                         slot_maps=block.slot_maps)
            assert log == pushed_omitted, (k, seed)
            assert [e.matrix for e in given] == [e.matrix for e in omitted], (k, seed)
            assert rng_given.getstate() == rng_omitted.getstate(), (k, seed)


def test_explorer_passes_slot_maps_of_lone_blocks_only(monkeypatch):
    seen = []
    real = explorer.sample_automorphisms

    def spy(algebra, rng, count, derivations=None, slot_maps=None):
        seen.append((algebra, slot_maps))
        return real(algebra, rng, count, derivations=derivations, slot_maps=slot_maps)

    monkeypatch.setattr(explorer, "sample_automorphisms", spy)
    explorer.random_explorer(7, 50, 4)
    catalogue = {id(b.algebra): b for b in _block_catalogue()}
    given = 0
    for algebra, slot_maps in seen:
        block = catalogue.get(id(algebra))
        if block is None:
            assert slot_maps is None
        else:
            assert slot_maps is block.slot_maps
            assert slot_maps == block_slot_maps(algebra)
            given += 1
    assert len(seen) == 50 and given >= 3
