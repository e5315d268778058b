"""The dense table is a view of the integer one.

An Algebra built from integers, as every extension is, forms its dense
Fraction tensor sc only when something reads it, and algebra_to_json writes
the file straight off the integer table.  The oracles below walk a dense
table the way both did before: the lazy sc must equal the table a
constructor was given, or the products of the basis elements, and the file
must equal the dense walk, on the corpus, on explorer algebras after a basis
change (denominators and negative entries) and on extension tables.  The
extension path itself must never build sc.
"""

import copy
import random

from skewex._extension import verify_extension
from skewex.explorer import random_basis_change, random_recipe
from skewex.serialize import algebra_to_json, extension_to_json, format_fraction, vector_to_json
from test_relation_certificate import build
from test_relation_closure import annihilating_corpus_cases, m3_pair


# -- reference code ----------------------------------------------------------

def dense_walk_json(algebra, sc):
    """The algebra file read off a dense table, every slot in (i, j, k) order."""
    return {
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "unit": vector_to_json(algebra.unit),
        "sc": [[i, j, k, format_fraction(value)]
               for i in range(algebra.dim) for j in range(algebra.dim)
               for k, value in enumerate(sc[i][j]) if value],
    }


def basis_products(algebra):
    """The dense table as the products e_i e_j."""
    basis = [algebra.basis_element(i) for i in range(algebra.dim)]
    return tuple(tuple(algebra.multiply(x, y) for y in basis) for x in basis)


def dense_trace(algebra, sc):
    return tuple(sum(sc[i][j][j] for j in range(algebra.dim)) for i in range(algebra.dim))


def dense_is_commutative(algebra, sc):
    return all(sc[i][j] == sc[j][i] for i in range(algebra.dim) for j in range(algebra.dim))


def lazy_copy(algebra):
    """The algebra with its stored dense table dropped, so that sc is rebuilt
    from the integer one."""
    twin = copy.copy(algebra)
    twin.__dict__.pop("sc", None)
    return twin


# -- cases ------------------------------------------------------------------

def explorer_algebras():
    """24 explorer product algebras of dimension <= 4, each after a basis change."""
    out = {}
    for seed in range(24):
        rng = random.Random(seed)
        recipe = random_recipe(rng, 4)
        changed = random_basis_change(recipe.algebra, rng)
        assert changed is not recipe.algebra, seed
        out[f"explore[{seed}]"] = changed
    return out


def assert_dense_view(label, algebra, dense):
    assert lazy_copy(algebra).sc == dense, label
    assert algebra_to_json(algebra) == dense_walk_json(algebra, dense), label
    assert algebra.trace_vector == dense_trace(algebra, dense), label
    assert algebra.is_commutative() == dense_is_commutative(algebra, dense), label


# -- tests ------------------------------------------------------------------

def test_dense_view_matches_the_given_table(corpus):
    algebras = {**corpus, **explorer_algebras()}
    values = set()
    for label, algebra in algebras.items():
        dense = algebra.sc  # the table the constructor was given
        assert basis_products(algebra) == dense, label
        assert_dense_view(label, algebra, dense)
        values.update(entry[3] for entry in algebra_to_json(algebra)["sc"])
    # the file must reduce x / L: fractions, negative entries and integers
    # over a scale above 1 all occur
    assert any("/" in v for v in values) and any(v.startswith("-") for v in values)
    assert any(algebra.integer_sc[0] > 1 and any(
        "/" not in entry[3] for entry in algebra_to_json(algebra)["sc"])
        for algebra in algebras.values())


def test_extension_tables_stay_sparse_and_match_the_dense_view(corpus, m3):
    scales = set()
    for label, mode, algebra, twist, p in [*annihilating_corpus_cases(corpus), *m3_pair(m3)]:
        result = build(mode, algebra, twist, p)
        ext = result.algebra
        verify_extension(mode, algebra, ext, result.embed, result.u, p, twist.matrix)
        extension_to_json(result)
        ext.is_commutative()
        assert len(ext.trace_vector) == ext.dim
        assert "sc" not in ext.__dict__, label
        assert_dense_view(label, ext, basis_products(ext))
        scales.add(ext.integer_sc[0])
    assert len(scales) > 1
