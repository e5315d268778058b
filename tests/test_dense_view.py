"""The dense table is a view of the integer one, and nothing in the package
builds it.

An Algebra is (dim, integer_sc, unit, labels): a constructor given a dense
Fraction table converts it and keeps none of it, and sc is formed only when
something reads it.  algebra_to_json writes the file straight off the
integer table.  The oracles below walk a dense table the way the package did
before: the view must equal the products of the basis elements and the table
a constructor was given, and the file must equal the dense walk, on the
corpus, on explorer algebras after a basis change (denominators and negative
entries) and on extension tables.  The builders of M_n, T_n and the cyclic
group algebras write integer cells; the dense builders they replaced stay
here as their oracles.  No builder, no algebra operation and no run of the
suites, the explorer or extend may leave a stored sc on an Algebra.
"""

import copy
import json
import random
from fractions import Fraction

from skewex.algebra import (
    Algebra,
    center,
    change_of_basis,
    cyclic_group_algebra,
    direct_product,
    ideal_closure,
    make_algebra,
    matrix_algebra,
    poly_quotient,
    quotient,
    radical,
    subalgebra_as_algebra,
    upper_triangular,
)
from skewex._extension import verify_extension
from skewex.cli import main
from skewex.explorer import random_basis_change, random_recipe
from skewex.linalg import ONE, ZERO, Mat, Poly, unit_vec, zero_vec
from skewex.serialize import (
    algebra_from_json,
    algebra_to_json,
    extension_to_json,
    format_fraction,
    map_to_json,
    vector_to_json,
)
from test_relation_certificate import build
from test_relation_closure import annihilating_corpus_cases, m3_pair

ALL_SUITES = ("thm19_derivation,thm19_automorphism,thm16_audit,prop22,prop24,"
              "cor25,cor34,lemma_suite,ms_oracle")


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
    """The algebra with any cached dense table dropped, so that sc is rebuilt
    from the integer one."""
    twin = copy.copy(algebra)
    twin.__dict__.pop("sc", None)
    return twin


def dense_matrix_algebra(n):
    """(sc, unit, labels) of M_n in the matrix-unit basis, row-major, as a
    dense Fraction table."""
    dim = n * n

    def idx(i, j):
        return i * n + j

    sc = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        target = [ZERO] * dim
                        target[idx(i, l)] = ONE
                        sc[idx(i, j)][idx(k, l)] = tuple(target)
    unit = [ZERO] * dim
    for i in range(n):
        unit[idx(i, i)] = ONE
    return sc, unit, [f"E{i + 1}{j + 1}" for i in range(n) for j in range(n)]


def dense_upper_triangular(n):
    """(sc, unit, labels) of T_n, basis E_ij with i <= j in row-major order."""
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    index = {pos: k for k, pos in enumerate(positions)}
    dim = len(positions)
    sc = [[zero_vec(dim) for _ in range(dim)] for _ in range(dim)]
    for (i, j), a_idx in index.items():
        for (k, l), b_idx in index.items():
            if j == k:
                target = [ZERO] * dim
                target[index[(i, l)]] = ONE
                sc[a_idx][b_idx] = tuple(target)
    unit = [ZERO] * dim
    for i in range(n):
        unit[index[(i, i)]] = ONE
    return sc, unit, [f"E{i + 1}{j + 1}" for (i, j) in positions]


def dense_cyclic_group_algebra(m):
    """(sc, unit, labels) of Q[C_m], basis g^0 .. g^(m-1)."""
    sc = [[unit_vec((i + j) % m, m) for j in range(m)] for i in range(m)]
    labels = [f"g^{i}" if i > 1 else ("g" if i == 1 else "1") for i in range(m)]
    return sc, unit_vec(0, m), labels


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
    n = algebra.dim
    trace = dense_trace(algebra, dense)
    assert tuple(algebra.trace_of(algebra.basis_element(i)) for i in range(n)) == trace, label
    x = tuple(Fraction(i - 1, i + 2) for i in range(n))
    assert algebra.trace_of(x) == sum(a * t for a, t in zip(x, trace)), label
    assert algebra.is_commutative() == dense_is_commutative(algebra, dense), label


def assert_no_stored_table(label, algebra):
    assert isinstance(algebra, Algebra), label
    assert "sc" not in vars(algebra), label


# -- tests ------------------------------------------------------------------

def test_dense_view_matches_the_given_table(corpus):
    algebras = {**corpus, **explorer_algebras()}
    values = set()
    for label, algebra in algebras.items():
        dense = basis_products(algebra)
        # the constructor given the dense table keeps only its integer form
        given = Algebra(algebra.dim, dense, algebra.unit, algebra.labels)
        assert_no_stored_table(label, given)
        assert given.integer_sc == algebra.integer_sc, label
        assert given.sc == dense, label
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
        assert len(ext.integer_trace) == ext.dim
        ext.trace_of(result.u)
        assert_no_stored_table(label, ext)
        assert_dense_view(label, ext, basis_products(ext))
        scales.add(ext.integer_sc[0])
    assert len(scales) > 1


def test_builders_in_integers_match_the_dense_builders():
    for n in range(1, 5):
        for label, built, oracle in (
                (f"M_{n}", matrix_algebra(n), dense_matrix_algebra(n)),
                (f"T_{n}", upper_triangular(n), dense_upper_triangular(n)),
                (f"C_{n}", cyclic_group_algebra(n), dense_cyclic_group_algebra(n))):
            sc, unit, labels = oracle
            want = make_algebra(len(sc), sc, unit, labels)
            assert (built.dim, built.integer_sc, built.unit, built.labels) == (
                want.dim, want.integer_sc, want.unit, want.labels), label
            assert built.sc == tuple(map(tuple, sc)), label


def test_no_algebra_built_in_the_package_stores_a_dense_table():
    one = Poly.of([0, 1])
    jet2 = poly_quotient(Poly.of([0, 0, 0, 1]))
    t3 = upper_triangular(3)
    m3 = matrix_algebra(3)
    product = direct_product(poly_quotient(one), t3)
    built = {
        "matrix_algebra": m3,
        "upper_triangular": t3,
        "cyclic_group_algebra": cyclic_group_algebra(3),
        "poly_quotient": jet2,
        "make_algebra": make_algebra(1, [[[1]]], [1]),
        "direct_product": product,
        "algebra_from_json": algebra_from_json(algebra_to_json(t3)),
        "quotient by a radical": quotient(t3, radical(t3))[0],
        "quotient by an ideal": quotient(jet2, ideal_closure(jet2, [jet2.basis_element(2)]))[0],
        "change_of_basis": change_of_basis(jet2, Mat.from_rows([[1, 0, 0], [1, 2, 0],
                                                                 [-1, 0, 3]])),
        "subalgebra_as_algebra of M_3": subalgebra_as_algebra(m3, center(m3))[0],
        "subalgebra_as_algebra of a product":
            subalgebra_as_algebra(product, center(product))[0],
        **explorer_algebras(),
    }
    for label, algebra in built.items():
        assert_no_stored_table(label, algebra)


def test_suites_explore_and_extend_store_no_dense_table(monkeypatch, tmp_path, corpus, m3):
    built = []
    build = Algebra._build  # where both constructors end

    def recording(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Algebra, "_build", recording)
    for name, algebra in corpus.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(algebra_to_json(algebra)))
        assert main(["suite", "--algebra", str(path), "--suites", ALL_SUITES, "--seed", "0",
                     "--json", str(tmp_path / f"{name}.jsonl")]) in (0, 3), name
    assert main(["explore", "--seed", "7", "--trials", "10", "--max-dim", "4",
                 "--json", str(tmp_path / "explore.jsonl")]) in (0, 3)
    algebra_path = tmp_path / "m3.json"
    algebra_path.write_text(json.dumps(algebra_to_json(m3)))
    for label, mode, _, twist, _ in m3_pair(m3):
        map_path = tmp_path / f"{mode}-map.json"
        role = "derivation" if mode == "derivation" else "endomorphism"
        map_path.write_text(json.dumps(map_to_json(twist, role)))
        assert main(["extend", "--mode", mode, "--algebra", str(algebra_path),
                     "--map", str(map_path), "--json", str(tmp_path / f"{mode}.json")]) == 0
    assert len(built) > 100
    for algebra in built:
        assert_no_stored_table(repr(algebra), algebra)
