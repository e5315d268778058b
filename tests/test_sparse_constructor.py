"""The sparse constructor against the dense Fraction path.

Every table the package builds goes through Algebra._from_cells: sparse
integer cells over one scale, ascending in k.  The public constructor
Algebra(dim, sc, unit) and make_algebra take a dense Fraction table and
convert it.  Both must give the same canonical integer table and the same
algebra file: for every builder against a dense table formed from its
definition, and for the corpus, 300 explorer algebras and every corpus
extension against their own dense products.  A file whose sc entries come in
any order loads to the same table, and a malformed cell raises
DimensionMismatch.
"""

import random
from fractions import Fraction

import pytest

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
from skewex.errors import DimensionMismatch
from skewex.linalg import ZERO, Mat, Poly, inverse, unit_vec, zero_vec
from skewex.serialize import algebra_from_json, algebra_to_json
from test_dense_view import (
    basis_products,
    dense_cyclic_group_algebra,
    dense_matrix_algebra,
    dense_upper_triangular,
)
from test_generator_routes import explorer_algebras
from test_nucleus_certificate import extensions

F = Fraction


def assert_same_table(label, algebra, dense, unit=None, labels=None):
    """algebra, built on the sparse path, against make_algebra given dense."""
    want = make_algebra(len(dense), dense, algebra.unit if unit is None else unit,
                        algebra.labels if labels is None else labels)
    assert (algebra.dim, algebra.integer_sc, algebra.unit, algebra.labels) == (
        want.dim, want.integer_sc, want.unit, want.labels), label
    assert algebra_to_json(algebra) == algebra_to_json(want), label


# -- dense references of the builders ------------------------------------------

def dense_poly_quotient(f):
    """sc[i][j] = t^(i+j) reduced modulo f, by Fraction polynomial division."""
    d = f.degree
    reduced = [Poly.of([0] * m + [1]).mod(f) for m in range(2 * d - 1)]
    return [[tuple(reduced[i + j].coeff(k) for k in range(d)) for j in range(d)]
            for i in range(d)]


def dense_direct_product(a, b):
    """The two dense tables as diagonal blocks."""
    n = a.dim + b.dim
    sc = [[zero_vec(n) for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            sc[i][j] = tuple(a.sc[i][j]) + zero_vec(b.dim)
    for i in range(b.dim):
        for j in range(b.dim):
            sc[a.dim + i][a.dim + j] = zero_vec(a.dim) + tuple(b.sc[i][j])
    return sc


def dense_change_of_basis(algebra, t):
    """sc[i][j] = t^-1 (t_i t_j) for the columns t_i of t, in Fractions."""
    t_inv = inverse(t)
    columns = t.columns()
    return [[t_inv.apply(algebra.multiply(x, y)) for y in columns] for x in columns]


def dense_subalgebra(algebra, subspace):
    """The products of the reduced echelon basis, read at its pivots."""
    basis, pivots = subspace.basis, subspace.pivots()
    return [[tuple(algebra.multiply(x, y)[p] for p in pivots) for y in basis] for x in basis]


def dense_quotient(algebra, ideal):
    """The kept coordinates of the reduced products e_i e_j, i and j kept."""
    kept = ideal.kept()
    reduce = ideal.reduce
    return [[tuple(reduce(algebra.multiply(algebra.basis_element(i),
                                           algebra.basis_element(j)))[k] for k in kept)
             for j in kept] for i in kept]


# -- tests ------------------------------------------------------------------

def test_every_builder_matches_its_dense_table():
    for n in range(1, 5):
        for label, built, (sc, unit, labels) in (
                (f"M_{n}", matrix_algebra(n), dense_matrix_algebra(n)),
                (f"T_{n}", upper_triangular(n), dense_upper_triangular(n)),
                (f"C_{n}", cyclic_group_algebra(n), dense_cyclic_group_algebra(n))):
            assert_same_table(label, built, sc, unit, labels)
    for coeffs in ([0, 1], [0, 0, 1], [0, -1, 1], [1, 0, 1], [F(1, 2), F(-3, 4), 0, 1],
                   [F(2, 9), 0, F(5, 3), F(-1, 6), 1]):
        f = Poly.of(coeffs)
        assert_same_table(f"Q[t]/({coeffs})", poly_quotient(f), dense_poly_quotient(f))
    jet2 = poly_quotient(Poly.of([0, 0, 0, 1]))
    t3, m2 = upper_triangular(3), matrix_algebra(2)
    half = poly_quotient(Poly.of([F(1, 2), F(-3, 4), 0, 1]))
    for label, a, b in (("T_3 x Q[t]/(t^3)", t3, jet2), ("M_2 x half", m2, half),
                        ("half x M_2", half, m2)):
        assert_same_table(label, direct_product(a, b), dense_direct_product(a, b))
    for label, algebra, t in (
            ("jet2 moved", jet2, Mat.from_rows([[1, 0, 0], [1, 2, 0], [-1, 0, 3]])),
            ("M_2 moved", m2, Mat.from_rows([[1, F(1, 2), 0, 0], [0, 1, 0, F(2, 3)],
                                             [F(-3, 5), 0, 1, 0], [0, 0, F(1, 7), 1]])),
            ("half moved", half, Mat.from_rows([[2, 1, 0], [0, F(1, 3), 1], [1, 0, 1]]))):
        assert_same_table(label, change_of_basis(algebra, t), dense_change_of_basis(algebra, t))
    product = direct_product(poly_quotient(Poly.of([0, 1])), t3)
    for label, algebra in (("M_2", m2), ("T_3 product", product), ("half", half)):
        sub = center(algebra)
        small, _ = subalgebra_as_algebra(algebra, sub)
        unit = tuple(algebra.unit[p] for p in sub.pivots())
        assert_same_table(f"center of {label}", small, dense_subalgebra(algebra, sub), unit,
                          [f"e{i}" for i in range(sub.dim)])
    moved = change_of_basis(jet2, Mat.from_rows([[2, 1, 0], [0, F(1, 3), 1], [1, 0, 1]]))
    square = ideal_closure(jet2, [jet2.basis_element(2)])
    for label, algebra, ideal in (("T_3 / rad", t3, radical(t3)), ("jet2 / (t^2)", jet2, square),
                                  ("moved jet2 / rad", moved, radical(moved))):
        quot, projection = quotient(algebra, ideal)
        unit = projection.apply(algebra.unit)
        assert_same_table(label, quot, dense_quotient(algebra, ideal), unit,
                          [algebra.labels[k] for k in ideal.kept()])


def test_corpus_explorer_and_extension_tables_match_the_dense_path(corpus, m3):
    algebras = [*corpus.items(), *explorer_algebras(300)]
    algebras += [(label, result.algebra) for _, label, result in extensions(corpus, m3)]
    assert len(algebras) >= 9 + 300 + 180
    for label, algebra in algebras:
        dense = Algebra(algebra.dim, basis_products(algebra), algebra.unit, algebra.labels)
        assert dense.integer_sc == algebra.integer_sc, label
        assert algebra_to_json(dense) == algebra_to_json(algebra), label


def test_shuffled_and_zero_entries_load_to_the_same_table(corpus, m3):
    rng = random.Random(404)
    algebras = [*corpus.items(), *explorer_algebras(300)[:40]]
    algebras += [(label, result.algebra)
                 for _, label, result in extensions(corpus, m3) if label.startswith("m3")]
    for label, algebra in algebras:
        data = algebra_to_json(algebra)
        entries = data["sc"] + [[i, j, k, "0"] for i, j, k in
                                {(rng.randrange(algebra.dim), rng.randrange(algebra.dim),
                                  rng.randrange(algebra.dim)) for _ in range(3)}
                                if not any(e[:3] == [i, j, k] for e in data["sc"])]
        rng.shuffle(entries)
        loaded = algebra_from_json({**data, "sc": entries})
        assert loaded.integer_sc == algebra.integer_sc, label
        assert algebra_to_json(loaded) == data, label


@pytest.mark.parametrize("cell, why", [
    ([(3, 1)], "k out of range"),
    ([(-1, 1)], "negative k"),
    ([(1, 0)], "zero value"),
    ([(2, 1), (1, 1)], "unsorted k"),
    ([(1, 1), (1, 2)], "repeated k"),
])
def test_malformed_cells_raise(cell, why):
    cells = [[[(j, 1)] if i == 0 else [(i, 1)] if j == 0 else [] for j in range(3)]
             for i in range(3)]
    unit = unit_vec(0, 3)
    Algebra._from_cells(1, cells, unit)  # the well-formed table builds
    cells[1][2] = cell
    with pytest.raises(DimensionMismatch):
        Algebra._from_cells(1, cells, unit)


def test_tables_of_the_wrong_shape_raise():
    unit = (ZERO, ZERO)
    for cells in ([[[(0, 1)], []], [[]]], [[[], []], [[], []], [[], []]]):
        with pytest.raises(DimensionMismatch):
            Algebra._from_cells(1, cells, unit)
