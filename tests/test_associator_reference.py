"""The associator check against its per-(i, k) loop (associator_oracle).

_first_nonassociative_at sums, for a middle y and a row i, only the products
that land, one accumulator per k they reach.  The oracle allocates and scans
an accumulator for every (i, k).  Both must return the same first witness in
(g, i, k) order, or None: on the corpus tables with make_algebra's
generators and random rational middles, on the extensions of ad_U0 and
conj_V0 over M_3, on generic extensions of M_4 and T_5, and on tables with
one perturbed constant each.  A middle with one nonzero coordinate has
its products read off the table's cells, and any other middle has them
summed: both paths meet the oracle at scaled basis elements and two-term
sums.  Two hand-built tables pin the parts of the loop a shortcut could
drop: a row i with e_i y = 0 whose right-hand sum e_i (y e_k) is not 0, and
a row with two failing k, of which the first is the witness.
"""

import random
from fractions import Fraction as F

import pytest

from associator_oracle import ref_first_nonassociative_at
from skewex.algebra import (
    Algebra,
    _first_nonassociative_at,
    make_algebra,
    matrix_algebra,
    upper_triangular,
)
from skewex.errors import NotAssociative
from skewex.linalg import vec_add, vec_scale
from skewex.maps import Derivation, derivation_space, inner_derivation
from skewex.ore import ore_quotient
from skewex.sampling import random_trace_zero_invertible
from test_nucleus_certificate import extensions, generators
from test_relation_closure import m3_pair
from test_relation_certificate import build
from test_sparse_reference import rational_element, rational_tables


def basis_middles(algebra):
    """The middles make_algebra passes: the basis elements of the generators."""
    return [algebra.basis_element(g) for g in algebra.generators]


def perturbed(algebra, rng):
    """The algebra's integer table with one constant moved by a nonzero integer
    multiple of 1 / L, built through the sparse constructor."""
    scale, table = algebra.integer_sc
    n = algebra.dim
    i, j, k = (rng.randrange(n) for _ in range(3))
    cell = dict(table[i][j])
    cell[k] = cell.get(k, 0) + rng.choice([-2, -1, 1, 2])
    cells = [list(row) for row in table]
    cells[i][j] = sorted((c, x) for c, x in cell.items() if x)
    return Algebra._from_cells(scale, cells, algebra.unit)


def assert_same_witness(integer_sc, middles, label):
    expected = ref_first_nonassociative_at(integer_sc, middles)
    assert _first_nonassociative_at(integer_sc, middles) == expected, label
    return expected


def generic_m4():
    m4 = matrix_algebra(4)
    u = random_trace_zero_invertible(m4, random.Random(3))
    return ore_quotient(m4, inner_derivation(m4, u))


def generic_t5():
    """A combination of the derivation basis of T_5 with coefficients in
    [-3, 3], drawn by random.Random(5)."""
    t5 = upper_triangular(5)
    rng = random.Random(5)
    total = None
    for d in derivation_space(t5):
        term = d.matrix.scale(rng.randint(-3, 3))
        total = term if total is None else total + term
    return ore_quotient(t5, Derivation.certify(t5, total))


def test_witnesses_match_the_oracle_on_the_corpus(corpus):
    rng = random.Random(5150)
    for name, algebra in rational_tables(corpus).items():
        assert assert_same_witness(algebra.integer_sc, basis_middles(algebra), name) is None
        middles = [rational_element(algebra.dim, rng) for _ in range(2)]
        assert assert_same_witness(algebra.integer_sc, middles, name) is None


def test_witnesses_match_the_oracle_on_the_m3_pair_and_generic_extensions(m3):
    results = {label: build(mode, algebra, twist, p)
               for label, mode, algebra, twist, p in m3_pair(m3)}
    results["m4/generic"] = generic_m4()
    results["t5/generic"] = generic_t5()
    assert {label: result.algebra.dim for label, result in results.items()} == {
        "m3/derivation": 27, "m3/automorphism": 27, "m4/generic": 64, "t5/generic": 77}
    rng = random.Random(2323)
    failing = 0
    for label, result in results.items():
        ext = result.algebra
        assert assert_same_witness(ext.integer_sc, generators(result), label) is None
        for _ in range(3):
            broken = perturbed(ext, rng)
            failing += assert_same_witness(broken.integer_sc, generators(result), label) is not None
    assert failing >= 8


def test_witnesses_match_the_oracle_on_perturbed_tables(corpus, m3):
    """One constant moved in each of the corpus tables and the extensions of
    test_nucleus_certificate; the witness, or None, is the oracle's at the
    extension's middles, at the table's own generators and at a random one."""
    rng = random.Random(6060)
    outcomes = {True: 0, False: 0}
    tables = 0
    cases = [(name, algebra, basis_middles(algebra))
             for name, algebra in rational_tables(corpus).items()]
    cases += [(label, result.algebra, generators(result))
              for _, label, result in extensions(corpus, m3)]
    for label, algebra, middles in cases:
        for _ in range(4 if algebra.dim <= 9 else 1):
            broken = perturbed(algebra, rng)
            tables += 1
            for ys in (middles, basis_middles(broken), [rational_element(algebra.dim, rng)]):
                outcomes[assert_same_witness(broken.integer_sc, ys, label) is None] += 1
    assert tables >= 200
    assert outcomes[True] >= 100 and outcomes[False] >= 1000, outcomes


def scaled_and_summed(algebra, middles):
    """Each middle times 1, 2, -1 and 1/3, and each plus twice the basis
    element after the first coordinate it has."""
    out = [vec_scale(c, y) for y in middles for c in (F(1), F(2), F(-1), F(1, 3))]
    for y in middles:
        g = next(k for k, x in enumerate(y) if x)
        out.append(vec_add(y, vec_scale(F(2), algebra.basis_element((g + 1) % algebra.dim))))
    return out


def test_cell_and_summed_middles_match_the_oracle(corpus, m3):
    """Basis middles take the cell path, multiples of them too, and every
    two-term sum is summed; on the corpus, the M_3 pair and tables with one
    perturbed constant, each gives the oracle's witness, or None."""
    rng = random.Random(3535)
    cases = [(name, algebra, basis_middles(algebra))
             for name, algebra in rational_tables(corpus).items()]
    for label, mode, algebra, twist, p in m3_pair(m3):
        result = build(mode, algebra, twist, p)
        cases.append((label, result.algebra, generators(result)))
    witnesses = {True: 0, False: 0}
    for label, algebra, middles in cases:
        tables = [algebra] + [perturbed(algebra, rng) for _ in range(3 if algebra.dim <= 9 else 1)]
        for table in tables:
            ys = scaled_and_summed(table, middles)
            found = assert_same_witness(table.integer_sc, ys, label)
            witnesses[found is None] += 1
            if table is algebra:
                assert found is None, label
    assert witnesses[False] >= 20, witnesses


def left_empty_table(extra):
    """1, a, b_1 .. b_extra with a b_t = b_t and every other product of
    non-units 0.  (a, a, b_t) = (a a) b_t - a (a b_t) = -b_t: row a of the
    middle a has e_a a = 0, and only the right-hand sum sees the failure."""
    n = 2 + extra
    cells = [[[] for _ in range(n)] for _ in range(n)]
    for j in range(n):
        cells[0][j] = [(j, 1)]
        cells[j][0] = [(j, 1)]
    for t in range(2, n):
        cells[1][t] = [(t, 1)]
    return Algebra._from_cells(1, cells, [int(k == 0) for k in range(n)])


def test_a_row_with_no_left_products_still_sums_the_right_side():
    table = left_empty_table(1)
    assert table.generators == (1, 2)
    middles = basis_middles(table)
    assert ref_first_nonassociative_at(table.integer_sc, middles) == (1, 0, 2)
    assert _first_nonassociative_at(table.integer_sc, middles) == (1, 0, 2)
    # no other triple fails: skipping row a leaves no witness at all
    assert _first_nonassociative_at(table.integer_sc, middles[1:]) is None
    with pytest.raises(NotAssociative) as caught:
        make_algebra(table.dim, table.sc, table.unit)
    assert str(caught.value) == str(NotAssociative(1, 1, 2))


def test_the_first_failing_k_is_the_witness():
    table = left_empty_table(2)
    assert table.generators == (1, 2, 3)
    middles = basis_middles(table)
    # (a, a, b_1) and (a, a, b_2) both fail, in row a of the first middle
    assert ref_first_nonassociative_at(table.integer_sc, middles) == (1, 0, 2)
    assert _first_nonassociative_at(table.integer_sc, middles) == (1, 0, 2)
    assert _first_nonassociative_at(table.integer_sc, middles[:1]) == (1, 0, 2)
    with pytest.raises(NotAssociative) as caught:
        make_algebra(table.dim, table.sc, table.unit)
    assert str(caught.value) == str(NotAssociative(1, 1, 2))
