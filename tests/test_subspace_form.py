"""The stored form of a Subspace: its reduced echelon basis in integers.

_integer_span and _integer_kernel build a Subspace from integer rows with no
Fraction: the scale L, the lcm of the basis denominators, and each row's
pivot with the nonzero L R entries after it.  The reference is the rational
Gauss-Jordan elimination of tests/test_integer_reference.py, on seeded
integer systems: wide, tall and square ones, full rank and deficient, with
negative pivots, zero and repeated rows, and the empty set.  The Fraction
basis is a view: the extensions of M_3, the radical, the kernel chain and
the quotient run without reading it.
"""

import random
from fractions import Fraction
from math import lcm

from skewex.algebra import matrix_algebra, quotient, radical
from skewex.explorer import random_recipe
from skewex.laurent import laurent_quotient
from skewex.linalg import (
    Mat,
    Subspace,
    _integer_kernel,
    _integer_rref,
    _integer_span,
    full_space,
    span,
    zero_subspace,
)
from skewex.maps import inner_automorphism, inner_derivation, induced_map, kernel_chain
from skewex.ore import ore_quotient
from skewex.sampling import recipe_endomorphisms
from test_integer_reference import ref_kernel_basis, ref_span_basis

# the benchmark's M_3 witnesses, as in tests/test_cli.py
U0 = ((1, 1, -1), (0, 2, -5), (0, 0, -3))
V0 = ((1, 1, -1), (0, 2, 1), (0, 0, 3))


def integer_systems(rng):
    """(rows, ncols) pairs: seeded systems of every shape and a few fixed ones."""
    systems = [([], 4), ([[0, 0, 0]], 3), ([[-2, 4, 6], [1, -2, -3]], 3),
               ([[-3, 1, 0, 2], [0, -5, 2, 0]], 4), ([[4, 0], [0, 6], [2, 3]], 2)]
    for rows, cols in ((2, 7), (3, 9), (9, 3), (12, 4), (5, 5), (6, 6), (4, 8), (7, 7)):
        for _ in range(12):
            grid = [[rng.choice((0, 0, rng.randint(-12, 12))) for _ in range(cols)]
                    for _ in range(rows)]
            if rng.random() < 0.4:
                # rank deficient: a combination of two rows
                a, b = rng.randrange(rows), rng.randrange(rows)
                grid[rng.randrange(rows)] = [3 * x - 2 * y for x, y in zip(grid[a], grid[b])]
            if rng.random() < 0.3:
                grid[rng.randrange(rows)] = [0] * cols
            if rng.random() < 0.3:
                grid.append(list(grid[rng.randrange(rows)]))
            systems.append((grid, cols))
    return systems


def fractions(rows):
    return [[Fraction(x) for x in row] for row in rows]


def denominator_lcm(basis):
    return lcm(*(x.denominator for row in basis for x in row))


def test_integer_span_and_kernel_match_fraction_gauss_jordan():
    rng = random.Random(2017)
    negative = full = empty = 0
    for rows, n in integer_systems(rng):
        reduced = [list(row) for row in rows if any(row)]
        pivots = _integer_rref(reduced)
        negative += any(reduced[r][c] < 0 for r, c in enumerate(pivots))
        full += len(pivots) == min(len(rows), n)
        empty += not pivots
        got = _integer_span([list(row) for row in rows], n)
        want = ref_span_basis(fractions(rows), n)
        assert got.basis == want, rows
        assert got.scale == denominator_lcm(want), rows
        assert got.pivots() == pivots
        null = _integer_kernel([list(row) for row in rows], n)
        want = ref_kernel_basis(Mat.from_entries(len(rows), n, tuple(map(tuple, fractions(rows)))))
        assert null.basis == want, rows
        assert null.scale == denominator_lcm(want), rows
    assert negative >= 20 and full >= 20 and empty >= 2


def test_equal_spans_are_equal_subspaces_with_equal_hashes():
    rng = random.Random(25)
    compared = 0
    for rows, n in integer_systems(rng):
        first = _integer_span([list(row) for row in rows], n)
        # other generators of the same space: integer combinations of all the
        # rows, nonzero multiples of them, and the echelon rows themselves
        combos = [[sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(n)]
                  for coeffs in ([rng.randint(-3, 3) for _ in rows] for _ in range(3))]
        second = _integer_span(combos + [[-7 * x for x in row] for row in rows], n)
        assert second == first and hash(second) == hash(first)
        assert _integer_span(first.rows(), n) == first
        assert span(first.basis, n) == first
        compared += first.dim > 1
    assert compared >= 40
    assert _integer_span([], 3) == zero_subspace(3) and zero_subspace(3).scale == 1
    assert _integer_span([[0, 0, 5], [0, -2, 0], [3, 0, 0]], 3) == full_space(3)
    assert full_space(3).basis == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_the_integer_api_reads_the_stored_rows():
    # rows (-3, 1, 0, 2) and (0, -5, 2, 0): R = (1, 0, -2/15, -2/3), (0, 1, -2/5, 0)
    v = _integer_span([[-3, 1, 0, 2], [0, -5, 2, 0]], 4)
    assert (v.scale, v.echelon) == (15, ((0, ((2, -2), (3, -10))), (1, ((2, -6),))))
    assert v.rows() == [[15, 0, -2, -10], [0, 15, -6, 0]]
    assert v.kept() == [2, 3]
    w = [1, 2, 3, 4]
    # 15 w - 1 * row 0 - 2 * row 1, on the kept coordinates
    assert v.residual(w) == [0, 0, 59, 70]
    assert v.project(w) == [59, 70]
    assert not any(v.residual([-3, 1, 0, 2]))


def reading_basis(monkeypatch):
    """Count the reads of Subspace.basis."""
    reads = []
    view = Subspace.__dict__["basis"].func

    def spy(self):
        reads.append(self)
        return view(self)

    monkeypatch.setattr(Subspace, "basis", property(spy))
    return reads


def test_the_core_paths_do_not_read_the_fraction_basis(corpus, monkeypatch):
    m3 = matrix_algebra(3)

    def flat(m):
        return m3.element([m[i][j] for i in range(3) for j in range(3)])

    rng = random.Random(5)
    recipes = [random_recipe(rng, 4) for _ in range(12)]
    endos = [(r.algebra, phi) for r in recipes for phi in recipe_endomorphisms(r, rng, 2)]
    twists = (inner_derivation(m3, flat(U0)), inner_automorphism(m3, flat(V0)))
    reads = reading_basis(monkeypatch)
    assert ore_quotient(m3, twists[0]).algebra.dim == 27
    assert laurent_quotient(m3, twists[1]).algebra.dim == 27
    proper = 0
    for algebra in list(corpus.values()) + [r.algebra for r in recipes]:
        rad = radical(algebra)
        if 0 < rad.dim < algebra.dim:
            quotient(algebra, rad)
            proper += 1
    for algebra, phi in endos:
        chain, _ = kernel_chain(phi)
        induced_map(phi)
        proper += 0 < chain.dim < algebra.dim
    assert reads == []
    assert proper >= 10
    # the spy sees a read
    assert zero_subspace(2).basis == () and len(reads) == 1


def test_integer_span_and_kernel_make_no_fraction():
    made = []
    real = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real.__func__(cls, *args, **kwargs)

    rows = [[-3, 1, 0, 2], [0, -5, 2, 0], [6, -2, 0, -4]]
    Fraction.__new__ = staticmethod(counting)
    try:
        assert Fraction(1, 3) and len(made) == 1
        made.clear()
        image = _integer_span([list(row) for row in rows], 4)
        null = _integer_kernel([list(row) for row in rows], 4)
        found = image.sum(null), image.intersect(null), null.is_subspace_of(image)
        assert made == []
    finally:
        Fraction.__new__ = real
    assert found[0] == full_space(4) and found[1] == zero_subspace(4) and not found[2]
