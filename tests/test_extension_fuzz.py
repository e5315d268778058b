"""Seeded fuzz over random small algebras: every extension construction must
deliver its full postcondition bundle, whatever the base looks like."""

import random

from skewex._extension import poly_of_element
from skewex.algebra import matrix_algebra
from skewex.explorer import random_basis_change, random_recipe
from skewex.laurent import laurent_quotient
from skewex.linalg import Poly, is_zero_vec, kernel
from skewex.maps import derivation_space, inner_automorphism, inner_derivation
from skewex.ore import ore_quotient
from skewex.sampling import sample_automorphisms


def check_derivation_extension(algebra, d):
    result = ore_quotient(algebra, d)
    ext = result.algebra
    assert kernel(result.embed).dim == 0
    assert is_zero_vec(poly_of_element(ext, result.p, result.u))
    for a in range(algebra.dim):
        img = result.embed.column(a)
        comm = tuple(x - y for x, y in zip(ext.multiply(result.u, img),
                                           ext.multiply(img, result.u)))
        assert comm == result.embed.apply(d.matrix.apply(algebra.basis_element(a)))
    assert ext.dim + result.defect_dim == result.p.degree * algebra.dim
    return result


def check_automorphism_extension(algebra, phi):
    result = laurent_quotient(algebra, phi)
    ext = result.algebra
    assert kernel(result.embed).dim == 0
    assert is_zero_vec(poly_of_element(ext, result.p, result.u))
    assert ext.multiply(result.u, result.u_inverse) == ext.unit
    assert ext.multiply(result.u_inverse, result.u) == ext.unit
    for a in range(algebra.dim):
        img = result.embed.column(a)
        conj = ext.multiply(ext.multiply(result.u, img), result.u_inverse)
        assert conj == result.embed.apply(phi.matrix.apply(algebra.basis_element(a)))
    return result


def random_extension_inputs():
    """(mode, algebra, twist) for the seeded fuzz: up to two derivation-basis
    elements and two sampled automorphisms of each of 25 random algebras."""
    rng = random.Random(424242)
    for _ in range(25):
        recipe = random_recipe(rng, max_dim=5)
        algebra = recipe.algebra
        if rng.random() < 0.5:
            algebra = random_basis_change(algebra, rng)
        for d in derivation_space(algebra)[:2]:
            yield "derivation", algebra, d
        for phi in sample_automorphisms(algebra, rng, 2):
            yield "automorphism", algebra, phi


def test_extensions_on_random_algebras():
    runs = {"derivation": 0, "automorphism": 0}
    for mode, algebra, twist in random_extension_inputs():
        if mode == "derivation":
            check_derivation_extension(algebra, twist)
        else:
            check_automorphism_extension(algebra, twist)
        runs[mode] += 1
    assert runs["automorphism"] >= 25
    # not every random base has derivations, but several must
    assert runs["derivation"] >= 10


# The M_3 witnesses of the extend_m3 benchmark workload: u is trace-zero and
# invertible, v invertible, and ad_u and conj_v both have a degree-7 minimal
# polynomial.
U0 = ((1, 1, -1), (0, 2, -5), (0, 0, -3))
V0 = ((1, 1, -1), (0, 2, 1), (0, 0, 3))


def test_m3_extensions(m3):
    def flat(m):
        return m3.element([m[i][j] for i in range(3) for j in range(3)])

    for result in (
        check_derivation_extension(m3, inner_derivation(m3, flat(U0))),
        check_automorphism_extension(m3, inner_automorphism(m3, flat(V0))),
    ):
        assert result.p.degree == 7
        assert result.algebra.dim == 27
        assert result.defect_dim == 36
        assert not result.free_module


def test_m4_nilpotent_shift_extension():
    m4 = matrix_algebra(4)
    shift = m4.element([1 if j == i + 1 else 0 for i in range(4) for j in range(4)])
    result = check_derivation_extension(m4, inner_derivation(m4, shift))
    # ad of the 4x4 shift has nilpotency index 2 * 4 - 1
    assert result.p == Poly.of([0] * 7 + [1])
    assert result.algebra.dim == 64
    assert result.defect_dim == 48
