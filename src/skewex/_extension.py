"""Shared machinery for realizing twisted polynomial quotients as finite algebras.

Both extension flavours (derivation twist and automorphism twist) proceed the
same way: write products of the window monomials e_a * Xbar^i (0 <= i < d,
d = deg p) in left-normal form, fold powers >= d back into the window using
the scalar recursion Xbar^d = -sum alpha_i Xbar^i, and obtain a multiplication
grid on the free module of rank d*n.

That grid is an associative algebra exactly when the relation polynomial
generates a two-sided ideal; in general it is not, and the genuine quotient is
the free module divided by the relation submodule N spanned by the reduced
images of p(X) * e_b * X^k under left multiplication.  The quotient always
carries a well-defined associative multiplication, which is re-verified on
all basis triples before anything is returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import Algebra, _first_unabsorbed, _sparse_multiply, _sparse_table, make_algebra
from .errors import (
    AnnihilatorFails,
    AssociativityFails,
    NotAssociative,
    SkewexError,
    UnitFails,
)
from .linalg import (
    Mat,
    Poly,
    Subspace,
    Vec,
    ZERO,
    ONE,
    is_zero_vec,
    kernel,
    minimal_polynomial,
    span,
    unit_vec,
    vec_add,
    zero_vec,
)

# A term list is a left-normal form: pairs (power, coefficient in the base
# algebra), powers arbitrary non-negative integers before reduction.
TermList = list[tuple[int, Vec]]


def power_reduction_table(p: Poly, max_power: int) -> list[Vec]:
    """beta[m] with X^m = sum_q beta[m][q] X^q modulo the monic relation p."""
    d = p.degree
    table: list[Vec] = []
    for m in range(d):
        table.append(tuple(ONE if q == m else ZERO for q in range(d)))
    for m in range(d, max_power + 1):
        prev = table[m - 1]
        shifted = [ZERO] + list(prev[:-1])
        top = prev[-1]
        if top:
            shifted = [s - top * p.coeffs[q] for q, s in enumerate(shifted)]
        table.append(tuple(shifted))
    return table


@dataclass(frozen=True)
class ExtensionResult:
    """Outcome of an extension construction.

    embed maps base coordinates into the extension; u is the adjoined
    witness; u_inverse is present in the automorphism flavour.  free_module
    records whether the rank-d free model was already consistent, and
    defect_dim how much of it had to be collapsed, so that
    algebra.dim + defect_dim == p.degree * base.dim.  In the derivation
    flavour free_module holds exactly when the derivation is zero: in
    characteristic zero the X^(d-1) coefficient of p(X) a - a p(X) is
    d * D(a), so the relation submodule is nonzero whenever D is.
    """

    mode: str
    base: Algebra
    algebra: Algebra
    embed: Mat
    u: Vec
    u_inverse: Optional[Vec]
    p: Poly
    free_module: bool
    defect_dim: int

    def embed_element(self, x: Vec) -> Vec:
        return self.embed.apply(x)


class FreeModel:
    """The rank-d free module over the base with the rewrite multiplication."""

    def __init__(
        self,
        base: Algebra,
        p: Poly,
        monomial_product: Callable[[int, int, int, int], TermList],
    ):
        """Fold monomial_product(a, i, b, j), the left-normal form of
        (e_a X^i)(e_b X^j), into the window for every pair of grid indices."""
        self.base = base
        self.p = p
        self.d = p.degree
        self.n = base.dim
        self.dim = self.d * self.n
        self.beta = power_reduction_table(p, 2 * self.d)
        # grid index (a, i) -> i * n + a, power-major so the base sits at 0..n-1
        self.sc = [
            [
                self.reduce_terms(monomial_product(a, i, b, j))
                for j in range(self.d)
                for b in range(self.n)
            ]
            for i in range(self.d)
            for a in range(self.n)
        ]
        self.sc_nonzero = _sparse_table(self.sc)

    def index(self, a: int, i: int) -> int:
        return i * self.n + a

    def slice0(self, x: Vec) -> Vec:
        return tuple(x) + zero_vec(self.dim - self.n)

    def reduce_terms(self, terms: TermList) -> Vec:
        """Fold a left-normal term list into window coordinates."""
        out = [ZERO] * self.dim
        for power, coeff in terms:
            if is_zero_vec(coeff):
                continue
            for q, factor in enumerate(self.beta[power]):
                if factor:
                    offset = q * self.n
                    for a, c in enumerate(coeff):
                        if c:
                            out[offset + a] += factor * c
        return tuple(out)

    def coefficient(self, v: Vec, power: int) -> Vec:
        return tuple(v[power * self.n + a] for a in range(self.n))

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return _sparse_multiply(self.sc_nonzero, x, y)

    def left_multiply_base(self, a_index: int, v: Vec) -> Vec:
        """Multiply each window coefficient on the left by the base basis element."""
        out = []
        for q in range(self.d):
            coeff = self.coefficient(v, q)
            out.extend(self.base.multiply(self.base.basis_element(a_index), coeff))
        return tuple(out)

    def labels(self) -> list[str]:
        out = []
        for i in range(self.d):
            for lab in self.base.labels:
                if i == 0:
                    out.append(lab)
                else:
                    power = "X" if i == 1 else f"X^{i}"
                    out.append(power if lab == "1" else f"{lab}*{power}")
        return out


def relation_submodule(model: FreeModel, generator_polys: list[TermList]) -> Subspace:
    """Span of the reduced relation generators under base left multiplication."""
    vectors = []
    for terms in generator_polys:
        w = model.reduce_terms(terms)
        if is_zero_vec(w):
            continue
        vectors.append(w)
        for a in range(model.n):
            vectors.append(model.left_multiply_base(a, w))
    return span(vectors, model.dim)


def confluence_check(
    model: FreeModel, xd_times_basis: Callable[[int], TermList]
) -> Optional[str]:
    """Compare both reduction orders of X^d * e_b; None when they agree.

    Route one folds X^d into the window first and multiplies inside the
    model; route two rewrites X^d past e_b in the unreduced ring and folds
    afterwards.  A mismatch certifies that the rewrite system is inconsistent.
    """
    xd_reduced = model.reduce_terms([(model.d, model.base.unit)])
    for b in range(model.n):
        route_one = model.multiply(xd_reduced, model.slice0(model.base.basis_element(b)))
        route_two = model.reduce_terms(xd_times_basis(b))
        if route_one != route_two:
            return f"X^{model.d} * basis {b} reduces inconsistently"
    return None


def quotient_by_relations(model: FreeModel, relations: Subspace):
    """Collapse the free model along the relation submodule.

    Returns (algebra, projection).  The relation submodule is first certified
    to absorb multiplication by every basis element on both sides (all of
    them: the free model need not be associative), so the quotient
    multiplication is well defined regardless of the section used to compute
    it.  The section here keeps the non-pivot coordinates, so the quotient's
    constants are the projected products of those free-model basis elements.
    """
    unabsorbed = _first_unabsorbed(model.sc_nonzero, relations)
    if unabsorbed is not None:
        raise AssociativityFails(f"relation submodule is not {unabsorbed[2]} absorbing")
    pivots = set(relations.pivots())
    coords = [j for j in range(model.dim) if j not in pivots]

    def project(x: Vec) -> Vec:
        residual = relations.reduce(x)
        return tuple(residual[j] for j in coords)

    sc = [[project(model.sc[i][j]) for j in coords] for i in coords]
    all_labels = model.labels()
    labels = [all_labels[j] for j in coords]
    unit = project(model.slice0(model.base.unit))
    try:
        quot = make_algebra(len(coords), sc, unit, labels)
    except (NotAssociative, UnitFails) as exc:  # pragma: no cover - internal guard
        raise AssociativityFails(str(exc)) from exc
    proj = Mat.from_columns([project(unit_vec(c, model.dim)) for c in range(model.dim)])
    return quot, proj


def _basis_orbits(base: Algebra, twist: Mat, length: int) -> list[list[Vec]]:
    """orbits[b][k] = twist^k(e_b) for k <= length, the table both grids read."""
    orbits = []
    for b in range(base.dim):
        orbit = [base.basis_element(b)]
        for _ in range(length):
            orbit.append(twist.apply(orbit[-1]))
        orbits.append(orbit)
    return orbits


def _check_annihilates(twist: Mat, p: Poly) -> None:
    """Raise AnnihilatorFails, with a witness column, unless p(twist) = 0."""
    if not p.mod(minimal_polynomial(twist)).is_zero():
        image = p.eval_matrix(twist)
        witness = next(j for j in range(twist.cols) if not is_zero_vec(image.column(j)))
        raise AnnihilatorFails(witness, image.column(witness))


def extension_embedding_injective(result: ExtensionResult) -> bool:
    """The base-to-extension map has zero kernel."""
    return kernel(result.embed).dim == 0


def free_model_as_algebra(model: FreeModel) -> Algebra:
    try:
        return make_algebra(model.dim, model.sc, model.slice0(model.base.unit), model.labels())
    except (NotAssociative, UnitFails) as exc:
        raise AssociativityFails(str(exc)) from exc


def assemble(
    base: Algebra,
    p: Poly,
    mode: str,
    monomial_product: Callable[[int, int, int, int], TermList],
    generator_polys: Callable[[FreeModel], list[TermList]],
    xd_times_basis: Callable[[int], TermList],
    force_free_model: bool = False,
) -> tuple[Algebra, Mat, Vec, FreeModel, int]:
    """Common construction path; returns (B, embed, u, model, defect_dim).

    With force_free_model the relation submodule is skipped, the raw rewrite
    grid is used directly, and any inconsistency surfaces as
    AssociativityFails.
    """
    model = FreeModel(base, p, monomial_product)
    if force_free_model:
        mismatch = confluence_check(model, xd_times_basis)
        if mismatch is not None:
            raise AssociativityFails(mismatch)
        algebra = free_model_as_algebra(model)
        proj = Mat.identity(model.dim)
        defect = 0
    else:
        relations = relation_submodule(model, generator_polys(model))
        defect = relations.dim
        if defect == 0:
            mismatch = confluence_check(model, xd_times_basis)
            if mismatch is not None:  # pragma: no cover - internal guard
                raise AssociativityFails(mismatch)
            algebra = free_model_as_algebra(model)
            proj = Mat.identity(model.dim)
        else:
            algebra, proj = quotient_by_relations(model, relations)
    embed = Mat.from_columns(
        [proj.apply(model.slice0(base.basis_element(a))) for a in range(base.dim)]
    )
    u = proj.apply(model.reduce_terms([(1, base.unit)]))
    if kernel(embed).dim != 0:
        raise SkewexError("base does not embed; construction precondition violated")
    _verify_embedding(base, algebra, embed)
    return algebra, embed, u, model, defect


def _verify_embedding(base: Algebra, ext: Algebra, embed: Mat) -> None:
    if embed.apply(base.unit) != ext.unit:
        raise SkewexError("embedding does not send unit to unit")
    for i in range(base.dim):
        for j in range(base.dim):
            lhs = embed.apply(base.sc[i][j])
            rhs = ext.multiply(
                embed.apply(base.basis_element(i)), embed.apply(base.basis_element(j))
            )
            if lhs != rhs:
                raise SkewexError("embedding is not multiplicative")


def poly_of_element(ext: Algebra, p: Poly, u: Vec) -> Vec:
    """p(u) computed inside the extension."""
    acc = zero_vec(ext.dim)
    power = ext.unit
    for c in p.coeffs:
        if c:
            acc = vec_add(acc, tuple(c * x for x in power))
        power = ext.multiply(power, u)
    return acc


def module_generation(ext: Algebra, embed: Mat, powers: list[Vec], base_dim: int) -> tuple[bool, bool]:
    """Whether {embed(e_a) * w} and {w * embed(e_a)} span the extension, for w
    over the supplied power list."""
    left, right = [], []
    for w in powers:
        for a in range(base_dim):
            img = embed.column(a)
            left.append(ext.multiply(img, w))
            right.append(ext.multiply(w, img))
    return (
        span(left, ext.dim).dim == ext.dim,
        span(right, ext.dim).dim == ext.dim,
    )
