"""Shared machinery for realizing twisted polynomial quotients as finite algebras.

Both extension flavours (derivation twist and automorphism twist) differ in
one rule only, how X^i moves past a basis element e_b.  Each supplies it as a
table xpow[b][i], the left-normal form of X^i e_b for i <= d = deg p:
sum_k C(i, k) D^k(e_b) X^(i-k) for a derivation D (Ore 1933) and
phi^i(e_b) X^i for an automorphism phi.  Everything else is derived here from
that table: the products (e_a X^i)(e_b X^j) = sum e_a c X^(m+j) over the terms
(m, c) of xpow[b][i], folded into the window 0 <= i < d by the scalar
recursion X^d = -sum alpha_i X^i, give a multiplication grid on the free
module of rank d*n, and the table also gives the relation generators
p(X) e_b X^k.

The extension is the free module divided by the relation submodule N spanned
by the reduced generators under left multiplication.  N = 0 certifies that the
grid is consistent: the two reduction orders of X^d e_b differ by the k = 0
generator, and each k > 0 generator is that one times X^k.  The quotient,
the whole grid when N = 0, is re-verified on all basis triples, and
verify_extension checks the extension's postconditions before anything is
returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .algebra import (
    Algebra,
    _collapse,
    _first_unabsorbed,
    _integer_table,
    _multiply,
    poly_of_element,
)
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
    is_zero_vec,
    kernel,
    power_reduction_table,
    span,
    vec_add,
    vec_sub,
    zero_vec,
)

# A term list is a left-normal form: pairs (power, coefficient in the base
# algebra), powers arbitrary non-negative integers before reduction.
TermList = list[tuple[int, Vec]]
# xpow[b][i] is X^i e_b as a term list, for i <= deg p.
XPowTable = list[list[TermList]]


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


class FreeModel:
    """The rank-d free module over the base with the rewrite multiplication;
    sc and integer_sc are its grid as in algebra.Algebra."""

    def __init__(
        self,
        base: Algebra,
        p: Poly,
        monomial_product: Callable[[int, int, int, int], TermList],
    ):
        """Fold monomial_product(a, i, b, j), the left-normal form of
        (e_a X^i)(e_b X^j), into the window for every pair of grid indices."""
        self.base = base
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
        self.integer_sc = _integer_table(self.sc)

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

    def multiply(self, x: Vec, y: Vec) -> Vec:
        return _multiply(self.integer_sc, x, y)

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


def grid_product(base: Algebra, xpow: XPowTable) -> Callable[[int, int, int, int], TermList]:
    """The FreeModel callback: (e_a X^i)(e_b X^j) = sum e_a c X^(m+j) over the
    terms (m, c) of xpow[b][i]."""

    def monomial_product(a: int, i: int, b: int, j: int) -> TermList:
        ea = base.basis_element(a)
        return [(power + j, base.multiply(ea, coeff)) for power, coeff in xpow[b][i]]

    return monomial_product


def relation_generators(p: Poly, xpow: XPowTable) -> list[TermList]:
    """p(X) e_b X^k in left-normal form, for every basis element b and k < deg p."""
    out = []
    for row in xpow:
        terms = [(power, tuple(c * x for x in coeff))
                 for i, c in enumerate(p.coeffs) if c
                 for power, coeff in row[i]]
        for k in range(p.degree):
            out.append([(power + k, coeff) for power, coeff in terms])
    return out


def relation_submodule(model: FreeModel, generator_polys: list[TermList]) -> Subspace:
    """Span of the reduced relation generators under base left multiplication.

    e_a w is the grid product of e_a X^0 and w, since X^0 e_b = e_b.
    """
    base = [model.slice0(model.base.basis_element(a)) for a in range(model.n)]
    vectors = []
    for terms in generator_polys:
        w = model.reduce_terms(terms)
        if is_zero_vec(w):
            continue
        vectors.append(w)
        vectors.extend(model.multiply(e, w) for e in base)
    return span(vectors, model.dim)


def quotient_by_relations(model: FreeModel, relations: Subspace):
    """Collapse the free model along the relation submodule.

    Returns (algebra, projection); for a zero submodule these are the whole
    model, validated, and the identity.  The relation submodule is first
    certified to absorb multiplication by every basis element on both sides
    (all of them: the free model need not be associative), so the quotient
    multiplication is well defined regardless of the section used to compute
    it.
    """
    unabsorbed = _first_unabsorbed(model.integer_sc, relations)
    if unabsorbed is not None:
        raise AssociativityFails(f"relation submodule is not {unabsorbed[2]} absorbing")
    try:
        return _collapse(model.sc, model.slice0(model.base.unit), model.labels(), relations)
    except (NotAssociative, UnitFails) as exc:  # pragma: no cover - internal guard
        raise AssociativityFails(str(exc)) from exc


def _basis_orbits(base: Algebra, twist: Mat, length: int) -> list[list[Vec]]:
    """orbits[b][k] = twist^k(e_b) for k <= length, read by both xpow tables."""
    orbits = []
    for b in range(base.dim):
        orbit = [base.basis_element(b)]
        for _ in range(length):
            orbit.append(twist.apply(orbit[-1]))
        orbits.append(orbit)
    return orbits


def _check_annihilates(twist: Mat, p: Poly) -> None:
    """Raise AnnihilatorFails, with a witness column, unless p(twist) = 0."""
    image = p.eval_matrix(twist)
    if not image.is_zero():
        witness = next(j for j in range(twist.cols) if not is_zero_vec(image.column(j)))
        raise AnnihilatorFails(witness, image.column(witness))


def assemble(
    base: Algebra,
    p: Poly,
    mode: str,
    twist: Mat,
    xpow: XPowTable,
    force_free_model: bool = False,
) -> ExtensionResult:
    """Common construction path: build the extension of base that makes twist
    inner from the twist's table xpow, pass it through verify_extension and
    return it.

    With force_free_model the grid itself must be the extension, and a
    nonzero relation submodule raises AssociativityFails.
    """
    model = FreeModel(base, p, grid_product(base, xpow))
    relations = relation_submodule(model, relation_generators(p, xpow))
    if force_free_model and relations.dim:
        raise AssociativityFails(
            f"relation submodule of dimension {relations.dim}: the rewrite system is inconsistent")
    algebra, proj = quotient_by_relations(model, relations)
    # slice0(e_a) is unit vector a, so the base embeds through the first columns
    embed = Mat.from_columns([proj.column(a) for a in range(base.dim)])
    u = proj.apply(model.reduce_terms([(1, base.unit)]))
    u_inverse = verify_extension(mode, base, algebra, embed, u, p, twist)
    return ExtensionResult(
        mode, base, algebra, embed, u, u_inverse, p,
        free_module=(relations.dim == 0), defect_dim=relations.dim,
    )


def verify_extension(
    mode: str, base: Algebra, ext: Algebra, embed: Mat, u: Vec, p: Poly, twist: Mat
) -> Optional[Vec]:
    """Check the postconditions of an extension; return u^(-1), or None in the
    derivation mode.

    Raises SkewexError at the first postcondition that fails:
    - embed is injective, unital and multiplicative;
    - in the automorphism mode, u^(-1) solved from p(u) = 0 is a two-sided
      inverse of u;
    - p(u) = 0;
    - ext is generated as a left and as a right module over the embedded base
      by the powers u^i, i < deg p;
    - u embed(a) - embed(a) u (derivation mode) or u embed(a) u^(-1)
      (automorphism mode) is embed(twist(a)) for every basis element a.
    The order lets each check fail on its own: u u^(-1) = 1 - p(u)/p(0), and a
    realized twist makes the left and the right span equal.
    """
    if kernel(embed).dim != 0:
        raise SkewexError("base does not embed; construction precondition violated")
    if embed.apply(base.unit) != ext.unit:
        raise SkewexError("embedding does not send unit to unit")
    images = embed.columns()
    for i in range(base.dim):
        for j in range(base.dim):
            if embed.apply(base.sc[i][j]) != ext.multiply(images[i], images[j]):
                raise SkewexError("embedding is not multiplicative")
    powers = [ext.unit]
    for _ in range(p.degree - 1):
        powers.append(ext.multiply(powers[-1], u))
    u_inverse = None
    if mode == "automorphism":
        # divide p(u) - p(0) = u * sum_{i >= 1} alpha_i u^(i-1) by -p(0)
        acc = zero_vec(ext.dim)
        for c, power in zip(p.coeffs[1:], powers):
            acc = vec_add(acc, tuple(c * x for x in power))
        u_inverse = tuple(-x / p.coeff(0) for x in acc)
        if ext.multiply(u, u_inverse) != ext.unit or ext.multiply(u_inverse, u) != ext.unit:
            raise SkewexError("witness inverse identity failed")
    if not is_zero_vec(poly_of_element(ext, p, u)):
        raise SkewexError("p(u) != 0 in the constructed extension")
    for side in ("left", "right"):
        products = [ext.multiply(img, w) if side == "left" else ext.multiply(w, img)
                    for w in powers for img in images]
        if span(products, ext.dim).dim != ext.dim:
            raise SkewexError(
                f"extension is not generated by the witness powers as a {side} module")
    for a, img in enumerate(images):
        if mode == "derivation":
            got = vec_sub(ext.multiply(u, img), ext.multiply(img, u))
        else:
            got = ext.multiply(ext.multiply(u, img), u_inverse)
        if got != embed.apply(twist.column(a)):
            raise SkewexError(f"adjoined witness does not realize the {mode}")
    return u_inverse
