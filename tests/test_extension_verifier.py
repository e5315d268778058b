"""verify_extension accepts the constructions' own results and rejects each
broken postcondition with its own message, from the unit law and the
associators of a table quotient_by_relations built to the realized twist.
Isomorphic copies in diagonal bases give every scale of the integer unit
and twist checks a value above 1, so that each one counts."""

from fractions import Fraction

import pytest

from free_model_oracle import integer_tables
from skewex import _extension
from skewex._extension import quotient_by_relations, relation_submodule, verify_extension
from skewex.algebra import change_of_basis, subalgebra_as_algebra, upper_triangular
from skewex.errors import AssociativityFails, SkewexError
from skewex.laurent import laurent_quotient
from skewex.linalg import Mat, Poly, _integer_row, inverse, span, vec_add, zero_vec
from skewex.maps import inner_automorphism, inner_derivation
from skewex.ore import ore_quotient
from test_relation_closure import m3_pair


def fields(result, twist):
    """The arguments verify_extension takes, read off a construction's result."""
    return dict(mode=result.mode, base=result.base, ext=result.algebra, embed=result.embed,
                u=result.u, p=result.p, twist=twist)


@pytest.fixture
def ore_fields(dual_numbers, euler):
    return fields(ore_quotient(dual_numbers, euler), euler.matrix)


@pytest.fixture
def laurent_fields(q_times_q, swap):
    return fields(laurent_quotient(q_times_q, swap), swap.matrix)


def test_constructions_pass_and_return_the_inverse(dual_numbers, euler, q_times_q, swap):
    ore = ore_quotient(dual_numbers, euler)
    assert verify_extension(**fields(ore, euler.matrix)) is ore.u_inverse is None
    laurent = laurent_quotient(q_times_q, swap)
    assert verify_extension(**fields(laurent, swap.matrix)) == laurent.u_inverse
    assert laurent.u_inverse is not None


def test_embedding_checks(ore_fields):
    embed = ore_fields["embed"]
    zeroed = Mat.from_columns([zero_vec(embed.rows)] + embed.columns()[1:])
    with pytest.raises(SkewexError, match="base does not embed"):
        verify_extension(**{**ore_fields, "embed": zeroed})
    with pytest.raises(SkewexError, match="does not send unit to unit"):
        verify_extension(**{**ore_fields, "embed": embed.scale(2)})
    # t -> t + u keeps the unit and the rank but (t + u)^2 != 0
    unit_col, t_col = embed.columns()
    moved = Mat.from_columns([unit_col, vec_add(t_col, ore_fields["u"])])
    with pytest.raises(SkewexError, match="embedding is not multiplicative"):
        verify_extension(**{**ore_fields, "embed": moved})


def test_transposed_embedding_is_not_multiplicative(m2, m3):
    """A construction's embed is the leading identity block of its table, so
    the embedding check never fires on one; swapping base columns E_ij and
    E_ji, which keeps the unit, the rank and the span of the embedded
    generators, must fail it."""
    u = m2.element([1, 2, 3, 4])
    cases = [("derivation", m2, inner_derivation(m2, u)),
             ("automorphism", m2, inner_automorphism(m2, u))]
    cases += [(mode, m3, twist) for _, mode, _, twist, _ in m3_pair(m3)]
    for mode, base, twist in cases:
        build = ore_quotient if mode == "derivation" else laurent_quotient
        f = fields(build(base, twist), twist.matrix)
        size = round(base.dim ** 0.5)
        columns = f["embed"].columns()
        transposed = Mat.from_columns([columns[j * size + i]
                                       for i in range(size) for j in range(size)])
        with pytest.raises(SkewexError, match="embedding is not multiplicative"):
            verify_extension(**{**f, "embed": transposed})


def test_shifted_witness(ore_fields, laurent_fields):
    # u^(-1) is read off p(u) = 0, so a shifted automorphism witness fails
    # there too rather than at an inverse identity
    for f in (ore_fields, laurent_fields):
        with pytest.raises(SkewexError, match=r"p\(u\) != 0"):
            verify_extension(**{**f, "u": vec_add(f["u"], f["ext"].unit)})


def test_generation_sides(ore_fields):
    # p = X and u = 0: the words in the embedded generators and u stay in
    # the embedded base, and the verifier stops there, before the twist
    degree_one = {**ore_fields, "p": Poly.of([0, 1]), "u": zero_vec(ore_fields["ext"].dim)}
    with pytest.raises(SkewexError, match="do not generate the extension"):
        verify_extension(**degree_one)
    # upper-triangular 3x3 matrices over the span of E11, E12, E22 and E33,
    # with u = E23 and p = X^2: the words reach E13 = E12 E23, while the
    # right span of the base and u misses E13.  A realized twist would make
    # the two spans equal, so the verifier stops at the twist instead: the
    # zero derivation is not u a - a u, since E23 E22 - E22 E23 = -E23
    t3 = upper_triangular(3)  # basis E11, E12, E13, E22, E23, E33
    base, inclusion = subalgebra_as_algebra(
        t3, span([t3.basis_element(k) for k in (0, 1, 3, 5)], t3.dim))
    right = span([t3.multiply(w, inclusion.column(a)) for w in (t3.unit, t3.basis_element(4))
                  for a in range(base.dim)], t3.dim)
    assert right.dim == t3.dim - 1
    with pytest.raises(SkewexError, match="does not realize the derivation"):
        verify_extension("derivation", base, t3, inclusion, t3.basis_element(4),
                         Poly.of([0, 0, 1]), Mat.zeros(base.dim, base.dim))


def test_scaled_twist(ore_fields, laurent_fields):
    with pytest.raises(SkewexError, match="does not realize the derivation"):
        verify_extension(**{**ore_fields, "twist": ore_fields["twist"].scale(2)})
    with pytest.raises(SkewexError, match="does not realize the automorphism"):
        verify_extension(**{**laurent_fields, "twist": laurent_fields["twist"].scale(2)})


def test_quotient_certificate_messages(monkeypatch, dual_numbers, euler):
    p = euler.minimal_polynomial  # X^2 - X
    xpow, beta = integer_tables("derivation", euler, p)
    relations = relation_submodule(dual_numbers, p, xpow, beta)
    assert relations.dim == 1
    window = quotient_by_relations(dual_numbers, p, xpow, beta, span([], relations.ambient_dim))
    scale, rows = xpow
    doubled = [[[(m, [(a, 2 * x) for a, x in c]) for m, c in row[0]]] + row[1:] for row in rows]
    unitless = quotient_by_relations(dual_numbers, p, (scale, doubled), beta, relations)

    def verify(quotient):
        ext, embed, u = quotient
        return verify_extension("derivation", dual_numbers, ext, embed, u, p, euler.matrix)

    # without its relation the window is not associative, and only the
    # associator at u shows it: the embedded generator alone passes, and
    # the words span, p(u) = 0 and the twist holds in the window
    with pytest.raises(AssociativityFails,
                       match=r"associativity fails on \(e2, u, e1\)$"):
        verify(window)
    with monkeypatch.context() as patch:
        patch.setattr(_extension, "_first_nonassociative_at", lambda *args: None)
        assert verify(window) is None
    # X^0 e_b = 2 e_b makes 1 (e_b X^j) = 2 e_b X^j, and the unit law is checked first
    with pytest.raises(AssociativityFails, match="unit fails against basis element 0$"):
        verify(unitless)


def diagonal(n, shift):
    """diag(2, 1/3, 1, 2, 1/3, 1, ...), n x n, its pattern started at shift."""
    cycle = (Fraction(2), Fraction(1, 3), Fraction(1))
    return Mat.from_rows([[cycle[(i + shift) % 3] if i == j else 0 for j in range(n)]
                          for i in range(n)])


def isomorphic_copy(f):
    """The fields in new bases of ext and base, the columns of the diagonal
    P and Q: change_of_basis gives both tables, and embed, u and the twist
    become P^(-1) embed Q, P^(-1) u and Q^(-1) twist Q."""
    p, q = diagonal(f["ext"].dim, 0), diagonal(f["base"].dim, 1)
    p_inverse, q_inverse = inverse(p), inverse(q)
    return {**f, "base": change_of_basis(f["base"], q), "ext": change_of_basis(f["ext"], p),
            "embed": p_inverse * f["embed"] * q, "u": p_inverse.apply(f["u"]),
            "twist": q_inverse * f["twist"] * q}


def test_isomorphic_copies_pass_and_a_flipped_twist_column_fails(m3, ore_fields, laurent_fields):
    """Each copy passes and returns P^(-1) u^(-1); every scale the unit and
    twist checks multiply by exceeds 1 in some copy, on M_3 in each."""
    cases = {"dual/euler": ore_fields, "qxq/swap": laurent_fields}
    for label, mode, base, twist, _ in m3_pair(m3):
        build = ore_quotient if mode == "derivation" else laurent_quotient
        cases[label] = fields(build(base, twist), twist.matrix)
    largest = {}
    for label, f in cases.items():
        copy = isomorphic_copy(f)
        base, ext, mode = copy["base"], copy["ext"], copy["mode"]
        u_inverse = verify_extension(**copy)
        scales = {"table": ext.integer_sc[0], "embed": copy["embed"].integer_form[0],
                  "u": _integer_row(copy["u"])[0], "twist": copy["twist"].integer_form[0],
                  "unit": _integer_row(ext.unit)[0], "base unit": _integer_row(base.unit)[0]}
        if mode == "automorphism":
            assert u_inverse == inverse(diagonal(ext.dim, 0)).apply(verify_extension(**f)), label
            scales["u_inverse"] = _integer_row(u_inverse)[0]
        if label.startswith("m3"):
            assert min(scales.values()) > 1, (label, scales)
        for name, scale in scales.items():
            largest[name] = max(largest.get(name, 1), scale)
        columns = copy["twist"].columns()
        a = next(g for g in base.generators if any(columns[g]))
        columns[a] = tuple(-x for x in columns[a])
        with pytest.raises(SkewexError, match=f"does not realize the {mode}"):
            verify_extension(**{**copy, "twist": Mat.from_columns(columns)})
    assert len(largest) == 7 and min(largest.values()) > 1, largest
