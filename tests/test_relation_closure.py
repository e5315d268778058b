"""The relation closure and the kept-cell quotient against the dense free model.

skewex._extension closes the n generators p(X) e_b under left multiplication
by the base and right multiplication by X, and forms only the products of the
coordinates the relation submodule keeps.  free_model_oracle keeps the dense
grid, the span of every reduced p(X) e_b X^k with its left multiples, and the
quotient that first checks absorption.  Both routes must give the same
submodule and the same extension.  Then the closure is broken on purpose, in
two ways, and the universal-property certificate must reject every result
the breakage changes.  The central-simple route, which writes M_2 and M_3
extensions in the tensor basis e_a (x) Y^j, is turned off in every test
that compares with the closure's basis (closure_only).
"""

import random
from fractions import Fraction

import pytest

from free_model_oracle import fraction_xpow, integer_tables, oracle_extension, oracle_relations
from skewex import _extension
from skewex.errors import AssociativityFails, SkewexError
from skewex.linalg import Mat, span, unit_vec
from skewex.maps import inner_automorphism, inner_derivation
from test_extension_fuzz import U0, V0, random_extension_inputs
from test_relation_certificate import build, closure_only, twist_cases

# the minimal polynomial X^3 - 3X^2 + 2X of the Euler derivation t d/dt of
# Q[t]/(t^3), the first element of its derivation basis
JET2_EULER = tuple(map(Fraction, (0, 2, -3, 1)))

FIELDS = ("mode", "embed", "u", "u_inverse", "p", "free_module", "defect_dim")


def m3_pair(m3):
    """(label, mode, algebra, twist, p) for ad_U0 and conj_V0 on M_3."""
    def flat(m):
        return m3.element([m[i][j] for i in range(3) for j in range(3)])

    for mode, twist in (("derivation", inner_derivation(m3, flat(U0))),
                        ("automorphism", inner_automorphism(m3, flat(V0)))):
        yield f"m3/{mode}", mode, m3, twist, twist.minimal_polynomial


def annihilating_corpus_cases(corpus):
    for case in twist_cases(corpus):
        if case[4].eval_matrix(case[3].matrix).is_zero():
            yield case


def fuzz_cases():
    for index, (mode, algebra, twist) in enumerate(random_extension_inputs()):
        yield f"fuzz[{index}]/{mode}", mode, algebra, twist, twist.minimal_polynomial


def assert_same_extension(result, expected, label):
    for field in FIELDS:
        assert getattr(result, field) == getattr(expected, field), (label, field)
    assert result.base is expected.base, label
    for attr in ("sc", "unit", "labels"):
        assert getattr(result.algebra, attr) == getattr(expected.algebra, attr), (label, attr)


def test_closure_and_kept_cells_match_the_free_model(monkeypatch, corpus, m3):
    closure_only(monkeypatch)
    counts = {}
    for source, cases in (("corpus", annihilating_corpus_cases(corpus)),
                          ("fuzz", fuzz_cases()), ("m3", m3_pair(m3))):
        for label, mode, algebra, twist, p in cases:
            xpow = fraction_xpow(mode, algebra, twist, p)
            relations, expected = oracle_extension(algebra, p, mode, twist.matrix, xpow)
            assert _extension.relation_submodule(algebra, p, *integer_tables(mode, twist, p)) \
                == relations, label
            assert_same_extension(build(mode, algebra, twist, p), expected, label)
            counts[source] = counts.get(source, 0) + 1
    assert counts == {"corpus": 127, "fuzz": 54, "m3": 2}


def test_forced_free_model_raises_exactly_where_the_relations_are_nonzero(corpus, m3):
    raised = passed = 0
    for label, mode, algebra, twist, p in [*twist_cases(corpus), *fuzz_cases(), *m3_pair(m3)]:
        relations = oracle_relations(algebra, p, fraction_xpow(mode, algebra, twist, p))
        if relations.dim:
            with pytest.raises(AssociativityFails) as caught:
                build(mode, algebra, twist, p, _skip_annihilator_check=True)
            assert str(caught.value) == str(AssociativityFails(
                f"relation submodule of dimension {relations.dim}: "
                "the rewrite system is inconsistent")), label
            raised += 1
        else:
            forced = build(mode, algebra, twist, p, _skip_annihilator_check=True)
            assert forced.free_module and forced.algebra.dim == p.degree * algebra.dim, label
            passed += 1
    assert raised >= 20 and passed >= 20, (raised, passed)


# -- mutations: a relation submodule that misses vectors ---------------------

def mutation_cases(corpus, m3):
    """The corpus and M_3 pair cases with their true relation submodule and
    extension."""
    for label, mode, algebra, twist, p in [*annihilating_corpus_cases(corpus), *m3_pair(m3)]:
        yield label, mode, algebra, twist, p, build(mode, algebra, twist, p)


def assert_rejected_or_unchanged(monkeypatch, corpus, m3, mutate):
    """Build every mutation case with relation_submodule replaced by
    mutate(real relation_submodule); a changed submodule must raise a
    SkewexError, an unchanged one give the same extension.  Returns the
    (label, error) of every case that raised.  The central-simple route,
    which builds M_2 and M_3 extensions with no relation submodule, is
    turned off first, for the expected extensions too, so that every case
    goes through the closure."""
    closure_only(monkeypatch)
    real = _extension.relation_submodule
    errors = []
    for label, mode, algebra, twist, p, expected in mutation_cases(corpus, m3):
        with monkeypatch.context() as patch:
            mutated = mutate(real, patch)
            patch.setattr(_extension, "relation_submodule", mutated)
            if mutated(algebra, p, *integer_tables(mode, twist, p)).dim == expected.defect_dim:
                assert_same_extension(build(mode, algebra, twist, p), expected, label)
                continue
            with pytest.raises(SkewexError) as caught:
                build(mode, algebra, twist, p)
            errors.append((label, caught.value))
    return errors


def test_certificate_rejects_the_closure_without_x(monkeypatch, corpus, m3):
    def mutate(real, patch):
        patch.setattr(_extension, "_close_under_x", lambda relations, beta, n: relations)
        return real

    errors = assert_rejected_or_unchanged(monkeypatch, corpus, m3, mutate)
    # the left multiples alone usually span N already, but not always
    assert errors, "the mutation never shrank the relation submodule"
    assert {type(error) for _, error in errors} == {AssociativityFails}, errors


def test_certificate_rejects_a_dropped_relation_row(monkeypatch, corpus, m3):
    rng = random.Random(1103)

    def mutate(real, patch):
        def dropped(base, p, xpow, beta):
            relations = real(base, p, xpow, beta)
            if not relations.dim:
                return relations
            drop = rng.randrange(relations.dim)
            return span([v for i, v in enumerate(relations.basis) if i != drop],
                        relations.ambient_dim)
        return dropped

    errors = assert_rejected_or_unchanged(monkeypatch, corpus, m3, mutate)
    assert len(errors) >= 40, errors
    # the associators reject the table, except where embed(G) and u no longer
    # generate it, which the word span checks first
    unspanned = {label for label, error in errors if type(error) is SkewexError}
    assert unspanned == {f"jet2/derivation[0]/{JET2_EULER}", "m3/derivation",
                         "m3/automorphism"}, errors
    for label, error in errors:
        if label in unspanned:
            assert "do not generate the extension" in str(error), label
        else:
            assert type(error) is AssociativityFails, (label, error)
            assert "associativity fails on" in str(error), label


# -- the section: the low powers of X, the base leading ----------------------

def window_labels(base, degree):
    """The labels of the e_a X^i, i < degree, in ascending (power, base index)."""
    labels = list(base.labels)
    for i in range(1, degree):
        power = "X" if i == 1 else f"X^{i}"
        labels += [power if lab == "1" else f"{lab}*{power}" for lab in base.labels]
    return labels


def test_extension_keeps_the_low_powers_with_the_base_leading(monkeypatch, corpus, m3):
    """The relations pivot on the highest powers of X, so the extension keeps
    the whole X^0 block: embed is the leading identity block, the labels
    start with the base's, and the kept cells ascend in (power, base index)."""
    closure_only(monkeypatch)
    count = 0
    for label, mode, algebra, twist, p in [*annihilating_corpus_cases(corpus), *fuzz_cases(),
                                           *m3_pair(m3)]:
        result = build(mode, algebra, twist, p)
        n, dim = algebra.dim, result.algebra.dim
        assert result.embed == Mat.from_columns([unit_vec(a, dim) for a in range(n)]), label
        labels = list(result.algebra.labels)
        assert labels[:n] == list(algebra.labels), label
        window = window_labels(algebra, p.degree)
        positions = [window.index(lab) for lab in labels]
        assert positions == sorted(set(positions)), label
        count += 1
    assert count == 127 + 54 + 2
