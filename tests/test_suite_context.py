"""What a SuiteContext derives, it derives once.

Each map's extension and each listed idempotent's two-sided ideal is built
once per context and read by every suite that needs it.  The reference is a
context whose memos forget everything stored in them, so each object is
derived again at every use, as the suites did before they shared them; it
draws from the same random stream, so its records must be the same.
"""

import random

import pytest

from skewex import idempotents, sampling, suites
from skewex.algebra import ideal_closure
from skewex.errors import SkewexError
from skewex.idempotents import (
    enumerate_idempotents,
    image_kernel_idempotent_report,
    ms_check,
    ms_witness_check,
    principal_ideal,
)
from skewex.linalg import Mat, column_space
from skewex.maps import AlgebraEndo
from skewex.suites import SUITE_REGISTRY, SuiteContext, run_suite


class Forgetful(dict):
    """A memo that stores nothing."""

    def __setitem__(self, key, value):
        pass


def make_ctx(algebra, seed, forgetful=False):
    memos = {"ideals": Forgetful(), "_extensions": Forgetful()} if forgetful else {}
    return SuiteContext(algebra, [], random.Random(seed), automorphism_samples=4, **memos)


def stripped(report):
    return [(r.suite, r.check, r.status, r.witness) for r in report.records]


@pytest.mark.parametrize("seed", range(6))
def test_one_context_matches_deriving_at_every_use(corpus, seed):
    names = list(SUITE_REGISTRY)
    for name, algebra in corpus.items():
        shared = run_suite(names, make_ctx(algebra, seed))
        forgetting = run_suite(names, make_ctx(algebra, seed, forgetful=True))
        assert stripped(shared) == stripped(forgetting), (name, seed)


def counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_each_map_is_extended_once(m2, monkeypatch):
    built = counting(monkeypatch, suites, "assemble")
    ctx = make_ctx(m2, 0)
    report = run_suite(list(SUITE_REGISTRY), ctx)
    assert all(r.status != "fail" for r in report.records)
    derivations, automorphisms = ctx.derivations(), ctx.automorphisms()
    assert {args[1] for args in built} == {"derivation", "automorphism"}
    assert [args[2] for args in built if args[1] == "derivation"] == derivations
    assert [args[2] for args in built if args[1] == "automorphism"] == automorphisms
    assert len(ctx._extensions) == len(derivations) + len(automorphisms)


def test_a_failed_extension_is_raised_and_recorded_again(q_times_q, swap, monkeypatch):
    calls = []

    def refuse(algebra, mode, phi):
        assert mode == "automorphism"
        calls.append(phi)
        raise SkewexError("no extension")

    monkeypatch.setattr(suites, "assemble", refuse)
    ctx = SuiteContext(q_times_q, [swap], random.Random(0), automorphism_samples=4)
    records = run_suite(["thm19_automorphism", "lemma_suite", "thm19_automorphism"], ctx).records
    autos = ctx.automorphisms()
    failed = [r for r in records if r.status == "fail"]
    assert [r.suite for r in failed] == (["thm19_automorphism"] * len(autos) + ["lemma_suite"]
                                         + ["thm19_automorphism"] * len(autos))
    assert all(r.witness == {"error": "no extension"} for r in failed)
    # lemma_suite stops at its first failed construction
    assert len(calls) == 2 * len(autos) + 1
    assert ctx._extensions == {}


def test_each_idempotent_ideal_is_built_once(m2, monkeypatch):
    built = counting(monkeypatch, idempotents, "ideal_closure")
    ctx = make_ctx(m2, 0)
    run_suite(["prop22", "prop24", "ms_oracle", "prop22"], ctx)
    items = ctx.idempotents().items
    assert len(items) == 102
    assert len(built) == len(set(items)) == len(ctx.ideals)
    assert set(ctx.ideals) == set(items)


def test_each_idempotent_power_chain_is_built_once(m2, monkeypatch):
    probes = counting(monkeypatch, suites, "_witness_probe")
    chains = counting(monkeypatch, idempotents, "_power_chain")
    ctx = make_ctx(m2, 0)
    records = run_suite(["ms_oracle"], ctx).records
    items = ctx.idempotents().items
    assert [args[2] for args in probes] == list(items)
    assert all(args[1] is ctx.ideals[args[2]] for args in probes)
    assert len(chains) == len(items)
    assert records[-1].witness == {"instances": 3 * len(items)}


@pytest.mark.parametrize("seed", range(3))
def test_membership_probes_match_one_witness_check_per_probe(corpus, seed, monkeypatch):
    """Each probe as its own ms_witness_check, drawing b then c as before,
    gives the same records and leaves the random stream in the same state."""
    for name, algebra in corpus.items():
        ctx = make_ctx(algebra, seed)
        shared = run_suite(["ms_oracle"], ctx)
        with monkeypatch.context() as patch:
            patch.setattr(suites, "_witness_probe", lambda algebra, v, a: (
                lambda b, c: ms_witness_check(algebra, v, a, b, c)))
            each_ctx = make_ctx(algebra, seed)
            each = run_suite(["ms_oracle"], each_ctx)
        assert stripped(shared) == stripped(each), (name, seed)
        assert ctx.rng.getstate() == each_ctx.rng.getstate(), (name, seed)


def test_ms_check_with_ideals_matches_without(corpus):
    checked = 0
    for name, algebra in corpus.items():
        if not algebra.is_commutative():
            continue
        idems = enumerate_idempotents(algebra)
        ideals = {}
        for e in idems.items:
            for v in (column_space(algebra.left_regular(e)), ideal_closure(algebra, [e])):
                assert ms_check(algebra, v, idems, ideals=ideals) == ms_check(algebra, v, idems)
                checked += 1
        assert ideals == {e: ideal_closure(algebra, [e]) for e in ideals}, name
    assert checked >= 20


def test_image_kernel_report_fills_the_ideals(q_times_q, swap):
    idems = enumerate_idempotents(q_times_q)
    ideals = {}
    phi = AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 0], [1, 0]]))
    for endo in (swap, phi):
        assert (image_kernel_idempotent_report(q_times_q, endo, idems, ideals)
                == image_kernel_idempotent_report(q_times_q, endo, idems))
    assert ideals and all(principal_ideal(q_times_q, e, {}) == v for e, v in ideals.items())


def test_ideals_dict_needs_the_two_sided_criterion(ut2):
    items = suites._idempotent_context(ut2)
    v = ideal_closure(ut2, [ut2.basis_element(1)])
    assert ms_check(ut2, v, items, ideals={}) == ms_check(ut2, v, items)
    for side in ("left", "right"):
        with pytest.raises(ValueError):
            ms_check(ut2, v, items, side=side, ideals={})


def test_one_derivation_space_per_run(corpus, dual_numbers, euler, monkeypatch):
    # the context's derivation basis also feeds the automorphism sampler, so
    # a run solves the product-rule system once
    solved = counting(monkeypatch, suites, "derivation_space")
    monkeypatch.setattr(sampling, "derivation_space", suites.derivation_space)
    for name, algebra in corpus.items():
        solved.clear()
        run_suite(list(SUITE_REGISTRY), make_ctx(algebra, 0))
        assert len(solved) == 1, name
    # given a derivation, the context holds it alone; the sampler solves for the space
    solved.clear()
    ctx = SuiteContext(dual_numbers, [euler], random.Random(0), automorphism_samples=4)
    run_suite(list(SUITE_REGISTRY), ctx)
    assert ctx.derivations() == [euler] and len(solved) == 1
