import random

import pytest

from skewex.algebra import FAIL, INCONCLUSIVE, NOT_APPLICABLE, PASS
from skewex.errors import SkewexError, UnknownSuite
from skewex.explorer import random_explorer
from skewex.linalg import Mat
from skewex.maps import AlgebraEndo, inner_derivation
from skewex.suites import (
    Report,
    CheckRecord,
    SuiteContext,
    SUITE_REGISTRY,
    _Recorder,
    run_suite,
)

ALL_SUITES = sorted(SUITE_REGISTRY)


def make_ctx(algebra, maps, seed=0):
    return SuiteContext(algebra, maps, random.Random(seed), automorphism_samples=4)


def test_registry_names():
    assert ALL_SUITES == [
        "cor25", "cor34", "lemma_suite", "ms_oracle", "prop22", "prop24",
        "thm16_audit", "thm19_automorphism", "thm19_derivation",
    ]


def test_unknown_suite(q_times_q):
    with pytest.raises(UnknownSuite):
        run_suite(["nonsense"], make_ctx(q_times_q, []))


def test_all_suites_pass_on_qxq_with_swap(q_times_q, swap):
    report = run_suite(ALL_SUITES, make_ctx(q_times_q, [swap]))
    assert all(r.status != FAIL for r in report.records)
    assert report.exit_code in (0, 3)


def test_all_suites_pass_on_m2(m2):
    d = inner_derivation(m2, m2.basis_element(1))
    report = run_suite(ALL_SUITES, make_ctx(m2, [d]))
    failures = [r for r in report.records if r.status == FAIL]
    assert failures == []


def test_suite_runs_are_deterministic(q_times_q, swap):
    first = run_suite(ALL_SUITES, make_ctx(q_times_q, [swap], seed=11))
    second = run_suite(ALL_SUITES, make_ctx(q_times_q, [swap], seed=11))
    strip = lambda rec: (rec.suite, rec.check, rec.status, rec.witness)
    assert [strip(r) for r in first.records] == [strip(r) for r in second.records]


def test_exit_codes(corpus):
    report = Report([CheckRecord("s", "c", PASS, {}, 0.0)])
    assert report.exit_code == 0
    report.records.append(CheckRecord("s", "c1", NOT_APPLICABLE, {}, 0.0))
    assert report.exit_code == 0
    report.records.append(CheckRecord("s", "c2", INCONCLUSIVE, {}, 0.0))
    assert report.exit_code == 3
    # a status outside the vocabulary no longer hides an inconclusive one
    report.records.append(CheckRecord("s", "c3", "not_applicable", {}, 0.0))
    assert report.exit_code == 3
    report.records.append(CheckRecord("s", "c4", FAIL, {}, 0.0))
    assert report.exit_code == 1

    # every status the suites and the explorer emit is in the vocabulary
    statuses = set()
    for algebra in corpus.values():
        statuses |= {r.status for r in run_suite(ALL_SUITES, make_ctx(algebra, [])).records}
    statuses |= {r.status for r in random_explorer(7, 5, 4).records}
    assert statuses <= {PASS, FAIL, INCONCLUSIVE, NOT_APPLICABLE}
    assert {PASS, INCONCLUSIVE, NOT_APPLICABLE} <= statuses


def test_recorder_keeps_running_after_a_stray_exception():
    def divide():
        return PASS, {"value": 1 / 0}

    def library_error():
        raise SkewexError("rejected input")

    rec = _Recorder("robust")
    rec.run("first", lambda: (PASS, {}))
    rec.run("divide", divide)
    rec.run("library_error", library_error)
    rec.run("last", lambda: (PASS, {"after": True}))
    assert [(r.check, r.status) for r in rec.records] == [
        ("first", PASS), ("divide", FAIL), ("library_error", FAIL), ("last", PASS)]
    witness = rec.records[1].witness
    assert witness["exception"] == "ZeroDivisionError"
    assert witness["error"] == "division by zero"
    assert witness["raised_at"].startswith("test_suites.py:")
    assert witness["raised_at"].endswith(" in divide")
    assert rec.records[2].witness == {"error": "rejected input"}
    assert rec.records[3].witness == {"after": True}
    assert Report(rec.records).exit_code == 1


def test_recorder_lets_interrupts_through():
    def interrupted():
        raise KeyboardInterrupt

    rec = _Recorder("robust")
    with pytest.raises(KeyboardInterrupt):
        rec.run("interrupted", interrupted)
    assert rec.records == []


def test_prop22_finds_consistency_on_projection(q_times_q):
    proj = AlgebraEndo.certify(q_times_q, Mat.from_rows([[1, 0], [1, 0]]))
    report = run_suite(["prop22", "prop24"], make_ctx(q_times_q, [proj]))
    assert all(r.status == PASS for r in report.records)


def test_suites_handle_one_dimensional_algebra():
    from skewex.algebra import poly_quotient
    from skewex.linalg import Poly

    scalars = poly_quotient(Poly.of([0, 1]))
    report = run_suite(ALL_SUITES, make_ctx(scalars, []))
    assert all(r.status != FAIL for r in report.records)
