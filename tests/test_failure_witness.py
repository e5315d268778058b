"""A failing per-map check carries a replay witness: the algebra and the
offending map, which load back to the same table and matrix.

Certified maps on a genuine idempotent list never fail these checks, so the
list is doctored.  On Q x Q, (1, -1) is no idempotent, but it lies in the
image of I - swap and outside swap's kernel chain: that breaks the
image/kernel biconditional (prop22 and the explorer) and the idempotent
criterion of an ms space (prop24).  The image audits (thm16_audit, cor25)
are decided by the trace certificate first, and it holds for every
certified map, since the image of a derivation or of I - phi has trace
zero; the certificate is switched off to reach their failure branch.
"""

import random
import re

import pytest

from skewex import explorer, suites
from skewex.algebra import FAIL
from skewex.idempotents import IdempotentSet, image_kernel_idempotent_report
from skewex.serialize import algebra_from_json, certified_map_from_json
from skewex.suites import SuiteContext, run_suite

AUDIT_KEYS = ["map", "trace_certificate", "findings", "algebra", "offending_map"]
WITNESS_KEYS = {
    "prop22": ["map_index", "idempotents_checked", "complete", "algebra", "offending_map"],
    "prop24": ["map_index", "verdict", "witness_idempotent", "algebra", "offending_map"],
    "thm16_audit": AUDIT_KEYS,
    "cor25": AUDIT_KEYS,
}


def doctored(genuine: IdempotentSet, extra) -> IdempotentSet:
    """The genuine list with the vectors of extra appended, declared complete."""
    extra = tuple(extra)
    return IdempotentSet(genuine.items + extra, True, None,
                         genuine.provenance + ("doctored",) * len(extra))


def replayed(witness):
    """The algebra and the certified map a failing record names."""
    algebra = algebra_from_json(witness["algebra"])
    return algebra, certified_map_from_json(algebra, witness["offending_map"], None,
                                            "offending_map")


def test_suite_failures_carry_the_algebra_and_the_offending_map(monkeypatch, q_times_q, swap):
    monkeypatch.setattr(suites, "image_trace_certificate", lambda algebra, m: False)
    ctx = SuiteContext(q_times_q, [swap], random.Random(0))
    ctx._idempotents = doctored(suites._idempotent_context(q_times_q), [(1, -1)])
    records = run_suite(list(WITNESS_KEYS), ctx).records
    for suite, keys in WITNESS_KEYS.items():
        failed = [r for r in records if r.suite == suite and r.status == FAIL]
        assert failed, suite
        for r in failed:
            assert list(r.witness) == keys, (suite, r.check)
            algebra, the_map = replayed(r.witness)
            assert algebra.integer_sc == q_times_q.integer_sc and algebra.unit == q_times_q.unit
            if "map_index" in r.witness:
                expected = ctx.endomorphisms()[r.witness["map_index"]]
            else:
                # one_minus_automorphism[idx] or finite_order[idx,order=m]
                idx = int(re.search(r"\[(\d+)", r.witness["map"]).group(1))
                expected = ctx.automorphisms()[idx]
            assert the_map.matrix == expected.matrix, (suite, r.check)


def test_explorer_failures_carry_the_algebra_and_the_offending_map(monkeypatch):
    genuine = suites._idempotent_context
    seen = {}

    def with_basis(algebra):
        seen[algebra.integer_sc] = algebra
        return doctored(genuine(algebra), [algebra.basis_element(i) for i in range(algebra.dim)])

    monkeypatch.setattr(explorer, "_idempotent_context", with_basis)
    # trial 0 of seed 0 is Q[t]/(t^2 - 1), whose automorphism t -> -t has
    # the basis vector t in the image of I - phi
    failed = [r for r in explorer.random_explorer(0, 1, 2).records if r.status == FAIL]
    assert [r.check for r in failed] == ["image_kernel_biconditional[1]",
                                         "image_kernel_biconditional[3]"]
    for r in failed:
        assert list(r.witness) == ["map_index", "complete", "algebra", "offending_map"]
        algebra, phi = replayed(r.witness)
        assert algebra.integer_sc in seen and algebra.unit == seen[algebra.integer_sc].unit
        # the witness replays the failure
        report = image_kernel_idempotent_report(algebra, phi, with_basis(algebra))
        assert not (report.consistent and report.ideal_contained)


@pytest.mark.parametrize("suite", ["prop22", "prop24"])
def test_a_genuine_list_passes_where_the_doctored_one_fails(q_times_q, swap, suite):
    ctx = SuiteContext(q_times_q, [swap], random.Random(0))
    assert {r.status for r in run_suite([suite], ctx).records} == {"pass"}
