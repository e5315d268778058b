"""Named check suites composing the library's operations into audits.

Each suite takes the loaded algebra, any certified maps, and a seeded RNG,
and emits one record per check.  Suites add no mathematics of their own;
they only orchestrate module operations and collect witnesses.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Optional

from ._extension import ExtensionResult, assemble
from .algebra import FAIL, INCONCLUSIVE, NOT_APPLICABLE, PASS
from .algebra import Algebra, matrix_algebra
from .errors import SkewexError, UnknownSuite, ValidationError
from .idempotents import (
    IdempotentSet,
    _difference_image,
    _memberships,
    _witness_probe,
    enumerate_idempotents,
    image_idempotent_audit,
    image_kernel_idempotent_report,
    image_trace_certificate,
    ms_check,
    principal_ideal,
    rank_one_idempotent_grid,
    trace_rank_idempotent,
    NOT_MS,
)
from .laurent import LaurentSkewPoly, coefficient_sum_membership, conjugate_by_x, laurent_mul
from .linalg import Mat, Poly, Subspace, Vec, rat
from .maps import (
    AlgebraEndo,
    Derivation,
    EDerivation,
    LinearEndo,
    automorphism_order,
    derivation_space,
    kernel_chain,
    kernel_chain_preimage,
)
from .ore import (
    SkewPoly,
    commutator_power,
    constant_term_identity,
    constant_terms,
    ideal_constant_term,
    simple_image_check,
)
from .sampling import random_element, sample_automorphisms
from .serialize import algebra_to_json, map_to_json, vector_to_json


@dataclass
class CheckRecord:
    suite: str
    check: str
    status: str
    witness: dict
    elapsed_ms: float

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "check": self.check,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
        }


@dataclass
class Report:
    records: list[CheckRecord] = field(default_factory=list)

    def extend(self, records) -> None:
        self.records.extend(records)

    @property
    def exit_code(self) -> int:
        statuses = {r.status for r in self.records}
        if FAIL in statuses:
            return 1
        return 3 if INCONCLUSIVE in statuses else 0

    def counts(self) -> dict:
        out: dict[str, int] = {}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out


@dataclass
class SuiteContext:
    """The algebra, its maps and the seeded RNG the suites share, with every
    object they derive from them built once: the derivation basis, the
    automorphism sample, the idempotent list, each idempotent's two-sided
    ideal and each map's extension.  Nothing is cached outside a context."""

    algebra: Algebra
    maps: list[LinearEndo]
    rng: random.Random
    automorphism_samples: int = 10
    _derivations: Optional[list[Derivation]] = None
    _automorphisms: Optional[list[AlgebraEndo]] = None
    _idempotents: Optional[IdempotentSet] = None
    # two-sided ideal of each listed idempotent, filled by ms_check and
    # image_kernel_idempotent_report as they go
    ideals: dict[Vec, Subspace] = field(default_factory=dict)
    # id(map) -> (map, extension); holding the map keeps its id unique
    _extensions: dict[int, tuple[LinearEndo, ExtensionResult]] = field(default_factory=dict)

    def derivations(self) -> list[Derivation]:
        if self._derivations is None:
            given = [m for m in self.maps if isinstance(m, Derivation)]
            self._derivations = given or derivation_space(self.algebra)
        return self._derivations

    def idempotents(self) -> IdempotentSet:
        if self._idempotents is None:
            self._idempotents = _idempotent_context(self.algebra)
        return self._idempotents

    def extension(self, twist: LinearEndo) -> ExtensionResult:
        """The extension that makes a derivation or an automorphism inner,
        built once per map object.  Only a success is kept, so a SkewexError
        is raised again on every call."""
        entry = self._extensions.get(id(twist))
        if entry is None:
            mode = "derivation" if isinstance(twist, Derivation) else "automorphism"
            entry = self._extensions[id(twist)] = (twist, assemble(self.algebra, mode, twist))
        return entry[1]

    def endomorphisms(self) -> list[AlgebraEndo]:
        out = [m for m in self.maps if isinstance(m, AlgebraEndo)]
        for m in self.maps:
            if isinstance(m, EDerivation):
                out.append(m.phi)
        return out

    def automorphisms(self) -> list[AlgebraEndo]:
        if self._automorphisms is None:
            given = [m for m in self.endomorphisms() if m.is_invertible()]
            # derivations() is the whole derivation space unless maps gave some
            whole = not any(isinstance(m, Derivation) for m in self.maps)
            sampled = sample_automorphisms(self.algebra, self.rng, self.automorphism_samples,
                                           derivations=self.derivations() if whole else None)
            seen = set()
            out = []
            for endo in given + sampled:
                if endo.matrix not in seen:
                    seen.add(endo.matrix)
                    out.append(endo)
            self._automorphisms = out
        return self._automorphisms


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.records: list[CheckRecord] = []
        self.started = time.perf_counter()  # the start of the set-up, for its record

    def add(self, check: str, status: str, witness: dict, started: float) -> None:
        elapsed = (time.perf_counter() - started) * 1000.0
        self.records.append(CheckRecord(self.suite, check, status, witness, elapsed))

    def run(self, check: str, fn: Callable[[], tuple[str, dict]]) -> None:
        """Record fn's verdict, or a failed record if it raises, so that the
        run goes on and the records gathered so far are kept."""
        started = time.perf_counter()
        try:
            status, witness = fn()
        except Exception as exc:
            status, witness = FAIL, _fault_witness(exc)
        self.add(check, status, witness, started)


def _fault_witness(exc: Exception) -> dict:
    """The witness of a check that raised: a SkewexError's message, or for
    any other exception, a fault of the program, its message, type and
    raising line.  A ValidationError, an invalid setting, is raised again."""
    if isinstance(exc, ValidationError):
        raise exc
    if isinstance(exc, SkewexError):
        return {"error": str(exc)}
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    return {"error": str(exc), "exception": type(exc).__name__,
            "raised_at": f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"}


@cache
def _matrix_sc(n: int):
    """The integer structure constants of M_n in its matrix-unit basis, built once per n."""
    return matrix_algebra(n).integer_sc


def _matrix_size(algebra: Algebra) -> Optional[int]:
    """n when the algebra is M_n in its matrix-unit basis, else None; another
    basis of M_n is not recognised."""
    root = round(algebra.dim ** 0.5)
    if root < 2 or root * root != algebra.dim:
        return None
    return root if algebra.integer_sc == _matrix_sc(root) else None


def _idempotent_context(algebra: Algebra) -> IdempotentSet:
    if algebra.is_commutative():
        return enumerate_idempotents(algebra)
    size = _matrix_size(algebra)
    if size is not None:
        return _matrix_idempotents(size)
    return _partial_idempotents(algebra.unit, ())


def _partial_idempotents(unit: Vec, grid: tuple[Vec, ...]) -> IdempotentSet:
    """0, the unit and the grid, a partial list of idempotents."""
    return IdempotentSet((tuple(0 * x for x in unit), unit) + grid, False,
                         "noncommutative: enumeration is partial",
                         ("sum", "sum") + ("grid",) * len(grid))


@cache
def _matrix_idempotents(size: int) -> IdempotentSet:
    """_partial_idempotents of M_size in its matrix-unit basis, whose unit is
    sum_i E_ii, with the rank-one grid; built once per size with the items'
    integer rows."""
    unit = tuple(rat(int(i == j)) for i in range(size) for j in range(size))
    return _partial_idempotents(unit, rank_one_idempotent_grid(size))


def _per_map(rec: _Recorder, check: str, keyed: list, body: Callable[..., tuple[str, dict]],
             none_note: Optional[str] = None) -> None:
    """Record body(key, m) as check[key] for each (key, m) of keyed; when
    keyed is empty and a none_note is given, one not-applicable check[none]
    record instead."""
    for key, m in keyed:
        rec.run(f"{check}[{key}]", lambda key=key, m=m: body(key, m))
    if not keyed and none_note:
        rec.add(f"{check}[none]", NOT_APPLICABLE, {"note": none_note}, time.perf_counter())


def _failure(algebra: Algebra, m: LinearEndo, witness: dict) -> tuple[str, dict]:
    """A failed verdict whose witness replays: the algebra and the offending map."""
    witness["algebra"] = algebra_to_json(algebra)
    witness["offending_map"] = map_to_json(m, "derivation" if isinstance(m, Derivation)
                                           else "endomorphism")
    return FAIL, witness


def _image_audit(algebra: Algebra, idems: IdempotentSet, label: str, m: LinearEndo
                 ) -> tuple[str, dict]:
    """Thm 16 on one map: no nonzero idempotent in the image of a derivation,
    or of I - phi for an endomorphism phi."""
    matrix = m.matrix if isinstance(m, Derivation) else Mat.identity(algebra.dim) - m.matrix
    # A trace-zero image holds no nonzero idempotent, since an idempotent's
    # regular trace is its rank: the certificate alone decides a clean audit,
    # and a partial idempotent list never downgrades it.
    if image_trace_certificate(algebra, matrix):
        return PASS, {"map": label, "trace_certificate": True}
    findings = image_idempotent_audit(algebra, LinearEndo(algebra, matrix), idems)
    return _failure(algebra, m, {"map": label, "trace_certificate": False,
                                 "findings": [vector_to_json(e) for e in findings]})


def _audit_derivations_and_automorphisms(
    rec: _Recorder, algebra: Algebra, idems: IdempotentSet,
    derivations: list[Derivation], automorphisms: list[AlgebraEndo],
) -> None:
    """Audit the image of every derivation d and of every I - phi."""
    keyed = ([(f"derivation[{idx}]", d) for idx, d in enumerate(derivations)]
             + [(f"one_minus_automorphism[{idx}]", phi) for idx, phi in enumerate(automorphisms)])
    _per_map(rec, "image_audit", keyed, partial(_image_audit, algebra, idems))


def _biconditional(algebra: Algebra, idems: IdempotentSet, ideals: dict[Vec, Subspace],
                   phi: AlgebraEndo, witness: dict) -> tuple[str, dict]:
    """Prop 22 on one endomorphism, as image_kernel_idempotent_report decides
    it; witness holds the record's keys before the verdict's."""
    report = image_kernel_idempotent_report(algebra, phi, idems, ideals)
    if not (report.consistent and report.ideal_contained):
        return _failure(algebra, phi, witness)
    return (PASS if idems.complete else INCONCLUSIVE), witness


def _inner_extension(ctx: SuiteContext, idx: int, m: LinearEndo) -> tuple[str, dict]:
    """Thm 19 on one map: its extension, and for a derivation D whether every
    commutator [u, embed(a)] = embed(D(a)) has trace zero in it."""
    result = ctx.extension(m)
    ext = result.algebra
    witness = {
        "map_index": idx,
        "relation_degree": result.p.degree,
        "extension_dim": ext.dim,
        "free_module": result.free_module,
        "defect_dim": result.defect_dim,
    }
    if not isinstance(m, Derivation):
        return PASS, witness
    witness["commutator_traces_zero"] = all(
        ext.trace_of(result.embed.apply(m.matrix.apply(ctx.algebra.basis_element(a)))) == 0
        for a in range(ctx.algebra.dim))
    return (PASS if witness["commutator_traces_zero"] else FAIL), witness


def suite_thm19_derivation(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("thm19_derivation")
    _per_map(rec, "inner_extension", list(enumerate(ctx.derivations())),
             partial(_inner_extension, ctx), "the derivation space is zero")
    return rec.records


def suite_thm19_automorphism(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("thm19_automorphism")
    _per_map(rec, "inner_extension", list(enumerate(ctx.automorphisms())),
             partial(_inner_extension, ctx), "no automorphisms available")
    return rec.records


def suite_thm16_audit(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("thm16_audit")
    _audit_derivations_and_automorphisms(
        rec, ctx.algebra, ctx.idempotents(),
        ctx.derivations(), ctx.automorphisms())
    return rec.records


def suite_prop22(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("prop22")
    idems = ctx.idempotents()

    def check(idx: int, phi: AlgebraEndo) -> tuple[str, dict]:
        return _biconditional(ctx.algebra, idems, ctx.ideals, phi, {
            "map_index": idx, "idempotents_checked": len(idems.items),
            "complete": idems.complete})

    _per_map(rec, "image_kernel_biconditional",
             list(enumerate(ctx.endomorphisms() or ctx.automorphisms())), check)
    return rec.records


def suite_prop24(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("prop24")
    idems = ctx.idempotents()

    def check(idx: int, phi: AlgebraEndo) -> tuple[str, dict]:
        verdict = ms_check(ctx.algebra, _difference_image(phi.matrix), idems,
                           ideals=ctx.ideals)
        witness = {"map_index": idx, "verdict": verdict.status}
        if verdict.status == NOT_MS:
            witness["witness_idempotent"] = vector_to_json(verdict.witness)
            return _failure(ctx.algebra, phi, witness)
        return (PASS if idems.complete else INCONCLUSIVE), witness

    _per_map(rec, "difference_image_is_ms",
             list(enumerate(ctx.endomorphisms() or ctx.automorphisms())), check)
    return rec.records


def suite_cor25(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("cor25")
    idems = ctx.idempotents()
    finite = [(f"finite_order[{idx},order={order}]", phi)
              for idx, phi in enumerate(ctx.automorphisms())
              if (order := automorphism_order(phi)) is not None]
    # the audits are image_audit[finite_order[...]] records; with none, the
    # one not-applicable record is finite_order[none]
    _per_map(rec, "image_audit" if finite else "finite_order", finite,
             partial(_image_audit, ctx.algebra, idems),
             "no finite-order automorphism in the sample")
    return rec.records


def suite_cor34(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("cor34")

    def check(idx: int, d: Derivation) -> tuple[str, dict]:
        report = simple_image_check(ctx.algebra, d)
        witness = {
            "map_index": idx,
            "left_full": report.left_full,
            "right_full": report.right_full,
            "simple": report.simple,
            "nonzero": report.nonzero,
        }
        if not report.applicable:
            return NOT_APPLICABLE, witness
        return (PASS if report.left_full and report.right_full else FAIL), witness

    _per_map(rec, "image_spans", list(enumerate(ctx.derivations())), check, "no derivations")
    return rec.records


def suite_lemma(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("lemma_suite")
    algebra = ctx.algebra
    rng = ctx.rng
    derivations = [d for d in ctx.derivations() if not d.matrix.is_zero()]

    def binomial_commutators() -> tuple[str, dict]:
        checked = 0
        for d in derivations[:3]:
            for n in range(7):
                a = random_element(algebra, rng)
                commutator_power(n, a, d)
                checked += 1
        return PASS, {"instances": checked}

    rec.run("binomial_commutator", binomial_commutators)

    def constant_term_checks() -> tuple[str, dict]:
        checked = 0
        for d in derivations[:3]:
            for _ in range(10):
                q = Poly.of([rat(rng.randint(-3, 3)) for _ in range(rng.randint(1, 6))])
                if q.is_zero():
                    q = Poly.one()
                b = random_element(algebra, rng)
                constant_term_identity(q, b, d)
                report = ideal_constant_term(q, b, rng.randint(0, 2), rng.randint(0, 2), d)
                if not report.member:
                    return FAIL, {"value": vector_to_json(report.value)}
                checked += 1
        return PASS, {"instances": checked}

    rec.run("scalar_poly_constant_term", constant_term_checks)

    def round_trip() -> tuple[str, dict]:
        checked = 0
        for d in derivations[:3]:
            for _ in range(5):
                coeffs = [random_element(algebra, rng) for _ in range(rng.randint(1, 4))]
                f = SkewPoly.of(algebra, coeffs)
                constant_terms(f, d)
                checked += 1
        return PASS, {"instances": checked}

    rec.run("left_right_round_trip", round_trip)

    def preimages() -> tuple[str, dict]:
        checked = 0
        for phi in ctx.endomorphisms():
            chain, _ = kernel_chain(phi)
            for a in chain.basis:
                b = kernel_chain_preimage(phi, a)
                checked += 1
                _ = b
        return PASS, {"instances": checked}

    rec.run("kernel_chain_preimage", preimages)

    def coefficient_sums() -> tuple[str, dict]:
        checked = 0
        for phi in ctx.automorphisms()[:4]:
            for _ in range(5):
                terms = [(rng.randint(-2, 2), rat(rng.randint(-2, 2))) for _ in range(3)]
                b = random_element(algebra, rng)
                c = random_element(algebra, rng)
                report = coefficient_sum_membership(
                    terms, b, c, rng.randint(-2, 2), rng.randint(-2, 2), phi
                )
                if not report.member:
                    return FAIL, {"value": vector_to_json(report.value)}
                checked += 1
        return PASS, {"instances": checked}

    rec.run("coefficient_sum_membership", coefficient_sums)

    def conjugation_coherence() -> tuple[str, dict]:
        checked = 0
        # X^k, X^-k and each basis constant, built once and shared by every phi
        powers = {k: (LaurentSkewPoly.x(algebra, k), LaurentSkewPoly.x(algebra, -k))
                  for k in range(-4, 5)}
        basis = [algebra.basis_element(a_idx) for a_idx in range(algebra.dim)]
        constants = [LaurentSkewPoly.constant(algebra, a) for a in basis]
        for phi in ctx.automorphisms()[:4]:
            for k, (xk, xmk) in powers.items():
                for a_idx, (a, constant) in enumerate(zip(basis, constants)):
                    lhs = laurent_mul(laurent_mul(xk, constant, phi), xmk, phi)
                    expected = LaurentSkewPoly.constant(algebra, conjugate_by_x(a, k, phi))
                    if lhs != expected:
                        return FAIL, {"k": k, "basis": a_idx}
                    checked += 1
        return PASS, {"instances": checked}

    rec.run("conjugation_coherence", conjugation_coherence)

    def embeddings() -> tuple[str, dict]:
        def by_degree(maps):
            return sorted(maps, key=lambda m: m.minimal_polynomial.degree)

        checked = 0
        # each construction verifies its extension, or raises SkewexError
        for d in by_degree(derivations)[:2]:
            ctx.extension(d)
            checked += 1
        for phi in by_degree(ctx.automorphisms())[:2]:
            ctx.extension(phi)
            checked += 1
        return PASS, {"instances": checked}

    rec.run("extension_embeddings", embeddings)
    return rec.records


def suite_ms_oracle(ctx: SuiteContext) -> list[CheckRecord]:
    rec = _Recorder("ms_oracle")
    algebra = ctx.algebra
    idems = ctx.idempotents()
    closures = {e: principal_ideal(algebra, e, ctx.ideals) for e in idems.items}

    def enumeration() -> tuple[str, dict]:
        witness = {
            "count": len(idems.items),
            "complete": idems.complete,
            "reason": idems.inconclusive_reason,
        }
        for e in idems.items:
            tr = trace_rank_idempotent(algebra, e)
            if not tr.equal:
                witness["offender"] = vector_to_json(e)
                return FAIL, witness
        if not idems.complete:
            return INCONCLUSIVE, witness
        return PASS, witness

    rec.run("enumeration_and_trace_rank", enumeration)

    def ideals_are_ms() -> tuple[str, dict]:
        # the idempotent criterion over the cached closures; distinct closure
        # values are few (two on a simple algebra), so group by them
        checked = 0
        for v in dict.fromkeys(closures.values()):
            # every closure lies in the whole algebra
            if v.dim < algebra.dim:
                for f, inside in zip(idems.items, _memberships(v, idems)):
                    if inside and not closures[f].is_subspace_of(v):
                        return FAIL, {"idempotent": vector_to_json(f)}
            checked += 1
        return (PASS if idems.complete else INCONCLUSIVE), {"distinct_ideals": checked}

    rec.run("principal_ideals_are_ms", ideals_are_ms)

    def witness_probes() -> tuple[str, dict]:
        checked = 0
        for e in idems.items:
            # a = e in every probe: its powers and their tail are built once
            probe = _witness_probe(algebra, closures[e], e)
            for _ in range(3):
                b = random_element(algebra, ctx.rng)
                c = random_element(algebra, ctx.rng)
                if probe(b, c) == FAIL:
                    return FAIL, {"idempotent": vector_to_json(e)}
                checked += 1
        return PASS, {"instances": checked}

    rec.run("membership_probes", witness_probes)
    return rec.records


SUITE_REGISTRY: dict[str, Callable[[SuiteContext], list[CheckRecord]]] = {
    "thm19_derivation": suite_thm19_derivation,
    "thm19_automorphism": suite_thm19_automorphism,
    "thm16_audit": suite_thm16_audit,
    "prop22": suite_prop22,
    "prop24": suite_prop24,
    "cor25": suite_cor25,
    "cor34": suite_cor34,
    "lemma_suite": suite_lemma,
    "ms_oracle": suite_ms_oracle,
}


def run_suite(names: list[str], ctx: SuiteContext) -> Report:
    """The records of each named suite in turn.  A suite that raises, as
    when it builds the objects it shares through ctx, gives one failed
    "setup" record in place of its own, and the next suite runs."""
    report = Report()
    for name in names:
        if name not in SUITE_REGISTRY:
            raise UnknownSuite(f"unknown suite {name!r}; known: {sorted(SUITE_REGISTRY)}")
        rec = _Recorder(name)
        try:
            report.extend(SUITE_REGISTRY[name](ctx))
        except Exception as exc:
            rec.add("setup", FAIL, _fault_witness(exc), rec.started)
            report.extend(rec.records)
    return report
