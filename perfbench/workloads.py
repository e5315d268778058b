"""The three workloads: inputs from the seed, the timed pass, the output checks.

Every workload drives skewex only through ``skewex.cli.main``, in process,
with input files written before the timed part.  A workload is run as a
series of passes; each pass draws its inputs from the workload seed and the
pass number, so passes after the first mostly see inputs that are new to
the process.

Output checks run after each pass, outside the timed part, and never raise:
a mismatch or an exception marks the items it touched as failed and records
the seed that produced them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from dataclasses import dataclass, field
from time import perf_counter, process_time

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

# Explorer trials per pass, by stratum: the sorted block names of the trial's
# product recipe, then whether the explorer applied a random basis change.
# Trial cost spans two orders of magnitude between strata and up to a factor
# of seven within one, so a fixed quota per stratum, drawn evenly over each
# stratum's seeds in cost order, keeps the cost of a run steady across seeds.
# These 20 strata hold 78% of first trials in a replay of explorer seeds
# 0-1199: two trials each for the two strata above 8%, one for the rest.
# The other 30 strata (each at most 1.75%, together 21.75%, among them every
# product of three or four blocks) are left out.
EXPLORE_QUOTA = (
    ("Q[t]/(-1 + t^3) x Q[t]/(t)", True, 2),
    ("Q[t]/(-1 + t^3) x Q[t]/(t)", False, 2),
    ("Q[t]/(t) x Q[t]/(t^3)", False, 1),
    ("Q[t]/(t) x Q[t]/(t^3)", True, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(-1 + t^2)", True, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(-1 + t^2)", False, 1),
    ("M2", True, 1),
    ("M2", False, 1),
    ("C4", True, 1),
    ("C4", False, 1),
    ("Q[t]/(1 + t^2) x Q[t]/(1 + t^2)", True, 1),
    ("Q[t]/(t^2) x Q[t]/(t^2)", True, 1),
    ("Q[t]/(t^2) x Q[t]/(t^2)", False, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(-1*t + t^2)", True, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(-1*t + t^2)", False, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(t^2)", True, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(t^2)", False, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(1 + t^2)", True, 1),
    ("Q[t]/(-1 + t^2) x Q[t]/(1 + t^2)", False, 1),
    ("Q[t]/(-1*t + t^2) x Q[t]/(-1*t + t^2)", True, 1),
)
EXPLORE_MAX_DIM = 4
# Step between the quantiles two consecutive passes draw from a stratum.
GOLDEN = (5 ** 0.5 - 1) / 2

# The small corpus of tests/conftest.py without M_3, whose
# thm19_automorphism suite alone runs for minutes.
CORPUS = ("dual", "jet2", "split", "qxq", "m2", "c2", "c3", "ut2")
ALL_SUITES = (
    "thm19_derivation", "thm19_automorphism", "thm16_audit", "prop22", "prop24",
    "cor25", "cor34", "lemma_suite", "ms_oracle",
)
SUITE_SEEDS = 48

# Fixed witnesses for the M_3 extensions: u is trace-zero and invertible, v
# invertible, and ad_u and conj_v both have a degree-7 minimal polynomial.
# The run time of an M_3 extension depends strongly on the coefficient height
# of u and v, and by several percent on the order of the basis, through the
# pivots of the eliminations.  So each pass only flips signs, drawn from the
# seed: u -> +-S U0 S and v -> S' V0 S' with S, S' diagonal sign matrices.
# The inputs change with the seed while the cost of a pass does not, and
# both flavours always run.
U0 = ((1, 1, -1), (0, 2, -5), (0, 0, -3))
V0 = ((1, 1, -1), (0, 2, 1), (0, 0, 3))
EXTEND_DIMS = {"relation_degree": 7, "free_dim": 63, "extension_dim": 27}


def read_records(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def record_digest(records: list[dict]) -> str:
    """sha256 of the records with elapsed_ms removed, in file order."""
    h = hashlib.sha256()
    for record in records:
        stripped = {k: v for k, v in record.items() if k != "elapsed_ms"}
        h.update(json.dumps(stripped, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_pool(name: str) -> dict:
    with open(os.path.join(DATA_DIR, name), encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Call:
    """One CLI invocation of a pass, with what its check needs."""

    argv: list[str]
    key: str            # digest key, or a label for the call
    seed: int           # the seed that produced this call's input
    out: str            # path the call writes its --json output to
    expect_items: int = 1
    code: int = -1
    error: str = ""


@dataclass
class Outcome:
    """Items attempted and failed by the checked calls of a run."""

    attempted: int = 0
    failed: int = 0
    records: int = 0
    inconclusive: int = 0
    failing: list[str] = field(default_factory=list)

    def fail(self, call: Call, items: int, why: str) -> None:
        self.failed += items
        self.failing.append(f"{call.key} (seed {call.seed}): {why}")


def run_calls(main, calls: list[Call]) -> tuple[float, float]:
    """Run the calls through cli.main; returns the pass's wall and CPU seconds.

    The CLI's own stdout and stderr lines go to a buffer so the benchmark's
    last output line stays its result.  Any exception is kept on the call
    and the pass goes on.
    """
    sink = io.StringIO()
    started, cpu_started = perf_counter(), process_time()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for call in calls:
            try:
                call.code = main(call.argv)
            except Exception as exc:  # the check reports it; the run goes on
                call.error = f"{type(exc).__name__}: {exc}"
    return perf_counter() - started, process_time() - cpu_started


class RecordWorkload:
    """Shared checks for the workloads whose calls write JSON-lines records."""

    item_label = "records"
    ok_codes = (0, 3)
    pool_file = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.pool = load_pool(self.pool_file)

    def check(self, calls: list[Call], outcome: Outcome) -> None:
        for call in calls:
            try:
                self._check_call(call, outcome)
            except Exception as exc:  # a broken output must not stop the run
                outcome.attempted += call.expect_items
                outcome.fail(call, call.expect_items, f"check raised {type(exc).__name__}: {exc}")

    def _check_call(self, call: Call, outcome: Outcome) -> None:
        if call.error or call.code not in self.ok_codes:
            outcome.attempted += call.expect_items
            outcome.fail(call, call.expect_items, call.error or f"exit code {call.code}")
            return
        expected = self.pool[call.key]
        records = read_records(call.out)
        statuses = [record["status"] for record in records]
        items, failed = self.count(statuses)
        outcome.attempted += items
        outcome.records += len(records)
        outcome.inconclusive += statuses.count("inconclusive")
        if failed:
            outcome.fail(call, failed, "fail records")
        elif record_digest(records) != expected["digest"] or items != expected["items"]:
            outcome.fail(call, items, "records differ from the reference digest")

    def count(self, statuses: list[str]) -> tuple[int, int]:
        """(items, failed items) of one call."""
        return len(statuses), statuses.count("fail")


class Explore(RecordWorkload):
    """`skewex explore --max-dim 4`, one trial per call, stratified by recipe."""

    name = "explore"
    item_label = "trials"
    pool_file = "explore_pool.json"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.strata: dict[tuple[str, bool], list[str]] = {}
        for key, entry in sorted(self.pool.items(), key=lambda kv: (kv[1]["cost_s"], int(kv[0]))):
            self.strata.setdefault((entry["recipe"], entry["basis_change"]), []).append(key)
        # where each stratum's walk through its seeds starts in this run
        rng = random.Random(self.seed)
        self.starts = [rng.random() for _ in EXPLORE_QUOTA]

    def calls(self, k: int) -> list[Call]:
        """The trials of pass k: the j-th of a stratum's q trials sits at quantile
        start + j/q + k*GOLDEN (mod 1) of the stratum's seeds in cost order, so the
        passes of a run cover its cheap and dear trials evenly."""
        out = []
        for (recipe, change, quota), start in zip(EXPLORE_QUOTA, self.starts):
            keys = self.strata[(recipe, change)]
            for j in range(quota):
                key = keys[int((start + j / quota + k * GOLDEN) % 1.0 * len(keys))]
                path = os.path.join(self.workdir, f"explore-{key}.jsonl")
                argv = ["explore", "--seed", key, "--trials", "1",
                        "--max-dim", str(EXPLORE_MAX_DIM), "--json", path]
                out.append(Call(argv, key, int(key), path))
        return out

    def count(self, statuses: list[str]) -> tuple[int, int]:
        # one trial per call: the trial fails if any of its records does
        return 1, int("fail" in statuses)


class SuitesCorpus(RecordWorkload):
    """`skewex suite` with all nine suites on each algebra of the small corpus."""

    name = "suites_corpus"
    pool_file = "suites_pool.json"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from skewex.serialize import algebra_to_json

        self.paths = {}
        for name, algebra in corpus().items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(algebra_to_json(algebra), handle)
            self.paths[name] = path

    def calls(self, k: int) -> list[Call]:
        rng = random.Random(self.seed * 1000 + k)
        out = []
        for name in CORPUS:
            suite_seed = rng.randrange(SUITE_SEEDS)
            key = f"{name}:{suite_seed}"
            path = os.path.join(self.workdir, f"suite-{name}.jsonl")
            argv = ["suite", "--algebra", self.paths[name], "--suites", ",".join(ALL_SUITES),
                    "--seed", str(suite_seed), "--json", path]
            out.append(Call(argv, key, suite_seed, path, self.pool[key]["items"]))
        return out


def corpus() -> dict:
    """The algebras of tests/conftest.py's corpus, by the same builders."""
    from skewex.algebra import (
        cyclic_group_algebra, direct_product, matrix_algebra, poly_quotient, upper_triangular,
    )
    from skewex.linalg import Poly

    one = Poly.of([0, 1])
    return {
        "dual": poly_quotient(Poly.of([0, 0, 1])),
        "jet2": poly_quotient(Poly.of([0, 0, 0, 1])),
        "split": poly_quotient(Poly.of([0, -1, 1])),
        "qxq": direct_product(poly_quotient(one), poly_quotient(one)),
        "m2": matrix_algebra(2),
        "c2": cyclic_group_algebra(2),
        "c3": cyclic_group_algebra(3),
        "ut2": upper_triangular(2),
    }


class ExtendM3:
    """`skewex extend` over M_3: ad_u as a derivation, conj_v as an automorphism."""

    name = "extend_m3"
    item_label = "extensions"

    def __init__(self, seed, workdir):
        from skewex.algebra import matrix_algebra
        from skewex.serialize import algebra_to_json

        self.seed = seed
        self.workdir = workdir
        self.m3 = matrix_algebra(3)
        self.algebra_path = os.path.join(workdir, "m3.json")
        with open(self.algebra_path, "w", encoding="utf-8") as handle:
            json.dump(algebra_to_json(self.m3), handle)
        self.twists: dict[str, object] = {}

    @staticmethod
    def _flip_signs(m0, rng: random.Random, sign: int = 1):
        from skewex.linalg import rat

        signs = [rng.choice((-1, 1)) for _ in range(3)]
        return tuple(rat(sign * signs[i] * m0[i][j] * signs[j])
                     for i in range(3) for j in range(3))

    def calls(self, k: int) -> list[Call]:
        """Draw u and v for pass k and write their maps; not timed."""
        from skewex.maps import inner_automorphism, inner_derivation
        from skewex.serialize import map_to_json

        rng = random.Random(self.seed * 1000 + k)
        seed = self.seed * 1000 + k
        u = self._flip_signs(U0, rng, rng.choice((-1, 1)))
        v = self._flip_signs(V0, rng)
        twists = {
            "derivation": (inner_derivation(self.m3, u), "derivation"),
            "automorphism": (inner_automorphism(self.m3, v), "endomorphism"),
        }
        out = []
        for mode, (twist, role) in twists.items():
            map_path = os.path.join(self.workdir, f"{mode}-map.json")
            with open(map_path, "w", encoding="utf-8") as handle:
                json.dump(map_to_json(twist, role), handle)
            path = os.path.join(self.workdir, f"{mode}-ext.json")
            argv = ["extend", "--mode", mode, "--algebra", self.algebra_path,
                    "--map", map_path, "--json", path]
            out.append(Call(argv, mode, seed, path))
            self.twists[mode] = twist
        return out

    def check(self, calls: list[Call], outcome: Outcome) -> None:
        for call in calls:
            outcome.attempted += 1
            if call.error or call.code != 0:
                outcome.fail(call, 1, call.error or f"exit code {call.code}")
                continue
            try:
                problem = self._verify(call)
            except Exception as exc:  # a broken output must not stop the run
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                outcome.fail(call, 1, problem)

    def _verify(self, call: Call) -> str:
        """Re-verify an extension the way tests/test_extension_fuzz.py does."""
        from skewex._extension import poly_of_element
        from skewex.algebra import Algebra
        from skewex.linalg import is_zero_vec, kernel, zero_vec
        from skewex.serialize import matrix_from_json, parse_fraction, poly_from_json

        with open(call.out, encoding="utf-8") as handle:
            data = json.load(handle)
        dim = data["dim"]
        sc = [[list(zero_vec(dim)) for _ in range(dim)] for _ in range(dim)]
        for i, j, k, value in data["sc"]:
            sc[i][j][k] = parse_fraction(value)
        # structure constants only: make_algebra would re-run the
        # associativity validation the construction already did
        ext = Algebra(dim, sc, tuple(parse_fraction(x) for x in data["unit"]))
        embed = matrix_from_json(data["embed"], "embed")
        u = tuple(parse_fraction(x) for x in data["u"])
        p = poly_from_json(data["p"], "p")
        base, twist = self.m3, self.twists[call.key]
        dims = {"relation_degree": p.degree, "free_dim": p.degree * base.dim,
                "extension_dim": dim}
        if dims != EXTEND_DIMS:
            return f"dimensions {dims} differ from {EXTEND_DIMS}"
        if kernel(embed).dim != 0:
            return "embedding is not injective"
        if not is_zero_vec(poly_of_element(ext, p, u)):
            return "p(u) != 0"
        if call.key == "automorphism":
            u_inv = tuple(parse_fraction(x) for x in data["u_inverse"])
            if ext.multiply(u, u_inv) != ext.unit or ext.multiply(u_inv, u) != ext.unit:
                return "u * u^-1 != 1"
        for a in range(base.dim):
            img = embed.column(a)
            expected = embed.apply(twist.matrix.apply(base.basis_element(a)))
            if call.key == "derivation":
                got = tuple(x - y for x, y in zip(ext.multiply(u, img), ext.multiply(img, u)))
            else:
                got = ext.multiply(ext.multiply(u, img), u_inv)
            if got != expected:
                return f"twist not realized on basis element {a}"
        return ""


WORKLOADS = {w.name: w for w in (Explore, ExtendM3, SuitesCorpus)}
