"""skewex benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/`` of
that checkout, never from an installed copy.  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` it runs the first pass
once untraced and once traced and prints the per-layer metrics.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
A full report, and in traced runs the spans, go to ``.perfbench_out/``.

See perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refclock import ScaledTimer  # noqa: E402
from tracer import ELIM, Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome, run_calls  # noqa: E402

SETUP_REPEATS = 15

# Span names behind each per-layer timing metric.
SELF_TIME = {
    "linalg.elim.self_s": tuple(sorted(ELIM)),
    "linalg.contains.self_s": ("linalg.Subspace.contains", "linalg.Subspace.reduce"),
    "linalg.minpoly.self_s": ("linalg.minimal_polynomial",),
    "algebra.multiply.self_s": ("algebra.Algebra.multiply",),
    "algebra.make_algebra.self_s": ("algebra.make_algebra",),
    "maps.certify.self_s": ("maps.Derivation.certify", "maps.AlgebraEndo.certify",
                            "maps.EDerivation.certify", "maps.is_derivation",
                            "maps.is_endomorphism", "maps.is_automorphism",
                            "maps.is_ederivation"),
    "maps.derivation_space.self_s": ("maps.derivation_space",),
    "maps.local_finiteness.self_s": ("maps.local_finiteness_report",),
    "sampling.nilpotent.self_s": ("sampling.nilpotent_derivations",),
    "ore.skew_mul.self_s": ("ore.skew_mul",),
    "laurent.laurent_mul.self_s": ("laurent.laurent_mul",),
    "extension.free_model.self_s": ("_extension.FreeModel.__init__",),
    "extension.relations.self_s": ("_extension.relation_submodule",),
    "extension.quotient.self_s": ("_extension.quotient_by_relations",),
    "idempotents.enumerate.self_s": ("idempotents.enumerate_idempotents",),
    "idempotents.audit.self_s": ("idempotents.image_idempotent_audit",
                                 "idempotents.image_trace_certificate",
                                 "idempotents.image_kernel_idempotent_report"),
    "idempotents.ms.self_s": ("idempotents.ms_check", "idempotents.ms_witness_check",
                              "idempotents.power_span"),
}
# Whole-layer self time for the layers that only orchestrate.
GUARD_LAYERS = ("suites", "explorer", "serialize", "cli")
CALLS = {
    "linalg.contains.calls": SELF_TIME["linalg.contains.self_s"],
    "linalg.minpoly.calls": SELF_TIME["linalg.minpoly.self_s"],
    "algebra.multiply.calls": SELF_TIME["algebra.multiply.self_s"],
    "algebra.make_algebra.calls": SELF_TIME["algebra.make_algebra.self_s"],
    "maps.certify.calls": ("maps.Derivation.certify", "maps.AlgebraEndo.certify",
                           "maps.EDerivation.certify"),
    "ore.skew_mul.calls": SELF_TIME["ore.skew_mul.self_s"],
    "laurent.laurent_mul.calls": SELF_TIME["laurent.laurent_mul.self_s"],
}
# Counts that must repeat exactly for the same code and seed.
EXACT = ("linalg.elim.cells", "linalg.contains.calls", "extension.monomial_products",
         "extension.absorption_contains", "sampling.nilpotent_useful_ratio", "explorer.trials")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_skewex(src: str) -> None:
    """Import skewex and its CLI afresh from src/."""
    for name in [n for n in sys.modules if n == "skewex" or n.startswith("skewex.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    package = importlib.import_module("skewex")
    importlib.import_module("skewex.cli")
    if not os.path.abspath(package.__file__).startswith(src + os.sep):
        fail(f"skewex was imported from {package.__file__}, not from {src}")


def reported_names(root: str, trace: int) -> list[str]:
    """The metric names BENCHMARK.json declares for this kind of run."""
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
            spec = json.load(handle)
        return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        fail(f"cannot read the metric list from BENCHMARK.json: {exc}")


def source_fingerprint(src: str) -> str:
    """Hash of the skewex sources and of the benchmark's own code and data."""
    h = hashlib.sha256()
    for folder, suffix in ((os.path.join(src, "skewex"), ".py"), (HERE, ".py"),
                           (os.path.join(HERE, "data"), ".json")):
        for name in sorted(os.listdir(folder)):
            if name.endswith(suffix):
                with open(os.path.join(folder, name), "rb") as handle:
                    h.update(name.encode() + b"\0" + handle.read())
    return h.hexdigest()[:16]


def git_commit(root: str) -> str:
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def setup(workload_cls, src: str, seed: int, workdir: str):
    """Import skewex and build pass-0 inputs; returns (workload, calls, scaled CPU seconds)."""
    with ScaledTimer() as timer:
        import_skewex(src)
        workload = workload_cls(seed, workdir)
        calls = workload.calls(0)
    return workload, calls, timer.seconds


def layer_metrics(tracer: Tracer, traced_wall: float, overhead: float) -> dict:
    self_s, calls = tracer.self_times()
    counters = tracer.counters
    out = {}

    def total(names, table):
        return sum(table.get(n, 0) for n in names)

    out["linalg.elim.calls"] = (counters.get("linalg.elim.calls", 0), "count")
    out["linalg.elim.cells"] = (counters.get("linalg.elim.cells", 0), "count")
    for metric, names in CALLS.items():
        out[metric] = (total(names, calls), "count")
    for metric, names in SELF_TIME.items():
        out[metric] = (total(names, self_s), "s")
    for layer in GUARD_LAYERS:
        names = [n for n in self_s if n.split(".", 1)[0] == layer]
        out[f"{layer}.self_s"] = (total(names, self_s), "s")
    certified = tracer.calls_under("maps.Derivation.certify", "sampling.nilpotent_derivations")
    returned = counters.get("sampling.nilpotent.returned", 0)
    out["sampling.nilpotent_useful_ratio"] = (returned / certified if certified else 0.0, "ratio")
    out["extension.monomial_products"] = (counters.get("_extension.monomial_products", 0), "count")
    out["extension.absorption_contains"] = (
        tracer.calls_under("linalg.Subspace.contains", "_extension.quotient_by_relations"),
        "count")
    out["suites.checks"] = (counters.get("suites.checks", 0), "count")
    out["explorer.trials"] = (counters.get("explorer.trials", 0), "count")
    out["trace.traced_wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (overhead, "s")
    out["trace.self_sum_s"] = (sum(self_s.values()), "s")
    return out


def check_repeat(out_dir: str, key: str, metrics: dict, outcome: Outcome) -> None:
    """Compare the exact counts with an earlier traced run of the same code and seed."""
    path = os.path.join(out_dir, "exact_counts.json")
    try:
        with open(path, encoding="utf-8") as handle:
            known = json.load(handle)
    except (OSError, ValueError):
        known = {}
    counts = {name: metrics[name][0] for name in EXACT}
    if key in known and known[key] != counts:
        outcome.failed += 1
        outcome.failing.append(f"exact counts differ from an earlier run: {known[key]} != {counts}")
    known[key] = counts
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(known, handle, indent=1, sort_keys=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "skewex", "cli.py")):
        fail(f"no skewex sources under {src}; run from the root of a skewex checkout")
    sys.path.insert(0, src)
    reported = reported_names(root, args.trace)
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workload_cls = WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        report = measure(workload_cls, args, src, workdir, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [name for name in reported if name not in report["metrics"]]
    if missing:
        fail(f"the run measured no value for {missing}")
    env = report["env"]
    print(f"# env: python {env['python']}, commit {env['commit']}, source {env['source']}, "
          f"nproc {env['nproc']}, workload seed {args.seed}")
    for name, (value, unit) in report["metrics"].items():
        print(f"{args.workload}  {name:34s} {value!r} {unit}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    outcome = report["outcome"]
    for line in outcome["failing"]:
        print(f"# FAILED {line}")
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": report["metrics"][name][0],
                           "unit": report["metrics"][name][1]} for name in reported},
    }))


def measure(workload_cls, args, src: str, workdir: str, out_dir: str) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        workload, calls, seconds = setup(workload_cls, src, args.seed, workdir)
        setups.append(seconds)
    main_fn = sys.modules["skewex.cli"].main
    outcome = Outcome()
    walls, cpus, scaled, speeds, items, pass_seeds = [], [], [], [], [], []
    tracer = None

    def one_pass(calls, tracer=None) -> None:
        """Run the calls, timed at the reference speed, then check their outputs.

        A tracer is installed only while the calls run.  The speed samples
        taken meanwhile become spans of their own, so that no layer's self
        time holds them.
        """
        before = outcome.attempted
        slices = []
        timer = ScaledTimer(None if tracer is None else
                            lambda start, end: slices.append((tracer.open_span(), start, end)))
        if tracer is not None:
            tracer.install(sys.modules["skewex"])
        try:
            with timer:
                wall, cpu = run_calls(main_fn, calls)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.add_spans("refclock.slice", slices)
        workload.check(calls, outcome)
        walls.append(wall)
        cpus.append(cpu)
        scaled.append(timer.seconds)
        speeds.append(timer.speed)
        items.append(outcome.attempted - before)
        pass_seeds.append(sorted({c.seed for c in calls}))

    if args.trace:
        one_pass(calls)
        tracer = Tracer()
        one_pass(workload.calls(0), tracer)
        # the wall-clock traced time bounds the self times
        metrics = layer_metrics(tracer, walls[1], scaled[1] - scaled[0])
    else:
        started = perf_counter()
        k = 0
        while True:
            one_pass(calls)
            k += 1
            # the run ends as close to --seconds as whole passes allow
            if perf_counter() - started + statistics.median(walls) / 2 > args.seconds:
                break
            calls = workload.calls(k)
        # CPU time at the reference speed: see refclock.py
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "items_per_s": (sum(items) / sum(scaled), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        metrics["cpu_s"] = (statistics.median(cpus), "s")
        metrics["wallclock_s"] = (statistics.median(walls), "s")
        metrics["speed"] = (statistics.median(speeds), "ratio")
        metrics["fail_ratio"] = (outcome.failed / max(1, outcome.attempted), "ratio")
        metrics["inconclusive_ratio"] = (
            outcome.inconclusive / outcome.records if outcome.records else 0.0, "ratio")
        metrics["passes"] = (len(walls), "count")
        metrics["items"] = (sum(items), workload.item_label)

    fingerprint = source_fingerprint(src)
    report = {
        "env": {
            "python": platform.python_version(),
            "commit": git_commit(os.path.dirname(src)),
            "source": fingerprint,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
        },
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_cpu_samples_s": setups,
        "pass_walls_s": walls,
        "pass_cpus_s": cpus,
        "pass_scaled_s": scaled,
        "pass_speeds": speeds,
        "pass_items": items,
        "pass_input_seeds": pass_seeds,
        "metrics": metrics,
    }
    if tracer is not None:
        check_repeat(out_dir, f"{args.workload}:{args.seed}:{fingerprint}", metrics, outcome)
        tracer.write(os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.json"))
    report["outcome"] = {
        "attempted": outcome.attempted, "failed": outcome.failed,
        "records": outcome.records, "inconclusive": outcome.inconclusive,
        "failing": outcome.failing,
    }
    return report


if __name__ == "__main__":
    main()
