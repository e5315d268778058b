"""CLI records stay byte-identical to the benchmark's reference pools.

The benchmark checks the records of every timed call against the sha256
digests in perfbench/data, with elapsed_ms left out.  This replays a small
part of both pools through skewex.cli.main, so that a changed record shows
here first: the cheapest pool seed of each explorer stratum the benchmark
draws from, and one suite seed for each corpus algebra.  The pools are only
read.  Three longer runs are pinned here by digest: the explorer's seed-7
run and all nine suites on M_3 and T_3.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

from skewex.algebra import matrix_algebra, upper_triangular
from skewex.cli import main
from skewex.serialize import algebra_to_json

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


def replay(argv, out):
    code = main(argv + ["--json", str(out)])
    records = workloads.read_records(str(out))
    return code, len(records), workloads.record_digest(records)


def cheapest_explore_seeds():
    pool = workloads.load_pool("explore_pool.json")
    seeds = []
    for recipe, change, _ in workloads.EXPLORE_QUOTA:
        stratum = [(entry["cost_s"], int(key)) for key, entry in pool.items()
                   if (entry["recipe"], entry["basis_change"]) == (recipe, change)]
        seeds.append(str(min(stratum)[1]))
    return pool, seeds


def test_explore_records_match_the_pool(tmp_path, capsys):
    pool, seeds = cheapest_explore_seeds()
    assert len(set(seeds)) == len(workloads.EXPLORE_QUOTA) == 20
    for seed in seeds:
        code, _, digest = replay(["explore", "--seed", seed, "--trials", "1", "--max-dim",
                                  str(workloads.EXPLORE_MAX_DIM)], tmp_path / f"{seed}.jsonl")
        assert code in (0, 3) and digest == pool[seed]["digest"], seed


@pytest.mark.parametrize("index", range(len(workloads.CORPUS)))
def test_suite_records_match_the_pool(tmp_path, capsys, index):
    pool = workloads.load_pool("suites_pool.json")
    name = workloads.CORPUS[index]
    seed = 5 * index % workloads.SUITE_SEEDS
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(algebra_to_json(workloads.corpus()[name])))
    code, items, digest = replay(["suite", "--algebra", str(path), "--suites",
                                  ",".join(workloads.ALL_SUITES), "--seed", str(seed)],
                                 tmp_path / "records.jsonl")
    expected = pool[f"{name}:{seed}"]
    assert code in (0, 3) and (items, digest) == (expected["items"], expected["digest"])


@pytest.mark.parametrize("label, items, digest", [
    ("explore", 324, "983ebe68975e414fb866f60f8d80268f01141199d17aa31b05fc0dfa942347be"),
    ("m3", 75, "bf5c3e595784917d7a9965852fcd0e94695f6897f980a3b40b2f68ff0946ae93"),
    ("t3", 66, "da57c1cd2c7b8cd75de9db4667a10c8efc04b04172d4f954cec97241de7e1b39"),
])
def test_reference_runs_keep_their_records(tmp_path, capsys, label, items, digest):
    """The explorer run of seed 7 (50 trials, dimension <= 4) and all nine
    suites at seed 0 on M_3 and T_3, which the pools do not cover, keep
    their record counts, exit code and digests; a change that alters a
    record re-pins them here and says why."""
    if label == "explore":
        argv = ["explore", "--seed", "7", "--trials", "50", "--max-dim", "4"]
    else:
        algebra = matrix_algebra(3) if label == "m3" else upper_triangular(3)
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(algebra_to_json(algebra)))
        argv = ["suite", "--algebra", str(path), "--suites", ",".join(workloads.ALL_SUITES),
                "--seed", "0"]
    assert replay(argv, tmp_path / "records.jsonl") == (3, items, digest)
