"""CLI records stay byte-identical to the benchmark's reference pools.

The benchmark checks the records of every timed call against the sha256
digests in perfbench/data, with elapsed_ms left out.  This replays a small
part of both pools through skewex.cli.main, so that a changed record shows
here first: the cheapest pool seed of each explorer stratum the benchmark
draws from, and one suite seed for each corpus algebra.  The pools are only
read.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

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
