"""Regenerate the reference input pools in perfbench/data/.

    python3 perfbench/make_pool.py

Run from the root of a checkout whose outputs are the reference.  For each
explorer seed below EXPLORE_SEEDS whose first trial falls in a stratum of
EXPLORE_QUOTA, and for each corpus algebra with each suite seed below
SUITE_SEEDS, it runs the same CLI call the benchmark makes and stores the
digest of the records with elapsed_ms removed.  For an explorer seed it also
stores the call's cost (CPU seconds at the reference speed of refclock.py),
by which the benchmark orders the seeds of each stratum.  The benchmark
draws its inputs from these pools only, so every call it makes has a
reference.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from refclock import ScaledTimer  # noqa: E402
from workloads import (  # noqa: E402
    ALL_SUITES, DATA_DIR, EXPLORE_MAX_DIM, EXPLORE_QUOTA, SUITE_SEEDS, corpus,
    read_records, record_digest,
)

EXPLORE_SEEDS = 1200
JOBS = 2


def recipe_stratum(seed: int) -> tuple[str, bool]:
    """Replay the explorer's first draws for a one-trial run with this seed."""
    from skewex.algebra import cyclic_group_algebra, matrix_algebra, poly_quotient
    from skewex.explorer import BLOCK_POLYS, random_recipe

    names = [(f"Q[t]/({f})", poly_quotient(f)) for f in BLOCK_POLYS]
    names.append(("M2", matrix_algebra(2)))
    names += [(f"C{m}", cyclic_group_algebra(m)) for m in (2, 3, 4)]
    rng = random.Random(seed)
    recipe = random_recipe(rng, EXPLORE_MAX_DIM)
    change = rng.random() < 0.5
    blocks = [next(n for n, a in names if a.sc == b.sc and a.unit == b.unit)
              for b in recipe.blocks]
    return " x ".join(sorted(blocks)), change


def run_call(argv_without_out: list[str]) -> tuple[str, int, float]:
    """(records digest, record count, CPU seconds at the reference speed) of one call."""
    from skewex.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.jsonl")
        with open(os.devnull, "w") as devnull:
            stdout, stderr = sys.stdout, sys.stderr
            sys.stdout = sys.stderr = devnull
            try:
                with ScaledTimer() as timer:
                    code = main(argv_without_out + ["--json", path])
            finally:
                sys.stdout, sys.stderr = stdout, stderr
        if code not in (0, 3):
            raise RuntimeError(f"{argv_without_out} exited with {code}")
        records = read_records(path)
    return record_digest(records), len(records), timer.seconds


def explore_entry(seed: int):
    recipe, change = recipe_stratum(seed)
    if not any(recipe == r and change == c for r, c, _ in EXPLORE_QUOTA):
        return None
    digest, _, seconds = run_call(["explore", "--seed", str(seed), "--trials", "1",
                                   "--max-dim", str(EXPLORE_MAX_DIM)])
    return str(seed), {"recipe": recipe, "basis_change": change, "digest": digest, "items": 1,
                       "cost_s": round(seconds, 4)}


def suite_entry(job: tuple[str, str, int]):
    name, path, seed = job
    digest, records, _ = run_call(["suite", "--algebra", path, "--suites", ",".join(ALL_SUITES),
                                   "--seed", str(seed)])
    return f"{name}:{seed}", {"digest": digest, "items": records}


def init_worker(src: str) -> None:
    sys.path.insert(0, src)


def main() -> None:
    src = os.path.join(os.getcwd(), "src")
    sys.path.insert(0, src)
    import skewex
    from skewex.serialize import algebra_to_json

    print(f"reference: {skewex.__file__}", file=sys.stderr)
    ctx = multiprocessing.get_context("spawn")
    with tempfile.TemporaryDirectory() as tmp, \
            ctx.Pool(JOBS, initializer=init_worker, initargs=(src,)) as pool:
        jobs = []
        for name, algebra in corpus().items():
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(algebra_to_json(algebra), handle)
            jobs += [(name, path, seed) for seed in range(SUITE_SEEDS)]
        suites = dict(pool.map(suite_entry, jobs, chunksize=4))
        explore = dict(e for e in pool.map(explore_entry, range(EXPLORE_SEEDS), chunksize=8) if e)
    os.makedirs(DATA_DIR, exist_ok=True)
    for name, data in (("explore_pool.json", explore), ("suites_pool.json", suites)):
        with open(os.path.join(DATA_DIR, name), "w", encoding="utf-8") as handle:
            json.dump(data, handle, indent=0, sort_keys=True)
            handle.write("\n")
    print(f"explore pool: {len(explore)} seeds; suites pool: {len(suites)} calls",
          file=sys.stderr)


if __name__ == "__main__":
    main()
