"""Command line entry point.

Subcommands: validate, suite, explore, idempotents, extend.  Reports are
JSON lines, one record per check; exit status is 1 on any failure, else 3
on any inconclusive record, else 0, and 2 on parse or usage errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from functools import cache

from ._extension import assemble
from .errors import ParseError, SkewexError, UnknownSuite, ValidationError
from .idempotents import enumerate_idempotents
from .linalg import Poly
from .serialize import (
    extension_to_json,
    idempotent_set_to_json,
    load_algebra,
    parse_definitions,
    parse_fraction,
)
from .suites import Report, SuiteContext, run_suite
from .explorer import random_explorer

USAGE_ERROR = 2


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once.  Parsing does not change it: each
    call fills a new namespace, and an append action copies its default list
    before it appends."""
    parser = argparse.ArgumentParser(
        prog="skewex",
        description="exact checks for rational algebras, their twisted extensions, "
                    "and idempotent-based subspace oracles",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="validate an algebra definition file")
    validate.add_argument("algebra", help="path to the algebra JSON file")

    suite = sub.add_parser("suite", help="run named check suites")
    suite.add_argument("--algebra", required=True)
    suite.add_argument("--map", action="append", default=[], metavar="FILE[:ROLE]",
                       help="certified map file; role is derivation, endomorphism, "
                            "or ederivation")
    suite.add_argument("--suites", required=True,
                       help="comma-separated suite names")
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--json", dest="json_out", metavar="FILE",
                       help="write JSON-lines records here")

    explore = sub.add_parser("explore", help="seeded random counterexample search")
    explore.add_argument("--seed", type=int, default=0)
    explore.add_argument("--trials", type=int, default=100)
    explore.add_argument("--max-dim", type=int, default=6)
    explore.add_argument("--json", dest="json_out", metavar="FILE")

    idem = sub.add_parser("idempotents", help="enumerate idempotents of a commutative algebra")
    idem.add_argument("algebra")
    idem.add_argument("--json", dest="json_out", metavar="FILE")

    extend = sub.add_parser("extend", help="construct the inner-witness extension")
    extend.add_argument("--mode", choices=["derivation", "automorphism"], required=True)
    extend.add_argument("--algebra", required=True)
    extend.add_argument("--map", required=True)
    extend.add_argument("--poly", help="relation coefficients, constant first, comma "
                        "separated; write --poly=-1,0,1 when the first is negative, "
                        "since '--poly -1,0,1' reads -1,0,1 as an option")
    extend.add_argument("--json", dest="json_out", metavar="FILE")
    return parser


def write_output(lines: list[str], json_out) -> None:
    """Print the lines, or write them to the --json file, joined by newlines
    and ending in one; a file that cannot be written is a ValidationError."""
    if not json_out:
        for line in lines:
            print(line)
        return
    try:
        with open(json_out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValidationError(f"cannot write {json_out}: {exc.strerror or exc}") from exc


def emit_report(report: Report, json_out) -> None:
    write_output([json.dumps(r.to_dict(), sort_keys=True) for r in report.records], json_out)
    counts = report.counts()
    summary = ", ".join(f"{k}={v}" for k, v in sorted(counts.items()))
    print(f"checks: {len(report.records)} ({summary})", file=sys.stderr)


def cmd_validate(args) -> int:
    algebra = load_algebra(args.algebra)
    print(json.dumps({
        "dim": algebra.dim,
        "labels": list(algebra.labels),
        "commutative": algebra.is_commutative(),
        "valid": True,
    }, sort_keys=True))
    return 0


def cmd_suite(args) -> int:
    algebra, maps = parse_definitions(args.algebra, args.map)
    names = [n.strip() for n in args.suites.split(",") if n.strip()]
    ctx = SuiteContext(algebra, maps, random.Random(args.seed))
    report = run_suite(names, ctx)
    emit_report(report, args.json_out)
    return report.exit_code


def cmd_explore(args) -> int:
    if args.trials < 0 or args.max_dim < 1:
        raise ValidationError("explore needs --trials >= 0 and --max-dim >= 1")
    report = random_explorer(args.seed, args.trials, args.max_dim)
    emit_report(report, args.json_out)
    return report.exit_code


def cmd_idempotents(args) -> int:
    algebra = load_algebra(args.algebra)
    idems = enumerate_idempotents(algebra)
    write_output([json.dumps(idempotent_set_to_json(idems), sort_keys=True, indent=2)],
                 args.json_out)
    return 0 if idems.complete else 3


def cmd_extend(args) -> int:
    role = "derivation" if args.mode == "derivation" else "endomorphism"
    algebra, maps = parse_definitions(args.algebra, [f"{args.map}:{role}"])
    the_map = maps[0]
    p = None
    if args.poly:
        p = Poly.of([parse_fraction(c.strip(), "--poly") for c in args.poly.split(",")])
    if args.mode == "automorphism" and not the_map.is_invertible():
        raise ValidationError("automorphism mode needs an invertible endomorphism")
    result = assemble(algebra, args.mode, the_map, p)
    # one compact object: indent would force the pure-Python encoder
    write_output([json.dumps(extension_to_json(result), sort_keys=True)], args.json_out)
    print(
        f"mode={result.mode} base_dim={algebra.dim} extension_dim={result.algebra.dim} "
        f"relation_degree={result.p.degree} free_module={result.free_module} "
        f"defect_dim={result.defect_dim}",
        file=sys.stderr,
    )
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code else 0
    handlers = {
        "validate": cmd_validate,
        "suite": cmd_suite,
        "explore": cmd_explore,
        "idempotents": cmd_idempotents,
        "extend": cmd_extend,
    }
    try:
        return handlers[args.command](args)
    except (ParseError, ValidationError, UnknownSuite) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except SkewexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
