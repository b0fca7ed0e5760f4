"""Command-line surface.

Commands: gen, count, table, series, check, biject.  Exit codes:
0 all passed, 1 verification or precondition failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bijections import (
    EmptyMatching,
    NotP2Avoiding,
    NotR4Avoiding,
    glue,
    matching_to_string,
    split,
    string_to_matching,
)
from .enumeration import count_avoiders, count_table, enumerate_stoimenow
from .identities import gf_registry
from .matching import format_arcs, parse_arcs
from .patterns import avoids_all, parse_pattern_set
from .posets import omega, poset_to_json
from .series import Polynomial, RationalGF, gf_coefficients
from .verify import SUITES, run_suite, verify_table

# --n and --n-max are range-checked by the library call that pays for them
# (enumeration, verify.run_suite); the caps below belong to the CLI alone.
MAX_ORDER = 64
# biject refuses operands and string images with more arcs: the P2 or R4
# check of an operand holds up to about n^2 partial occurrences at a site, so
# it takes cubic time at worst.  At 100 arcs on a 2-core host, split of an
# all-crossing input takes about 0.08 s in-process and glue of two 0.15 s;
# the slowest single check found on sampled 100-arc inputs took 0.25 s.
MAX_BIJECT_ARCS = 100
# Every command runs on one thread; --workers is still accepted so that
# scripts passing it keep working.
WORKERS_HELP = "accepted for compatibility (at least 1); output and speed do not depend on it"


def _display(m) -> str:
    return format_arcs(m) or "∅"


def _check_bounds(args) -> None:
    order = getattr(args, "order", None)
    if order is not None and not 0 <= order <= MAX_ORDER:
        raise ValueError(f"--order must be between 0 and {MAX_ORDER}")
    workers = getattr(args, "workers", None)
    if workers is not None and workers < 1:
        raise ValueError("--workers must be at least 1")


def cmd_gen(args) -> int:
    avoid = parse_pattern_set(args.avoid) if args.avoid else None
    render = _json_arcs if args.format == "json" else format_arcs
    write = sys.stdout.write
    for m in enumerate_stoimenow(args.n):
        if avoid is None or avoids_all(m, avoid):
            write(render(m) + "\n")
    return 0


def _json_arcs(m) -> str:
    return json.dumps([[a.opener, a.closer] for a in m.arcs])


def cmd_count(args) -> int:
    patterns = parse_pattern_set(args.avoid or "")
    if (args.n is None) == (args.n_max is None):
        raise ValueError("count needs exactly one of --n and --n-max")
    if args.n is not None:
        count = count_avoiders(args.n, patterns)
        if args.format == "json":
            print(json.dumps({"patterns": patterns.name, "n": args.n, "count": count}))
        else:
            print(count)
        return 0
    table = count_table([patterns], args.n_max)
    if args.format == "json":
        print(table.to_json())
    else:
        sys.stdout.write(table.to_csv())
    return 0


def cmd_table(args) -> int:
    row_names = None
    if args.rows:
        row_names = [r for chunk in args.rows for r in chunk.split(";") if r]
    report = verify_table(args.n_max, row_names)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.overall_pass else 1


def _series_source(args) -> RationalGF:
    if args.name:
        registry = gf_registry()
        name = parse_pattern_set(args.name).name
        if name not in registry:
            raise ValueError(f"unknown series name {args.name!r}")
        return registry[name]
    if not args.num or not args.den:
        raise ValueError("need either --name or both --num and --den")
    return RationalGF(Polynomial.parse(args.num), Polynomial.parse(args.den))


def cmd_series(args) -> int:
    values = gf_coefficients(_series_source(args), args.order)
    if args.format == "bfile":
        start = 0 if args.with_zero else 1
        for n in range(start, len(values)):
            sys.stdout.write(f"{n} {values[n]}\n")
    else:
        sys.stdout.write("n,coefficient\n")
        for n, v in enumerate(values):
            sys.stdout.write(f"{n},{v}\n")
    return 0


def cmd_check(args) -> int:
    outcomes = run_suite(args.suite, order=args.order, n_max=args.n_max)
    for outcome in outcomes:
        print(outcome.line())
    return 0 if all(o.passed for o in outcomes) else 1


def cmd_biject(args) -> int:
    try:
        if args.op == "glue":
            if args.left is None or args.right is None:
                raise ValueError("glue needs --left and --right")
            print(_display(glue(_operand(args.left, "--left"), _operand(args.right, "--right"))))
        elif args.op == "split":
            m1, m2 = split(_operand(_required_input(args), "--input"))
            print(f"{_display(m1)} | {_display(m2)}")
        elif args.op == "string":
            word = _required_input(args)
            _check_biject_size(len(word) + 1, "--input")
            print(_display(string_to_matching(word)))
        elif args.op == "unstring":
            print(matching_to_string(_operand(_required_input(args), "--input")))
        elif args.op == "omega":
            print(poset_to_json(omega(_operand(_required_input(args), "--input"))))
    except (NotP2Avoiding, NotR4Avoiding, EmptyMatching) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def _check_biject_size(n: int, flag: str) -> None:
    if n > MAX_BIJECT_ARCS:
        raise ValueError(f"{flag} has {n} arcs; biject takes at most {MAX_BIJECT_ARCS}")


def _operand(text: str, flag: str):
    m = parse_arcs(text)
    _check_biject_size(m.n, flag)
    return m


def _required_input(args) -> str:
    if args.input is None:
        raise ValueError(f"--input is required for --op {args.op}")
    return args.input


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoimenow",
        description="Stoimenow matchings: generation, avoidance counts, exact series, bijections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="stream matchings, one per line")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--avoid", default=None, help="pattern set, e.g. P1,P3")
    p.add_argument("--format", choices=["arcs", "json"], default="arcs")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("count", help="count avoiders for a pattern set")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--avoid", default=None)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "table",
        help="brute force vs closed forms for the 26 multi-avoidance rows over P1..P5 "
        "(R3/R4/R5 are in series and count)",
    )
    p.add_argument("--n-max", type=int, default=7)
    p.add_argument("--rows", action="append", default=None, help="restrict to rows (repeat or ';'-join)")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.add_argument("--workers", type=int, default=1, help=WORKERS_HELP)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("series", help="expand a closed form to coefficients")
    p.add_argument("--name", default=None, help="registry row, e.g. \"P2,P4\" or R3")
    p.add_argument("--num", default=None, help="numerator polynomial")
    p.add_argument("--den", default=None, help="denominator polynomial")
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--format", choices=["csv", "bfile"], default="csv")
    p.add_argument("--with-zero", action="store_true")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("check", help="run an identity or property suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--order", type=int, default=12)
    p.add_argument("--n-max", type=int, default=6)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("biject", help="apply a bijection to one object")
    p.add_argument("--op", choices=["glue", "split", "string", "unstring", "omega"], required=True)
    p.add_argument("--input", default=None, help="arc-list or a/b string")
    p.add_argument("--left", default=None, help="first glue operand (arc-list)")
    p.add_argument("--right", default=None, help="second glue operand (arc-list)")
    p.set_defaults(func=cmd_biject)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
