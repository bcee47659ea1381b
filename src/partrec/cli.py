"""Command-line interface.

Subcommands:

    compute         print a value table for a counting function
    verify          run one theorem suite (or all) through the checker
    check           parse and check a .qid identity file
    oracle-compare  series coefficients vs brute-force enumeration

Exit codes are a stable contract: 0 success, 1 verification failure,
2 usage, parse or I/O error.  Results go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from . import dsl
from .functions import ORACLE_MAX_N, PartitionFunctionId, gf_series
from .recurrences import VERIFY_MAX_N, TheoremId, verify, verify_all
from .report import VerificationReport, format_int

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

FUNCTION_NAMES = ", ".join(f.value for f in PartitionFunctionId)


def _fail_usage(message: str) -> int:
    print(message, file=sys.stderr)
    return EXIT_USAGE


def _csv_writer():
    import csv  # loaded on demand, like the oracle: most runs write no csv

    return csv.writer(sys.stdout, lineterminator="\n")


def _write_json(doc) -> None:
    import json  # loaded on demand, as csv is: only --format json writes it

    json.dump(doc, sys.stdout)
    print()


def cmd_compute(args: argparse.Namespace) -> int:
    try:
        fid = PartitionFunctionId(args.function)
    except ValueError:
        return _fail_usage(f"unknown function {args.function!r}; known: {FUNCTION_NAMES}")
    if not 0 <= args.n <= dsl.MAX_ORDER:
        return _fail_usage(f"--n must be nonnegative and at most {dsl.MAX_ORDER}")
    values = gf_series(fid, args.n).coeffs
    if args.format == "csv":
        writer = _csv_writer()
        writer.writerow(["n", "value"])
        for n, value in enumerate(values):
            writer.writerow([n, value])
    elif args.format == "json":
        _write_json({"function": fid.value, "n_max": args.n, "values": list(values)})
    else:
        for n, value in enumerate(values):
            print(f"{n}\t{value}")
    return EXIT_OK


def _emit_reports(reports: list[VerificationReport], fmt: str, many: bool) -> None:
    if fmt == "json":
        _write_json([r.to_json() for r in reports] if many else reports[0].to_json())
    elif fmt == "csv":
        writer = _csv_writer()
        writer.writerow(["theorem", "n_max", "status", "first_n", "first_residual", "millis"])
        for r in reports:
            fail = r.first_failure
            writer.writerow([
                r.theorem,
                r.n_max,
                r.status,
                "" if fail is None else fail.n,
                "" if fail is None else format_int(fail.residual),
                r.millis,
            ])
    else:
        for r in reports:
            print(r.summary_line())


def cmd_verify(args: argparse.Namespace) -> int:
    if not 0 <= args.n <= VERIFY_MAX_N:
        return _fail_usage(f"--n must be nonnegative and at most {VERIFY_MAX_N}")
    if args.theorem.lower() == "all":
        reports = verify_all(args.n)
        many = True
    else:
        try:
            tid = TheoremId(args.theorem.upper())
        except ValueError:
            known = ", ".join(t.value for t in TheoremId)
            return _fail_usage(f"unknown theorem {args.theorem!r}; known: all, {known}")
        reports = [verify(tid, args.n)]
        many = False
    _emit_reports(reports, args.format, many)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURE


def cmd_check(args: argparse.Namespace) -> int:
    if args.order is not None and not 1 <= args.order <= dsl.MAX_ORDER:
        return _fail_usage(f"--order must be within 1..{dsl.MAX_ORDER}")
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _fail_usage(f"cannot read {args.file}: {exc}")
    try:
        statements = dsl.parse(text)
    except dsl.ParseError as exc:
        return _fail_usage(f"{args.file}: {exc}")
    if not statements:
        print("no statements", file=sys.stderr)
        return EXIT_OK

    def run(stmt: dsl.IdentityStatement) -> VerificationReport:
        try:
            return dsl.check(stmt, order=args.order)
        except dsl.EvalError as exc:
            order = args.order if args.order is not None else stmt.order
            return VerificationReport(stmt.label(), order, False, None, 0, str(exc))

    reports = [run(s) for s in statements]
    for r in reports:
        print(r.summary_line())
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAILURE


def cmd_oracle_compare(args: argparse.Namespace) -> int:
    try:
        fid = PartitionFunctionId(args.function)
    except ValueError:
        return _fail_usage(f"unknown function {args.function!r}; known: {FUNCTION_NAMES}")
    if not 0 <= args.n <= ORACLE_MAX_N:
        return _fail_usage(f"--n must be within the enumeration envelope 0..{ORACLE_MAX_N}")
    from . import oracle  # loaded on demand: only this command enumerates

    series = gf_series(fid, args.n).coeffs
    spec = oracle.constraint_for(fid)
    for n in range(args.n + 1):
        counted = oracle.oracle_count(spec, n)
        if counted != series[n]:
            print(f"mismatch at n={n}: series={series[n]}, enumeration={counted}")
            return EXIT_FAILURE
        print(f"ok n={n} value={series[n]}")
    print(f"{fid.value}: series and enumeration agree for 0 <= n <= {args.n}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partrec",
        description="Exact partition-function tables and machine verification "
        "of their recurrence identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="print a table of values")
    p_compute.add_argument("function", help=f"one of: {FUNCTION_NAMES}")
    p_compute.add_argument("--n", type=int, default=20, help="largest index (default 20)")
    p_compute.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    p_compute.set_defaults(func=cmd_compute)

    p_verify = sub.add_parser("verify", help="run residual suites")
    p_verify.add_argument("theorem", help="a theorem id or 'all'")
    p_verify.add_argument(
        "--n", type=int, default=2000, help="verify for 0 <= n <= N (default 2000)"
    )
    p_verify.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    p_verify.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: runs use one thread"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_check = sub.add_parser("check", help="check a .qid identity file")
    p_check.add_argument("file")
    p_check.add_argument("--order", type=int, default=None, help="override every statement's order")
    p_check.add_argument(
        "--threads", type=int, default=1, help="accepted and ignored: runs use one thread"
    )
    p_check.set_defaults(func=cmd_check)

    p_oracle = sub.add_parser(
        "oracle-compare", help="compare series values against brute-force enumeration"
    )
    p_oracle.add_argument("function", help=f"one of: {FUNCTION_NAMES}")
    p_oracle.add_argument(
        "--n", type=int, default=40, help=f"largest index, at most {ORACLE_MAX_N}"
    )
    p_oracle.set_defaults(func=cmd_oracle_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head`): an I/O error, reported by the
        # exit code alone; the interpreter's last flush then writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
