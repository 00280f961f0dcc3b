"""Command-line front end.

Subcommands: gen (make a fixture file), run (sequential or simulated
distributed multiply with pass/fail verdict), verify (full check report),
convert (canonical format and Matrix Market in both directions).

The rank count of a distributed run is just a flag: ranks are simulated
in-process on threads, no launcher or separate processes involved.

Exit codes: 0 success, 1 numerical verification failure, 2 usage or data
errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .collectives import MAX_RANKS, CollectiveError
from .core import residual_sq, spmv_seq
from .distributed import check_pass, run_distributed
from .fixture_io import (FixtureFormatError, FixtureValidationError,
                         export_matrix_market, import_matrix_market,
                         read_fixture, write_fixture, FORMAT_HEADER)
from .fixtures import GenParams, InvalidGenParams, generate, reference_fixture
from .verify import verify_fixture

# anything wrong with the request or its data, sizes too large to allocate
# included, is a usage error (exit 2); only a failed numerical verdict exits 1
_USAGE_ERRORS = (ValueError, CollectiveError, OSError, MemoryError)

SUCCESS_LINE = "Succeeded in computing y = Ax"
ERROR_LINE = "Error in computing y = Ax, with norm = {norm:g}"


def _parse_range(flag: str, text: str | None, default: str) -> tuple[int, int]:
    lo, sep, hi = (default if text is None else text).partition(":")
    try:
        if sep:
            return int(lo), int(hi)
    except ValueError:
        pass
    raise InvalidGenParams(f"{flag} must be two integers LO:HI, got {text!r}")


def _parse_int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got "
                         f"{text!r}") from None


def cmd_gen(args) -> int:
    if args.reference:
        conflicting = [args.rows, args.cols, args.nnz, args.row_fill,
                       args.seed, args.value_range, args.x_range]
        if any(v is not None for v in conflicting):
            raise ValueError("--reference cannot be combined with generation "
                             "parameters")
        fixture = reference_fixture()
    else:
        if args.rows is None or args.cols is None:
            raise ValueError("--rows and --cols are required (or use "
                             "--reference)")
        if (args.nnz is None) == (args.row_fill is None):
            raise ValueError("exactly one of --nnz and --row-fill is required")
        params = GenParams(M=args.rows, N=args.cols, target_nnz=args.nnz,
                           row_fill=args.row_fill,
                           value_range=_parse_range("--value-range",
                                                    args.value_range, "1:11"),
                           x_range=_parse_range("--x-range", args.x_range,
                                                "1:9"),
                           seed=0 if args.seed is None else args.seed)
        fixture = generate(params)
    write_fixture(fixture, args.out)
    print(f"wrote {args.out}: {fixture.M} x {fixture.N}, "
          f"{fixture.nnz} entries")
    return 0


def cmd_run(args) -> int:
    if args.mode == "seq" and (args.ranks is not None or args.trace):
        raise ValueError("--ranks and --trace apply only to --mode dist")
    ranks = 1 if args.ranks is None else args.ranks
    if not 1 <= ranks <= MAX_RANKS:
        raise ValueError(f"--ranks must be in 1..{MAX_RANKS}, got {ranks}")
    # the run itself is the judge of the stored product, so load without
    # the reader's own ground-truth check
    fixture = read_fixture(args.fixture, check_ground_truth=False)
    if args.mode == "seq":
        y = spmv_seq(fixture.matrix(), fixture.x_vector())
        norm = residual_sq(y, fixture.z_vector())
    else:
        report = run_distributed(fixture, ranks)
        if args.trace:
            print(report.trace.dump())
        norm = report.residual_sq
    if check_pass(norm):
        print(SUCCESS_LINE)
        return 0
    print(ERROR_LINE.format(norm=norm))
    return 1


def cmd_verify(args) -> int:
    fixture = read_fixture(args.fixture, check_ground_truth=False)
    explicit_rows = (_parse_int_list("--row-sizes", args.row_sizes)
                     if args.row_sizes else None)
    explicit_cols = (_parse_int_list("--col-sizes", args.col_sizes)
                     if args.col_sizes else None)
    ranks = _parse_int_list("--ranks-list", args.ranks_list)
    if not ranks or any(not 1 <= k <= MAX_RANKS for k in ranks):
        raise ValueError(f"--ranks-list must name counts in 1..{MAX_RANKS}, "
                         f"got {args.ranks_list!r}")
    sections = verify_fixture(fixture, ranks, explicit_rows, explicit_cols)
    all_ok = all(report.overall for _, report in sections)
    if args.json:
        payload = [{"section": name, "overall": report.overall,
                    "checks": report.as_records()}
                   for name, report in sections]
        print(json.dumps(payload, indent=2))
    else:
        for name, report in sections:
            print(f"[{name}]")
            print(report.as_text())
    return 0 if all_ok else 1


def _sniff_format(path) -> str:
    # the readers name the file in their error for a byte that is not UTF-8
    with open(path, encoding="utf-8", errors="replace") as fh:
        first = fh.readline().strip()
    if first == FORMAT_HEADER:
        return "fixture"
    if first.startswith("%%MatrixMarket"):
        return "matrixmarket"
    raise FixtureFormatError(f"{path}: unrecognized input format")


def cmd_convert(args) -> int:
    src_format = _sniff_format(args.infile)
    if src_format == "fixture":
        if args.x is not None or args.x_seed is not None:
            raise ValueError("--x and --x-seed apply only to Matrix Market "
                             "input")
        fixture = read_fixture(args.infile)
    else:
        fixture = import_matrix_market(args.infile, x_source=args.x,
                                       x_seed=args.x_seed)
    if args.format == "fixture":
        write_fixture(fixture, args.out)
        print(f"wrote {args.out} (canonical fixture)")
    else:
        x_path = export_matrix_market(fixture, args.out)
        print(f"wrote {args.out} and {x_path} (Matrix Market)")
    return 0


# built once per process; parse_args does not change the parser
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spmvsim",
        description="Sparse matrix-vector multiplication over CSR with a "
                    "deterministic in-process simulation of message-passing "
                    "ranks.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a fixture file")
    gen.add_argument("--rows", type=int, default=None, help="global row count")
    gen.add_argument("--cols", type=int, default=None, help="global column count")
    gen.add_argument("--nnz", type=int, default=None,
                     help="total number of stored entries")
    gen.add_argument("--row-fill", type=int, default=None,
                     help="maximum stored entries per row")
    gen.add_argument("--seed", type=int, default=None,
                     help="generator seed (default 0)")
    gen.add_argument("--value-range", default=None,
                     help="inclusive integer range LO:HI for matrix values "
                          "(default 1:11)")
    gen.add_argument("--x-range", default=None,
                     help="inclusive integer range LO:HI for x entries "
                          "(default 1:9)")
    gen.add_argument("--reference", action="store_true",
                     help="emit the bundled reference instance instead of "
                          "generating")
    gen.add_argument("--out", required=True, help="output fixture path")
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="multiply and judge against the stored "
                                     "product")
    run.add_argument("--fixture", required=True, help="fixture file to run")
    run.add_argument("--mode", choices=("seq", "dist"), default="seq")
    run.add_argument("--ranks", type=int, default=None,
                     help="simulated rank count for --mode dist (default 1)")
    run.add_argument("--trace", action="store_true",
                     help="print the collective trace of a distributed run")
    run.set_defaults(func=cmd_run)

    ver = sub.add_parser("verify", help="run the full verification report")
    ver.add_argument("--fixture", required=True)
    ver.add_argument("--ranks-list", default="1,2,3,4,5,6,7,8",
                     help="comma-separated rank counts to verify")
    ver.add_argument("--row-sizes", default=None,
                     help="explicit comma-separated row block sizes")
    ver.add_argument("--col-sizes", default=None,
                     help="explicit comma-separated column block sizes")
    ver.add_argument("--json", action="store_true",
                     help="emit the report as JSON")
    ver.set_defaults(func=cmd_verify)

    conv = sub.add_parser("convert",
                          help="convert between canonical fixture and "
                               "Matrix Market")
    conv.add_argument("--in", dest="infile", required=True,
                      help="input file (format is sniffed)")
    conv.add_argument("--out", required=True, help="output file")
    conv.add_argument("--format", choices=("fixture", "matrixmarket"),
                      required=True, help="output format")
    conv.add_argument("--x", default=None,
                      help="companion x file for Matrix Market input")
    conv.add_argument("--x-seed", type=int, default=None,
                      help="seed for generating x when Matrix Market input "
                           "has no companion (default 0)")
    conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    sys.exit(main())
