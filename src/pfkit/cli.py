"""Command line front end.

Exit codes, carried by the error classes: 0 success, 2 invalid input,
3 unsupported code, 4 cap exceeded, 5 verification failure (a verify suite
failed, or an internal cross-check failed mid-analysis).  An --output file
or a stdout that cannot be written also exits 2.

The report is written in chunks as its rows are built, after every check
has run, so a job that fails prints nothing.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import InvalidInputError, PfkitError
from .report import ANALYSES, JobSpec, to_json, to_text, verify_passed

# The CLI builds the streaming report; perfbench/tracing.py times this step
# under the name `run`.
from .report import build as run


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pfkit",
        description=(
            "Exact invariants of parafermion code extensions: classification, "
            "coset lattices, branching tables, and the module census."
        ),
    )
    p.add_argument("--k", type=int, required=True, help="level (>= 2)")
    p.add_argument("--ell", type=int, required=True, help="code length (>= 1)")
    p.add_argument(
        "--gen",
        action="append",
        default=[],
        metavar="ROW",
        help="comma-separated generator row, repeatable",
    )
    p.add_argument(
        "--analysis",
        action="append",
        choices=ANALYSES,
        default=[],
        help="analysis to run, repeatable (default: classify)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="fmt",
        help="report format",
    )
    p.add_argument(
        "--coset",
        metavar="J:BITS",
        help="coset selector for the branch analysis, e.g. 1:1100",
    )
    p.add_argument(
        "--orbit-cap",
        type=int,
        default=JobSpec.orbit_cap,
        help="maximum label-space size for orbit enumeration",
    )
    p.add_argument(
        "--verify-max-k",
        type=int,
        default=JobSpec.verify_max_k,
        help="largest level the verify analysis will accept",
    )
    p.add_argument(
        "--output",
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    return p


def _parse_generators(rows: list[str]) -> tuple[tuple[int, ...], ...]:
    out = []
    for row in rows:
        try:
            entries = tuple(int(x.strip()) for x in row.split(","))
        except ValueError:
            raise InvalidInputError(f"generator row {row!r} is not integers")
        out.append(entries)
    return tuple(out)


def _parse_coset(text: str) -> tuple[int, tuple[int, ...]]:
    shift, sep, bits = text.partition(":")
    if not sep or not bits:
        raise InvalidInputError(f"coset selector {text!r} is not J:BITS")
    try:
        j = int(shift)
        bit_tuple = tuple(int(b) for b in bits)
    except ValueError:
        raise InvalidInputError(f"coset selector {text!r} is not J:BITS")
    return j, bit_tuple


def _write_atomic(path: str, write) -> None:
    """Call `write(handle)` on a temporary file next to path, then rename it
    over path, so a failed write leaves no partial report behind."""
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    handle = open(tmp, "x", encoding="utf-8")
    try:
        with handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        generators = _parse_generators(args.gen)
        coset = _parse_coset(args.coset) if args.coset else None
        analyses = tuple(args.analysis) if args.analysis else ("classify",)
        job = JobSpec(
            k=args.k,
            ell=args.ell,
            generators=generators,
            analyses=analyses,
            fmt=args.fmt,
            coset=coset,
            orbit_cap=args.orbit_cap,
            verify_max_k=args.verify_max_k,
        )
        report = run(job)
    except PfkitError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.exit_code

    def write(out) -> None:
        if args.fmt == "json":
            to_json(report, out)
            out.write("\n")
        else:
            to_text(report, out)

    if args.output:
        try:
            _write_atomic(args.output, write)
        except OSError as err:
            print(
                f"error: cannot write {args.output}: {err.strerror or err}",
                file=sys.stderr,
            )
            return 2
    else:
        stdout = sys.stdout
        try:
            if stdout is None:  # the process started with stdout closed
                raise OSError("stdout is closed")
            write(stdout)
            stdout.flush()
        except OSError as err:
            print(f"error: cannot write stdout: {err.strerror or err}", file=sys.stderr)
            if stdout is not None and stdout is sys.__stdout__:
                # let the interpreter's own flush of stdout at exit succeed
                os.dup2(os.open(os.devnull, os.O_WRONLY), stdout.fileno())
            return 2
    if not verify_passed(report):
        return 5
    return 0
