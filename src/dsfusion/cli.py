"""Command-line front end.

Three subcommands: ``fuse`` runs one condition (optionally printing a
combination table per fold step), ``sweep`` predicts every condition, and
``export-builtin`` writes a bundled scenario as an editable JSON document.

Exit codes: 0 success, 1 usage error (including unreadable files and a
stdout that cannot encode the report), 2 validation error, 3 total
conflict.  Diagnostics go to stderr; stdout gets either the complete report
or nothing.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from . import __version__
from .document import emit_scenario, parse_scenario, scenario_digest
from .errors import EvidenceError, ParseError, TotalConflictError
from .render import (
    RunReport,
    fuse_json,
    fuse_text,
    sweep_csv,
    sweep_json,
    sweep_text,
)
from .scenario import (
    Scenario,
    SweepFailure,
    builtin_takraw_scenario,
    fusion_report,
    prediction_from_report,
    sweep,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CONFLICT = 3

_FORMATS = ("table", "json", "csv")


def _add_source_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--scenario", metavar="PATH", help="scenario JSON document")
    group.add_argument("--builtin", choices=["takraw"], help="bundled scenario")


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the dsfusion command line (``main`` reuses its first one)."""
    parser = argparse.ArgumentParser(
        prog="dsfusion",
        description="Dempster-Shafer evidence fusion for direction-prediction scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    fuse = commands.add_parser("fuse", help="fuse one condition and report the winner")
    _add_source_flags(fuse)
    fuse.add_argument(
        "--condition", type=int, required=True, metavar="N",
        help="1-based condition index",
    )
    fuse.add_argument(
        "--trace", action="store_true",
        help="print one combination table per fold step",
    )
    fuse.add_argument("--format", choices=_FORMATS, default="table")
    fuse.add_argument(
        "--precision", type=int, choices=range(1, 13), default=4, metavar="D",
        help="table decimal places, 1..12 (default 4)",
    )

    sweep_cmd = commands.add_parser("sweep", help="predict every condition")
    _add_source_flags(sweep_cmd)
    sweep_cmd.add_argument("--format", choices=_FORMATS, default="table")

    export = commands.add_parser(
        "export-builtin", help="write a bundled scenario as a JSON document",
    )
    export.add_argument("name", choices=["takraw"])
    export.add_argument("--out", required=True, metavar="PATH")

    return parser


def _exit_code(exc: Exception) -> int:
    """The exit code for an error: usage for I/O, else conflict or validation."""
    # UnicodeEncodeError: stdout's encoding (say PYTHONIOENCODING=ascii) cannot
    # carry the report, which is encoded whole, so nothing reached stdout.
    if isinstance(exc, (OSError, UnicodeEncodeError)):
        return EXIT_USAGE
    return EXIT_CONFLICT if isinstance(exc, TotalConflictError) else EXIT_VALIDATION


def _write(output: str) -> None:
    """The report to stdout, which is None if the process started with it closed."""
    if sys.stdout is None:
        raise OSError("stdout is closed")
    sys.stdout.write(output)


def _load_scenario(args: argparse.Namespace) -> tuple[str, Scenario]:
    if args.builtin is not None:
        return f"builtin:{args.builtin}", builtin_takraw_scenario()
    with open(args.scenario, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.scenario}: not UTF-8 text ({exc.reason})") from None
    return args.scenario, parse_scenario(text)


def _cmd_fuse(args: argparse.Namespace) -> int:
    name, scenario = _load_scenario(args)
    report = fusion_report(scenario, args.condition)
    run = RunReport(
        scenario=scenario,
        scenario_name=name,
        # Only the table prints the digest; JSON and CSV need not hash.
        scenario_digest=scenario_digest(scenario) if args.format == "table" else "",
        condition=args.condition,
        report=report,
        prediction=prediction_from_report(report, args.condition),
    )
    if args.format == "json":
        output = fuse_json(run)
    elif args.format == "csv":
        output = sweep_csv([run.prediction])
    else:
        output = fuse_text(run, args.precision, args.trace)
    _write(output)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    name, scenario = _load_scenario(args)
    results = sweep(scenario)
    if args.format == "json":
        output = sweep_json(results)
    elif args.format == "csv":
        output = sweep_csv(results)
    else:
        output = sweep_text(name, scenario_digest(scenario), results)
    _write(output)
    code = EXIT_OK
    for result in results:
        if isinstance(result, SweepFailure):
            print(f"condition {result.condition}: {result.error}", file=sys.stderr)
            code = max(code, _exit_code(result.error))
    return code


def _cmd_export_builtin(args: argparse.Namespace) -> int:
    document = emit_scenario(builtin_takraw_scenario())
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    return EXIT_OK


_COMMANDS = {
    "fuse": _cmd_fuse,
    "sweep": _cmd_sweep,
    "export-builtin": _cmd_export_builtin,
}


# Built by main's first call.  Reuse is safe: parse_args makes fresh namespaces
# on every call, and argparse reads the terminal width and sys.stdout/stderr
# when it prints, not when it is built.
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage problems
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (OSError, UnicodeEncodeError, EvidenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entrypoint() -> None:
    code = main()
    # A buffered stdout may still hold the report.  Flushed at interpreter
    # exit, a failure would print a traceback-like notice and exit 120.
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if code != EXIT_USAGE:  # else main has reported a failed write
                print(f"error: {exc}", file=sys.stderr)
                code = EXIT_USAGE
            # The report is lost; let the flush at exit write it to nowhere.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
