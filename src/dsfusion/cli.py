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

import io
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

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
    predict,
    prediction_from_report,
    sweep,
)

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    import argparse

    _Args = argparse.Namespace | SimpleNamespace

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_CONFLICT = 3

_FORMATS = ("table", "json", "csv")

# Each subcommand's help, its required pair of exclusive sources, and its other
# arguments, as add_argument's names and keyword arguments.  build_parser builds
# argparse's parser from this table and _read_argv reads well-formed command
# lines from it, so the two cannot disagree on a name, a type or a default.
_SOURCES = (
    ("--scenario", {"metavar": "PATH", "help": "scenario JSON document"}),
    ("--builtin", {"choices": ["takraw"], "help": "bundled scenario"}),
)
_FORMAT = ("--format", {"choices": _FORMATS, "default": "table"})
_OPTIONS = {
    "fuse": ("fuse one condition and report the winner", _SOURCES, (
        ("--condition", {
            "type": int, "required": True, "metavar": "N",
            "help": "1-based condition index",
        }),
        ("--trace", {
            "action": "store_true", "help": "print one combination table per fold step",
        }),
        _FORMAT,
        ("--precision", {
            "type": int, "choices": range(1, 13), "default": 4, "metavar": "D",
            "help": "table decimal places, 1..12 (default 4)",
        }),
    )),
    "sweep": ("predict every condition", _SOURCES, (_FORMAT,)),
    "export-builtin": ("write a bundled scenario as a JSON document", (), (
        ("name", {"choices": ["takraw"]}),
        ("--out", {"required": True, "metavar": "PATH"}),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the dsfusion command line, one per ``main`` call that needs it."""
    import argparse  # here: a well-formed command line never needs it

    parser = argparse.ArgumentParser(
        prog="dsfusion",
        description="Dempster-Shafer evidence fusion for direction-prediction scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, sources, arguments) in _OPTIONS.items():
        command = commands.add_parser(name, help=help_text)
        if sources:
            group = command.add_mutually_exclusive_group(required=True)
            for flag, options in sources:
                group.add_argument(flag, **options)
        for flag, options in arguments:
            command.add_argument(flag, **options)
    return parser


def _read_argv(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace argparse would return for a well-formed command line, or
    None for anything else, which ``main`` leaves to argparse.

    Well-formed: a subcommand, then each of its arguments at most once under its
    exact name, with a value that is not empty, does not start with "-" and
    passes the argument's ``type`` and ``choices`` as argparse applies them.
    Help, version, abbreviations, "--name=value" and every error go to argparse,
    the one owner of help and error text.
    """
    tokens = iter(argv)
    name = next(tokens, None)
    if name not in _OPTIONS:
        return None
    _, sources, arguments = _OPTIONS[name]
    table = dict(sources + arguments)
    given: dict[str, object] = {}
    for token in tokens:
        if token.startswith("-"):
            options = table.get(token)
            if options is None or token in given:
                return None
            if options.get("action") == "store_true":
                given[token] = True
                continue
            value = next(tokens, "")
            if value.startswith("-"):
                return None
        else:  # the next positional argument still to fill
            value = token
            token = next((f for f in table if f[0] != "-" and f not in given), None)
            if token is None:
                return None
            options = table[token]
        if not value:
            return None
        if "type" in options:
            try:
                value = options["type"](value)
            except (TypeError, ValueError):
                return None
        if "choices" in options and value not in options["choices"]:
            return None
        given[token] = value
    if sources and sum(flag in given for flag, _ in sources) != 1:
        return None
    fields = {"command": name}
    for flag, options in table.items():
        if flag not in given and (options.get("required") or flag[0] != "-"):
            return None
        default = False if options.get("action") == "store_true" else options.get("default")
        fields[flag.lstrip("-").replace("-", "_")] = given.get(flag, default)
    return SimpleNamespace(**fields)


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


def _warn(line: str) -> None:
    """One diagnostic line to stderr.  A stderr that is closed, full or a pipe
    nobody reads loses the line, never the exit code that the run earned."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(line + "\n")
        except OSError:
            pass


def _load_scenario(args: _Args) -> tuple[str, Scenario]:
    if args.builtin is not None:
        return f"builtin:{args.builtin}", builtin_takraw_scenario()
    with open(args.scenario, encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.scenario}: not UTF-8 text ({exc.reason})") from None
    return args.scenario, parse_scenario(text)


def _cmd_fuse(args: _Args) -> int:
    name, scenario = _load_scenario(args)
    # Only JSON and the traced table print the steps; the others keep one at a time.
    if args.format == "json" or args.format == "table" and args.trace:
        report = fusion_report(scenario, args.condition)
        prediction = prediction_from_report(report, args.condition)
    else:
        report, prediction = None, predict(scenario, args.condition)
    run = RunReport(scenario, report, prediction)
    if args.format == "json":
        output = fuse_json(run)
    elif args.format == "csv":
        output = sweep_csv([prediction])
    else:
        output = fuse_text(name, scenario_digest(scenario), run, args.precision)
    _write(output)
    return EXIT_OK


def _cmd_sweep(args: _Args) -> int:
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
            _warn(f"condition {result.condition}: {result.error}")
            code = max(code, _exit_code(result.error))
    return code


def _cmd_export_builtin(args: _Args) -> int:
    document = emit_scenario(builtin_takraw_scenario())
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(document)
    return EXIT_OK


_COMMANDS = {
    "fuse": _cmd_fuse,
    "sweep": _cmd_sweep,
    "export-builtin": _cmd_export_builtin,
}


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        stderr = sys.stderr  # None with fd 2 closed: argparse's usage would go to stdout
        sys.stderr = stderr or io.StringIO()
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            # argparse exits 0 for --help and 2 for usage problems
            return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
        finally:
            sys.stderr = stderr
    try:
        return _COMMANDS[args.command](args)
    except (OSError, UnicodeEncodeError, EvidenceError) as exc:
        _warn(f"error: {exc}")
        return _exit_code(exc)


def _flush(stream) -> OSError | None:
    """Flush a standard stream.  On failure, point its descriptor at the null
    device, so that the flush at interpreter exit (which would print a notice
    and exit 120) writes the lost bytes to nowhere, and return the error."""
    if stream is None:
        return None
    try:
        stream.flush()
    except OSError as exc:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        return exc
    return None


def entrypoint() -> None:
    code = main()
    # A buffered stdout may still hold the report, and stderr a diagnostic.
    error = _flush(sys.stdout)
    if error is not None and code != EXIT_USAGE:  # else main has reported a failed write
        _warn(f"error: {error}")
        code = EXIT_USAGE
    _flush(sys.stderr)
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
