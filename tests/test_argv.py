"""The CLI's own reader of well-formed command lines, held to argparse.

``main`` reads a well-formed command line from the option table without
argparse, and leaves everything else to argparse.  For every command line the
reader accepts, its namespace must be the one argparse returns.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from dsfusion import cli

PARSER = cli.build_parser()

# Each subcommand's arguments, written out here rather than read from the
# table under test, with values that argparse accepts and values it refuses.
ARGUMENTS = {
    "fuse": ("--scenario", "--builtin", "--condition", "--trace", "--format", "--precision"),
    "sweep": ("--scenario", "--builtin", "--format"),
    "export-builtin": ("name", "--out"),
}
VALUES = {
    "--scenario": (("doc.json", "a b", "x=y", "fuse"), ("--builtin", "-", "")),
    "--builtin": (("takraw",), ("TAKRAW", "takra", "")),
    "--condition": (("1", "3", " 4", "٣", "+5", "1_0", "99"), ("-1", "four", "0x3", "")),
    "--format": (("table", "json", "csv"), ("JSON", "tab", "")),
    "--precision": (("1", "4", "12", " 7 ", "٣"), ("0", "13", "-2", "1.0", "")),
    "--out": (("out.json", "a=b"), ("-", "")),
    "name": (("takraw",), ("other", "")),
}
SOURCES = ("--scenario", "--builtin")
# what argparse reads but the reader leaves to it
EXTRA = (
    ("--cond", "2"), ("--form", "csv"), ("--format=json",), ("--condition=2",),
    ("-h",), ("--help",), ("--version",), ("--",), ("stray",), ("-1",),
)


REQUIRED = ("--condition", "--out", "name")
FLAWS = (
    "none", "none", "none", "none",
    "bad value", "repeat", "both sources", "no source", "extra", "cut", "command",
)


def chunk(draw, flag, values):
    if flag == "--trace":
        return [flag]
    value = draw(st.sampled_from(values))
    return [value] if flag == "name" else [flag, value]


@st.composite
def command_lines(draw):
    """A well-formed command line, or one with a single flaw: a bad value, a
    repeated argument, both sources or none, an argparse-only form, a lost
    last token or an unknown command."""
    flaw = draw(st.sampled_from(FLAWS))
    name = draw(st.sampled_from(list(ARGUMENTS)))
    arguments = ARGUMENTS[name]
    source, other = draw(st.permutations(SOURCES))
    given = {}
    for flag in arguments:
        if flag == source or flag in REQUIRED or (flag != other and draw(st.booleans())):
            given[flag] = chunk(draw, flag, VALUES.get(flag, ((),))[0])
    extra = []
    if flaw == "bad value":
        flag = draw(st.sampled_from([f for f in arguments if f not in ("--trace", other)]))
        given[flag] = chunk(draw, flag, VALUES[flag][1])
    elif flaw == "repeat":
        flag = draw(st.sampled_from(list(given)))
        extra.append(chunk(draw, flag, VALUES.get(flag, ((),))[0]))
    elif flaw == "both sources" and other in arguments:
        given[other] = chunk(draw, other, VALUES[other][0])
    elif flaw == "no source":
        given.pop(source, None)
    elif flaw == "extra":
        extra.append(list(draw(st.sampled_from(EXTRA))))
    chunks = draw(st.permutations([*given.values(), *extra]))
    argv = [name, *(token for c in chunks for token in c)]
    if flaw == "cut":
        argv.pop()
    elif flaw == "command":
        argv[0] = draw(st.sampled_from(("nonsense", "--version", "-h", "", "fus")))
    return argv


def argparse_fields(argv):
    """argparse's fields for argv, or None where it exits (help, version, error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


@settings(max_examples=400, deadline=None)
@given(command_lines())
def test_reader_agrees_with_argparse(argv):
    read = cli._read_argv(argv)
    if read is not None:
        assert vars(read) == argparse_fields(argv)


ONESHOT = [
    ["sweep", "--builtin", "takraw"],
    ["sweep", "--builtin", "takraw", "--format", "json"],
    ["sweep", "--builtin", "takraw", "--format", "csv"],
    ["fuse", "--builtin", "takraw", "--condition", "4"],
    ["fuse", "--builtin", "takraw", "--condition", "7", "--trace"],
    ["fuse", "--builtin", "takraw", "--condition", "2", "--format", "json"],
    ["fuse", "--scenario", "doc.json", "--condition", "5"],
    ["sweep", "--scenario", "doc.json"],
    ["export-builtin", "takraw", "--out", "export.json"],
]


# scenario_sweep calls main in process with sweep --scenario in every format;
# the table shape is already one of cli_oneshot's.
@pytest.mark.parametrize("argv", ONESHOT + [
    ["sweep", "--scenario", "doc.json", "--format", "csv"],
    ["sweep", "--scenario", "doc.json", "--format", "json"],
], ids=" ".join)
def test_reader_takes_every_benchmark_shape(argv):
    assert vars(cli._read_argv(argv)) == argparse_fields(argv)


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--help"],
        ["fuse", "--help"],
        ["fuse", "--builtin", "takraw", "--cond", "1"],
        ["fuse", "--builtin=takraw", "--condition", "1"],
        ["fuse", "--builtin", "takraw", "--scenario", "x", "--condition", "1"],
        ["fuse", "--builtin", "takraw", "--condition", "1", "--precision", "0"],
        ["fuse", "--builtin", "takraw", "--condition", "1", "--condition", "2"],
        ["fuse", "--builtin", "takraw", "--condition", "-1"],
        ["sweep", "--scenario", ""],
        ["sweep"],
        ["export-builtin", "--out", "x"],
    ],
    ids=" ".join,
)
def test_reader_leaves_the_rest_to_argparse(argv):
    assert cli._read_argv(argv) is None
