"""Smoke test: the CLI prints the pinned bytes under every interpreter that
``requires-python`` admits and that ``$PYENV_ROOT/versions`` holds.

Under each interpreter, a few commands run in a fresh ``python -m
dsfusion.cli``, and one more child runs every case whose digest
``tests/test_cli.py`` pins (``GOLDEN_STDOUT``, ``GOLDEN_HELP``,
``GOLDEN_DOCUMENTS``, the conflict sweep and the export file) through
``dsfusion.cli.main`` in process.  Full-precision digits are the same on
all of them, because one function sums every float total left to right.
With no such interpreter found, the test runs the current one, so it never
skips.
"""

import hashlib
import inspect
import json
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from dsfusion import __version__

import test_cli
from test_cli import CONFLICT_DOC, ESCAPES_DOC, GOLDEN_DOCUMENTS, GOLDEN_HELP, GOLDEN_STDOUT, ROOT

DIGESTS = {**dict(GOLDEN_HELP), **dict(GOLDEN_STDOUT)}
ESCAPES_TABLE = next(case[-1] for case in GOLDEN_DOCUMENTS if case[0] == "sweep-table-escapes")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pinned_in(test) -> str:
    """The one sha256 literal in the source of a ``tests/test_cli.py`` test."""
    (digest,) = re.findall(r'"([0-9a-f]{64})"', inspect.getsource(test))
    return digest


# (command line, exit code, sha256 of stdout)
CASES = [
    ("--help", 0, DIGESTS["--help"]),
    ("--version", 0, sha256(f"dsfusion {__version__}\n".encode())),
    ("fuse --builtin takraw", 1, sha256(b"")),  # no --condition
    ("sweep --builtin takraw --format table", 0, DIGESTS["sweep --builtin takraw --format table"]),
    ("sweep --builtin takraw --format csv", 0, DIGESTS["sweep --builtin takraw --format csv"]),
    ("fuse --builtin takraw --condition 3 --trace --precision 6", 0,
     DIGESTS["fuse --builtin takraw --condition 3 --trace --precision 6"]),
    ("sweep --format table --scenario doc.json", 0, ESCAPES_TABLE),
]

# Reads [directory, argv, file the command writes or null] cases as JSON on
# stdin, runs each through main, and prints [exit code, stderr, sha256] per
# case.  The digest covers stdout, then the written file: a command that
# writes a file must leave stdout empty to match the file's pinned digest.
IN_PROCESS = """
import contextlib, hashlib, io, json, os, sys
from dsfusion.cli import main

results = []
for directory, argv, written in json.load(sys.stdin):
    os.chdir(directory)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = out.getvalue()
    if written:
        with open(written, encoding="utf-8") as handle:
            text += handle.read()
    results.append([code, err.getvalue(), hashlib.sha256(text.encode()).hexdigest()])
print(json.dumps(results))
"""


def pinned_cases(tmp_path: Path) -> dict[str, tuple]:
    """Every case whose stdout (or written file) ``tests/test_cli.py`` pins, by
    name: (directory, argv, file written, exit code, stderr, sha256)."""
    here = str(tmp_path)
    cases = {
        command: (here, command.split(), None, 0, "", digest)
        for command, digest in GOLDEN_STDOUT + GOLDEN_HELP
    }
    for name, document, argv, code, err, digest in GOLDEN_DOCUMENTS:
        # the table names the scenario by the path given, so each gets doc.json
        (tmp_path / name).mkdir()
        (tmp_path / name / "doc.json").write_text(document, encoding="utf-8")
        argv = [*argv.split(), "--scenario", "doc.json"]
        cases[name] = (str(tmp_path / name), argv, None, code, err, digest)
    (tmp_path / "conflict.json").write_text(CONFLICT_DOC)
    cases["conflict sweep"] = (
        here, ["sweep", "--scenario", "conflict.json"], None, 3,
        "condition 2: total conflict at step 1 (k = 1.0)\n",
        pinned_in(test_cli.TestGoldenOutput.test_conflict_sweep_bytes),
    )
    cases["export file"] = (
        here, ["export-builtin", "takraw", "--out", "takraw.json"], "takraw.json", 0, "",
        pinned_in(test_cli.TestGoldenOutput.test_export_builtin_bytes),
    )
    return cases


def interpreters() -> list[str]:
    """Each ``$PYENV_ROOT/versions/X.Y.Z/bin/python3`` that requires-python
    admits, else the interpreter running the tests."""
    with open(ROOT / "pyproject.toml", "rb") as handle:
        floor = tomllib.load(handle)["project"]["requires-python"]
    least = tuple(map(int, re.fullmatch(r">=(\d+)\.(\d+)", floor).groups()))
    versions = Path(os.environ.get("PYENV_ROOT", "/nonexistent"), "versions")
    found = []
    for home in sorted(versions.glob("*")):
        version = re.fullmatch(r"(\d+)\.(\d+)\.\d+", home.name)
        exe = home / "bin" / "python3"
        if version and tuple(map(int, version.groups())) >= least and exe.is_file():
            found.append(str(exe))
    return found or [sys.executable]


def child_env() -> dict[str, str]:
    # argparse wraps help to the terminal width, which it reads from COLUMNS
    return {
        **os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80",
        "PYTHONIOENCODING": "utf-8",
    }


def test_pinned_bytes_under_every_interpreter(tmp_path):
    (tmp_path / "doc.json").write_text(ESCAPES_DOC, encoding="utf-8")
    env = child_env()
    found = interpreters()
    print("interpreters:", *found)
    wrong = []
    for exe in found:
        for command, code, digest in CASES:
            result = subprocess.run(
                [exe, "-m", "dsfusion.cli", *command.split()],
                cwd=tmp_path, env=env, capture_output=True,
            )
            if (result.returncode, sha256(result.stdout)) != (code, digest):
                wrong.append((exe, command, result.returncode, result.stderr[-200:]))
    assert wrong == []


def test_every_pinned_digest_under_every_interpreter(tmp_path):
    cases = pinned_cases(tmp_path)
    wrong = []
    for exe in interpreters():
        result = subprocess.run(
            [exe, "-c", IN_PROCESS], input=json.dumps([case[:3] for case in cases.values()]),
            cwd=tmp_path, env=child_env(), capture_output=True, text=True,
        )
        assert result.returncode == 0, (exe, result.stderr[-2000:])
        got = json.loads(result.stdout)
        missed = [
            name for (name, case), outcome in zip(cases.items(), got, strict=True)
            if tuple(outcome) != case[3:]
        ]
        print(f"{exe}: {len(cases) - len(missed)} of {len(cases)} pinned digests match")
        wrong += [(exe, name) for name in missed]
    assert wrong == []
