"""Smoke test: the CLI prints the pinned bytes under every interpreter that
``requires-python`` admits and that ``$PYENV_ROOT/versions`` holds.

Each command runs in a fresh ``python -m dsfusion.cli``.  With no such
interpreter found, the test runs the current one, so it never skips.
``--format json`` is left out: its full-precision digits differ from
CPython 3.12 on (ROADMAP item 4).
"""

import hashlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

from dsfusion import __version__

from test_cli import ESCAPES_DOC, GOLDEN_DOCUMENTS, GOLDEN_HELP, GOLDEN_STDOUT, ROOT

DIGESTS = {**dict(GOLDEN_HELP), **dict(GOLDEN_STDOUT)}
ESCAPES_TABLE = next(case[-1] for case in GOLDEN_DOCUMENTS if case[0] == "sweep-table-escapes")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


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


def test_pinned_bytes_under_every_interpreter(tmp_path):
    (tmp_path / "doc.json").write_text(ESCAPES_DOC, encoding="utf-8")
    env = {
        **os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80",
        "PYTHONIOENCODING": "utf-8",
    }
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
