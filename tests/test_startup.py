"""Start-up cost: what ``import dsfusion.cli`` loads, and the records it uses.

Every ``dsfusion`` run pays for its imports, so modules that only one rare
path needs are imported inside that path.  The result records are
``collections.namedtuple`` classes: as cheap to define as a plain class,
read-only like the frozen dataclasses they replaced, and, unlike
``typing.NamedTuple``, in need of no ``typing`` (with ``re``, ``enum`` and
``contextlib`` behind it) at start-up.
"""

import subprocess
import sys

import pytest

from dsfusion import (
    CombinationCell,
    CombinationTrace,
    FusionReport,
    Motion,
    Prediction,
    SweepFailure,
    builtin_takraw_scenario,
    emit_scenario,
    fusion_report,
    predict,
)
from dsfusion.render import RunReport

from helpers import ROOT, fresh_interpreter
from test_argv import ONESHOT
from test_cli import GOLDEN_HELP

# dataclasses (with inspect, ast, dis), the modules only one path uses (the
# scenario digest and CSV output, argparse for help and usage errors, json for
# a scenario document), and what dsfusion does not use: logging, which costs
# several ms to import, the decimal and rational number towers, whose one
# idea here (a float's printed decimal) is integer arithmetic, and typing
# with the re, enum and contextlib it loads (the records are built by
# collections.namedtuple, and cli.py keeps its own TYPE_CHECKING).  Below
# 3.12, _left_sum is the builtin sum, so functools is not loaded either.
DEFERRED = (
    "dataclasses", "inspect", "hashlib", "csv", "logging",
    "decimal", "numbers", "fractions", "argparse", "json",
    "typing", "re", "enum", "contextlib",
    *(("functools",) if sys.version_info < (3, 12) else ()),
)


def test_cli_import_loads_no_deferred_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dsfusion.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = set(fresh_interpreter(code).stdout.split())
    assert "dsfusion.cli" in loaded
    assert sorted(loaded.intersection(DEFERRED)) == []


def test_fuse_json_does_not_load_hashlib():
    # Only the table report prints the scenario digest.
    code = (
        "import sys\n"
        "from dsfusion.cli import main\n"
        "argv = ['fuse', '--builtin', 'takraw', '--condition', '1', '--format', 'json']\n"
        "code = main(argv)\n"
        "print(code, 'hashlib' in sys.modules, file=sys.stderr)\n"
    )
    assert fresh_interpreter(code).stderr.split() == ["0", "False"]


def test_table_sweep_does_not_load_openssl():
    # The digest uses the interpreter's built-in SHA-256, not hashlib's _hashlib.
    code = (
        "import sys\n"
        "from dsfusion.cli import main\n"
        "code = main(['sweep', '--builtin', 'takraw'])\n"
        "print(code, '_hashlib' in sys.modules, file=sys.stderr)\n"
    )
    assert fresh_interpreter(code).stderr.split() == ["0", "False"]


@pytest.mark.parametrize("argv", ONESHOT, ids=" ".join)
def test_well_formed_command_loads_no_argparse(tmp_path, argv):
    # One fresh interpreter per command line: the benchmark's cli_oneshot shapes.
    # Only a --scenario run decodes a document, so only it loads json.
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    (tmp_path / "doc.json").write_text(emit_scenario(builtin_takraw_scenario()))
    code = (
        "import sys\n"
        "from dsfusion.cli import main\n"
        f"code = main({argv!r})\n"
        "names = ('argparse', 'gettext', 'locale', 'json')\n"
        "print(code, *sorted(set(names).intersection(sys.modules)), file=sys.stderr)\n"
    )
    decoded = ["json"] if "--scenario" in argv else []
    assert fresh_interpreter(code).stderr.split() == ["0", *decoded]


def test_help_loads_argparse():
    code = (
        "import contextlib, hashlib, io, os, sys\n"
        "os.environ['COLUMNS'] = '80'\n"
        "from dsfusion.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        "    code = main(['--help'])\n"
        "digest = hashlib.sha256(out.getvalue().encode()).hexdigest()\n"
        "print(code, 'argparse' in sys.modules, digest, file=sys.stderr)\n"
    )
    assert fresh_interpreter(code).stderr.split() == ["0", "True", dict(GOLDEN_HELP)["--help"]]


def test_table_trace_and_oracle_load_no_number_tower():
    # format_mass and oracle_fuse_all read a float's printed decimal as ints.
    code = (
        "import sys\n"
        "from dsfusion import builtin_takraw_scenario, evidence_for, oracle_fuse_all\n"
        "from dsfusion.cli import main\n"
        "code = main(['fuse', '--builtin', 'takraw', '--condition', '1', '--trace'])\n"
        "oracle_fuse_all(evidence_for(builtin_takraw_scenario(), 1))\n"
        "towers = ('decimal', 'numbers', 'fractions')\n"
        "print(code, *sorted(set(towers).intersection(sys.modules)), file=sys.stderr)\n"
    )
    assert fresh_interpreter(code).stderr.split() == ["0"]


def _records():
    scenario = builtin_takraw_scenario()
    report = fusion_report(scenario, 1)
    trace = report.steps[0]
    prediction = predict(scenario, 1)
    return {
        CombinationCell: trace.cells[0],
        CombinationTrace: trace,
        FusionReport: report,
        Motion: scenario.motions[0],
        Prediction: prediction,
        SweepFailure: SweepFailure(1, ValueError("x")),
        RunReport: RunReport(scenario, report, prediction),
    }


FIELDS = {
    CombinationCell: ("left", "right", "intersection", "product"),
    CombinationTrace: ("inputs", "conflict", "result"),
    FusionReport: ("sources", "results", "per_step_conflict"),
    Motion: ("name", "direction"),
    Prediction: (
        "condition", "final", "winner", "winner_mass", "winner_belief",
        "winner_plausibility", "steps_conflict",
    ),
    SweepFailure: ("condition", "error"),
    RunReport: ("scenario", "report", "prediction"),
}


@pytest.mark.parametrize(
    "record", [Prediction, FusionReport, CombinationCell], ids=lambda r: r.__name__
)
def test_record_fields_are_read_only(record):
    value = _records()[record]
    for field in FIELDS[record]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)


def test_records_unpack_in_field_order():
    for record, value in _records().items():
        assert record._fields == FIELDS[record]
        assert tuple(value) == tuple(getattr(value, f) for f in FIELDS[record])


def test_records_repr_compare_and_hash_like_named_tuples():
    for record, value in _records().items():
        plain = tuple(value)
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(FIELDS[record], plain))
        assert repr(value) == f"{record.__name__}({fields})"
        assert value == plain and not value != plain
        try:
            expected = hash(plain)
        except TypeError:  # a Scenario field compares by value and has no hash
            with pytest.raises(TypeError):
                hash(value)
        else:
            assert hash(value) == expected
        assert record.__match_args__ == record._fields
        assert record._field_defaults == {}
        assert getattr(sys.modules[record.__module__], record.__name__) is record
        assert not hasattr(value, "__dict__")
    failure = SweepFailure(3, ValueError("x"))
    assert repr(failure) == "SweepFailure(condition=3, error=ValueError('x'))"


@pytest.mark.parametrize("mode", [[], ["--from-source"]], ids=["cached", "from-source"])
def test_coldstart_script_runs_one_round(mode):
    # tests/coldstart.py, one A/A round of this checkout's src against itself
    src = str(ROOT / "src")
    script = [sys.executable, str(ROOT / "tests" / "coldstart.py"), "--a", src, "--b", src]
    done = subprocess.run(
        [*script, "--rounds", "1", *mode], capture_output=True, text=True, check=True
    )
    rows = [line.split()[0] for line in done.stdout.splitlines()[2:]]
    assert rows == ["floor", "A", "B", "B", "B"]
    assert ("from source" in done.stdout) == bool(mode)
