"""Start-up cost: what ``import dsfusion.cli`` loads, and the records it uses.

Every ``dsfusion`` run pays for its imports, so modules that only one rare
path needs are imported inside that path.  The result records are named
tuples: as cheap to define as a plain class, and read-only like the frozen
dataclasses they replaced.
"""

import pytest

from dsfusion import (
    CombinationCell,
    CombinationTrace,
    FusionReport,
    Motion,
    Prediction,
    SweepFailure,
    builtin_takraw_scenario,
    fusion_report,
    predict,
)
from dsfusion.render import RunReport

from helpers import fresh_interpreter

# dataclasses (with inspect, ast, dis), the modules only one path uses (the
# scenario digest and CSV output), and what dsfusion does not use: logging,
# which costs several ms to import, and the decimal and rational number
# towers, whose one idea here (a float's printed decimal) is integer arithmetic.
DEFERRED = (
    "dataclasses", "inspect", "hashlib", "csv", "logging",
    "decimal", "numbers", "fractions",
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
        RunReport: RunReport(scenario, "builtin:takraw", "0" * 12, 1, report, prediction),
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
    RunReport: (
        "scenario", "scenario_name", "scenario_digest", "condition", "report",
        "prediction",
    ),
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
