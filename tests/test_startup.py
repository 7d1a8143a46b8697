"""Start-up cost: what ``import dsfusion.cli`` loads, and the records it uses.

Every ``dsfusion`` run pays for its imports, so modules that only one rare
path needs are imported inside that path.  The result records are named
tuples: as cheap to define as a plain class, and read-only like the frozen
dataclasses they replaced.
"""

import os
import subprocess
import sys
from pathlib import Path

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

ROOT = Path(__file__).resolve().parents[1]

# dataclasses (with inspect, ast, dis), the modules only one path uses (the
# exact-rational oracle, the scenario digest and CSV output), and logging,
# which dsfusion does not use and which costs several ms to import.
DEFERRED = ("dataclasses", "inspect", "fractions", "hashlib", "csv", "logging")


def _fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    # -S: site would preload modules of its own and hide what dsfusion loads.
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )


def test_cli_import_loads_no_deferred_module():
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import dsfusion.cli\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    loaded = set(_fresh_interpreter(code).stdout.split())
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
    assert _fresh_interpreter(code).stderr.split() == ["0", "False"]


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
