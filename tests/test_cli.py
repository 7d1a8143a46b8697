"""CLI behavior: formats, exit codes, determinism, file round-trips."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from dsfusion import builtin_takraw_scenario, parse_scenario
from dsfusion.cli import main

ROOT = Path(__file__).resolve().parents[1]

CONFLICT_DOC = json.dumps(
    {
        "frame": ["a", "b"],
        "sources": [
            {"name": "s1", "focal": ["a"], "bpa": [0.5, 1.0]},
            {"name": "s2", "focal": ["b"], "bpa": [0.5, 1.0]},
        ],
    }
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFuseTable:
    def test_condition_1_summary(self, capsys):
        code, out, err = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1"
        )
        assert code == 0
        assert err == ""
        assert "condition: 1" in out
        assert "winner: B (back)" in out
        assert "0.4999" in out  # winning mass at default precision 4

    def test_trace_tables_at_precision_2(self, capsys):
        code, out, _ = run(
            capsys,
            "fuse", "--builtin", "takraw", "--condition", "1",
            "--trace", "--precision", "2",
        )
        assert code == 0
        step1 = out.split("step 1:")[1].split("step 2:")[0]
        assert "0.56" in step1
        assert step1.count("0.19") == 2
        assert "0.06" in step1
        assert "k = 0.00" in step1
        # first conflicting combination: the empty-intersection cell and its k
        step4 = out.split("step 4:")[1].split("step 5:")[0]
        assert "∅ 0.44" in step4
        assert "k = 0.44" in step4
        assert out.count("step ") == 9

    def test_no_trace_by_default(self, capsys):
        _, out, _ = run(capsys, "fuse", "--builtin", "takraw", "--condition", "1")
        assert "step 1:" not in out

    def test_composite_winner_glossed(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(
            json.dumps(
                {
                    "frame": ["F", "L", "R", "B"],
                    "sources": [
                        {"name": "s1", "focal": ["L", "B"], "bpa": [0.9]},
                        {"name": "s2", "focal": ["L", "B"], "bpa": [0.9]},
                    ],
                }
            )
        )
        _, out, _ = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert "winner: L+B (left+back)" in out

    def test_no_gloss_on_other_frames(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(MINIMAL_TWO_LABEL)
        _, out, _ = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        # direction glosses are specific to the F/L/R/B frame
        assert out.splitlines()[-1] == (
            "winner: x  mass 0.7000  belief 0.7000  plausibility 1.0000"
        )


MINIMAL_TWO_LABEL = json.dumps(
    {
        "frame": ["x", "y"],
        "sources": [{"name": "s", "focal": ["x"], "bpa": [0.7]}],
    }
)


class TestFuseJson:
    def test_schema_and_values(self, capsys):
        code, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"condition", "steps", "final", "winner"}
        assert doc["condition"] == 1
        assert len(doc["steps"]) == 9
        first = doc["steps"][0]
        assert set(first) == {"k", "cells", "result"}
        assert first["k"] == 0.0
        assert first["cells"][0] == {
            "left": ["F"],
            "right": ["F"],
            "intersection": ["F"],
            "product": 0.5625,
        }
        assert set(doc["final"]) == {"F", "B", "L+B", "R+B", "F+L+R+B"}
        assert doc["winner"]["labels"] == ["B"]
        assert doc["winner"]["mass"] == pytest.approx(0.4999235584, abs=1e-9)
        assert doc["winner"]["belief"] <= doc["winner"]["plausibility"]

    def test_cells_include_conflict_entries(self, capsys):
        _, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--format", "json",
        )
        step4 = json.loads(out)["steps"][3]
        empties = [c for c in step4["cells"] if c["intersection"] == []]
        assert len(empties) == 1
        assert step4["k"] == pytest.approx(0.4443046875, abs=1e-12)

    def test_json_matches_in_memory_values(self, capsys):
        from dsfusion import fusion_report

        _, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "2",
            "--format", "json",
        )
        doc = json.loads(out)
        report = fusion_report(builtin_takraw_scenario(), 2)
        final = {
            "+".join(s.labels): v for s, v in report.final.focal_elements()
        }
        assert doc["final"] == final  # full precision survives the JSON trip


class TestFuseCsv:
    def test_single_row(self, capsys):
        code, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "condition,winner,winner_mass,winner_belief,winner_plausibility"
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert fields[1] == "B"
        assert float(fields[2]) == pytest.approx(0.499923558403, abs=1e-9)


class TestSweep:
    def test_table(self, capsys):
        code, out, err = run(capsys, "sweep", "--builtin", "takraw")
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert len(lines) == 11  # scenario line + header + 9 conditions
        assert all("B (back)" in line for line in lines[2:])

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "sweep", "--builtin", "takraw", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 10
        assert lines[0].startswith("condition,winner,")
        assert [line.split(",")[0] for line in lines[1:]] == [
            str(c) for c in range(1, 10)
        ]
        assert all(line.split(",")[1] == "B" for line in lines[1:])

    def test_json(self, capsys):
        code, out, _ = run(capsys, "sweep", "--builtin", "takraw", "--format", "json")
        assert code == 0
        entries = json.loads(out)
        assert [e["condition"] for e in entries] == list(range(1, 10))
        assert all(e["winner"]["labels"] == ["B"] for e in entries)

    def test_failed_condition_reported(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(CONFLICT_DOC)
        code, out, err = run(capsys, "sweep", "--scenario", str(path))
        assert code == 3
        assert "condition 2" in err
        assert "total conflict" in err
        assert "ERROR" in out

    def test_failed_condition_omitted_from_csv(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(CONFLICT_DOC)
        code, out, err = run(
            capsys, "sweep", "--scenario", str(path), "--format", "csv"
        )
        assert code == 3
        lines = out.splitlines()
        assert len(lines) == 2  # header + condition 1 only
        assert lines[1].startswith("1,")
        assert "condition 2" in err

    def test_failed_condition_in_json(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(CONFLICT_DOC)
        code, out, _ = run(
            capsys, "sweep", "--scenario", str(path), "--format", "json"
        )
        assert code == 3
        entries = json.loads(out)
        assert set(entries[1]) == {"condition", "error"}
        assert "total conflict" in entries[1]["error"]


class TestExportBuiltin:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "takraw.json"
        code, out, err = run(capsys, "export-builtin", "takraw", "--out", str(path))
        assert (code, out, err) == (0, "", "")
        assert parse_scenario(path.read_text()) == builtin_takraw_scenario()

    def test_exported_file_fuses_identically(self, capsys, tmp_path):
        path = tmp_path / "takraw.json"
        run(capsys, "export-builtin", "takraw", "--out", str(path))
        _, from_file, _ = run(
            capsys, "fuse", "--scenario", str(path), "--condition", "1",
            "--format", "json",
        )
        _, from_builtin, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--format", "json",
        )
        assert from_file == from_builtin

    def test_unwritable_path(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "export-builtin", "takraw",
            "--out", str(tmp_path / "missing" / "takraw.json"),
        )
        assert code == 1
        assert out == ""
        assert err != ""


class TestExitCodes:
    def test_missing_scenario_file(self, capsys):
        code, out, err = run(
            capsys, "fuse", "--scenario", "missing.file", "--condition", "1"
        )
        assert code == 1
        assert out == ""
        assert err != ""

    def test_malformed_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"frame": ')
        code, out, _ = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert code == 2
        assert out == ""

    def test_non_utf8_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"frame": ["é"]}'.encode("latin-1"))
        code, out, err = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "not UTF-8" in err

    def test_deeply_nested_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        code, out, err = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "nests too deeply" in err

    @pytest.mark.parametrize(
        "digits, error",
        [(400, "outside (0, 1]"), (5000, "digits")],
        ids=["beyond-float-range", "beyond-int-digit-limit"],
    )
    def test_overlong_integer_weight(self, capsys, tmp_path, digits, error):
        path = tmp_path / "big.json"
        path.write_text(
            '{"frame": ["a", "b"], "sources": '
            f'[{{"name": "s", "focal": ["a"], "bpa": [{"1" * digits}]}}]}}'
        )
        code, out, err = run(capsys, "sweep", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and error in err

    def test_lone_surrogate_label(self, capsys, tmp_path):
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"frame": ["a", "\\ud800"], '
            '"sources": [{"name": "s", "focal": ["a"], "bpa": [0.5]}]}'
        )
        code, out, err = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "lone surrogate" in err

    def test_invalid_weights_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps(
                {
                    "frame": ["a", "b"],
                    "sources": [{"name": "s", "focal": ["a"], "bpa": [1.5]}],
                }
            )
        )
        code, out, _ = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert code == 2
        assert out == ""

    def test_condition_out_of_range(self, capsys):
        code, out, _ = run(capsys, "fuse", "--builtin", "takraw", "--condition", "99")
        assert code == 2
        assert out == ""

    def test_total_conflict(self, capsys, tmp_path):
        path = tmp_path / "conflict.json"
        path.write_text(CONFLICT_DOC)
        code, out, err = run(
            capsys, "fuse", "--scenario", str(path), "--condition", "2"
        )
        assert code == 3
        assert out == ""
        assert "total conflict" in err

    def test_usage_errors(self, capsys):
        assert run(capsys, "fuse", "--condition", "1")[0] == 1  # no source
        assert run(capsys, "fuse", "--builtin", "takraw")[0] == 1  # no condition
        assert run(capsys, "nonsense")[0] == 1
        assert run(capsys)[0] == 1
        assert (
            run(
                capsys, "fuse", "--builtin", "takraw", "--scenario", "x",
                "--condition", "1",
            )[0]
            == 1
        )

    @pytest.mark.parametrize("precision", ["0", "13", "-1", "four"])
    def test_precision_out_of_range(self, capsys, precision):
        code, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--precision", precision,
        )
        assert code == 1
        assert out == ""

    @pytest.mark.parametrize("precision", ["1", "12"])
    def test_precision_bounds_accepted(self, capsys, precision):
        code, _, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--precision", precision,
        )
        assert code == 0

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "fuse", "--help")[0] == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["fuse", "--builtin", "takraw", "--condition", "1", "--trace"],
            ["fuse", "--builtin", "takraw", "--condition", "5", "--format", "json"],
            ["sweep", "--builtin", "takraw", "--format", "csv"],
        ],
    )
    def test_byte_identical_stdout(self, argv):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "dsfusion.cli", *argv],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0]  # non-empty

    def test_console_script_entrypoint(self):
        """The ``dsfusion`` script target resolves and prints the documented CSV.

        The script itself only exists after installation, so the test reads
        the target from ``[project.scripts]`` and runs it the way the
        generated wrapper does: import the module, call the function, exit
        with its result.
        """
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["dsfusion"]
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))

        wrapper = (
            "import importlib, sys\n"
            "module, _, attr = sys.argv.pop(1).partition(':')\n"
            "sys.exit(getattr(importlib.import_module(module), attr)())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", wrapper, target,
             "sweep", "--builtin", "takraw", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.splitlines()[0] == (
            "condition,winner,winner_mass,winner_belief,winner_plausibility"
        )
