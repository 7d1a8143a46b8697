"""CLI behavior: formats, exit codes, determinism, file round-trips."""

import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from dsfusion import __version__, builtin_takraw_scenario, cli, parse_scenario
from dsfusion.cli import main
from dsfusion.render import format_mass

from helpers import doubling_document

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

    def test_conflict_line_at_precision_12(self, capsys):
        # values below 1e-6 print in fixed point, not as 0E-12
        _, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "1",
            "--precision", "12",
        )
        assert (
            "conflict per step: 0.000000000000 0.000000000000 0.000000000000 "
            "0.444304687500 0.439751015760 0.431706376043 0.417809556212 "
            "0.570133852781 0.464206939216\n"
        ) in out

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


@given(
    value=st.floats(min_value=0.0, max_value=1.0),
    digits=st.integers(min_value=1, max_value=12),
)
@example(value=5e-324, digits=12)
@example(value=3e-8, digits=8)
@example(value=1.2345e-7, digits=12)
# ties on the printed decimal, which random draws almost never hit; a
# f"{value:.{digits}f}" body fails all three: 0.125 is a binary tie (rounded
# half to even), and 5e-13 and 0.9999999999995 lie just below their decimals
@example(value=0.125, digits=2)
@example(value=5e-13, digits=12)
@example(value=0.9999999999995, digits=12)  # the carry reaches the whole digit
@example(value=1.0, digits=1)
@example(value=0.0, digits=12)
def test_format_mass_is_fixed_point_half_up(value, digits):
    out = format_mass(value, digits)
    assert re.fullmatch(rf"\d\.\d{{{digits}}}", out)
    quantum = Decimal(1).scaleb(-digits)
    assert Decimal(out) == Decimal(repr(value)).quantize(
        quantum, rounding=ROUND_HALF_UP
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

    def test_byte_order_mark(self, capsys, tmp_path):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + CONFLICT_DOC.encode("utf-8"))
        code, out, err = run(capsys, "sweep", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "error: Unexpected UTF-8 BOM (decode using utf-8-sig) (line 1, column 1)\n"
        )

    @pytest.mark.parametrize(
        "text, key",
        [
            (
                '{"frame": ["a", "b"], "frame": ["c", "d"], '
                '"sources": [{"name": "s", "focal": ["c"], "bpa": [0.5]}]}',
                "frame",
            ),
            (
                '{"frame": ["a", "b"], '
                '"sources": [{"name": "s", "focal": ["a"], "bpa": [0.5], "bpa": [0.7]}]}',
                "bpa",
            ),
        ],
        ids=["top-level", "source"],
    )
    def test_repeated_key(self, capsys, tmp_path, text, key):
        # json keeps the last of repeated keys, which would fuse on the second
        path = tmp_path / "repeated.json"
        path.write_text(text)
        code, out, err = run(capsys, "sweep", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: key '{key}' is repeated\n"

    def test_lone_surrogate_label(self, capsys, tmp_path):
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"frame": ["a", "\\ud800"], '
            '"sources": [{"name": "s", "focal": ["a"], "bpa": [0.5]}]}'
        )
        code, out, err = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "lone surrogate" in err

    def test_unknown_focal_label_in_a_frame_with_a_lone_surrogate(self, capsys, tmp_path):
        # the message quotes the frame, so the lone surrogate goes out escaped
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"frame": ["a", "\\ud800"], '
            '"sources": [{"name": "s", "focal": ["z"], "bpa": [0.5]}]}'
        )
        code, out, err = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert (code, out) == (2, "")
        assert err == "error: label 'z' is not in Frame('a', '\\ud800')\n"

    def test_plus_in_label(self, capsys, tmp_path):
        # "a+b" would be the JSON key of both {a+b} and {a, b}
        path = tmp_path / "plus.json"
        path.write_text(
            json.dumps(
                {
                    "frame": ["a", "b", "a+b"],
                    "sources": [
                        {"name": "s1", "focal": ["a", "b"], "bpa": [0.6]},
                        {"name": "s2", "focal": ["a+b"], "bpa": [0.3]},
                        {"name": "s3", "focal": ["a", "b"], "bpa": [0.2]},
                    ],
                }
            )
        )
        code, out, err = run(
            capsys, "sweep", "--scenario", str(path), "--format", "json"
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "'a+b' must not contain '+'" in err

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


# sha256 of the exact stdout of each command.  The CLI's table, JSON and CSV
# bytes are a contract: a change here must be deliberate and documented.
GOLDEN_STDOUT = [
    ("sweep --builtin takraw --format table",
     "da2ccdfec63f77db1103a26baf01fc54957c5b409224966e655ff2925d103ce3"),
    ("sweep --builtin takraw --format json",
     "3b8b2b558d29ca533c2431f3a4bdba08518f7ce35fd08788c2dd990847054794"),
    ("sweep --builtin takraw --format csv",
     "749aad0250735ff407e8e77e37267de63eca3ae4d602a7e2615edfe402bcc310"),
    ("fuse --builtin takraw --condition 1",
     "5e0f781c2eedb8650527ad80e9c9b8cf6bcd0b499ed2d79ba929304cb6e7f2ee"),
    ("fuse --builtin takraw --condition 1 --trace --precision 6",
     "1f31d46d9d98cc4782a764978b88cbf1ad3a67bef4e41cde2f8ce1aa172aaad0"),
    ("fuse --builtin takraw --condition 1 --format json",
     "80ededd6007eb33bcf5e861dbf0eb5d03b57bf795ccac91eea4c97f7acbf63d7"),
    ("fuse --builtin takraw --condition 1 --format csv",
     "bc6f3c288dd376405fd4321ee413f64b62d0eb5144f3d2de7fe8b728e0189979"),
    ("fuse --builtin takraw --condition 2",
     "a50f06dd1b6bee1e81aa7bbd766d681a9f372a6dfe1fd665ec21eb153b232687"),
    ("fuse --builtin takraw --condition 2 --trace --precision 6",
     "06c2d354551d557c82246f8ffc0145c0a705e819ea701c3c7fc8777ec44ebc5b"),
    ("fuse --builtin takraw --condition 2 --format json",
     "bf05a29c7389e54ae34abfa191dde0b18e06aae77a50272560c7777db2890081"),
    ("fuse --builtin takraw --condition 2 --format csv",
     "37b90ce09362fb87d5513fe9fc39d670bcebb7c6cedf4dbd3506b6e6a3383ebf"),
    ("fuse --builtin takraw --condition 3",
     "a569890a3c3fbf32a5c8959756b172647267178db354d60de7719c6673314b64"),
    ("fuse --builtin takraw --condition 3 --trace --precision 6",
     "e2ad2d919a7267355c3cf5ddd9f0210385de4d6ce74988680e811d58ed5ee1ee"),
    ("fuse --builtin takraw --condition 3 --format json",
     "72751ebba86288487c15249fb6200a085131fde090347b6a402c0e568376c847"),
    ("fuse --builtin takraw --condition 3 --format csv",
     "6c2c83cf84852cadec73900f38ed50e92a2f16bbd2daa74cc07eb7ca927891c9"),
    ("fuse --builtin takraw --condition 4",
     "5d922d0344e783a7e0aee1015d34192f602785d2772508ab2a3adc228d0cc4ba"),
    ("fuse --builtin takraw --condition 4 --trace --precision 6",
     "2ce4833290dac70b38fe1dcf94d4c89131b3d9e3d448911afb997d6bf50f7420"),
    ("fuse --builtin takraw --condition 4 --format json",
     "68dec85f1db0e7a0af11dfef7f11536a23af419ebf24fc308b6e6878cc5db099"),
    ("fuse --builtin takraw --condition 4 --format csv",
     "fcef2f1fa28c5c0e18c87526dc68b46209c8233109f5149794456ac6015fdbe5"),
    ("fuse --builtin takraw --condition 5",
     "215d700549df41a0fdc4cb8a4204e2998c09a48158bbeb7b19733d5a74cb0fc6"),
    ("fuse --builtin takraw --condition 5 --trace --precision 6",
     "1bb62b0be6f454a09bd000fb5225909006f7b212372031d12875efd16c3816ea"),
    ("fuse --builtin takraw --condition 5 --format json",
     "b5e809a2588e2e3c83fb2091d608e69b6b316eb3fd9972a2afa11a2846184362"),
    ("fuse --builtin takraw --condition 5 --format csv",
     "231cdd3909bd867c79b0ff26bc7547ee9661cc38be8f0bbc8ca249bb977488d5"),
    ("fuse --builtin takraw --condition 6",
     "997dba5bee4a19eb28c20ab6586574383eb0b22d800f705f2079beaf680b15b5"),
    ("fuse --builtin takraw --condition 6 --trace --precision 6",
     "c936b49fcc7c8c31c58477694dc027f844f6a56122d61d6dc14a89bcded065a7"),
    ("fuse --builtin takraw --condition 6 --format json",
     "c05f1ed4d3a14dce8f74e720a039b138863c791033d6e8a55290b54479144bb8"),
    ("fuse --builtin takraw --condition 6 --format csv",
     "7ec3fbd6b3c7f7d8d2e23f544ee627eb8df5d4a9871d975c24f6b697f9bd00c6"),
    ("fuse --builtin takraw --condition 7",
     "357469a883112f2c92b7660f6995e7d5e2ec87dd188b61b77a6677d6891e3bdf"),
    ("fuse --builtin takraw --condition 7 --trace --precision 6",
     "1e038f490079139e72c82886e432f5cd1baad5f7d8dd451d7fec07d92f50f072"),
    ("fuse --builtin takraw --condition 7 --format json",
     "79bf1017c21bb00ac4799e377774328d62872eef413a6ac16984bf2ad10fd9f4"),
    ("fuse --builtin takraw --condition 7 --format csv",
     "3c8545d20ddba968194d87e115d64f4bd8f13eb48e1803d5cb24666303cb0c62"),
    ("fuse --builtin takraw --condition 8",
     "5e405c850818db87ed42ada3dcc9020d2b28ee65da0b84197bfec81a0ac7d21f"),
    ("fuse --builtin takraw --condition 8 --trace --precision 6",
     "ed472243f7df2671570551b6a0e560659d148a963b9c9f2004dc582dd44b7eed"),
    ("fuse --builtin takraw --condition 8 --format json",
     "1b205b9a2207760776f4194801f7de4d72430560e3fc4531944ec734ff7c4fdd"),
    ("fuse --builtin takraw --condition 8 --format csv",
     "5234d83a54ae6ddb4b0c604d212fd2f35966304f8c7ff6fd84acad6dc0c4e4c3"),
    ("fuse --builtin takraw --condition 9",
     "978c8a395f84080d4e0e84828b2c7376d75c27854e32d10770d5113fbbb07bef"),
    ("fuse --builtin takraw --condition 9 --trace --precision 6",
     "d5a2143e5310d60200754a51ee22746cdc744678fe0cf681e7419958c679549d"),
    ("fuse --builtin takraw --condition 9 --format json",
     "8ae96599ee3921e4af9a6f52c38c7d2dc14d6f8f1525ab65a29dcf312715891d"),
    ("fuse --builtin takraw --condition 9 --format csv",
     "e36659fc07d4be90d0b6dfe4438075f0e0b7a592eff499b80ddbf03ee5aa0e2a"),
]

# sha256 of --help output at an 80-column terminal.
GOLDEN_HELP = [
    ("--help", "94d3983b386d2615d791fc84d30576f5c01873b3166bb30587796c2836a083d1"),
    ("fuse --help", "fe0718c1833f4c5f11d02b4dc18b00dd56256bb12892441955d23b46b1a52c75"),
    ("sweep --help", "dac032b72ad9f23db9dc2f2bfb6c7b49c1af2ef9ca967bfd796e51d3f4a8b683"),
]


ONE_SOURCE_DOC = json.dumps(
    {"frame": ["a", "b"], "sources": [{"name": "only", "focal": ["a"], "bpa": [0.25]}]}
)

# Labels and names holding every character class the JSON writer escapes or
# passes through: quote, backslash, newline, tab, DEL, U+2028, é, non-BMP.
ESCAPES_LABELS = ['q"t', "b\\s", "n\nl\tt", "d\x7fé", "u \U0001F600"]
ESCAPES_DOC = json.dumps(
    {
        "frame": ESCAPES_LABELS,
        "sources": [
            {"name": 'quote "name"', "focal": ESCAPES_LABELS[:2], "bpa": [0.6, 0.3]},
            {"name": "back\\slash\ttab", "focal": ESCAPES_LABELS[1:3], "bpa": [0.5, 0.45]},
            {"name": "new\nline\x7f", "focal": ESCAPES_LABELS[3:], "bpa": [0.2, 0.9]},
            {"name": "é   \U0001F600", "focal": ESCAPES_LABELS[1:4], "bpa": [0.7, 1]},
        ],
    }
)

# (id, document, argv before --scenario, exit code, stderr, sha256 of stdout)
GOLDEN_DOCUMENTS = [
    ("sweep-json-conflict", CONFLICT_DOC, "sweep --format json", 3,
     "condition 2: total conflict at step 1 (k = 1.0)\n",
     "b5502145fff1a349ac06c373378a49309e46d465e48e2ca72461d0ec165cdeef"),
    ("fuse-json-one-source", ONE_SOURCE_DOC, "fuse --condition 1 --format json", 0, "",
     "6402ec21c276ff209540fe627d8267466c96a5068a4d137dc31f370c41328477"),
    ("sweep-json-escapes", ESCAPES_DOC, "sweep --format json", 0, "",
     "65273ad16060860f5e20f4b7892c3ca96e9003bfbfb2c3df2b6e89704a45154e"),
    ("sweep-table-escapes", ESCAPES_DOC, "sweep --format table", 0, "",
     "55115ed9e026583c3de847024aff2341ea698c36915861c0f1cd925228a83317"),
]


class TestLongLivedProcess:
    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --scenario doc.json --format json",
            "sweep --scenario doc.json",
            "fuse --scenario doc.json --condition 1 --format json",
            "fuse --scenario doc.json --condition 1 --trace",
        ],
    )
    def test_repeated_runs_keep_no_more_blocks(self, capsys, tmp_path, monkeypatch, argv):
        """A tuple built from a generator, by tuple(genexpr) or f(*genexpr),
        grows by resizing, so freeing it strands a block on CPython's free
        list for its final size: a process that calls main in a loop would
        hold more memory after every run, up to the free lists' caps."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.json").write_text(ESCAPES_DOC, encoding="utf-8")
        for _ in range(20):
            run(capsys, *argv.split())
        before = sys.getallocatedblocks()
        for _ in range(200):
            run(capsys, *argv.split())
        assert sys.getallocatedblocks() - before < 100


class TestOutputLimits:
    def test_exploding_fold_exits_2(self, capsys, tmp_path):
        path = tmp_path / "doubling.json"
        path.write_text(doubling_document())
        code, out, err = run(capsys, "fuse", "--scenario", str(path), "--condition", "1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: step 18 ")

    def test_stdout_that_cannot_encode_the_report(self):
        # the table writes Θ for the full frame, which ascii cannot carry
        result = subprocess.run(
            [sys.executable, "-m", "dsfusion.cli", "fuse", "--builtin", "takraw",
             "--condition", "1"],
            env={
                **os.environ,
                "PYTHONPATH": str(ROOT / "src"),
                "PYTHONIOENCODING": "ascii",
            },
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr.count("\n") == 1 and result.stderr.startswith("error: ")


def buffered_child(argv, **kwargs):
    """``python -m dsfusion.cli`` with Python's default buffered stdout, where
    the report can still wait in the buffer when ``main`` returns."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "dsfusion.cli", *argv],
        env=env,
        stderr=subprocess.PIPE,
        text=True,
        **kwargs,
    )


class TestUnwritableStdout:
    @pytest.mark.parametrize(
        "argv",
        [["sweep", "--builtin", "takraw"], ["--help"],
         ["fuse", "--builtin", "takraw", "--condition", "9", "--format", "json"]],
        ids=" ".join,
    )
    def test_pipe_without_reader_exits_1(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            result = buffered_child(argv, stdout=write)
        finally:
            os.close(write)
        assert result.returncode == 1
        assert result.stderr == "error: [Errno 32] Broken pipe\n"

    def test_closed_stdout_exits_1(self):
        result = buffered_child(
            ["sweep", "--builtin", "takraw"], preexec_fn=lambda: os.close(1)
        )
        assert (result.returncode, result.stderr) == (1, "error: stdout is closed\n")


class TestUnwritableStderr:
    """A run exits with the code its outcome earned, whether or not its
    diagnostic line could be written: an escaped OSError would exit 1, and a
    failed flush of a buffered stderr at exit would exit 120."""

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("sink", ["writable", "closed", "full", "pipe-without-reader"])
    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["sweep", "--builtin", "takraw"], 0,
             "da2ccdfec63f77db1103a26baf01fc54957c5b409224966e655ff2925d103ce3"),
            # argparse prints its usage to stdout if sys.stderr is None
            (["fuse", "--builtin", "takraw"], 1,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (["fuse", "--builtin", "takraw", "--condition", "99"], 2,
             "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (["sweep", "--scenario", "conflict.json"], 3,
             "3e87c40c34bd8b72ef4c9425c7aad9aa32087356c1a876ce1f24ed11fd8c6b43"),
        ],
        ids=["success", "usage", "validation", "conflict"],
    )
    def test_exit_code_holds(self, tmp_path, argv, code, digest, sink, buffered):
        (tmp_path / "conflict.json").write_text(CONFLICT_DOC)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONUNBUFFERED": "1"}
        if buffered:
            del env["PYTHONUNBUFFERED"]
        read, write = os.pipe()
        os.close(read)
        with open(os.devnull if sink == "closed" else "/dev/full", "wb") as full:
            result = subprocess.run(
                [sys.executable, "-m", "dsfusion.cli", *argv],
                cwd=tmp_path,
                env=env,
                stdout=subprocess.PIPE,
                stderr={"writable": subprocess.PIPE, "pipe-without-reader": write}.get(sink, full),
                preexec_fn=(lambda: os.close(2)) if sink == "closed" else None,
            )
        os.close(write)
        assert result.returncode == code
        assert hashlib.sha256(result.stdout).hexdigest() == digest
        assert b"Traceback" not in (result.stderr or b"")

    def test_main_returns_its_code_with_fd_2_closed(self):
        # closed after start-up, so sys.stderr is a stream on a dead descriptor
        code = (
            "import os\n"
            "from dsfusion.cli import main\n"
            "os.close(2)\n"
            "print(main(['fuse', '--builtin', 'takraw', '--condition', '99']))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            stdout=subprocess.PIPE,
            text=True,
        )
        assert result.stdout == "2\n"


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGoldenOutput:
    @pytest.mark.parametrize(
        "command, digest", GOLDEN_STDOUT, ids=[c for c, _ in GOLDEN_STDOUT]
    )
    def test_stdout_bytes(self, capsys, command, digest):
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert sha256(out) == digest

    def test_conflict_sweep_bytes(self, capsys, tmp_path, monkeypatch):
        # the table names the scenario by the path given, so keep it relative
        monkeypatch.chdir(tmp_path)
        (tmp_path / "conflict.json").write_text(CONFLICT_DOC)
        code, out, err = run(capsys, "sweep", "--scenario", "conflict.json")
        assert (code, err) == (3, "condition 2: total conflict at step 1 (k = 1.0)\n")
        assert sha256(out) == (
            "3e87c40c34bd8b72ef4c9425c7aad9aa32087356c1a876ce1f24ed11fd8c6b43"
        )

    @pytest.mark.parametrize(
        "document, argv, code, err, digest",
        [pytest.param(*case[1:], id=case[0]) for case in GOLDEN_DOCUMENTS],
    )
    def test_document_bytes(
        self, capsys, tmp_path, monkeypatch, document, argv, code, err, digest
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "doc.json").write_text(document, encoding="utf-8")
        got_code, out, got_err = run(capsys, *argv.split(), "--scenario", "doc.json")
        assert (got_code, got_err) == (code, err)
        assert sha256(out) == digest

    def test_export_builtin_bytes(self, capsys, tmp_path):
        path = tmp_path / "takraw.json"
        assert run(capsys, "export-builtin", "takraw", "--out", str(path)) == (0, "", "")
        assert sha256(path.read_text(encoding="utf-8")) == (
            "c31f5586f62eca8606bfc68ce059eac18eed19d479583bfdbcffe1a446fa42bd"
        )

    @pytest.mark.parametrize("command, digest", GOLDEN_HELP, ids=[c for c, _ in GOLDEN_HELP])
    def test_help_bytes(self, capsys, monkeypatch, command, digest):
        # argparse wraps help to the terminal width, which it reads from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *command.split())
        assert (code, err) == (0, "")
        assert sha256(out) == digest


class TestParserReuse:
    def test_main_builds_a_parser_per_argparse_call_and_keeps_none(self, capsys, monkeypatch):
        builds = []
        build_parser = cli.build_parser

        def counting_build_parser():
            builds.append(1)
            return build_parser()

        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        before = dict(vars(cli))
        for _ in range(2):
            for argv, code, parsers in (
                (["--help"], 0, 1),
                (["fuse", "--condition", "1"], 1, 1),
                (["fuse", "--builtin", "takraw", "--condition", "2", "--trace"], 0, 0),
            ):
                builds.clear()
                assert run(capsys, *argv)[0] == code, argv
                assert len(builds) == parsers, argv
        after = vars(cli)
        assert after.keys() == before.keys()
        assert [name for name, value in before.items() if after[name] is not value] == []

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_golden_output_after_help_usage_error_and_trace(self, capsys):
        assert run(capsys, "--help")[0] == 0
        assert run(capsys, "fuse", "--builtin", "takraw")[0] == 1
        code, out, _ = run(
            capsys, "fuse", "--builtin", "takraw", "--condition", "3", "--trace"
        )
        assert code == 0 and out
        for command, digest in GOLDEN_STDOUT:
            code, out, err = run(capsys, *command.split())
            assert (code, err, sha256(out)) == (0, "", digest), command


class TestVersion:
    def test_version_has_one_owner(self, capsys):
        import tomllib

        with open(ROOT / "pyproject.toml", "rb") as handle:
            pyproject = tomllib.load(handle)
        assert "version" not in pyproject["project"]
        assert "version" in pyproject["project"]["dynamic"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "dsfusion.__version__"
        }
        code, out, err = run(capsys, "--version")
        assert (code, out, err) == (0, f"dsfusion {__version__}\n", "")


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


def readme_transcripts():
    """README code blocks that run a dsfusion command and show its output.

    Maps each block's command line to the lines shown after it.
    """
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    transcripts = {}
    for block in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        command, *shown = block.splitlines()
        # the export-builtin block shows a second command, not output
        if command.startswith("$ dsfusion ") and "\n$" not in block:
            transcripts[command] = shown
    return transcripts


class TestReadmeTranscripts:
    @pytest.mark.parametrize(
        "command",
        [
            "$ dsfusion fuse --builtin takraw --condition 1",
            "$ dsfusion fuse --builtin takraw --condition 1 --trace --precision 2",
            "$ dsfusion sweep --builtin takraw",
        ],
    )
    def test_shown_lines_appear_in_order(self, capsys, command):
        shown = readme_transcripts()[command]
        code, out, err = run(capsys, *shlex.split(command)[2:])
        assert (code, err) == (0, "")
        lines = iter(out.splitlines())
        for line in shown:
            if line != "...":
                assert line in lines, line
