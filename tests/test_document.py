"""Scenario document parsing, emission, round-trip identity, and the JSON
writer behind every JSON text dsfusion prints."""

import ast
import contextlib
import hashlib
import json
import random
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import dsfusion
from dsfusion import (
    Frame,
    Motion,
    ParseError,
    Prediction,
    Scenario,
    SchemaError,
    ValidationError,
    builtin_takraw_scenario,
    document,
    emit_scenario,
    fusion_report,
    parse_scenario,
    predict,
    prediction_from_report,
    render,
    scenario_digest,
    sweep,
)
from dsfusion.document import _json_text
from dsfusion.render import RunReport, fuse_json, sweep_json

from helpers import random_scenario
from test_fuzz import wide_overlap_document

MINIMAL = '{"frame": ["a", "b"], "sources": [{"name": "s", "focal": ["a"], "bpa": [0.5]}]}'


def doc(frame=("a", "b"), sources=None):
    if sources is None:
        sources = [{"name": "s", "focal": ["a"], "bpa": [0.5]}]
    return json.dumps({"frame": list(frame), "sources": sources})


class TestParse:
    def test_minimal_document(self):
        s = parse_scenario(MINIMAL)
        assert s.frame.labels == ("a", "b")
        assert s.condition_count == 1
        assert s.motions[0].name == "s"
        assert s.motions[0].direction.labels == ("a",)
        assert s.bpa == ((0.5,),)

    def test_integer_weight_accepted(self):
        s = parse_scenario(doc(sources=[{"name": "s", "focal": ["a"], "bpa": [1]}]))
        assert s.bpa == ((1.0,),)

    def test_malformed_json(self):
        with pytest.raises(ParseError) as exc_info:
            parse_scenario('{"frame": ["a"],')
        assert exc_info.value.line is not None
        assert exc_info.value.column is not None

    def test_top_level_not_object(self):
        with pytest.raises(SchemaError):
            parse_scenario("[1, 2, 3]")

    @pytest.mark.parametrize(
        "text",
        [
            '{"frame": ["a", "b"]}',
            '{"sources": []}',
            '{"frame": ["a"], "sources": [], "extra": 1}',
        ],
    )
    def test_wrong_top_level_keys(self, text):
        with pytest.raises(SchemaError):
            parse_scenario(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"frame": ["a"], "sources": [], "frame": ["b"]}',
            '{"frame": ["a", "b"], "sources": [{"name": "s", "focal": ["a"], '
            '"name": "t", "bpa": [0.5]}]}',
        ],
    )
    def test_repeated_key(self, text):
        with pytest.raises(SchemaError, match="key .* is repeated"):
            parse_scenario(text)

    def test_frame_not_strings(self):
        with pytest.raises(SchemaError):
            parse_scenario('{"frame": ["a", 3], "sources": []}')

    def test_sources_empty(self):
        with pytest.raises(SchemaError):
            parse_scenario('{"frame": ["a", "b"], "sources": []}')

    def test_sources_empty_is_named(self):
        # not left to the length check, which would report "disagree in length: []"
        with pytest.raises(SchemaError, match='"sources" must be a non-empty array'):
            parse_scenario('{"frame": ["a", "b"], "sources": []}')

    def test_source_not_object(self):
        with pytest.raises(SchemaError):
            parse_scenario(doc(sources=["nope"]))

    @pytest.mark.parametrize(
        "source",
        [
            {"name": "s", "focal": ["a"]},
            {"name": "s", "bpa": [0.5]},
            {"name": "s", "focal": ["a"], "bpa": [0.5], "extra": 1},
            {"name": 3, "focal": ["a"], "bpa": [0.5]},
            {"name": "s", "focal": "a", "bpa": [0.5]},
            {"name": "s", "focal": [1], "bpa": [0.5]},
            {"name": "s", "focal": ["a"], "bpa": 0.5},
            {"name": "s", "focal": ["a"], "bpa": ["0.5"]},
            {"name": "s", "focal": ["a"], "bpa": [True]},
        ],
    )
    def test_bad_source_shapes(self, source):
        with pytest.raises(SchemaError):
            parse_scenario(doc(sources=[source]))

    def test_ragged_bpa(self):
        sources = [
            {"name": "s1", "focal": ["a"], "bpa": [0.5, 0.5]},
            {"name": "s2", "focal": ["b"], "bpa": [0.5]},
        ]
        with pytest.raises(SchemaError):
            parse_scenario(doc(sources=sources))

    def test_zero_conditions(self):
        with pytest.raises(ValidationError):
            parse_scenario(doc(sources=[{"name": "s", "focal": ["a"], "bpa": []}]))

    def test_weight_out_of_unit_interval(self):
        with pytest.raises(ValidationError):
            parse_scenario(doc(sources=[{"name": "s", "focal": ["a"], "bpa": [1.5]}]))
        with pytest.raises(ValidationError):
            parse_scenario(doc(sources=[{"name": "s", "focal": ["a"], "bpa": [0.0]}]))
        with pytest.raises(ValidationError):  # float() of it overflows
            parse_scenario(doc(sources=[{"name": "s", "focal": ["a"], "bpa": [10**400]}]))

    def test_integer_beyond_digit_limit(self):
        with pytest.raises(ParseError, match="digits"):
            parse_scenario(MINIMAL.replace("0.5", "1" * 5000))

    @pytest.mark.parametrize(
        "frame, name",
        [(("a", "\ud800"), "s"), (("a", "b"), "\ud800")],
        ids=["label", "name"],
    )
    def test_lone_surrogate_string(self, frame, name):
        # Scenario(...) owns the check: well-formed, so not a SchemaError
        text = doc(frame=frame, sources=[{"name": name, "focal": ["a"], "bpa": [0.5]}])
        with pytest.raises(ValidationError, match="lone surrogate"):
            parse_scenario(text)

    def test_lone_surrogate_focal_label_outside_the_frame(self):
        # a focal label must be a frame label, so it needs no surrogate check
        focal = ["a", "\ud800"]
        text = doc(sources=[{"name": "s", "focal": focal, "bpa": [0.5]}])
        with pytest.raises(ValidationError, match="is not in"):
            parse_scenario(text)

    def test_lone_surrogate_message_is_scenarios(self):
        name = "m\ud800"
        text = doc(sources=[{"name": name, "focal": ["a"], "bpa": [0.5]}])
        with pytest.raises(ValidationError) as parsed:
            parse_scenario(text)
        frame = Frame(["a", "b"])
        with pytest.raises(ValidationError) as built:
            Scenario(frame, [Motion(name, frame.subset(["a"]))], [(0.5,)])
        assert str(parsed.value) == str(built.value)

    def test_unknown_focal_label(self):
        with pytest.raises(ValidationError):
            parse_scenario(doc(sources=[{"name": "s", "focal": ["z"], "bpa": [0.5]}]))

    def test_empty_focal(self):
        with pytest.raises(ValidationError):
            parse_scenario(doc(sources=[{"name": "s", "focal": [], "bpa": [0.5]}]))

    def test_full_frame_focal(self):
        with pytest.raises(ValidationError):
            parse_scenario(
                doc(sources=[{"name": "s", "focal": ["a", "b"], "bpa": [0.5]}])
            )

    def test_duplicate_source_names(self):
        sources = [
            {"name": "s", "focal": ["a"], "bpa": [0.5]},
            {"name": "s", "focal": ["b"], "bpa": [0.5]},
        ]
        with pytest.raises(ValidationError):
            parse_scenario(doc(sources=sources))

    def test_duplicate_frame_labels(self):
        with pytest.raises(ValidationError):
            parse_scenario(doc(frame=("a", "a")))


class TestEmit:
    def test_round_trips_builtin(self):
        takraw = builtin_takraw_scenario()
        assert parse_scenario(emit_scenario(takraw)) == takraw

    def test_emission_is_deterministic(self):
        takraw = builtin_takraw_scenario()
        assert emit_scenario(takraw) == emit_scenario(builtin_takraw_scenario())

    def test_document_shape(self):
        data = json.loads(emit_scenario(builtin_takraw_scenario()))
        assert set(data) == {"frame", "sources"}
        assert data["frame"] == ["F", "L", "R", "B"]
        assert len(data["sources"]) == 10
        first = data["sources"][0]
        assert first["name"] == "left foot moves to front"
        assert first["focal"] == ["F"]
        assert first["bpa"][0] == 0.75

    def test_round_trip_preserves_predictions(self):
        takraw = builtin_takraw_scenario()
        reparsed = parse_scenario(emit_scenario(takraw))
        for condition in (1, 5, 9):
            a, b = predict(takraw, condition), predict(reparsed, condition)
            assert a.winner.labels == b.winner.labels
            assert a.winner_mass == b.winner_mass  # bit-identical, same floats

    def test_seeded_round_trips(self):
        rng = random.Random(71)
        for _ in range(100):
            s = random_scenario(rng)
            assert parse_scenario(emit_scenario(s)) == s


class TestDigest:
    def test_stable_and_short(self):
        takraw = builtin_takraw_scenario()
        digest = scenario_digest(takraw)
        assert len(digest) == 12
        assert digest == scenario_digest(builtin_takraw_scenario())

    def test_sensitive_to_content(self):
        takraw = builtin_takraw_scenario()
        reparsed = parse_scenario(
            emit_scenario(takraw).replace("0.75", "0.76", 1)
        )
        assert scenario_digest(reparsed) != scenario_digest(takraw)

    # The built-in SHA-256 module of each interpreter, and hashlib, which
    # serves when neither imports (a None entry in sys.modules fails import).
    @pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib"])
    def test_matches_hashlib_sha256(self, monkeypatch, builtin):
        if not builtin:
            monkeypatch.setitem(sys.modules, "_sha256", None)
            monkeypatch.setitem(sys.modules, "_sha2", None)
        pinned = [
            (builtin_takraw_scenario(), "c31f5586f62e"),
            (random_scenario(random.Random(7)), "f35a2372f18c"),
        ]
        for scenario, digest in pinned:
            text = emit_scenario(scenario).encode("utf-8")
            assert scenario_digest(scenario) == digest
            assert hashlib.sha256(text).hexdigest()[:12] == digest


@st.composite
def scenario_documents(draw):
    size = draw(st.integers(min_value=2, max_value=5))
    labels = [f"h{i}" for i in range(size)]
    n_motions = draw(st.integers(min_value=1, max_value=5))
    conditions = draw(st.integers(min_value=1, max_value=4))
    sources = []
    for i in range(n_motions):
        mask = draw(st.integers(min_value=1, max_value=(1 << size) - 2))
        focal = [labels[b] for b in range(size) if mask >> b & 1]
        bpa = [
            draw(st.integers(min_value=1, max_value=100)) / 100
            for _ in range(conditions)
        ]
        sources.append({"name": f"m{i}", "focal": focal, "bpa": bpa})
    return json.dumps({"frame": labels, "sources": sources})


@given(text=scenario_documents())
def test_parse_emit_parse_is_identity(text):
    once = parse_scenario(text)
    emitted = emit_scenario(once)
    assert parse_scenario(emitted) == once
    assert emit_scenario(parse_scenario(emitted)) == emitted


def dumps(value):
    """The reference the writer must equal character for character."""
    return json.dumps(value, indent=2, ensure_ascii=False)


@contextlib.contextmanager
def written_payloads():
    """Collects every value handed whole to the JSON writer inside the block."""
    seen = []

    def recording(value, indent="\n"):
        if indent == "\n":  # nested values come back in with a deeper indent
            seen.append(value)
        return _json_text(value, indent)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(document, "_json_text", recording)
        patch.setattr(render, "_json_text", recording)
        yield seen


def output_payloads(s):
    """What emit_scenario, sweep_json and fuse_json (per fused condition) hand
    to the writer for scenario ``s``."""
    with written_payloads() as payloads:
        emit_scenario(s)
        results = sweep(s)
        sweep_json(results)
        for p in results:
            if isinstance(p, Prediction):
                report = fusion_report(s, p.condition)
                prediction = prediction_from_report(report, p.condition)
                fuse_json(RunReport(s, "s", "", p.condition, report, prediction))
    assert len(payloads) == 2 + sum(isinstance(p, Prediction) for p in results)
    return payloads


# Two disjoint certain supports: condition 2 ends in total conflict, so the
# sweep payload holds an error entry.
_CONFLICT_FRAME = Frame(["a", "b"])
CONFLICTING = Scenario(
    _CONFLICT_FRAME,
    [Motion(name, _CONFLICT_FRAME.subset([name[1]])) for name in ("sa", "sb")],
    [(0.5, 0.5), (1.0, 1)],
)

json_scalars = (
    st.text()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(st.text(), inner),
    max_leaves=25,
)


class TestJsonText:
    @given(value=json_values)
    @example(value=[5e-324, 1e-05, 0.1 + 0.2, 1.0, -0.0, 1e16, 1e22, 2**64])
    @example(value={"": [], "e": {}, "t": (), "n": [[{}]]})
    @example(value=['"', "\\", "\n", "\t", "\x7f", "\u2028", "é", "\U0001F600", "\x00"])
    def test_equals_the_json_module(self, value):
        assert _json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [True, False, None, object(), b"x", {1: 0.5}, [0.5, None], {"w": True},
         float("nan"), float("inf"), -float("inf")],
        ids=["true", "false", "none", "object", "bytes", "int-key", "nested-none",
             "nested-bool", "nan", "inf", "-inf"],
    )
    def test_refuses_what_it_would_write_differently(self, value):
        with pytest.raises(TypeError):
            _json_text(value)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_output_payloads(self, seed):
        for payload in output_payloads(random_scenario(random.Random(seed))):
            assert _json_text(payload) == dumps(payload)

    def test_output_payloads_with_a_failed_condition(self):
        payloads = output_payloads(CONFLICTING)
        assert payloads[1][1] == {
            "condition": 2, "error": "total conflict at step 1 (k = 1.0)"
        }
        for payload in payloads:
            assert _json_text(payload) == dumps(payload)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(text=wide_overlap_document())
    def test_emit_payloads_of_wide_documents(self, text):
        with written_payloads() as payloads:
            emit_scenario(parse_scenario(text))
        (payload,) = payloads
        assert _json_text(payload) == dumps(payload)

    def test_is_the_only_json_writer(self):
        src = Path(dsfusion.__file__).parent
        for path in src.glob("*.py"):
            assert "json.dumps(" not in path.read_text(encoding="utf-8"), path.name
        tree = ast.parse((src / "render.py").read_text(encoding="utf-8"))
        imported = {
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        } | {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not any(
            name and (name == "json" or name.startswith("json.")) for name in imported
        )
