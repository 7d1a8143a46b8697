"""Scenario document parsing, emission, and round-trip identity."""

import json
import random

import pytest
from hypothesis import given, strategies as st

from dsfusion import (
    ParseError,
    SchemaError,
    ValidationError,
    builtin_takraw_scenario,
    emit_scenario,
    parse_scenario,
    predict,
    scenario_digest,
)

from helpers import random_scenario

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

    def test_frame_not_strings(self):
        with pytest.raises(SchemaError):
            parse_scenario('{"frame": ["a", 3], "sources": []}')

    def test_sources_empty(self):
        with pytest.raises(SchemaError):
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
        text = doc(frame=frame, sources=[{"name": name, "focal": ["a"], "bpa": [0.5]}])
        with pytest.raises(SchemaError, match="lone surrogate"):
            parse_scenario(text)

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
