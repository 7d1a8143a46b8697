"""Hostile input: documents and command lines fail only in documented ways.

``parse_scenario`` may reject a document only with an ``EvidenceError``, and
``cli.main`` must return one of its exit codes (0, 1, 2, 3) instead of
raising, whatever the argv and the bytes of the scenario file.
"""

import json
import tempfile

from hypothesis import HealthCheck, example, given, settings, strategies as st

from dsfusion import EvidenceError, Scenario, parse_scenario, scenario_digest
from dsfusion.cli import main
from helpers import doubling_document


def one_source_doc(weight: str, label: str = "b", focal: str = "a") -> str:
    return (
        f'{{"frame": ["a", "{label}"], '
        f'"sources": [{{"name": "s", "focal": ["{focal}"], "bpa": [{weight}]}}]}}'
    )


# Hand-built: json.dumps cannot write the 5000-digit one, and random search
# does not reach these.
BEYOND_FLOAT_RANGE = one_source_doc("1" * 400)  # float() overflows
BEYOND_DIGIT_LIMIT = one_source_doc("1" * 5000)  # json.loads refuses it
LONE_SURROGATE = one_source_doc("0.5", label="\\ud800")  # UTF-8 cannot encode it
# its error message quotes the frame, which holds the lone surrogate
SURROGATE_FRAME_UNKNOWN_FOCAL = one_source_doc("0.5", label="\\ud800", focal="z")

SHORT_TEXT = st.text(st.characters(categories=("Ll", "Nd", "Cs")), max_size=3)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | SHORT_TEXT,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(SHORT_TEXT, inner, max_size=4),
    max_leaves=12,
)

# Weight 1.0 on disjoint focals is a total conflict; tiny weights are subnormal.
UNIT_WEIGHTS = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.just(1.0)
WEIGHTS = UNIT_WEIGHTS | st.integers() | st.floats() | JSON_VALUES
LABELS = st.sampled_from("abcd") | SHORT_TEXT | JSON_VALUES


@st.composite
def scenario_like(draw):
    """JSON with the scenario document's shape: valid about half the time."""
    if draw(st.booleans()):
        frame = draw(st.lists(st.sampled_from("abcd"), min_size=2, max_size=4, unique=True))
        conditions = draw(st.integers(min_value=1, max_value=3))
        focal = st.lists(
            st.sampled_from(frame), min_size=1, max_size=len(frame) - 1, unique=True
        )
        weights = st.lists(UNIT_WEIGHTS, min_size=conditions, max_size=conditions)
        sources = [
            {"name": f"m{i}", "focal": draw(focal), "bpa": draw(weights)}
            for i in range(draw(st.integers(min_value=1, max_value=4)))
        ]
        return json.dumps({"frame": frame, "sources": sources})
    conditions = draw(st.integers(min_value=0, max_value=3))
    source = st.fixed_dictionaries(
        {
            "name": SHORT_TEXT | JSON_VALUES,
            "focal": st.lists(LABELS, max_size=3),
            "bpa": st.lists(WEIGHTS, min_size=conditions, max_size=conditions)
            | st.lists(WEIGHTS, max_size=3),
        }
    )
    document = {
        "frame": draw(st.lists(LABELS, max_size=5)),
        "sources": draw(st.lists(source, max_size=4)),
    }
    if draw(st.booleans()):
        document[draw(SHORT_TEXT)] = draw(JSON_VALUES)
    return json.dumps(document)


@settings(max_examples=300, deadline=None)
@given(text=st.text() | JSON_VALUES.map(json.dumps) | scenario_like())
@example(text=BEYOND_FLOAT_RANGE)
@example(text=BEYOND_DIGIT_LIMIT)
@example(text=LONE_SURROGATE)
@example(text=SURROGATE_FRAME_UNKNOWN_FOCAL)
def test_parse_scenario_raises_only_evidence_errors(text):
    try:
        scenario = parse_scenario(text)
    except EvidenceError as exc:
        str(exc).encode("utf-8")  # no lone surrogate from the document leaks in
        return
    assert isinstance(scenario, Scenario)
    assert len(scenario_digest(scenario)) == 12


# Paths are relative to a fresh directory under tmp_path, so every read and
# every --out write stays there, even when --out meets one of the words.
PATHS = ["scenario.json", "out.json", "missing.json", ".", ""]
WORDS = [
    "fuse", "sweep", "export-builtin", "takraw", "--builtin", "--scenario",
    "--condition", "--trace", "--format", "table", "json", "csv",
    "--precision", "--out", "--help", "0", "1", "2", "9", "10", "-1", "12",
    "13", "x",
]
NUMBERS = st.sampled_from(["0", "1", "2", "3", "9", "10", "-1", "12", "13", "x"])


@st.composite
def cli_argv(draw):
    """A command line built from the CLI's own words, valid or not."""
    path = st.sampled_from(PATHS)
    if draw(st.booleans()):
        return draw(st.lists(st.sampled_from(WORDS) | path, max_size=8))
    command = draw(st.sampled_from(["fuse", "sweep", "export-builtin"]))
    if command == "export-builtin":
        return [command, "takraw", "--out", draw(path)]
    argv = [command]
    if draw(st.booleans()):
        argv += ["--scenario", draw(path)]
    else:
        argv += ["--builtin", "takraw"]
    if command == "fuse":
        argv += ["--condition", draw(NUMBERS)]
        if draw(st.booleans()):
            argv.append("--trace")
        if draw(st.booleans()):
            argv += ["--precision", draw(NUMBERS)]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(["table", "json", "csv"]))]
    return argv


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    argv=cli_argv(),
    content=st.binary(max_size=200) | scenario_like().map(str.encode),
)
@example(argv=["sweep", "--scenario", "scenario.json"], content=BEYOND_FLOAT_RANGE.encode())
@example(argv=["sweep", "--scenario", "scenario.json"], content=BEYOND_DIGIT_LIMIT.encode())
@example(
    argv=["fuse", "--scenario", "scenario.json", "--condition", "1"],
    content=LONE_SURROGATE.encode(),
)
def test_cli_main_returns_an_exit_code(argv, content, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tempfile.mkdtemp(dir=tmp_path))
    with open("scenario.json", "wb") as handle:
        handle.write(content)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 1, 2, 3)
    if code == 0:
        assert err == ""
    elif argv[:1] == ["fuse"]:
        assert out == ""


@st.composite
def wide_overlap_document(draw):
    """A one-condition document on 20-64 labels with 16-24 sources, each focal
    the frame minus 1-4 labels.  Any two focals meet, and the fold's focal
    count can double at every step, up to FOLD_CELL_CAP."""
    size = draw(st.integers(min_value=20, max_value=64))
    labels = [f"h{i}" for i in range(size)]
    left_out = st.sets(st.sampled_from(labels), min_size=1, max_size=4)
    weight = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    sources = []
    for i in range(draw(st.integers(min_value=16, max_value=24))):
        dropped = draw(left_out)
        focal = [label for label in labels if label not in dropped]
        sources.append({"name": f"s{i}", "focal": focal, "bpa": [draw(weight)]})
    return json.dumps({"frame": labels, "sources": sources})


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(command=st.sampled_from(["fuse", "sweep"]), document=wide_overlap_document())
@example(command="fuse", document=doubling_document())
def test_cli_main_on_wide_overlapping_focals(command, document, tmp_path, capsys):
    path = tmp_path / "wide.json"
    path.write_text(document, encoding="utf-8")
    argv = [command, "--scenario", str(path)]
    code = main(argv + ["--condition", "1"] if command == "fuse" else argv)
    out, err = capsys.readouterr()
    assert code in (0, 2)
    if command == "fuse" and code != 0:
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
