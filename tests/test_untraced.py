"""predict, sweep and the CLI against summaries of fuse_all's report.

predict and fuse run the fold in fuse_all.  sweep derives each step's focal
structure once per scenario and replays every condition's float operations
in fuse_all's order (fusion._fold_rows).  So every comparison here is exact:
final masses, per-step conflict, the step and k of a total conflict, and the
CLI's stdout byte for byte.
"""

import contextlib
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from dsfusion import (
    EvidenceError,
    Frame,
    Motion,
    Scenario,
    SweepFailure,
    TotalConflictError,
    emit_scenario,
    evidence_for,
    fuse_all,
    fusion_report,
    parse_scenario,
    predict,
    prediction_from_report,
    scenario_digest,
    sweep,
)
from dsfusion.cli import main
from dsfusion.render import RunReport, fuse_text, sweep_csv, sweep_json, sweep_text

from helpers import doubling_document

# Weight 1.0 on disjoint focals is a total conflict and 0.99x is a near one,
# so both are drawn often alongside ordinary weights.
WEIGHTS = st.one_of(
    st.integers(min_value=1, max_value=1000).map(lambda w: w / 1000),
    st.integers(min_value=990, max_value=999).map(lambda w: w / 1000),
    st.just(1.0),
)


@st.composite
def simple_support_scenarios(
    draw, labels=5, motions=8, conditions=3, weights=WEIGHTS
):
    size = draw(st.integers(min_value=2, max_value=labels))
    proper = st.integers(min_value=1, max_value=(1 << size) - 2)
    masks = draw(st.lists(proper, min_size=1, max_size=motions))
    count = draw(st.integers(min_value=1, max_value=conditions))
    rows = draw(st.lists(
        st.lists(weights, min_size=len(masks), max_size=len(masks)),
        min_size=count, max_size=count,
    ))
    return scenario_of(size, masks, rows)


def scenario_of(size, masks, rows):
    """Motions m0, m1, ... on the given focal masks over labels h0..h{size-1}."""
    frame = Frame([f"h{i}" for i in range(size)])
    motions = [Motion(f"m{i}", frame.subset_from_mask(m)) for i, m in enumerate(masks)]
    return Scenario(frame, motions, rows)


def traced_sweep(scenario):
    """What sweep returned when every condition went through fuse_all."""
    results = []
    for condition in range(1, scenario.condition_count + 1):
        try:
            report = fusion_report(scenario, condition)
        except EvidenceError as exc:
            results.append(SweepFailure(condition, exc))
        else:
            results.append(prediction_from_report(report, condition))
    return results


def assert_same_sweep(results, expected):
    """Field by field, with every float compared by its bits."""
    assert len(results) == len(expected)
    for result, reference in zip(results, expected):
        assert type(result) is type(reference)
        if isinstance(reference, SweepFailure):
            error, traced = result.error, reference.error
            assert result.condition == reference.condition
            assert type(error) is type(traced)
            assert getattr(error, "step", None) == getattr(traced, "step", None)
            assert float.hex(getattr(error, "conflict", 0.0)) == float.hex(
                getattr(traced, "conflict", 0.0)
            )
            assert str(error) == str(traced)
            assert error.__traceback__ is None
            continue
        assert result == reference
        assert result.final.mask_items() == reference.final.mask_items()
        assert [float.hex(k) for k in result.steps_conflict] == [
            float.hex(k) for k in reference.steps_conflict
        ]


def cli_stdout(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(scenario=simple_support_scenarios())
def test_predict_matches_fuse_all(scenario):
    for condition in range(1, scenario.condition_count + 1):
        try:
            report = fuse_all(evidence_for(scenario, condition))
        except TotalConflictError as traced:
            with pytest.raises(TotalConflictError) as untraced:
                predict(scenario, condition)
            assert untraced.value.step == traced.step
            assert untraced.value.conflict == traced.conflict
            assert str(untraced.value) == str(traced)
            continue
        p = predict(scenario, condition)
        assert p.final == report.final
        assert p.steps_conflict == report.per_step_conflict
        assert p == prediction_from_report(report, condition)


@settings(max_examples=60, deadline=None)
@given(scenario=simple_support_scenarios())
def test_cli_stdout_matches_traced_path(scenario):
    traced = traced_sweep(scenario)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(emit_scenario(scenario))
        digest = scenario_digest(scenario)
        renderers = {
            "table": lambda results: sweep_text(path, digest, results),
            "json": sweep_json,
            "csv": sweep_csv,
        }
        for fmt, render in renderers.items():
            code, out = cli_stdout("sweep", "--scenario", path, "--format", fmt)
            assert out == render(traced)
            assert code == (3 if any(isinstance(r, SweepFailure) for r in traced) else 0)

        for condition, result in enumerate(traced, start=1):
            if isinstance(result, SweepFailure):
                assert cli_stdout("fuse", "--scenario", path, "--condition",
                                  str(condition)) == (3, "")
                continue
            run = RunReport(scenario, path, digest, condition,
                            fusion_report(scenario, condition), result)
            assert cli_stdout("fuse", "--scenario", path, "--condition",
                              str(condition)) == (0, fuse_text(run, 4, False))
            assert cli_stdout("fuse", "--scenario", path, "--condition", str(condition),
                              "--format", "csv") == (0, sweep_csv([result]))


def test_total_conflict_step_and_k_agree():
    frame = Frame(["a", "b", "c"])
    motions = [
        Motion("m1", frame.subset(["a", "b"])),
        Motion("m2", frame.subset(["b", "c"])),
        Motion("m3", frame.subset(["a"])),
    ]
    scenario = Scenario(frame, motions, [(1.0, 1.0, 1.0)])
    with pytest.raises(TotalConflictError) as traced:
        fuse_all(evidence_for(scenario, 1))
    with pytest.raises(TotalConflictError) as untraced:
        predict(scenario, 1)
    assert traced.value.step == untraced.value.step == 2
    assert traced.value.conflict == untraced.value.conflict == 1.0


@settings(max_examples=300, deadline=None)
@given(scenario=simple_support_scenarios(
    labels=8, motions=12, conditions=6, weights=st.one_of(WEIGHTS, st.just(5e-324)),
))
# Total conflict in condition 2 of 3: disjoint focals at weight 1.0.
@example(scenario=scenario_of(3, [1, 2, 3], [(0.5, 0.5, 0.5), (1.0, 1.0, 0.5), (0.3, 0.6, 0.9)]))
# A first motion without Θ, then overlapping and disjoint focals.
@example(scenario=scenario_of(4, [3, 6, 12, 1], [(1.0, 0.4, 0.7, 0.2), (0.5, 1.0, 0.999, 1.0)]))
# Products that underflow to 0.0 and drop out of fuse_all's folds.
@example(scenario=scenario_of(
    3, [3, 6, 5, 2], [(5e-324, 1e-200, 1e-200, 0.5), (1e-300, 5e-324, 0.5, 1e-160)],
))
def test_sweep_matches_traced_sweep_bit_for_bit(scenario):
    assert_same_sweep(sweep(scenario), traced_sweep(scenario))


def test_sweep_at_the_fold_cap_matches_traced_sweep():
    # Conditions 1 and 3 reach the cap at step 18; condition 2's first motion
    # has weight 1.0, so its fold keeps one focal and is never near the cap.
    document = json.loads(doubling_document())
    for source in document["sources"]:
        source["bpa"] *= 3
    document["sources"].insert(0, {"name": "first", "focal": ["h63"], "bpa": [0.5, 1.0, 0.25]})
    scenario = parse_scenario(json.dumps(document))
    seconds = {sweep: [], traced_sweep: []}
    results = {}
    for _ in range(2):
        for run, times in seconds.items():
            start = time.perf_counter()
            results[run] = run(scenario)
            times.append(time.perf_counter() - start)
    expected = results[traced_sweep]
    assert_same_sweep(results[sweep], expected)
    message = "step 18 would cross 262146 focal pairs, over the cap of 262144"
    assert [str(r.error) for r in expected if isinstance(r, SweepFailure)] == [message] * 2
    assert expected[1].winner.labels == ("h63",)
    # Folding past the cap would at least double the time; the margin is for noise.
    assert min(seconds[sweep]) <= 1.5 * min(seconds[traced_sweep])
