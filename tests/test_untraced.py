"""predict, sweep and the CLI against summaries of fuse_all's report.

All of them run the one fold in fuse_all, so every comparison here is exact:
final masses, per-step conflict, the step and k of a total conflict, and the
CLI's stdout byte for byte.
"""

import contextlib
import io
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

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
    predict,
    prediction_from_report,
    scenario_digest,
)
from dsfusion.cli import main
from dsfusion.render import RunReport, fuse_text, sweep_csv, sweep_json, sweep_text

# Weight 1.0 on disjoint focals is a total conflict and 0.99x is a near one,
# so both are drawn often alongside ordinary weights.
WEIGHTS = st.one_of(
    st.integers(min_value=1, max_value=1000).map(lambda w: w / 1000),
    st.integers(min_value=990, max_value=999).map(lambda w: w / 1000),
    st.just(1.0),
)


@st.composite
def simple_support_scenarios(draw):
    size = draw(st.integers(min_value=2, max_value=5))
    frame = Frame([f"h{i}" for i in range(size)])
    proper = st.integers(min_value=1, max_value=(1 << size) - 2)
    masks = draw(st.lists(proper, min_size=1, max_size=8))
    conditions = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.lists(
        st.lists(WEIGHTS, min_size=len(masks), max_size=len(masks)),
        min_size=conditions, max_size=conditions,
    ))
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
