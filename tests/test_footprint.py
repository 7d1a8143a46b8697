"""What the fold and winner selection hold and do, counted rather than timed.

``tracemalloc`` counts the bytes that ``fold`` and ``predict`` hold at their
peak against the bytes of the final mass function alone.  A wrapper around
``MassFunction.belief`` counts the terms that winner selection sums against
the focal pairs that the fold crossed.
"""

from __future__ import annotations

import json
import tracemalloc

import pytest

from dsfusion import (
    EmptyInputError,
    MassFunction,
    Motion,
    Scenario,
    cli,
    evidence_for,
    fold,
    fuse_all,
    fusion_report,
    parse_scenario,
    predict,
    prediction_from_report,
    select_winner,
)

from helpers import doubling_document

# Peak bytes held, in units of the final mass function's own bytes.  A fold
# that keeps one step holds about 2; keeping every step of the plateau fold
# below held 6.7.
HELD = 3
# Belief terms summed by winner selection, in units of the fold's crossed
# cells.  On the n-source doubling prefix that is n / 2, at most 8.5; a
# belief for every tied focal would cost 2**(n - 1).
WORK = 10


def _plateau() -> Scenario:
    """The first 12 doubling sources, then the first 8 again: 4,096 focals
    from step 12 on, so the fold holds as many bytes at each later step."""
    doubling = parse_scenario(doubling_document())
    first = doubling.motions[:12]
    motions = [*first, *(Motion(f"{m.name} again", m.direction) for m in first[:8])]
    return Scenario(doubling.frame, motions, [[0.5] * len(motions)])


def _traced(call):
    """call()'s result, and the traced bytes it held at its peak and after."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, held - base


def test_fold_holds_one_step_at_a_time():
    sources = evidence_for(_plateau(), 1)
    final, peak, own = _traced(lambda: fold(sources))
    assert len(final) == 2**12
    assert peak <= HELD * own
    assert final == fuse_all(sources).final  # every mass compared as a float, bit for bit
    with pytest.raises(EmptyInputError):
        fold([])


def test_predict_holds_one_step_at_a_time():
    scenario = _plateau()
    _, _, own = _traced(lambda: fold(evidence_for(scenario, 1)))
    prediction, peak, _ = _traced(lambda: predict(scenario, 1))
    assert peak <= HELD * own
    assert prediction == prediction_from_report(fusion_report(scenario, 1), 1)


def test_winner_selection_is_bounded_by_the_fold(monkeypatch):
    # Every proper focal of a doubling prefix ties at 2**-n; the n sources'
    # focals are the maximal ones, and each has belief 0.5 exactly.
    sources = evidence_for(parse_scenario(doubling_document()), 1)[:17]
    report = fuse_all(sources)
    terms = 0
    belief = MassFunction.belief

    def counted(self, subset):
        nonlocal terms
        terms += len(self)
        return belief(self, subset)

    monkeypatch.setattr(MassFunction, "belief", counted)
    for n in range(10, 18):
        cells = sum(len(r) * len(s) for r, s in zip(report.results[: n - 1], sources[1:n]))
        terms = 0
        winner = select_winner(report.results[n - 1])
        assert terms <= WORK * cells, n
        assert winner.mask == min(s.focal_elements()[0][0].mask for s in sources[:n])


def test_sweep_of_the_17_source_prefix(tmp_path, capsys):
    # the longest doubling prefix under FOLD_CELL_CAP, with 131,071 focals tied
    document = json.loads(doubling_document())
    del document["sources"][17:]
    path = tmp_path / "prefix.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    assert cli.main(["sweep", "--scenario", str(path), "--format", "csv"]) == 0
    [row] = capsys.readouterr().out.splitlines()[1:]
    lowest = min(m.direction.mask for m in parse_scenario(path.read_text()).motions)
    assert row.split(",")[1] == "+".join(document["frame"][i] for i in range(64) if lowest >> i & 1)
