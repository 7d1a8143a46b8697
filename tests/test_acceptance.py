"""Acceptance gate: six criteria, one printed verdict line each.

Every criterion prints "[acceptance] criterion N (...): PASS|FAIL" even under
pytest's capture, so a plain ``pytest tests/test_acceptance.py`` shows the
scoreboard.  Tolerances are pinned here and must not be loosened; the golden
numbers come from exact rational arithmetic, computed and frozen before the
implementation existed (oracle_fuse_all, an exact fold normalized once,
re-derives them live in criterion 4).
"""

import random
import time
from contextlib import contextmanager

import pytest

from dsfusion import (
    Frame,
    MassFunction,
    TotalConflictError,
    builtin_takraw_scenario,
    combine,
    combine_traced,
    evidence_for,
    fold,
    fuse_all,
    oracle_fuse_all,
    parse_scenario,
    predict,
    select_winner,
    sweep,
)
from dsfusion.cli import main
from dsfusion.render import format_mass

from helpers import random_mass, random_scenario

FLRB_LABELS = ("F", "L", "R", "B")

# frozen oracle goldens: exact-rational condition-1 final masses (tol 1e-6)
CONDITION_1_FINAL = {
    ("F",): 0.4665188875137529,
    ("B",): 0.49992355840316705,
    ("L", "B"): 0.013788744608511525,
    ("R", "B"): 0.013788744608511525,
    FLRB_LABELS: 0.005980064866056969,
}

# frozen oracle goldens: winning mass per condition 1..9
SWEEP_WINNER_MASSES = (
    0.499923558403,
    0.816524223958,
    0.942308511712,
    0.948192987361,
    0.949473020903,
    0.930430707189,
    0.844434654081,
    0.737995343723,
    0.552669467297,
)


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(label):
        verdict = "FAIL"
        try:
            yield
            verdict = "PASS"
        finally:
            with capsys.disabled():
                print(f"\n[acceptance] {label}: {verdict}")

    return _announce


def test_criterion_1_first_combination_goldens(announce, flrb):
    with announce("criterion 1 (first-combination goldens)"):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        trace = combine_traced(m, m)
        exact = (0.5625, 0.1875, 0.1875, 0.0625)
        for cell, value in zip(trace.cells, exact, strict=True):
            assert cell.product == pytest.approx(value, abs=0.005)
        assert [format_mass(c.product, 2) for c in trace.cells] == [
            "0.56", "0.19", "0.19", "0.06",
        ]
        combined = trace.result.mass(flrb.subset(["F"]))
        assert combined == pytest.approx(0.9375, abs=0.005)
        assert format_mass(combined, 2) == "0.94"


def test_criterion_2_chain_prefix_goldens(announce):
    with announce("criterion 2 (chain prefix goldens)"):
        takraw = builtin_takraw_scenario()
        sources = evidence_for(takraw, 1)
        front = takraw.frame.subset(["F"])
        after_three = fold(sources[:3]).mass(front)
        after_four = fold(sources[:4]).mass(front)
        assert abs(round(after_three, 2) - 0.97) <= 0.01
        assert abs(round(after_four, 2) - 0.99) <= 0.01
        assert format_mass(after_three, 2) == "0.97"
        assert format_mass(after_four, 2) == "0.99"


def test_criterion_3_condition_1_prediction(announce):
    with announce("criterion 3 (condition-1 prediction)"):
        takraw = builtin_takraw_scenario()
        p = predict(takraw, 1)
        frame = takraw.frame
        assert p.winner == frame.subset(["B"])
        for labels, expected in CONDITION_1_FINAL.items():
            assert p.final.mass(frame.subset(labels)) == pytest.approx(
                expected, abs=1e-6
            )
        # the documented divergence: exact arithmetic puts back near 0.50,
        # not the 0.9 a two-decimal step-rounded walkthrough arrives at
        assert p.winner_mass < 0.51


def test_criterion_4_sweep_direction_pattern(announce):
    with announce("criterion 4 (sweep direction pattern)"):
        start = time.perf_counter()
        takraw = builtin_takraw_scenario()
        results = sweep(takraw)
        back = takraw.frame.subset(["B"])
        # known issue: under this weight matrix the exact fold yields back
        # for ALL nine conditions; the hand-worked account of condition 9
        # names front, but its own inputs do not produce that winner.  The
        # oracle's verdict is pinned here and re-derived live below.
        for result, expected_mass in zip(results, SWEEP_WINNER_MASSES, strict=True):
            assert result.winner == back
            assert result.winner_mass == pytest.approx(expected_mass, abs=1e-6)
            oracle = oracle_fuse_all(evidence_for(takraw, result.condition))
            assert select_winner(oracle) == back
            assert oracle.mass(back) == pytest.approx(expected_mass, abs=1e-6)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"sweep criterion took {elapsed:.2f}s"


def test_criterion_5_property_suite(announce):
    with announce("criterion 5 (property suite)"):
        start = time.perf_counter()
        rng = random.Random(20260815)

        # normalization: sum = 1 within 1e-9 after every combine and fold
        frames = [Frame([f"h{i}" for i in range(size)]) for size in range(2, 7)]
        checked = 0
        while checked < 10_000:
            frame = frames[rng.randrange(len(frames))]
            m1, m2 = random_mass(rng, frame), random_mass(rng, frame)
            try:
                combined = combine(m1, m2)
            except TotalConflictError:
                continue
            checked += 1
            assert sum(v for _, v in combined.focal_elements()) == pytest.approx(
                1.0, abs=1e-9
            )
            if checked % 100 == 0:
                chain = [random_mass(rng, frame) for _ in range(rng.randint(3, 6))]
                try:
                    final = fold(chain)
                except TotalConflictError:
                    continue
                assert sum(v for _, v in final.focal_elements()) == pytest.approx(
                    1.0, abs=1e-9
                )

        # commutativity 1e-12 / associativity 1e-9 / fold vs oracle 1e-9
        for _ in range(60):
            frame = frames[rng.randrange(len(frames))]
            m1, m2 = random_mass(rng, frame), random_mass(rng, frame)
            try:
                forward = combine(m1, m2)
            except TotalConflictError:
                with pytest.raises(TotalConflictError):
                    combine(m2, m1)
                continue
            assert forward.isclose(combine(m2, m1), tolerance=1e-12)
        chains = 0
        for _ in range(120):
            frame = frames[rng.randrange(len(frames))]
            n_subsets = (1 << len(frame)) - 1
            sources = [
                MassFunction.simple_support(
                    frame.subset_from_mask(rng.randrange(1, n_subsets)),
                    rng.randint(5, 90) / 100,
                )
                for _ in range(rng.randint(3, 10))
            ]
            report = fuse_all(sources)
            assert report.final.isclose(oracle_fuse_all(sources), tolerance=1e-9)
            a, b, c = sources[0], sources[1], sources[2]
            assert combine(combine(a, b), c).isclose(
                combine(a, combine(b, c)), tolerance=1e-9
            )
            chains += 1
        assert chains == 120

        # non-idempotence witness
        flrb = Frame(list(FLRB_LABELS))
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        doubled = combine(m, m)
        assert doubled != m
        assert doubled.mass(flrb.subset(["F"])) == pytest.approx(0.9375, abs=1e-12)

        # duality and Bel <= Pl, exhaustive over the 4-element powerset
        subsets = list(flrb.subsets())
        for _ in range(200):
            m = random_mass(rng, flrb, max_focals=8)
            for subset in subsets:
                bel, pl = m.belief(subset), m.plausibility(subset)
                assert pl == pytest.approx(1.0 - m.belief(~subset), abs=1e-12)
                assert bel <= pl + 1e-12

        # TotalConflict exactly when cores are disjoint
        disjoint_seen = 0
        for _ in range(400):
            frame = frames[rng.randrange(len(frames))]
            m1, m2 = random_mass(rng, frame), random_mass(rng, frame)
            disjoint = (m1.core() & m2.core()).is_empty
            disjoint_seen += disjoint
            if disjoint:
                with pytest.raises(TotalConflictError):
                    combine(m1, m2)
            else:
                combine(m1, m2)
        assert disjoint_seen > 0  # both branches exercised
        with pytest.raises(TotalConflictError):
            combine(
                MassFunction.simple_support(flrb.subset(["F"]), 1.0),
                MassFunction.simple_support(flrb.subset(["B"]), 1.0),
            )

        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"property suite took {elapsed:.2f}s"


def test_criterion_6_cli_round_trip(announce, capsys, tmp_path):
    with announce("criterion 6 (CLI round trip)"):
        start = time.perf_counter()

        path = tmp_path / "takraw.json"
        assert main(["export-builtin", "takraw", "--out", str(path)]) == 0
        capsys.readouterr()

        reparsed = parse_scenario(path.read_text())
        takraw = builtin_takraw_scenario()
        assert reparsed == takraw

        # byte-identical reproduction of criterion 3 through the CLI
        assert main(
            ["fuse", "--scenario", str(path), "--condition", "1", "--format", "json"]
        ) == 0
        from_file = capsys.readouterr().out
        assert main(
            ["fuse", "--builtin", "takraw", "--condition", "1", "--format", "json"]
        ) == 0
        from_builtin = capsys.readouterr().out
        assert from_file == from_builtin
        assert '"B"' in from_file

        p_file, p_builtin = predict(reparsed, 1), predict(takraw, 1)
        assert p_file.winner.labels == p_builtin.winner.labels == ("B",)
        assert p_file.winner_mass == p_builtin.winner_mass

        # emit/parse round-trip identity on randomized scenarios
        from dsfusion import emit_scenario

        rng = random.Random(6021023)
        for _ in range(1000):
            scenario = random_scenario(rng)
            assert parse_scenario(emit_scenario(scenario)) == scenario

        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"round-trip criterion took {elapsed:.2f}s"
