"""The takraw prediction model: builtin data, winners, sweeps, tie rules."""

import math
import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from dsfusion import (
    ConditionOutOfRangeError,
    DocumentError,
    Frame,
    FusionError,
    MassError,
    MassFunction,
    Motion,
    Prediction,
    Scenario,
    SweepFailure,
    TotalConflictError,
    ValidationError,
    builtin_takraw_scenario,
    combine,
    emit_scenario,
    evidence_for,
    fusion_report,
    parse_scenario,
    predict,
    prediction_from_report,
    select_winner,
    sweep,
)
from dsfusion.fusion import CONFLICT_EPSILON
from helpers import reference_winner

# exact-oracle winning masses for conditions 1..9 of the builtin scenario
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


class TestScenarioValidation:
    def make(self, frame=None, motions=None, bpa=None):
        frame = frame or Frame(["F", "B"])
        if motions is None:
            motions = [Motion("m1", frame.subset(["F"]))]
        if bpa is None:
            bpa = [(0.5,)]
        return Scenario(frame, motions, bpa)

    def test_valid_minimal(self):
        s = self.make()
        assert s.condition_count == 1
        assert len(s.motions) == 1

    def test_no_motions(self):
        frame = Frame(["F", "B"])
        with pytest.raises(ValidationError):
            Scenario(frame, [], [(0.5,)])

    def test_no_conditions(self):
        frame = Frame(["F", "B"])
        with pytest.raises(ValidationError):
            Scenario(frame, [Motion("m1", frame.subset(["F"]))], [])

    def test_empty_direction(self):
        frame = Frame(["F", "B"])
        with pytest.raises(ValidationError):
            self.make(frame, [Motion("m1", frame.empty)])

    def test_full_frame_direction(self):
        frame = Frame(["F", "B"])
        with pytest.raises(ValidationError):
            self.make(frame, [Motion("m1", frame.full)])

    def test_duplicate_motion_names(self):
        frame = Frame(["F", "B"])
        motions = [
            Motion("m1", frame.subset(["F"])),
            Motion("m1", frame.subset(["B"])),
        ]
        with pytest.raises(ValidationError):
            self.make(frame, motions, [(0.5, 0.5)])

    def test_ragged_bpa(self):
        with pytest.raises(ValidationError):
            self.make(bpa=[(0.5, 0.5)])

    def test_weight_row_not_iterable(self):
        with pytest.raises(ValidationError, match="condition 1"):
            self.make(bpa=[0.5])

    def test_bpa_not_iterable(self):
        frame = Frame(["F", "B"])
        with pytest.raises(ValidationError, match="bpa"):
            Scenario(frame, [Motion("m1", frame.subset(["F"]))], None)

    @pytest.mark.parametrize(
        "weight",
        [
            0.0,
            -0.5,
            1.5,
            pytest.param(10**400, id="int-beyond-float-range"),
            pytest.param(-(10**400), id="negative-int-beyond-float-range"),
        ],
    )
    def test_weight_out_of_range(self, weight):
        with pytest.raises(ValidationError):
            self.make(bpa=[(weight,)])

    @pytest.mark.parametrize(
        "labels, name, weight",
        [
            pytest.param(("F", "B"), "m1", "0.5", id="str-weight"),
            pytest.param(("F", "B"), "m1", b"0.5", id="bytes-weight"),
            pytest.param(("F", "B"), "m1", True, id="bool-weight"),
            pytest.param(("F", "B"), "m1", "x", id="text-weight"),
            pytest.param(("F", "B"), "m1", None, id="none-weight"),
            pytest.param(("F", "B"), "m1", 1 + 0j, id="complex-weight"),
            pytest.param(("F", "B"), 7, 0.5, id="int-name"),
            pytest.param(("F", "B"), "m\ud800", 0.5, id="surrogate-name"),
            pytest.param(("F", "\ud800"), "m1", 0.5, id="surrogate-label"),
        ],
    )
    def test_rejects_what_a_document_cannot_hold(self, labels, name, weight):
        frame = Frame(labels)
        with pytest.raises(ValidationError):
            Scenario(frame, [Motion(name, frame.subset(["F"]))], [(weight,)])

    @pytest.mark.parametrize(
        "weight", [1, 0.25, Decimal("0.5"), Fraction(3, 4)], ids=type
    )
    def test_numbers_become_floats_and_round_trip(self, weight):
        s = self.make(bpa=[(weight,)])
        assert s.bpa == ((float(weight),),)
        assert type(s.bpa[0][0]) is float
        assert parse_scenario(emit_scenario(s)) == s

    @pytest.mark.parametrize(
        "direction, weight, condition",
        [
            # a bad direction already fails in condition 1
            pytest.param([], 0.5, 1, id="empty-direction"),
            pytest.param(["F", "B"], 0.5, 1, id="full-direction"),
            pytest.param(["F"], 1.5, 2, id="weight-out-of-range"),
            pytest.param(["F"], "x", 2, id="text-weight"),
            pytest.param(["F"], 10**400, 2, id="int-beyond-float-range"),
        ],
    )
    def test_rejection_names_motion_and_condition(self, direction, weight, condition):
        frame = Frame(["F", "B"])
        motions = [Motion("m1", frame.subset(["F"])), Motion("m2", frame.subset(direction))]
        with pytest.raises(
            ValidationError, match=f"^motion 'm2' in condition {condition}: "
        ):
            Scenario(frame, motions, [(0.5, 0.5), (0.5, weight)])

    def test_structural_equality(self):
        assert self.make() == self.make()
        other = self.make(bpa=[(0.6,)])
        assert self.make() != other
        assert (self.make() == object()) is False


class TestBuiltinTakraw:
    @pytest.fixture
    def takraw(self):
        return builtin_takraw_scenario()

    def test_shape(self, takraw):
        assert takraw.frame.labels == ("F", "L", "R", "B")
        assert len(takraw.motions) == 10
        assert takraw.condition_count == 9

    def test_focal_directions(self, takraw):
        directions = [m.direction.labels for m in takraw.motions]
        assert directions == [
            ("F",), ("F",), ("F",), ("F",),
            ("L", "B"), ("L", "B"),
            ("R", "B"), ("R", "B"),
            ("B",), ("B",),
        ]

    def test_motion_names_are_unique_and_descriptive(self, takraw):
        names = [m.name for m in takraw.motions]
        assert names[0] == "left foot moves to front"
        assert len(set(names)) == 10

    def test_condition_1_weights(self, takraw):
        assert takraw.bpa[0] == (
            0.75, 0.75, 0.55, 0.55, 0.45, 0.45, 0.45, 0.45, 0.65, 0.65,
        )

    def test_weight_matrix_spot_checks(self, takraw):
        assert takraw.bpa[1][9] == 0.75   # motion 10 under condition 2
        assert takraw.bpa[8][3] == 0.75   # motion 4 under condition 9
        assert takraw.bpa[4][6] == 0.75   # motion 7 under condition 5
        assert all(0.0 < w <= 1.0 for row in takraw.bpa for w in row)

    def test_fresh_scenarios_compare_equal(self, takraw):
        assert builtin_takraw_scenario() == takraw

    def test_repr(self, takraw):
        assert repr(takraw) == (
            "Scenario(10 motions, 9 conditions, frame Frame('F', 'L', 'R', 'B'))"
        )


class TestEvidenceFor:
    def test_condition_1(self):
        takraw = builtin_takraw_scenario()
        masses = evidence_for(takraw, 1)
        frame = takraw.frame
        assert len(masses) == 10
        assert masses[0].mass(frame.subset(["F"])) == 0.75
        assert masses[0].mass(frame.full) == 0.25
        assert masses[9].mass(frame.subset(["B"])) == 0.65
        assert masses[9].mass(frame.full) == pytest.approx(0.35)

    @pytest.mark.parametrize("condition", [0, -1, 10, 99])
    def test_condition_out_of_range(self, condition):
        with pytest.raises(ConditionOutOfRangeError):
            evidence_for(builtin_takraw_scenario(), condition)

    @pytest.mark.parametrize("condition", [True, 1.0, "1", None], ids=repr)
    def test_non_integer_condition(self, condition):
        takraw = builtin_takraw_scenario()
        with pytest.raises(ConditionOutOfRangeError, match=re.escape(repr(condition))):
            evidence_for(takraw, condition)
        with pytest.raises(ConditionOutOfRangeError):
            predict(takraw, condition)

    def test_scenario_keeps_no_support(self):
        takraw = builtin_takraw_scenario()
        for condition in range(1, takraw.condition_count + 1):
            evidence_for(takraw, condition)
            predict(takraw, condition)
        reachable = [getattr(takraw, slot) for slot in type(takraw).__slots__]
        while reachable:
            value = reachable.pop()
            assert not isinstance(value, MassFunction)
            if isinstance(value, (tuple, list)):  # a Motion is a tuple
                reachable.extend(value)
        assert evidence_for(takraw, 2) == evidence_for(takraw, 2)

    def test_parse_and_sweep_build_no_support(self, monkeypatch):
        text = emit_scenario(builtin_takraw_scenario())
        calls = []
        simple_support = MassFunction.simple_support

        def counting_simple_support(focal, weight):
            calls.append(1)
            return simple_support(focal, weight)

        monkeypatch.setattr(MassFunction, "simple_support", counting_simple_support)
        sweep(parse_scenario(text))
        assert calls == []


# Weights at the edges of (0, 1]: an int, its float, the smallest subnormal,
# the float just below 1, and an exact half.
EDGE_WEIGHTS = [1, 1.0, 5e-324, 1 - 2**-53, 0.5]


@st.composite
def scenario_parts(draw):
    """(frame, motions, weight rows) for ``Scenario(...)``, all valid."""
    size = draw(st.integers(min_value=2, max_value=8))
    frame = Frame([f"h{i}" for i in range(size)])
    proper = st.integers(min_value=1, max_value=(1 << size) - 2)
    masks = draw(st.lists(proper, min_size=1, max_size=6))
    motions = [Motion(f"m{i}", frame.subset_from_mask(m)) for i, m in enumerate(masks)]
    weight = st.sampled_from(EDGE_WEIGHTS) | st.floats(0.0, 1.0, exclude_min=True)
    row = st.lists(weight, min_size=len(motions), max_size=len(motions)).map(tuple)
    return frame, motions, draw(st.lists(row, min_size=1, max_size=4))


class TestScenarioBuild:
    @given(parts=scenario_parts())
    def test_evidence_is_one_simple_support_per_weight(self, parts):
        frame, motions, rows = parts
        s = Scenario(frame, motions, rows)
        assert s.bpa == tuple(tuple(float(w) for w in row) for row in rows)
        assert all(type(w) is float for row in s.bpa for w in row)
        for c, row in enumerate(rows, start=1):
            supports = [
                MassFunction.simple_support(m.direction, w) for m, w in zip(motions, row)
            ]
            assert evidence_for(s, c) == supports
            for m, w, support in zip(motions, row, supports):
                entries = {m.direction: float(w)}
                if w != 1:
                    entries[frame.full] = 1 - float(w)
                # the validating constructor, which sorts and re-sums
                assert support.mask_items() == MassFunction(frame, entries).mask_items()


# Weights simple_support refuses (zeros, NaN, infinities, beyond 1, ints beyond
# the float range, a bool, text, None) beside ones it takes (the smallest
# subnormal, 1.0, the ints 1 and 0, ...).
CELL_WEIGHTS = [
    0, 0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0, 1 + 2**-52,
    1, 2, 10**399, True, "0.5", None,
]


@st.composite
def cell_parts(draw):
    """(frame, motions, weight rows) for ``Scenario(...)``, each cell valid or not."""
    size = draw(st.integers(min_value=2, max_value=4))
    full = (1 << size) - 1
    frame = Frame([f"h{i}" for i in range(size)])
    focal = st.integers(min_value=1, max_value=full - 1) | st.sampled_from([0, full])
    masks = draw(st.lists(focal, min_size=1, max_size=4))
    motions = [Motion(f"m{i}", frame.subset_from_mask(m)) for i, m in enumerate(masks)]
    weight = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from(CELL_WEIGHTS)
    row = st.lists(weight, min_size=len(motions), max_size=len(motions))
    return frame, motions, draw(st.lists(row, min_size=1, max_size=3))


def _cell_case(weights, *rows):
    frame = Frame(["a", "b", "c"])
    motions = [Motion(f"m{i}", frame.subset_from_mask(1 << i)) for i in range(weights)]
    return frame, motions, [list(row) for row in rows]


class TestScenarioCells:
    @settings(max_examples=300, deadline=None)
    @given(parts=cell_parts())
    # A later row of floats whose minimum or maximum hides the bad cell.
    @example(parts=_cell_case(2, (0.5, 0.5), (0.5, math.nan)))
    @example(parts=_cell_case(2, (0.5, 0.5), (0.5, 0.0)))
    @example(parts=_cell_case(2, (0.5, 0.5), (0.5, -0.0)))
    @example(parts=_cell_case(3, (0.5, 0.5, 0.5), (0.25, math.inf, 0.5)))
    def test_refuses_exactly_what_simple_support_refuses(self, parts):
        frame, motions, rows = parts
        expected = None
        for c, row in enumerate(rows, start=1):
            for motion, w in zip(motions, row):
                try:
                    MassFunction.simple_support(motion.direction, w)
                except MassError as exc:
                    expected = f"motion {motion.name!r} in condition {c}: {exc}"
                    break
            if expected is not None:
                break
        if expected is not None:
            with pytest.raises(ValidationError) as raised:
                Scenario(frame, motions, rows)
            assert str(raised.value) == expected
            return
        s = Scenario(frame, motions, rows)
        assert s.bpa == tuple(tuple(float(w) for w in row) for row in rows)
        assert all(type(w) is float for row in s.bpa for w in row)
        for c, row in enumerate(rows, start=1):
            assert evidence_for(s, c) == [
                MassFunction.simple_support(m.direction, w) for m, w in zip(motions, row)
            ]


class TestSelectWinner:
    def test_unique_top_mass_computes_no_belief(self, flrb, monkeypatch):
        m = MassFunction(
            flrb,
            {flrb.subset(["B"]): 0.5, flrb.subset(["L", "B"]): 0.3, flrb.full: 0.2},
        )

        def no_belief(self, subset):
            raise AssertionError("belief computed for a lone top mass")

        monkeypatch.setattr(MassFunction, "belief", no_belief)
        assert select_winner(m) == flrb.subset(["B"])

    def test_theta_never_wins(self, flrb):
        m = MassFunction(flrb, {flrb.subset(["F"]): 0.1, flrb.full: 0.9})
        assert select_winner(m) == flrb.subset(["F"])

    def test_vacuous_has_no_winner(self, flrb):
        # a fusion outcome, not a document: no DocumentError
        with pytest.raises(FusionError) as raised:
            select_winner(MassFunction.vacuous(flrb))
        assert not isinstance(raised.value, DocumentError)

    def test_mass_tie_broken_by_belief(self, flrb):
        m = MassFunction(
            flrb,
            {flrb.subset(["B"]): 0.4, flrb.subset(["L", "B"]): 0.4, flrb.full: 0.2},
        )
        # Bel({L,B}) = 0.8 beats Bel({B}) = 0.4 at equal mass
        assert select_winner(m) == flrb.subset(["L", "B"])

    def test_full_tie_broken_by_ascending_mask(self, flrb):
        m = MassFunction(
            flrb,
            {flrb.subset(["L"]): 0.4, flrb.subset(["R"]): 0.4, flrb.full: 0.2},
        )
        assert select_winner(m) == flrb.subset(["L"])


    def test_belief_only_breaks_ties_at_the_top_mass(self, flrb):
        m = MassFunction(
            flrb,
            {
                flrb.subset(["B"]): 0.3,
                flrb.subset(["L", "B"]): 0.3,
                flrb.subset(["F", "L", "B"]): 0.2,
                flrb.full: 0.2,
            },
        )
        # {F,L,B} has the highest belief (0.8) but not the highest mass;
        # among the tied {B} (Bel 0.3) and {L,B} (Bel 0.6) the higher belief wins
        assert select_winner(m) == flrb.subset(["L", "B"])

    def test_equal_mass_and_belief_goes_to_lowest_mask(self, flrb):
        m = MassFunction(
            flrb,
            {
                flrb.subset(["L"]): 0.25,
                flrb.subset(["R"]): 0.25,
                flrb.subset(["B"]): 0.25,
                flrb.full: 0.25,
            },
        )
        assert select_winner(m) == flrb.subset(["L"])

    def test_matches_mass_belief_mask_order(self):
        # masses on a coarse grid so ties at the top are common
        frame = Frame([f"h{i}" for i in range(5)])
        rng = random.Random(11)
        full = frame.full.mask
        for _ in range(300):
            masks = rng.sample(range(1, full + 1), rng.randint(2, 12))
            weights = [rng.randint(1, 3) for _ in masks]
            m = MassFunction(frame, {
                frame.subset_from_mask(mask): w / sum(weights)
                for mask, w in zip(masks, weights)
            })
            eligible = [(s, v) for s, v in m.focal_elements() if not s.is_full]
            if not eligible:
                continue
            expected = max(eligible, key=lambda e: (e[1], m.belief(e[0]), -e[0].mask))[0]
            assert select_winner(m) == expected


FLRB = Frame(["F", "L", "R", "B"])


@given(
    weights=st.dictionaries(
        st.integers(min_value=1, max_value=FLRB.full.mask),
        st.integers(min_value=1, max_value=3),
        min_size=1,
        max_size=15,
    )
)
@example(weights={FLRB.full.mask: 3, 1: 2, 2: 2})  # Θ holds the top mass
@example(weights={FLRB.full.mask: 1})  # Θ alone: no winner
@example(weights={1: 1, 3: 1, 8: 1, 11: 1})  # a tie without Θ, broken by belief
def test_select_winner_matches_reference(weights):
    # masses on a grid of thirds or less, so exact ties at the top are common
    total = sum(weights.values())
    m = MassFunction(
        FLRB, {FLRB.subset_from_mask(mask): w / total for mask, w in weights.items()}
    )
    try:
        expected = reference_winner(m)
    except FusionError as exc:
        with pytest.raises(FusionError, match=re.escape(str(exc))):
            select_winner(m)
        return
    assert select_winner(m) == expected


H6 = Frame([f"h{i}" for i in range(6)])


@given(
    masks=st.sets(st.integers(min_value=1, max_value=H6.full.mask), min_size=1, max_size=40),
    lower=st.sets(st.integers(min_value=0, max_value=39), max_size=10),
)
@example(masks={1, 3, 7, 15}, lower=set())  # a chain of ties: the largest wins
@example(masks={3, 5, 6, 1, 2, 4}, lower=set())  # maximal ties of equal belief
@example(masks={3, 12, 1, 63}, lower={0})  # the tie under the top does not count
def test_select_winner_matches_reference_on_nested_ties(masks, lower):
    # weight 2 on every focal but those at the positions in ``lower``, so
    # many focals tie at the top, some inside others
    weights = [1 if i in lower else 2 for i in range(len(masks))]
    total = sum(weights)
    m = MassFunction(
        H6, {H6.subset_from_mask(mask): w / total for mask, w in zip(sorted(masks), weights)}
    )
    try:
        expected = reference_winner(m)
    except FusionError:
        with pytest.raises(FusionError):
            select_winner(m)
        return
    assert select_winner(m) == expected


class TestPredict:
    def test_condition_1_winner_is_back(self):
        takraw = builtin_takraw_scenario()
        p = predict(takraw, 1)
        assert p.winner == takraw.frame.subset(["B"])
        assert p.winner_mass == pytest.approx(0.49992355840316705, abs=1e-9)
        assert p.winner_belief == pytest.approx(p.winner_mass, abs=1e-12)
        assert p.winner_plausibility == pytest.approx(0.5334811124856271, abs=1e-9)
        assert p.condition == 1
        assert len(p.steps_conflict) == 9

    def test_condition_9_winner_is_back_not_front(self):
        # with this weight matrix the exact fold keeps back ahead of front
        # (0.5527 vs 0.3753); front never overtakes in any condition
        takraw = builtin_takraw_scenario()
        p = predict(takraw, 9)
        assert p.winner == takraw.frame.subset(["B"])
        assert p.winner_mass == pytest.approx(0.552669467297, abs=1e-9)

    def test_single_motion_scenario(self):
        frame = Frame(["F", "B"])
        s = Scenario(frame, [Motion("m1", frame.subset(["F"]))], [(0.8,)])
        p = predict(s, 1)
        assert p.winner == frame.subset(["F"])
        assert p.winner_mass == 0.8
        assert p.steps_conflict == ()

    def test_reinforcement(self):
        frame = Frame(["F", "B"])
        motions = [Motion("m1", frame.subset(["F"])), Motion("m2", frame.subset(["F"]))]
        p = predict(Scenario(frame, motions, [(0.75, 0.75)]), 1)
        assert p.winner_mass == pytest.approx(0.9375)
        assert p.winner_mass > 0.75

    def test_pure_function(self):
        takraw = builtin_takraw_scenario()
        assert predict(takraw, 3) == predict(takraw, 3)

    def test_agrees_with_fusion_report(self):
        takraw = builtin_takraw_scenario()
        report = fusion_report(takraw, 2)
        assert prediction_from_report(report, 2) == predict(takraw, 2)
        assert len(report.steps) == 9

    def test_total_conflict_propagates(self):
        frame = Frame(["F", "B"])
        motions = [Motion("m1", frame.subset(["F"])), Motion("m2", frame.subset(["B"]))]
        s = Scenario(frame, motions, [(1.0, 1.0)])
        with pytest.raises(TotalConflictError):
            predict(s, 1)

    def test_winner_order_invariance(self):
        takraw = builtin_takraw_scenario()
        rng = random.Random(53)
        order = list(range(10))
        for condition in (1, 5, 9):
            baseline = predict(takraw, condition)
            for _ in range(3):
                rng.shuffle(order)
                permuted = Scenario(
                    takraw.frame,
                    [takraw.motions[i] for i in order],
                    [tuple(row[i] for i in order) for row in takraw.bpa],
                )
                p = predict(permuted, condition)
                assert p.winner.labels == baseline.winner.labels
                assert p.winner_mass == pytest.approx(
                    baseline.winner_mass, abs=1e-9
                )


class TestSweep:
    def test_all_conditions_in_order(self):
        results = sweep(builtin_takraw_scenario())
        assert [r.condition for r in results] == list(range(1, 10))
        assert all(isinstance(r, Prediction) for r in results)

    def test_winners_and_masses(self):
        takraw = builtin_takraw_scenario()
        back = takraw.frame.subset(["B"])
        for result, expected in zip(sweep(takraw), SWEEP_WINNER_MASSES):
            assert result.winner == back
            assert result.winner_mass == pytest.approx(expected, abs=1e-9)
            assert result.winner_belief <= result.winner_plausibility + 1e-12

    def test_single_condition_scenario(self):
        frame = Frame(["F", "B"])
        s = Scenario(frame, [Motion("m1", frame.subset(["F"]))], [(0.8,)])
        results = sweep(s)
        assert len(results) == 1
        assert results[0].winner == frame.subset(["F"])

    def test_failures_are_collected_not_raised(self):
        frame = Frame(["F", "B"])
        motions = [Motion("m1", frame.subset(["F"])), Motion("m2", frame.subset(["B"]))]
        s = Scenario(frame, motions, [(0.5, 0.5), (1.0, 1.0), (0.9, 0.3)])
        results = sweep(s)
        assert isinstance(results[0], Prediction)
        assert isinstance(results[1], SweepFailure)
        assert isinstance(results[1].error, TotalConflictError)
        assert results[1].condition == 2
        assert isinstance(results[2], Prediction)

    def test_failure_keeps_no_traceback(self):
        # a traceback would pin every frame of the failed fold
        frame = Frame(["F", "B"])
        motions = [Motion("m1", frame.subset(["F"])), Motion("m2", frame.subset(["B"]))]
        s = Scenario(frame, motions, [(1.0, 1.0)])
        error = sweep(s)[0].error
        assert error.__traceback__ is None
        assert (error.step, error.conflict, str(error)) == (
            1, 1.0, "total conflict at step 1 (k = 1.0)"
        )


def test_threshold_double_decides_as_its_decimal():
    # The README states the threshold as the decimal 1 - 10**-9; the code
    # compares the float fold's k with the double 1.0 - CONFLICT_EPSILON.  That
    # double lies 2.8e-17 above the decimal and the next double down lies below
    # it, so for every double k the two tests agree.
    decimal = 1 - Fraction(1, 10**9)
    threshold = 1.0 - CONFLICT_EPSILON
    assert CONFLICT_EPSILON == 1e-9
    assert f"{float(Fraction(threshold) - decimal):.2g}" == "2.8e-17"
    assert Fraction(math.nextafter(threshold, 0.0)) < decimal


class TestRefusalThreshold:
    """combine and predict (fuse_all) and sweep (fusion._fold_rows) refuse a
    step exactly when its k reaches 1 - CONFLICT_EPSILON: {F} at weight 1.0
    meets {L} at weight w in one step, with k == w."""

    @staticmethod
    def scenario(w):
        frame = Frame(["F", "L"])
        motions = [Motion("f", frame.subset(["F"])), Motion("l", frame.subset(["L"]))]
        return Scenario(frame, motions, [(1.0, w)])

    def test_refused_at_the_threshold(self):
        w = 1.0 - CONFLICT_EPSILON
        s = self.scenario(w)
        with pytest.raises(TotalConflictError) as combined:
            combine(*evidence_for(s, 1))
        with pytest.raises(TotalConflictError) as predicted:
            predict(s, 1)
        [failure] = sweep(s)
        assert isinstance(failure, SweepFailure)
        assert (combined.value.step, combined.value.conflict) == (None, w)
        assert (predicted.value.step, predicted.value.conflict) == (1, w)
        assert (failure.error.step, failure.error.conflict) == (1, w)
        assert str(failure.error) == str(predicted.value)

    def test_kept_one_ulp_under_the_threshold(self):
        w = math.nextafter(1.0 - CONFLICT_EPSILON, 0.0)
        s = self.scenario(w)
        front = [(s.frame.subset(["F"]).mask, 1.0)]
        assert combine(*evidence_for(s, 1)).mask_items() == front
        predicted = predict(s, 1)
        [swept] = sweep(s)
        assert predicted.final.mask_items() == swept.final.mask_items() == front
        assert predicted.steps_conflict == swept.steps_conflict == (w,)
        assert swept == predicted
