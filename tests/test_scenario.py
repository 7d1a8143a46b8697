"""The takraw prediction model: builtin data, winners, sweeps, tie rules."""

import random
import re
from decimal import Decimal
from fractions import Fraction

import pytest

from dsfusion import (
    ConditionOutOfRangeError,
    Frame,
    MassFunction,
    Motion,
    Prediction,
    Scenario,
    SweepFailure,
    TotalConflictError,
    ValidationError,
    builtin_takraw_scenario,
    emit_scenario,
    evidence_for,
    fusion_report,
    parse_scenario,
    predict,
    prediction_from_report,
    select_winner,
    sweep,
)

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

    def test_built_once_per_scenario(self, monkeypatch):
        takraw = builtin_takraw_scenario()
        calls = []
        simple_support = MassFunction.simple_support

        def counting_simple_support(focal, weight):
            calls.append(1)
            return simple_support(focal, weight)

        monkeypatch.setattr(MassFunction, "simple_support", counting_simple_support)
        assert evidence_for(takraw, 2) == evidence_for(takraw, 2)
        predict(takraw, 1)
        sweep(takraw)
        assert calls == []


class TestSelectWinner:
    def test_theta_never_wins(self, flrb):
        m = MassFunction(flrb, {flrb.subset(["F"]): 0.1, flrb.full: 0.9})
        assert select_winner(m) == flrb.subset(["F"])

    def test_vacuous_has_no_winner(self, flrb):
        with pytest.raises(ValidationError):
            select_winner(MassFunction.vacuous(flrb))

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
