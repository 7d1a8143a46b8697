"""Dempster's rule: pairwise combination, traces, folds, and the oracle."""

import ast
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from dsfusion import (
    CombinationTrace,
    EmptyInputError,
    ExplosionGuardError,
    Frame,
    FrameMismatchError,
    MassFunction,
    Motion,
    NotNormalizedError,
    Scenario,
    TotalConflictError,
    combine,
    combine_traced,
    conflict,
    evidence_for,
    fold,
    fuse_all,
    oracle_fuse_all,
    parse_scenario,
    sweep,
)

from dsfusion import fusion, mass
from dsfusion.fusion import _cross, _normalize
from dsfusion.mass import SUM_TOLERANCE
from helpers import (
    doubling_document,
    random_mass,
    random_simple_masses,
    reference_cross,
    reference_oracle,
)

FLRB = Frame(["F", "L", "R", "B"])

# the ten motion evidences under condition 1: focal labels and weight
CONDITION_1 = (
    (("F",), 0.75),
    (("F",), 0.75),
    (("F",), 0.55),
    (("F",), 0.55),
    (("L", "B"), 0.45),
    (("L", "B"), 0.45),
    (("R", "B"), 0.45),
    (("R", "B"), 0.45),
    (("B",), 0.65),
    (("B",), 0.65),
)

# exact-rational fold of CONDITION_1, normalized once, converted to float
CONDITION_1_FINAL = {
    ("F",): 0.4665188875137529,
    ("B",): 0.49992355840316705,
    ("L", "B"): 0.013788744608511525,
    ("R", "B"): 0.013788744608511525,
    ("F", "L", "R", "B"): 0.005980064866056969,
}

# per-step conflict of the sequential condition-1 fold
CONDITION_1_STEP_K = (
    0.0,
    0.0,
    0.0,
    0.4443046875,
    0.43975101576009784,
    0.4317063760431318,
    0.41780955621234167,
    0.5701338527805806,
    0.46420693921577216,
)


def condition_1_sources(frame=FLRB):
    return [
        MassFunction.simple_support(frame.subset(labels), weight)
        for labels, weight in CONDITION_1
    ]


def table5_left(frame=FLRB):
    """The accumulated mass after motions 1..4 of condition 1."""
    return MassFunction(
        frame, {frame.subset(["F"]): 0.98734375, frame.full: 0.01265625}
    )


def masses_with_ignorance():
    """Strategy: random masses guaranteed a solid Θ focal.

    The floor on m(Θ) keeps chained combinations away from the total-conflict
    threshold, so algebraic properties can be asserted unconditionally.
    """
    return st.dictionaries(
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=0, max_value=800),
        max_size=14,
    ).flatmap(
        lambda weights: st.integers(min_value=200, max_value=1000).map(
            lambda theta: MassFunction(
                FLRB,
                {
                    FLRB.subset_from_mask(mask): w / (sum(weights.values()) + theta)
                    for mask, w in ({**weights, 15: theta}).items()
                    if w > 0
                },
            )
        )
    )


class TestConflict:
    def test_agreeing_supports(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        assert conflict(m, m) == 0.0

    def test_single_conflicting_cell(self, flrb):
        k = conflict(
            table5_left(flrb),
            MassFunction.simple_support(flrb.subset(["L", "B"]), 0.45),
        )
        assert k == pytest.approx(0.4443046875, abs=1e-12)

    def test_disjoint_cores(self, flrb):
        m1 = MassFunction.simple_support(flrb.subset(["F"]), 1.0)
        m2 = MassFunction.simple_support(flrb.subset(["B"]), 1.0)
        assert conflict(m1, m2) == 1.0

    def test_symmetry(self, flrb):
        rng = random.Random(11)
        for _ in range(50):
            m1, m2 = random_mass(rng, flrb), random_mass(rng, flrb)
            assert conflict(m1, m2) == pytest.approx(conflict(m2, m1), abs=1e-12)

    def test_frame_mismatch(self, flrb):
        other = Frame(["F", "L", "R", "B"])
        with pytest.raises(FrameMismatchError):
            conflict(
                MassFunction.vacuous(flrb),
                MassFunction.vacuous(other),
            )


class TestCombine:
    def test_first_combination(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        combined = combine(m, m)
        assert combined.mass(flrb.subset(["F"])) == pytest.approx(0.9375, abs=1e-12)
        assert combined.mass(flrb.full) == pytest.approx(0.0625, abs=1e-12)
        assert len(combined) == 2

    def test_vacuous_is_neutral(self, flrb):
        m = MassFunction(
            flrb,
            {
                flrb.subset(["F"]): 0.6,
                flrb.subset(["L", "B"]): 0.3,
                flrb.full: 0.1,
            },
        )
        assert combine(m, MassFunction.vacuous(flrb)) == m
        assert combine(MassFunction.vacuous(flrb), m) == m

    def test_fifth_combination(self, flrb):
        combined = combine(
            table5_left(flrb),
            MassFunction.simple_support(flrb.subset(["L", "B"]), 0.45),
        )
        assert combined.mass(flrb.subset(["F"])) == pytest.approx(
            0.977224479466884, abs=1e-9
        )
        assert combined.mass(flrb.subset(["L", "B"])) == pytest.approx(
            0.010248984239902, abs=1e-9
        )
        assert combined.mass(flrb.full) == pytest.approx(
            0.012526536293214, abs=1e-9
        )

    def test_total_conflict(self, flrb):
        m1 = MassFunction.simple_support(flrb.subset(["F"]), 1.0)
        m2 = MassFunction.simple_support(flrb.subset(["B"]), 1.0)
        with pytest.raises(TotalConflictError) as exc_info:
            combine(m1, m2)
        assert exc_info.value.conflict == 1.0

    def test_near_total_conflict_refused(self, flrb):
        # overlapping cores, but k is within epsilon of 1: refused all the same
        a = 1e-10
        m1 = MassFunction(flrb, {flrb.subset(["F"]): 1 - a, flrb.subset(["B"]): a})
        m2 = MassFunction(flrb, {flrb.subset(["F"]): a, flrb.subset(["B"]): 1 - a})
        with pytest.raises(TotalConflictError):
            combine(m1, m2)

    def test_high_conflict_still_combines(self, flrb):
        # k = 1 - 2e-9 sits just under the refusal threshold
        a = 1e-9
        m1 = MassFunction(flrb, {flrb.subset(["F"]): 1 - a, flrb.subset(["B"]): a})
        m2 = MassFunction(flrb, {flrb.subset(["F"]): a, flrb.subset(["B"]): 1 - a})
        combined = combine(m1, m2)
        assert combined.mass(flrb.subset(["F"])) == pytest.approx(0.5, abs=1e-6)
        assert combined.mass(flrb.subset(["B"])) == pytest.approx(0.5, abs=1e-6)

    def test_non_idempotent(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        combined = combine(m, m)
        assert combined != m
        assert combined.mass(flrb.subset(["F"])) > m.mass(flrb.subset(["F"]))

    def test_frame_mismatch(self, flrb):
        other = Frame(["F", "L", "R", "B"])
        with pytest.raises(FrameMismatchError):
            combine(MassFunction.vacuous(flrb), MassFunction.vacuous(other))


class TestCombineTraced:
    def test_first_combination_cells(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        trace = combine_traced(m, m)
        assert [cell.product for cell in trace.cells] == [
            0.5625,
            0.1875,
            0.1875,
            0.0625,
        ]
        assert trace.conflict == 0.0
        assert trace.result == combine(m, m)
        assert trace.inputs == (m, m)

    def test_cell_order_is_left_major_ascending(self, flrb):
        m1 = MassFunction(
            flrb, {flrb.subset(["F"]): 0.5, flrb.subset(["B"]): 0.3, flrb.full: 0.2}
        )
        m2 = MassFunction(flrb, {flrb.subset(["L", "B"]): 0.4, flrb.full: 0.6})
        trace = combine_traced(m1, m2)
        pairs = [(cell.left.mask, cell.right.mask) for cell in trace.cells]
        assert pairs == [
            (0b0001, 0b1010), (0b0001, 0b1111),
            (0b1000, 0b1010), (0b1000, 0b1111),
            (0b1111, 0b1010), (0b1111, 0b1111),
        ]

    def test_fifth_combination_has_one_conflict_cell(self, flrb):
        trace = combine_traced(
            table5_left(flrb),
            MassFunction.simple_support(flrb.subset(["L", "B"]), 0.45),
        )
        empty_cells = [c for c in trace.cells if c.intersection.is_empty]
        assert len(trace.cells) == 4
        assert len(empty_cells) == 1
        assert empty_cells[0].product == pytest.approx(0.4443046875, abs=1e-12)
        assert trace.conflict == pytest.approx(0.4443046875, abs=1e-12)

    def test_trace_invariants_on_random_pairs(self, flrb):
        rng = random.Random(23)
        checked = 0
        while checked < 200:
            m1, m2 = random_mass(rng, flrb), random_mass(rng, flrb)
            try:
                trace = combine_traced(m1, m2)
            except TotalConflictError:
                continue
            checked += 1
            assert len(trace.cells) == len(m1) * len(m2)
            total = sum(cell.product for cell in trace.cells)
            assert total == pytest.approx(1.0, abs=1e-9)
            for cell in trace.cells:
                assert cell.intersection == cell.left & cell.right
                assert cell.product >= 0.0
            k = sum(c.product for c in trace.cells if c.intersection.is_empty)
            assert trace.conflict == pytest.approx(k, abs=1e-12)
            for subset, value in trace.result.focal_elements():
                contributions = sum(
                    c.product for c in trace.cells if c.intersection == subset
                )
                assert value * (1 - trace.conflict) == pytest.approx(
                    contributions, abs=1e-9
                )

    def test_cells_refuse_inputs_on_two_frames(self, flrb):
        m_a = MassFunction.vacuous(flrb)
        m_b = MassFunction.vacuous(Frame(["F", "L", "R", "B"]))
        with pytest.raises(FrameMismatchError):
            CombinationTrace((m_a, m_b), 0.0, m_a).cells

    def test_total_conflict_carries_k(self, flrb):
        with pytest.raises(TotalConflictError) as exc_info:
            combine_traced(
                MassFunction.simple_support(flrb.subset(["F"]), 1.0),
                MassFunction.simple_support(flrb.subset(["B"]), 1.0),
            )
        assert exc_info.value.conflict == 1.0


class TestFuseAll:
    def test_condition_1_chain(self, flrb):
        report = fuse_all(condition_1_sources(flrb))
        assert len(report.steps) == 9
        for labels, expected in CONDITION_1_FINAL.items():
            assert report.final.mass(flrb.subset(labels)) == pytest.approx(
                expected, abs=1e-9
            )
        assert report.final == report.steps[-1].result

    def test_condition_1_step_conflicts(self, flrb):
        report = fuse_all(condition_1_sources(flrb))
        assert report.per_step_conflict == pytest.approx(
            CONDITION_1_STEP_K, abs=1e-12
        )

    def test_prefix_goldens(self, flrb):
        # rounded two-decimal checkpoints of the chain: 0.94, 0.97, 0.99
        sources = condition_1_sources(flrb)
        f = flrb.subset(["F"])
        assert fold(sources[:2]).mass(f) == pytest.approx(0.9375, abs=1e-12)
        assert fold(sources[:3]).mass(f) == pytest.approx(0.971875, abs=1e-12)
        assert fold(sources[:4]).mass(f) == pytest.approx(0.98734375, abs=1e-12)

    def test_single_source(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        report = fuse_all([m])
        assert report.steps == ()
        assert report.final == m

    def test_all_vacuous(self, flrb):
        vacuous = MassFunction.vacuous(flrb)
        report = fuse_all([vacuous, vacuous, vacuous])
        assert report.final == vacuous

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            fuse_all([])
        with pytest.raises(EmptyInputError):
            fold([])
        with pytest.raises(EmptyInputError):
            oracle_fuse_all([])

    def test_total_conflict_reports_step(self, flrb):
        sources = [
            MassFunction.vacuous(flrb),
            MassFunction.simple_support(flrb.subset(["F"]), 1.0),
            MassFunction.simple_support(flrb.subset(["B"]), 1.0),
        ]
        with pytest.raises(TotalConflictError) as exc_info:
            fuse_all(sources)
        assert exc_info.value.step == 2

    def test_underflowed_product_is_dropped(self, flrb):
        # 1e-200 * 1e-200 underflows to 0.0 on {F}; that is no focal element
        report = fuse_all(
            [
                MassFunction.simple_support(flrb.subset(["F", "L"]), 1e-200),
                MassFunction.simple_support(flrb.subset(["F", "R"]), 1e-200),
            ]
        )
        assert report.final.mask_items() == [(3, 1e-200), (5, 1e-200), (15, 1.0)]

    def test_fold_matches_fuse_all(self, flrb):
        sources = condition_1_sources(flrb)
        assert fold(sources) == fuse_all(sources).final

    def test_fold_matches_on_random_chains(self, flrb):
        rng = random.Random(37)
        done = 0
        while done < 50:
            sources = [random_mass(rng, flrb) for _ in range(rng.randint(2, 6))]
            try:
                report = fuse_all(sources)
            except TotalConflictError:
                continue
            done += 1
            assert fold(sources) == report.final


class TestFoldCap:
    def test_doubling_fold_is_refused_at_step_18(self):
        sources = evidence_for(parse_scenario(doubling_document()), 1)
        # step 17 crosses exactly the cap, 2**18 pairs, and runs; step 18 would
        # cross twice that
        with pytest.raises(ExplosionGuardError, match="step 18 .* 524288 focal pairs"):
            fold(sources)


def test_focal_masks_ascend_on_every_constructor_path():
    # The kernel writes a row's own mask without a lookup because no earlier
    # row can have reached it, which holds only while focal masks ascend.
    descending = [FLRB.subset_from_mask(mask) for mask in (14, 9, 6, 1)]
    general = MassFunction(FLRB, {s: 0.25 for s in descending})
    wide = Frame([f"h{i}" for i in range(10)])
    chain = random_simple_masses(random.Random(71), wide, 16)
    built = [
        general,
        MassFunction(FLRB, [(s, 0.25) for s in descending]),
        MassFunction.simple_support(FLRB.subset(["L", "B"]), 0.4),
        MassFunction.vacuous(FLRB),
        combine(general, table5_left()),
        *fuse_all(chain).results,
        oracle_fuse_all(chain),
    ]
    assert len(built[-1]) > 50
    for m in built:
        assert list(m._masses) == sorted(m._masses)


class TestOracle:
    def test_matches_pairwise_combine(self, flrb):
        m1 = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        m2 = MassFunction.simple_support(flrb.subset(["L", "B"]), 0.45)
        assert oracle_fuse_all([m1, m2]).isclose(combine(m1, m2), tolerance=1e-12)

    def test_matches_condition_1_fold(self, flrb):
        sources = condition_1_sources(flrb)
        oracle = oracle_fuse_all(sources)
        assert oracle.isclose(fuse_all(sources).final, tolerance=1e-9)
        for labels, expected in CONDITION_1_FINAL.items():
            assert oracle.mass(flrb.subset(labels)) == pytest.approx(
                expected, abs=1e-12
            )

    def test_permutation_invariant(self, flrb):
        sources = condition_1_sources(flrb)
        rng = random.Random(41)
        for _ in range(5):
            shuffled = sources[:]
            rng.shuffle(shuffled)
            assert oracle_fuse_all(shuffled) == oracle_fuse_all(sources)
            assert fold(shuffled).isclose(fold(sources), tolerance=1e-9)

    def test_explosion_guard(self):
        # the oracle folds step by step under fuse_all's cap: same step, same pairs
        sources = evidence_for(parse_scenario(doubling_document()), 1)
        with pytest.raises(
            ExplosionGuardError, match="step 18 .* 524288 focal pairs"
        ) as oracle_refusal:
            oracle_fuse_all(sources)
        with pytest.raises(ExplosionGuardError) as fold_refusal:
            fuse_all(sources)
        assert str(oracle_refusal.value) == str(fold_refusal.value)

    def test_judges_a_doubling_fold(self):
        # 2**17 final focals; the last step crosses 2**17 pairs, half the cap
        # (test_explosion_guard runs the oracle through the step at the cap)
        sources = evidence_for(parse_scenario(doubling_document()), 1)[:17]
        final = fold(sources)
        assert len(final) == 2**17
        assert final.isclose(oracle_fuse_all(sources), tolerance=1e-9)

    def test_judges_wide_folds(self):
        # folds as long as the benchmark's wide_fold problems: 20-30 simple
        # supports on 8-16 labels
        rng = random.Random(59)
        widths = []
        for _ in range(24):
            frame = Frame([f"h{i}" for i in range(rng.randint(8, 16))])
            pool = [rng.randrange(1, (1 << len(frame)) - 1) for _ in range(12)]
            sources = [
                MassFunction.simple_support(
                    frame.subset_from_mask(rng.choice(pool)), rng.randint(1, 999) / 1000
                )
                for _ in range(rng.randint(20, 30))
            ]
            final = fold(sources)
            assert final.isclose(oracle_fuse_all(sources), tolerance=1e-9)
            widths.append(len(final))
        assert max(widths) >= 100

    def test_underflowed_ratio_is_dropped(self, flrb):
        # m({F}) of m (+) m is 5e-324 squared over ~1, below the smallest subnormal
        m = MassFunction(flrb, {flrb.subset(["F"]): 5e-324, flrb.subset(["B"]): 1.0})
        assert oracle_fuse_all([m, m]).mask_items() == [(8, 1.0)]
        assert oracle_fuse_all([m, m]) == fold([m, m])

    def test_total_conflict(self, flrb):
        with pytest.raises(TotalConflictError):
            oracle_fuse_all(
                [
                    MassFunction.simple_support(flrb.subset(["F"]), 1.0),
                    MassFunction.simple_support(flrb.subset(["B"]), 1.0),
                ]
            )


@st.composite
def simple_support_chains(draw):
    size = draw(st.integers(min_value=2, max_value=5))
    frame = Frame([f"h{i}" for i in range(size)])
    proper = st.integers(min_value=1, max_value=(1 << size) - 2)
    weight = st.integers(min_value=1, max_value=1000).map(lambda w: w / 1000)
    pairs = draw(st.lists(st.tuples(proper, weight), min_size=1, max_size=8))
    return [
        MassFunction.simple_support(frame.subset_from_mask(mask), w)
        for mask, w in pairs
    ]


@given(sources=simple_support_chains())
def test_report_steps_rebuild_combine_traced(sources):
    try:
        report = fuse_all(sources)
    except TotalConflictError as exc:
        with pytest.raises(TotalConflictError) as direct:
            combine_traced(fold(sources[: exc.step]), sources[exc.step])
        assert direct.value.conflict == exc.conflict
        return
    assert len(report.steps) == len(sources) - 1
    for i, step in enumerate(report.steps):
        prefix = fold(sources[: i + 1])
        assert step.inputs == (prefix, sources[i + 1])
        expected = combine_traced(prefix, sources[i + 1])
        assert step.cells == expected.cells
        assert step.conflict == expected.conflict
        assert step.result == expected.result


@given(m1=masses_with_ignorance(), m2=masses_with_ignorance())
def test_commutativity(m1, m2):
    assert combine(m1, m2).isclose(combine(m2, m1), tolerance=1e-12)


@given(a=masses_with_ignorance(), b=masses_with_ignorance(), c=masses_with_ignorance())
def test_associativity_and_oracle_agreement(a, b, c):
    left = combine(combine(a, b), c)
    right = combine(a, combine(b, c))
    assert left.isclose(right, tolerance=1e-9)
    oracle = oracle_fuse_all([a, b, c])
    assert left.isclose(oracle, tolerance=1e-9)
    assert right.isclose(oracle, tolerance=1e-9)


def oracle_operands():
    """Strategy: small mixed sources for the n-way enumeration.

    General masses of up to four focals with and without Θ, simple supports
    with weight k/1000 and weight 1, and the vacuous mass.
    """
    general = st.dictionaries(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=1000),
        min_size=1,
        max_size=4,
    ).map(
        lambda weights: MassFunction(
            FLRB,
            {
                FLRB.subset_from_mask(mask): w / sum(weights.values())
                for mask, w in weights.items()
            },
        )
    )
    support = st.builds(
        lambda mask, w: MassFunction.simple_support(
            FLRB.subset_from_mask(mask), w / 1000
        ),
        st.integers(min_value=1, max_value=14),
        st.integers(min_value=1, max_value=1000),
    )
    return st.one_of(general, support, st.just(MassFunction.vacuous(FLRB)))


@given(sources=st.lists(oracle_operands(), min_size=1, max_size=5))
# weights that print with an exponent; no drawn mass is below 1/4000
@example(
    sources=[
        MassFunction.simple_support(FLRB.subset_from_mask(mask), weight)
        for mask, weight in [(1, 5e-324), (3, 1e-05), (6, 3.3e-10), (5, 0.1)]
    ]
)
def test_oracle_equals_reference_enumeration(sources):
    try:
        expected = reference_oracle(sources)
    except TotalConflictError:
        with pytest.raises(TotalConflictError):
            oracle_fuse_all(sources)
        return
    assert oracle_fuse_all(sources) == expected


def mass_sum(m):
    return sum(mass for _, mass in m.mask_items())


def rescaled(m, delta):
    """``m`` with every mass times 1 + delta: still valid for |delta| <= 9e-10."""
    return MassFunction(m.frame, [(s, mass * (1 + delta)) for s, mass in m.focal_elements()])


DELTAS = st.floats(min_value=-9e-10, max_value=9e-10)
FULL_F = MassFunction.simple_support(FLRB.subset(["F"]), 1.0)
FULL_B = MassFunction.simple_support(FLRB.subset(["B"]), 1.0)


class TestNormalization:
    def test_zero_conflict_input_off_one_is_divided(self, flrb):
        # valid, but its masses sum to 1 + 6e-10, so m (+) m keeps 1 + 1.2e-9
        # with k = 0: the kept weight is divided out, not trusted to be 1
        m = MassFunction(flrb, {flrb.subset(["F"]): 0.5, flrb.full: 0.5 + 6e-10})
        oracle = oracle_fuse_all([m, m])
        for result in (combine(m, m), fuse_all([m, m]).final, fold([m, m])):
            assert abs(mass_sum(result) - 1.0) <= SUM_TOLERANCE
            assert result.isclose(oracle, tolerance=1e-9)

    def test_constructor_sums_in_mask_order(self):
        # Each sum depends on its order: given as (C, A, B), the first set sums
        # to 1.000000001, outside SUM_TOLERANCE, and the second within it; in
        # mask order (A, B, C) it is the other way round.  The constructor
        # decides in mask order, the order combining with the vacuous mass
        # sums in, so everything it accepts stays bit-exact there.
        frame = Frame(["A", "B", "C"])
        a, b, c = (frame.subset([label]) for label in "ABC")
        m = MassFunction(
            frame, [(c, 0.02884665839759165), (a, 0.4876697976750375), (b, 0.4834835449273708)]
        )
        assert combine(m, MassFunction.vacuous(frame)) == m
        assert combine(MassFunction.vacuous(frame), m) == m
        with pytest.raises(NotNormalizedError):
            MassFunction(
                frame,
                [(c, 0.4443348627873872), (a, 0.05124065774904858), (b, 0.5044244804635641)],
            )

    def test_small_conflict_is_divided_out(self):
        # k = 1e-12 leaves a kept weight within SUM_TOLERANCE of 1, but only a
        # k of exactly 0 skips the division: undivided, {F} would keep
        # 9.99999e-07 and Θ 0.9999980000009999.  combine and sweep's replay
        # both give the oracle's masses.
        frame = Frame(["F", "L", "R"])
        motions = [Motion("f", frame.subset(["F"])), Motion("l", frame.subset(["L"]))]
        scenario = Scenario(frame, motions, [(1e-6, 1e-6)])
        front, left = evidence_for(scenario, 1)
        products, k = _cross(front, left)
        assert k == 1e-12 and abs(sum(products.values()) - 1.0) <= SUM_TOLERANCE
        oracle = oracle_fuse_all([front, left])
        assert oracle.mask_items() == [
            (1, 9.99999000001e-07), (2, 9.99999000001e-07), (7, 0.999998000002),
        ]
        [swept] = sweep(scenario)
        assert combine(front, left) == swept.final == oracle
        assert swept.steps_conflict == (k,)

    @given(m1=oracle_operands(), d1=DELTAS, m2=oracle_operands(), d2=DELTAS)
    # inputs just under 1 put k = 1 - 1.8e-9 under the threshold with no
    # product left: a total conflict, not an empty or unnormalized result
    @example(m1=FULL_F, d1=-9e-10, m2=FULL_B, d2=-9e-10)
    # inputs just over 1 keep 1 + 1.8e-9 with k = 0
    @example(m1=FULL_F, d1=9e-10, m2=FULL_F, d2=9e-10)
    def test_every_valid_input_combines(self, m1, d1, m2, d2):
        m1, m2 = rescaled(m1, d1), rescaled(m2, d2)
        assert combine(m1, MassFunction.vacuous(FLRB)) == m1
        assert combine(MassFunction.vacuous(FLRB), m1) == m1
        try:
            result = combine(m1, m2)  # never a MassError
        except TotalConflictError:
            return
        assert abs(mass_sum(result) - 1.0) <= SUM_TOLERANCE
        assert all(mass > 0.0 for _, mass in result.mask_items())


def kernel_operands():
    """Strategy: both operand shapes the fold kernel tells apart.

    Simple supports with weight < 1 (one proper focal, then Θ), which the
    kernel crosses without an inner loop, and everything that goes through
    its plain double loop: general masses with and without Θ, simple
    supports with weight 1 (no Θ), and the vacuous mass.  Support weights
    reach down into the subnormals, so products underflow.
    """
    general = st.dictionaries(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=1, max_value=1000),
        min_size=1,
        max_size=15,
    ).map(
        lambda weights: MassFunction(
            FLRB,
            {
                FLRB.subset_from_mask(mask): w / sum(weights.values())
                for mask, w in weights.items()
            },
        )
    )
    weight = st.floats(min_value=0.0, max_value=1.0, exclude_min=True) | st.just(1.0)
    support = st.builds(
        lambda mask, w: MassFunction.simple_support(FLRB.subset_from_mask(mask), w),
        st.integers(min_value=1, max_value=14),
        weight,
    )
    return st.one_of(general, support, st.just(MassFunction.vacuous(FLRB)))


def reference_fuse_all(sources):
    """fuse_all's results and conflicts, folded with the plain double loop."""
    frame = sources[0].frame
    results = [sources[0]]
    ks = []
    for step_no, source in enumerate(sources[1:], start=1):
        products, k = reference_cross(results[-1], source)
        results.append(_normalize(frame, products, k, step=step_no))
        ks.append(k)
    return tuple(results), tuple(ks)


# a right operand with Θ and two proper focals takes the plain double loop
THETA_AND_TWO_FOCALS = MassFunction(
    FLRB, {FLRB.subset(["F"]): 0.5, FLRB.subset(["L", "B"]): 0.3, FLRB.full: 0.2}
)


@given(m1=kernel_operands(), m2=kernel_operands())
@example(
    m1=MassFunction(
        FLRB,
        {
            FLRB.subset(["F", "L"]): 0.25,
            FLRB.subset(["B"]): 0.25,
            FLRB.subset(["R", "B"]): 0.375,
            FLRB.full: 0.125,
        },
    ),
    m2=THETA_AND_TWO_FOCALS,
)
@example(
    m1=MassFunction.simple_support(FLRB.subset(["F", "R"]), 0.6),
    m2=THETA_AND_TWO_FOCALS,
)
def test_cross_matches_reference_bit_for_bit(m1, m2):
    products, k = _cross(m1, m2)
    expected, expected_k = reference_cross(m1, m2)
    assert products == expected
    assert k == expected_k


@given(
    first=kernel_operands(),
    rest=st.lists(kernel_operands(), min_size=1, max_size=6),
)
def test_fuse_all_matches_reference_fold_bit_for_bit(first, rest):
    sources = [first, *rest]
    try:
        expected = reference_fuse_all(sources)
    except TotalConflictError as exc:
        with pytest.raises(TotalConflictError) as direct:
            fuse_all(sources)
        assert (direct.value.step, direct.value.conflict) == (exc.step, exc.conflict)
        return
    report = fuse_all(sources)
    assert [m.mask_items() for m in report.results] == [
        m.mask_items() for m in expected[0]
    ]
    assert report.per_step_conflict == expected[1]


def wide_support(frame, edge_weights):
    """Strategy: a simple support on ``frame`` whose focal is the frame less a
    drawn set of labels, so a fold of several holds long chains of nested
    masks.  With ``edge_weights``, weights also include 1.0 (no Θ, so the
    kernel's double loop runs) and 5e-324 (every product underflows)."""
    size = len(frame)
    full = (1 << size) - 1
    left_out = st.sets(st.integers(min_value=0, max_value=size - 1), min_size=1)
    focal = left_out.filter(lambda out: len(out) < size).map(
        lambda out: frame.subset_from_mask(full & ~sum(1 << i for i in out))
    )
    weight = st.integers(min_value=1, max_value=999).map(lambda w: w / 1000)
    if edge_weights:
        weight = weight | st.sampled_from([1.0, 5e-324])
    return st.builds(MassFunction.simple_support, focal, weight)


@st.composite
def wide_chains(draw, max_extra):
    """Strategy: 6-20 simple supports on one frame of 8-12 labels, then
    1..max_extra supports that may have the edge weights."""
    frame = Frame([f"h{i}" for i in range(draw(st.integers(8, 12)))])
    chain = draw(st.lists(wide_support(frame, False), min_size=6, max_size=20))
    extra = draw(st.lists(wide_support(frame, True), min_size=1, max_size=max_extra))
    return chain, extra


@settings(max_examples=60, deadline=None)
@given(operands=wide_chains(max_extra=1))
def test_cross_matches_reference_on_wide_folds(operands):
    chain, (m2,) = operands
    m1 = fuse_all(chain).final
    products, k = _cross(m1, m2)
    expected, expected_k = reference_cross(m1, m2)
    assert products == expected
    assert k == expected_k


@settings(max_examples=30, deadline=None)
@given(operands=wide_chains(max_extra=4))
def test_fuse_all_matches_reference_on_wide_folds(operands):
    sources = [*operands[0], *operands[1]]
    try:
        expected = reference_fuse_all(sources)
    except TotalConflictError as exc:
        with pytest.raises(TotalConflictError) as direct:
            fuse_all(sources)
        assert (direct.value.step, direct.value.conflict) == (exc.step, exc.conflict)
        return
    report = fuse_all(sources)
    assert [m.mask_items() for m in report.results] == [
        m.mask_items() for m in expected[0]
    ]
    assert report.per_step_conflict == expected[1]


@given(
    items=st.dictionaries(
        st.integers(min_value=1, max_value=15),
        st.integers(min_value=0, max_value=1000),
        min_size=1,
        max_size=15,
    ).map(lambda w: [(mask, n / (sum(w.values()) or 1)) for mask, n in w.items()]),
    k=st.just(0.0) | st.floats(min_value=0.0, max_value=1.0),
    order=st.randoms(use_true_random=False),
)
@example(items=[(12, 0.25), (3, 0.5), (15, 0.25)], k=0.0, order=random.Random(0))
def test_normalize_ignores_insertion_order(items, k, order):
    # Ascending products take the path that keeps the dict, the others the
    # path that rebuilds it; at k = 0 a kept weight of 1 is not divided.
    shuffled = list(items)
    order.shuffle(shuffled)
    outcomes = []
    for pairs in (sorted(items), sorted(items, reverse=True), shuffled):
        try:
            outcomes.append(_normalize(FLRB, dict(pairs), k, step=3).mask_items())
        except TotalConflictError as exc:
            outcomes.append((exc.step, exc.conflict, str(exc)))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    if isinstance(outcomes[0], list):
        assert [mask for mask, _ in outcomes[0]] == sorted(mask for mask, p in items if p)


def test_one_function_owns_the_step_rule():
    # The fold step's rule (refuse, sum, divide) reads both constants.  While
    # each is read in one function body only, no second copy of the rule can
    # drift from the first.  A read outside any function has owner None.
    readers = {"CONFLICT_EPSILON": set(), "SUM_TOLERANCE": set()}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name if owner is None else f"{owner}.{child.name}")
            elif isinstance(child, ast.Name) and child.id in readers:
                if isinstance(child.ctx, ast.Load):
                    readers[child.id].add(owner)
            else:
                visit(child, owner)

    visit(ast.parse(Path(fusion.__file__).read_text(encoding="utf-8")), None)
    assert {name: len(owners) for name, owners in readers.items()} == {
        "CONFLICT_EPSILON": 1, "SUM_TOLERANCE": 1,
    }, readers
    assert None not in readers["CONFLICT_EPSILON"] | readers["SUM_TOLERANCE"]


def test_one_function_drops_zero_masses():
    # A zero is no focal element.  MassFunction._from_mask_dict drops it, and
    # it is the one unchecked constructor: no other code calls object.__new__,
    # and no comprehension in fusion.py filters what it hands over.
    builders, filters = set(), set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "object.__new__":
                builders.add(owner)
            elif isinstance(child, ast.comprehension) and child.ifs and owner.startswith("fusion"):
                filters.add(owner)
            visit(child, owner)

    for path in sorted(Path(fusion.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert builders == {"mass.MassFunction._from_mask_dict"}, builders
    assert filters == set(), filters


def test_one_function_sums_every_float_total():
    # CPython's sum compensates float totals from 3.12 on, so every float total
    # goes through mass._left_sum, which adds left to right on every version.
    # The builtin sums only integers: the oracle's exact products and the
    # CLI's count of given flags.  A module-level assignment's owner is its
    # target.
    callers, namers = set(), set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Assign) and "." not in owner:
                visit(child, f"{owner}.{ast.unparse(child.targets[0])}")
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) == "sum":
                callers.add(owner)
            elif isinstance(child, ast.Name) and child.id == "sum":
                namers.add(owner)
            visit(child, owner)

    for path in sorted(Path(fusion.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers == {"fusion.oracle_fuse_all", "cli._read_argv"}, callers
    assert namers - callers == {"mass._left_sum"}, namers
    if sys.version_info < (3, 12):
        assert mass._left_sum is sum
    # left to right, 1e16 + 1.0 rounds back to 1e16; a compensated sum gives 1.0
    assert mass._left_sum([1e16, 1.0, -1e16]) == 0.0
    assert repr(mass._left_sum([])) == "0"


def test_one_function_builds_supports_from_a_scenario():
    # evidence_for is the one place that turns a scenario's weights into simple
    # supports; _fold_rows folds the weights alone and folds no support itself.
    # A call outside any function has the module as its owner.
    callers = {"simple_support": set(), "fuse_all": set()}

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in callers:
                    callers[name].add(owner)
            visit(child, owner)

    for path in sorted(Path(fusion.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert callers["simple_support"] == {"scenario.evidence_for"}, callers
    assert "fusion._fold_rows" not in callers["fuse_all"], callers
