"""Dempster's rule: pairwise combination, traces, folds, and the oracle."""

import random

import pytest
from hypothesis import given, strategies as st

from dsfusion import (
    CombinationTrace,
    EmptyInputError,
    ExplosionGuardError,
    Frame,
    FrameMismatchError,
    MassFunction,
    TotalConflictError,
    combine,
    combine_traced,
    conflict,
    evidence_for,
    fold,
    fuse_all,
    oracle_fuse_all,
    parse_scenario,
)

from dsfusion.fusion import _cross, _normalize
from helpers import (
    doubling_document,
    random_mass,
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
        with pytest.raises(ExplosionGuardError, match="step 18 .* 524288 focal pairs"):
            oracle_fuse_all(sources)

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
def test_oracle_equals_reference_enumeration(sources):
    try:
        expected = reference_oracle(sources)
    except TotalConflictError:
        with pytest.raises(TotalConflictError):
            oracle_fuse_all(sources)
        return
    assert oracle_fuse_all(sources) == expected


def kernel_operands():
    """Strategy: every operand shape the fold kernel distinguishes.

    General masses with and without Θ, simple supports with weight < 1 (Θ
    plus one proper focal) and weight 1 (no Θ), and the vacuous mass.
    Support weights reach down into the subnormals, so products underflow.
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
    results = [sources[0]]
    ks = []
    for step_no, source in enumerate(sources[1:], start=1):
        products, k = reference_cross(results[-1], source)
        results.append(_normalize(FLRB, products, k, step=step_no))
        ks.append(k)
    return tuple(results), tuple(ks)


@given(m1=kernel_operands(), m2=kernel_operands())
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
