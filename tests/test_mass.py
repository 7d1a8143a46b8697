"""Mass functions: construction rules, belief, plausibility, core."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dsfusion import (
    Frame,
    FrameMismatchError,
    MassError,
    MassFunction,
    NotNormalizedError,
    WeightOutOfRangeError,
)

from helpers import random_mass

FLRB = Frame(["F", "L", "R", "B"])


def flrb_masses():
    """Hypothesis strategy: normalized masses over non-empty subsets of FLRB."""
    return st.dictionaries(
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


class TestConstruction:
    def test_motion_one(self, flrb):
        m = MassFunction(flrb, {flrb.subset(["F"]): 0.75, flrb.full: 0.25})
        assert m.mass(flrb.subset(["F"])) == 0.75
        assert m.mass(flrb.full) == 0.25

    def test_not_normalized(self, flrb):
        with pytest.raises(NotNormalizedError):
            MassFunction(flrb, {flrb.subset(["F"]): 0.5, flrb.full: 0.4})

    def test_empty_set_mass(self, flrb):
        with pytest.raises(MassError, match="empty set cannot carry"):
            MassFunction(flrb, {flrb.empty: 0.1, flrb.full: 0.9})

    def test_zero_mass_on_empty_set_is_dropped(self, flrb):
        m = MassFunction(flrb, {flrb.empty: 0.0, flrb.full: 1.0})
        assert len(m) == 1

    def test_negative_mass(self, flrb):
        with pytest.raises(MassError, match="is negative"):
            MassFunction(flrb, {flrb.subset(["F"]): -0.1, flrb.full: 1.1})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_mass(self, flrb, value):
        # NaN used to be dropped silently: both ``< 0`` and ``> 0`` are false
        with pytest.raises(MassError, match="not finite"):
            MassFunction(flrb, {flrb.subset(["F"]): 1.0, flrb.subset(["L"]): value})

    @pytest.mark.parametrize(
        "value", ["0.5", None, True, 10**400],
        ids=["str", "None", "True", "int-beyond-float-range"],
    )
    def test_non_number_mass(self, flrb, value):
        # checked like a simple-support weight: no text, bools or huge ints
        with pytest.raises(MassError):
            MassFunction(flrb, {flrb.subset(["F"]): value})

    def test_decimal_mass_converted(self, flrb):
        m = MassFunction(flrb, {flrb.subset(["F"]): Decimal("0.5"), flrb.full: 0.5})
        assert m.focal_elements() == [(flrb.subset(["F"]), 0.5), (flrb.full, 0.5)]
        assert all(type(value) is float for _, value in m.focal_elements())

    def test_duplicate_subsets_are_summed(self, flrb):
        f = flrb.subset(["F"])
        m = MassFunction(flrb, [(f, 0.3), (f, 0.45), (flrb.full, 0.25)])
        assert m.mass(f) == pytest.approx(0.75)
        assert len(m) == 2

    def test_zero_entries_removed(self, flrb):
        m = MassFunction(flrb, {flrb.subset(["F"]): 0.0, flrb.full: 1.0})
        assert m.focal_elements() == [(flrb.full, 1.0)]

    def test_unchecked_constructor_drops_zero_entries(self, flrb):
        # the one place that drops a zero from what the fold and the oracle build
        m = MassFunction._from_mask_dict(flrb, {1: 0.5, 3: 0.0, 15: 0.5})
        assert m.mask_items() == [(1, 0.5), (15, 0.5)]
        kept = {1: 0.5, 15: 0.5}
        assert MassFunction._from_mask_dict(flrb, kept)._masses is kept

    def test_wrong_frame_subset(self, flrb):
        other = Frame(["F", "L", "R", "B"])
        with pytest.raises(FrameMismatchError):
            MassFunction(flrb, {other.full: 1.0})

    def test_tolerance_boundary(self, flrb):
        MassFunction(flrb, {flrb.full: 1.0 + 0.9e-9})
        with pytest.raises(NotNormalizedError):
            MassFunction(flrb, {flrb.full: 1.0 + 2e-9})


class TestVacuous:
    def test_single_theta_entry(self, flrb):
        m = MassFunction.vacuous(flrb)
        assert m.focal_elements() == [(flrb.full, 1.0)]

    def test_belief_zero_on_proper_subsets(self, flrb):
        m = MassFunction.vacuous(flrb)
        for subset in flrb.subsets():
            if not subset.is_full:
                assert m.belief(subset) == 0.0

    def test_plausibility_one_on_non_empty(self, flrb):
        m = MassFunction.vacuous(flrb)
        for subset in flrb.subsets():
            if not subset.is_empty:
                assert m.plausibility(subset) == 1.0


class TestSimpleSupport:
    def test_motion_one_shape(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        assert m.mass(flrb.subset(["F"])) == 0.75
        assert m.mass(flrb.full) == 0.25

    def test_composite_focal(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["L", "B"]), 0.45)
        assert m.mass(flrb.subset(["L", "B"])) == 0.45
        assert m.mass(flrb.full) == 0.55

    def test_categorical(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["B"]), 1.0)
        assert m.focal_elements() == [(flrb.subset(["B"]), 1.0)]

    def test_empty_focal(self, flrb):
        with pytest.raises(MassError, match="non-empty focal set"):
            MassFunction.simple_support(flrb.empty, 0.5)

    def test_full_frame_focal(self, flrb):
        with pytest.raises(MassError, match="proper subset"):
            MassFunction.simple_support(flrb.full, 0.5)

    @pytest.mark.parametrize("weight", [0.0, -0.1, 1.0001, 2.0])
    def test_weight_out_of_range(self, flrb, weight):
        with pytest.raises(WeightOutOfRangeError):
            MassFunction.simple_support(flrb.subset(["F"]), weight)

    @pytest.mark.parametrize(
        "weight",
        [
            "0.5", b"0.5", bytearray(b"0.5"), memoryview(b"0.5"), True, None, "x",
            1 + 0j, Decimal("sNaN"), Decimal("NaN"),
        ],
        ids=lambda w: type(w).__name__ if isinstance(w, memoryview) else repr(w),
    )
    def test_non_number_weight(self, flrb, weight):
        with pytest.raises(WeightOutOfRangeError):
            MassFunction.simple_support(flrb.subset(["F"]), weight)

    @pytest.mark.parametrize("weight", [Decimal("0.75"), Fraction(3, 4)], ids=repr)
    def test_number_weight_converted(self, flrb, weight):
        m = MassFunction.simple_support(flrb.subset(["F"]), weight)
        assert m.focal_elements() == [(flrb.subset(["F"]), 0.75), (flrb.full, 0.25)]
        assert all(type(value) is float for _, value in m.focal_elements())


class TestBeliefPlausibility:
    @pytest.fixture
    def table3_mass(self, flrb):
        # the first combination's result: {F} 0.9375, Θ 0.0625
        return MassFunction(flrb, {flrb.subset(["F"]): 0.9375, flrb.full: 0.0625})

    def test_belief_of_focal(self, flrb, table3_mass):
        assert table3_mass.belief(flrb.subset(["F"])) == pytest.approx(0.9375)

    def test_belief_excludes_straddling_focals(self, flrb, table3_mass):
        assert table3_mass.belief(flrb.subset(["L", "R", "B"])) == 0.0

    def test_belief_of_theta_is_one(self, flrb, table3_mass):
        assert table3_mass.belief(flrb.full) == pytest.approx(1.0)

    def test_belief_of_empty_is_zero(self, flrb, table3_mass):
        assert table3_mass.belief(flrb.empty) == 0.0

    def test_plausibility_via_theta_overlap(self, flrb, table3_mass):
        assert table3_mass.plausibility(flrb.subset(["L"])) == pytest.approx(0.0625)

    def test_plausibility_of_supported_set(self, flrb, table3_mass):
        assert table3_mass.plausibility(flrb.subset(["F"])) == pytest.approx(1.0)

    def test_plausibility_of_empty(self, flrb, table3_mass):
        assert table3_mass.plausibility(flrb.empty) == 0.0

    def test_mixed_mass_goldens(self, flrb):
        m = MassFunction(
            flrb,
            {
                flrb.subset(["F"]): 0.6,
                flrb.subset(["L", "B"]): 0.3,
                flrb.full: 0.1,
            },
        )
        assert m.belief(flrb.subset(["F", "L", "B"])) == pytest.approx(0.9)
        assert m.belief(flrb.subset(["L"])) == 0.0
        assert m.plausibility(flrb.subset(["L"])) == pytest.approx(0.4)
        assert m.plausibility(flrb.subset(["R"])) == pytest.approx(0.1)

    def test_frame_mismatch(self, flrb, table3_mass):
        other = Frame(["F", "L", "R", "B"])
        with pytest.raises(FrameMismatchError):
            table3_mass.belief(other.subset(["F"]))
        with pytest.raises(FrameMismatchError):
            table3_mass.plausibility(other.subset(["F"]))


class TestCore:
    def test_theta_focal_gives_full_core(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        assert m.core() == flrb.full

    def test_categorical_core(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 1.0)
        assert m.core() == flrb.subset(["F"])

    def test_union_of_composites(self, flrb):
        m = MassFunction(
            flrb, {flrb.subset(["L", "B"]): 0.4, flrb.subset(["R", "B"]): 0.6}
        )
        assert m.core() == flrb.subset(["L", "R", "B"])


class TestFocalElements:
    def test_ascending_mask_order(self, flrb):
        m = MassFunction(
            flrb,
            {
                flrb.full: 0.1,
                flrb.subset(["B"]): 0.2,
                flrb.subset(["F"]): 0.5,
                flrb.subset(["L", "B"]): 0.2,
            },
        )
        masks = [s.mask for s, _ in m.focal_elements()]
        assert masks == sorted(masks) == [0b0001, 0b1000, 0b1010, 0b1111]

    def test_masses_sum_to_one(self, flrb):
        rng = random.Random(7)
        for _ in range(100):
            m = random_mass(rng, flrb)
            assert sum(v for _, v in m.focal_elements()) == pytest.approx(1.0, abs=1e-9)

    def test_getitem_alias(self, flrb):
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        assert m[flrb.subset(["F"])] == 0.75
        assert m[flrb.subset(["B"])] == 0.0


class TestEqualityAndIsclose:
    def test_equality(self, flrb):
        a = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        b = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        assert a == b
        assert hash(a) == hash(b)
        assert (a == object()) is False

    def test_inequality_across_frames(self):
        f1, f2 = Frame(["a", "b"]), Frame(["a", "b"])
        m1 = MassFunction.simple_support(f1.subset(["a"]), 0.5)
        m2 = MassFunction.simple_support(f2.subset(["a"]), 0.5)
        assert m1 != m2

    def test_isclose(self, flrb):
        a = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        b = MassFunction(flrb, {flrb.subset(["F"]): 0.75 + 1e-13, flrb.full: 0.25 - 1e-13})
        assert a.isclose(b)
        c = MassFunction.simple_support(flrb.subset(["F"]), 0.76)
        assert not a.isclose(c)


@given(m=flrb_masses())
def test_duality_pl_equals_one_minus_bel_of_complement(m):
    for subset in FLRB.subsets():
        assert m.plausibility(subset) == pytest.approx(
            1.0 - m.belief(~subset), abs=1e-12
        )


@given(m=flrb_masses())
def test_belief_bounded_by_plausibility(m):
    for subset in FLRB.subsets():
        bel, pl = m.belief(subset), m.plausibility(subset)
        assert 0.0 <= bel <= pl + 1e-12
        assert pl <= 1.0 + 1e-12


@given(m=flrb_masses())
def test_belief_and_plausibility_monotone(m):
    subsets = list(FLRB.subsets())
    for a in subsets:
        for b in subsets:
            if a <= b:
                assert m.belief(a) <= m.belief(b) + 1e-12
                assert m.plausibility(a) <= m.plausibility(b) + 1e-12
