"""Frames and bitmask subsets: construction, algebra, identity."""

import itertools

import pytest

from dsfusion import (
    MAX_FRAME_SIZE,
    DuplicateLabelError,
    EmptyFrameError,
    EmptyLabelError,
    Frame,
    FrameError,
    FrameMismatchError,
    FrameTooLargeError,
    UnknownLabelError,
)


class TestFrameConstruction:
    def test_four_directions(self, flrb):
        assert flrb.labels == ("F", "L", "R", "B")
        assert len(flrb) == 4
        assert "F" in flrb and "Z" not in flrb

    def test_minimal_frame(self):
        assert len(Frame(["x"])) == 1

    def test_max_size_boundary(self):
        assert len(Frame([f"h{i}" for i in range(MAX_FRAME_SIZE)])) == 64
        with pytest.raises(FrameTooLargeError):
            Frame([f"h{i}" for i in range(MAX_FRAME_SIZE + 1)])

    def test_empty_frame(self):
        with pytest.raises(EmptyFrameError):
            Frame([])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            Frame(["a", "a"])

    def test_empty_label(self):
        with pytest.raises(EmptyLabelError):
            Frame(["a", ""])

    def test_non_string_label(self):
        with pytest.raises(FrameError) as exc:
            Frame([1])
        assert type(exc.value) is FrameError

    def test_labels_are_case_sensitive(self):
        frame = Frame(["a", "A"])
        assert frame.position("a") == 0
        assert frame.position("A") == 1

    def test_position_unknown_label(self, flrb):
        with pytest.raises(UnknownLabelError):
            flrb.position("Z")


class TestSubsetConstruction:
    def test_subset_of_labels(self, flrb):
        lb = flrb.subset(["L", "B"])
        assert lb.labels == ("L", "B")
        assert lb.mask == 0b1010

    def test_empty_and_full(self, flrb):
        assert flrb.subset([]).is_empty
        assert flrb.subset(["F", "L", "R", "B"]) == flrb.full
        assert flrb.empty.mask == 0
        assert flrb.full.mask == 0b1111

    def test_unknown_label(self, flrb):
        with pytest.raises(UnknownLabelError):
            flrb.subset(["Z"])

    def test_mask_out_of_range(self, flrb):
        with pytest.raises(UnknownLabelError):
            flrb.subset_from_mask(0b10000)
        with pytest.raises(UnknownLabelError):
            flrb.subset_from_mask(-1)

    def test_member_order_follows_frame_order(self, flrb):
        # {L,B} stays (L, B) no matter the order labels were given in
        assert flrb.subset(["B", "L"]).labels == ("L", "B")

    def test_len_contains_iter(self, flrb):
        lb = flrb.subset(["L", "B"])
        assert len(lb) == 2
        assert "L" in lb and "B" in lb and "F" not in lb
        assert list(lb) == ["L", "B"]

    def test_repr(self, flrb):
        assert repr(flrb.empty) == "∅"
        assert repr(flrb.full) == "Θ"
        assert repr(flrb.subset(["L", "B"])) == "{L,B}"


class TestSetAlgebra:
    def test_composite_intersections(self, flrb):
        lb = flrb.subset(["L", "B"])
        rb = flrb.subset(["R", "B"])
        f = flrb.subset(["F"])
        assert (lb & rb) == flrb.subset(["B"])
        assert (f & lb).is_empty
        assert (lb & flrb.full) == lb

    def test_union_and_complement(self, flrb):
        lb = flrb.subset(["L", "B"])
        rb = flrb.subset(["R", "B"])
        assert (lb | rb) == flrb.subset(["L", "R", "B"])
        assert ~flrb.subset(["F"]) == flrb.subset(["L", "R", "B"])
        assert ~flrb.empty == flrb.full

    def test_issubset(self, flrb):
        assert flrb.subset(["B"]) <= flrb.subset(["L", "B"])
        assert not flrb.subset(["L", "B"]) <= flrb.subset(["B"])
        assert flrb.empty <= flrb.empty

    def test_exhaustive_against_python_sets(self, flrb):
        # all 256 subset pairs of the 4-element frame vs builtin set semantics
        pairs = list(itertools.product(flrb.subsets(), repeat=2))
        assert len(pairs) == 256
        for a, b in pairs:
            sa, sb = set(a.labels), set(b.labels)
            assert set((a & b).labels) == sa & sb
            assert set((a | b).labels) == sa | sb
            assert (a <= b) == (sa <= sb)
            assert a & b == b & a
            assert a | b == b | a
            assert a & a == a and a | a == a

    def test_de_morgan_and_involution(self, flrb):
        for a, b in itertools.product(flrb.subsets(), repeat=2):
            assert ~(a | b) == ~a & ~b
            assert ~(a & b) == ~a | ~b
        for a in flrb.subsets():
            assert ~~a == a

    def test_associativity_exhaustive(self, flrb):
        subsets = list(flrb.subsets())
        for a, b, c in itertools.product(subsets[::3], subsets[::3], subsets[::3]):
            assert (a & b) & c == a & (b & c)
            assert (a | b) | c == a | (b | c)


class TestFrameIdentity:
    def test_equal_labels_are_still_different_frames(self):
        f1 = Frame(["F", "L", "R", "B"])
        f2 = Frame(["F", "L", "R", "B"])
        with pytest.raises(FrameMismatchError):
            f1.check_same(f2)
        assert f1.subset(["F"]) != f2.subset(["F"])

    def test_cross_frame_operations_rejected(self):
        f1 = Frame(["a", "b"])
        f2 = Frame(["a", "b"])
        with pytest.raises(FrameMismatchError):
            f1.subset(["a"]) & f2.subset(["a"])
        with pytest.raises(FrameMismatchError):
            f1.subset(["a"]) | f2.subset(["b"])
        with pytest.raises(FrameMismatchError):
            f1.subset(["a"]) <= f2.subset(["a"])

    def test_same_frame_subsets_compare_equal(self, flrb):
        assert flrb.subset(["F"]) == flrb.subset(["F"])
        assert hash(flrb.subset(["F"])) == hash(flrb.subset(["F"]))
        assert flrb.subset(["F"]) != flrb.subset(["L"])


class TestPowersetIteration:
    def test_ascending_mask_order(self, flrb):
        masks = [s.mask for s in flrb.subsets()]
        assert masks == list(range(16))

    def test_guard_on_large_frames(self):
        big = Frame([f"h{i}" for i in range(21)])
        with pytest.raises(FrameTooLargeError):
            next(big.subsets())

    def test_twenty_label_frame_allowed(self):
        frame = Frame([f"h{i}" for i in range(20)])
        it = frame.subsets()
        assert next(it).is_empty
