"""Frames and bitmask subsets: construction, algebra, identity."""

import copy
import itertools
import pickle

import pytest

from dsfusion import (
    MAX_FRAME_SIZE,
    DuplicateLabelError,
    EmptyFrameError,
    Frame,
    FrameError,
    FrameMismatchError,
    MassError,
    MassFunction,
    UnknownLabelError,
    combine,
)

from helpers import fresh_interpreter


class TestFrameConstruction:
    def test_four_directions(self, flrb):
        assert flrb.labels == ("F", "L", "R", "B")
        assert len(flrb) == 4
        assert "F" in flrb and "Z" not in flrb

    def test_minimal_frame(self):
        assert len(Frame(["x"])) == 1

    def test_max_size_boundary(self):
        assert len(Frame([f"h{i}" for i in range(MAX_FRAME_SIZE)])) == 64
        with pytest.raises(FrameError, match="-label cap"):
            Frame([f"h{i}" for i in range(MAX_FRAME_SIZE + 1)])

    def test_empty_frame(self):
        with pytest.raises(EmptyFrameError):
            Frame([])

    def test_duplicate_label(self):
        with pytest.raises(DuplicateLabelError):
            Frame(["a", "a"])

    def test_empty_label(self):
        with pytest.raises(FrameError, match="labels must be non-empty"):
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

    @pytest.mark.parametrize("mask", [1.0, 100.0, -1.5, True, "1"])
    def test_mask_not_an_int(self, flrb, mask):
        with pytest.raises(UnknownLabelError, match="is not an int"):
            flrb.subset_from_mask(mask)

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

    def test_repr_escapes_only_lone_surrogates(self):
        frame = Frame(["\ud800", "é", "a"])
        assert repr(frame.subset(["\ud800", "é"])) == "{\\ud800,é}"
        assert repr(frame.subset(["é", "a"])) == "{é,a}"

    def test_messages_on_a_lone_surrogate_frame_encode(self):
        frame = Frame(["\ud800", "a"])
        with pytest.raises(MassError, match="is negative") as caught:
            MassFunction(frame, {frame.subset(["\ud800"]): -1.0, frame.full: 2.0})
        assert str(caught.value).encode("utf-8") == b"mass -1.0 for {\\ud800} is negative"
        m = MassFunction(frame, {frame.subset(["\ud800"]): 0.5, frame.full: 0.5})
        assert repr(m).encode("utf-8") == "MassFunction({\\ud800}: 0.5, Θ: 0.5)".encode("utf-8")


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
        assert (flrb.subset(["F"]) == object()) is False

    def test_mismatch_names_both_frames(self):
        with pytest.raises(FrameMismatchError) as raised:
            Frame(["a", "b"]).check_same(Frame(["x", "y", "z"]))
        assert str(raised.value) == (
            "Frame('a', 'b') is another frame than Frame('x', 'y', 'z')"
        )

    def test_copies_match_the_original(self, flrb):
        f = flrb.subset(["F"])
        m = MassFunction.simple_support(f, 0.75)
        for copy_of in (copy.copy, copy.deepcopy):
            copy_of(flrb).check_same(flrb)
            assert copy_of(flrb).subset(["F"]) == f
            assert copy_of(f) == f and copy_of(f) & f == f
            assert copy_of(m) == m and hash(copy_of(m)) == hash(m)
            assert combine(copy_of(m), m) == combine(m, m)

    def test_unpickled_frame_is_another_frame(self, flrb):
        # Each new interpreter builds its own first frame, so a count of the
        # frames built in one process would number both frames alike.
        dumped = fresh_interpreter(
            "import pickle\n"
            "from dsfusion import Frame, MassFunction\n"
            "ab = Frame(['a', 'b'])\n"
            "print(pickle.dumps(MassFunction.simple_support(ab.subset(['a']), 0.5)).hex())\n"
        ).stdout.strip()
        combined = fresh_interpreter(
            "import pickle\n"
            "from dsfusion import Frame, FrameMismatchError, MassFunction, combine\n"
            "xyz = Frame(['x', 'y', 'z'])\n"
            "m = MassFunction.simple_support(xyz.subset(['x']), 0.5)\n"
            f"other = pickle.loads(bytes.fromhex({dumped!r}))\n"
            "try:\n"
            "    print(combine(m, other))\n"
            "except FrameMismatchError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        ).stdout
        assert combined == (
            "FrameMismatchError Frame('x', 'y', 'z') is another frame than Frame('a', 'b')\n"
        )
        # and within one process too
        m = MassFunction.simple_support(flrb.subset(["F"]), 0.75)
        assert pickle.loads(pickle.dumps(m)) != m


class TestPowersetIteration:
    def test_ascending_mask_order(self, flrb):
        masks = [s.mask for s in flrb.subsets()]
        assert masks == list(range(16))

    def test_guard_on_large_frames(self):
        big = Frame([f"h{i}" for i in range(21)])
        with pytest.raises(FrameError, match="powerset iteration"):
            next(big.subsets())

    def test_twenty_label_frame_allowed(self):
        frame = Frame([f"h{i}" for i in range(20)])
        it = frame.subsets()
        assert next(it).is_empty
