"""Frames of discernment and bitmask subsets.

A :class:`Frame` fixes an ordered list of hypothesis labels; a
:class:`Subset` is an immutable set of those hypotheses stored as a bitmask
(label i maps to bit i), so intersection, union and complement are single
integer operations.  Frames are capped at ``MAX_FRAME_SIZE`` (64) labels,
the documented limit of the package.

A frame matches only itself: subsets and mass functions mix only within one
frame object.  A frame built separately, with the same labels or not, is
another frame, and so is an unpickled one; a copy is the frame itself.  So
values from different scenarios cannot be mixed by accident.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import (
    DuplicateLabelError,
    EmptyFrameError,
    FrameError,
    FrameMismatchError,
    UnknownLabelError,
)

MAX_FRAME_SIZE = 64


def _encodable(text: str) -> bool:
    """False if ``text`` holds a lone surrogate such as "\\ud800" (JSON admits
    one, UTF-8 cannot carry it)."""
    return text.isascii() or not any("\ud800" <= ch <= "\udfff" for ch in text)


class Frame:
    """An ordered, finite set of mutually exclusive hypothesis labels."""

    __slots__ = ("_labels", "_positions", "_full_mask")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise EmptyFrameError("a frame needs at least one label")
        if len(labels) > MAX_FRAME_SIZE:
            raise FrameError(
                f"{len(labels)} labels exceed the {MAX_FRAME_SIZE}-label cap"
            )
        positions: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise FrameError(f"label {label!r} is not a string")
            if not label:
                raise FrameError("labels must be non-empty")
            if label in positions:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            positions[label] = i
        self._labels = labels
        self._positions = positions
        self._full_mask = (1 << len(labels)) - 1

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __copy__(self) -> Frame:
        return self  # immutable, and its identity is what matches

    def __deepcopy__(self, memo: dict) -> Frame:
        return self

    def __contains__(self, label: object) -> bool:
        return label in self._positions

    def __repr__(self) -> str:
        # Quoted, so a label that UTF-8 cannot carry is escaped in messages.
        return f"Frame({', '.join(map(repr, self._labels))})"

    def position(self, label: str) -> int:
        """Index of ``label`` within the frame (exact, case-sensitive)."""
        try:
            return self._positions[label]
        except KeyError:
            raise UnknownLabelError(f"label {label!r} is not in {self!r}") from None

    def subset(self, labels: Iterable[str]) -> Subset:
        """The subset holding exactly ``labels``; an empty list gives the empty set."""
        mask = 0
        for label in labels:
            mask |= 1 << self.position(label)
        return Subset(self, mask)

    def subset_from_mask(self, mask: int) -> Subset:
        """Low-level constructor from a membership bitmask."""
        return Subset(self, mask)

    @property
    def empty(self) -> Subset:
        return Subset(self, 0)

    @property
    def full(self) -> Subset:
        """The whole frame as a subset (total ignorance target)."""
        return Subset(self, self._full_mask)

    def subsets(self) -> Iterator[Subset]:
        """All 2^n subsets in ascending mask order.  Small frames only."""
        if len(self._labels) > 20:
            raise FrameError("powerset iteration is limited to 20 labels")
        for mask in range(self._full_mask + 1):
            yield Subset(self, mask)

    def _labels_of(self, mask: int) -> list[str]:
        """Labels whose bits are set in ``mask``, in frame order, as a list: a tuple
        built from a generator is resized and strands blocks on CPython's free lists."""
        return [label for i, label in enumerate(self._labels) if mask >> i & 1]

    def check_same(self, other: Frame) -> None:
        """Raise :class:`FrameMismatchError` unless ``other`` is this frame."""
        if self is not other:
            raise FrameMismatchError(f"{self!r} is another frame than {other!r}")


class Subset:
    """An immutable subset of one frame's hypotheses, stored as a bitmask."""

    __slots__ = ("_frame", "_mask")

    def __init__(self, frame: Frame, mask: int):
        if type(mask) is not int:
            raise UnknownLabelError(f"mask {mask!r} is not an int")
        if mask < 0 or mask > frame._full_mask:
            raise UnknownLabelError(f"mask {mask:#x} has bits outside {frame!r}")
        self._frame = frame
        self._mask = mask

    @property
    def frame(self) -> Frame:
        return self._frame

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def labels(self) -> tuple[str, ...]:
        """Member labels in frame order."""
        return tuple(self._frame._labels_of(self._mask))

    @property
    def is_empty(self) -> bool:
        return self._mask == 0

    @property
    def is_full(self) -> bool:
        return self._mask == self._frame._full_mask

    def intersection(self, other: Subset) -> Subset:
        self._frame.check_same(other._frame)
        return Subset(self._frame, self._mask & other._mask)

    def union(self, other: Subset) -> Subset:
        self._frame.check_same(other._frame)
        return Subset(self._frame, self._mask | other._mask)

    def complement(self) -> Subset:
        return Subset(self._frame, self._mask ^ self._frame._full_mask)

    def issubset(self, other: Subset) -> bool:
        self._frame.check_same(other._frame)
        return self._mask & ~other._mask == 0

    __and__ = intersection
    __or__ = union
    __invert__ = complement
    __le__ = issubset

    def __contains__(self, label: str) -> bool:
        return bool(self._mask >> self._frame.position(label) & 1)

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subset):
            return NotImplemented
        return self._frame is other._frame and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._frame, self._mask))

    def __repr__(self) -> str:
        if self.is_empty:
            return "∅"
        if self.is_full:
            return "Θ"
        text = ",".join(self._frame._labels_of(self._mask))
        if not _encodable(text):  # escape lone surrogates, so messages encode
            text = text.encode("utf-8", "backslashreplace").decode("utf-8")
        return "{" + text + "}"
