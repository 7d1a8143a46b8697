"""Frames of discernment and bitmask subsets.

A :class:`Frame` fixes an ordered list of hypothesis labels; a
:class:`Subset` is an immutable set of those hypotheses stored as a bitmask
(label i maps to bit i), so intersection, union and complement are single
integer operations.  Frames are capped at ``MAX_FRAME_SIZE`` (64) labels,
the documented limit of the package.

Frame identity is deliberately strict: two frames created separately are
never compatible, even with identical labels, so values from different
scenarios cannot be mixed by accident.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from .errors import (
    DuplicateLabelError,
    EmptyFrameError,
    EmptyLabelError,
    FrameError,
    FrameMismatchError,
    FrameTooLargeError,
    UnknownLabelError,
)

MAX_FRAME_SIZE = 64

_token_counter = itertools.count(1)


class Frame:
    """An ordered, finite set of mutually exclusive hypothesis labels."""

    __slots__ = ("_labels", "_positions", "_token", "_full_mask")

    def __init__(self, labels: Iterable[str]):
        labels = tuple(labels)
        if not labels:
            raise EmptyFrameError("a frame needs at least one label")
        if len(labels) > MAX_FRAME_SIZE:
            raise FrameTooLargeError(
                f"{len(labels)} labels exceed the {MAX_FRAME_SIZE}-label cap"
            )
        positions: dict[str, int] = {}
        for i, label in enumerate(labels):
            if not isinstance(label, str):
                raise FrameError(f"label {label!r} is not a string")
            if not label:
                raise EmptyLabelError("labels must be non-empty")
            if label in positions:
                raise DuplicateLabelError(f"duplicate label {label!r}")
            positions[label] = i
        self._labels = labels
        self._positions = positions
        self._token = next(_token_counter)
        self._full_mask = (1 << len(labels)) - 1

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def __len__(self) -> int:
        return len(self._labels)

    def __contains__(self, label: object) -> bool:
        return label in self._positions

    def __repr__(self) -> str:
        return f"Frame({', '.join(self._labels)})"

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
            raise FrameTooLargeError("powerset iteration is limited to 20 labels")
        for mask in range(self._full_mask + 1):
            yield Subset(self, mask)

    def check_same(self, other: Frame) -> None:
        """Raise :class:`FrameMismatchError` unless ``other`` is this frame."""
        if self._token != other._token:
            raise FrameMismatchError(
                f"{self!r} (frame #{self._token}) is not {other!r} (frame #{other._token})"
            )


class Subset:
    """An immutable subset of one frame's hypotheses, stored as a bitmask."""

    __slots__ = ("_frame", "_mask")

    def __init__(self, frame: Frame, mask: int):
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
        return tuple(
            label for i, label in enumerate(self._frame.labels) if self._mask >> i & 1
        )

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
        return self._frame._token == other._frame._token and self._mask == other._mask

    def __hash__(self) -> int:
        return hash((self._frame._token, self._mask))

    def __repr__(self) -> str:
        if self.is_empty:
            return "∅"
        if self.is_full:
            return "Θ"
        return "{" + ",".join(self.labels) + "}"
