"""Basic probability assignments over one frame.

A :class:`MassFunction` maps subsets of a frame to mass values.  Construction
validates the defining constraints: every mass finite, no mass on the empty
set, every stored mass strictly positive (a zero is no focal element, and
``MassFunction._from_mask_dict``, which every internal builder calls, drops
it), and total mass one within ``SUM_TOLERANCE``.  All computation happens at full
double precision, and ``_left_sum`` adds each float total left to right, so
digits match on every CPython; rounding is a display concern (``dsfusion.render``).
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Mapping
from functools import reduce
from operator import add

from .errors import EvidenceError, MassError, NotNormalizedError, WeightOutOfRangeError
from .frame import Frame, Subset

SUM_TOLERANCE = 1e-9
# Every float total, left to right: CPython's sum compensates from 3.12 on.
_left_sum = sum if sys.version_info < (3, 12) else lambda values: reduce(add, values, 0)

Entries = Mapping[Subset, float] | Iterable[tuple[Subset, float]]


def _as_float(value: object, error: type[EvidenceError], what: str) -> float:
    """A weight or mass as a float, else ``error``: text, bools, non-numbers
    and ints beyond the float range are refused."""
    if type(value) is float:
        return value
    if not isinstance(value, (bool, str, bytes, bytearray, memoryview)):
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            raise error(
                f"a {what} is too large for a float, so outside (0, 1]"
            ) from None
        except (TypeError, ValueError):
            pass
    raise error(f"{what} {value!r} is not a number")


def _checked_support(focal: Subset, weight: object) -> tuple[int, float]:
    """A simple support's focal mask and float weight, checked in this order:
    a non-empty proper focal, then a weight in (0, 1]."""
    mask = focal.mask
    if not mask:
        raise MassError("a simple support needs a non-empty focal set")
    if mask == focal.frame._full_mask:
        raise MassError(
            "a simple support's focal set must be a proper subset of the frame"
        )
    weight = _as_float(weight, WeightOutOfRangeError, "weight")
    if not 0.0 < weight <= 1.0:
        raise WeightOutOfRangeError(f"weight {weight!r} outside (0, 1]")
    return mask, weight


def _plain_weights(weights: tuple) -> bool:
    """Whether every weight is a float in (0, 1] already, in C-level passes:
    a NaN can hide from ``min`` and ``max``, not from the sum."""
    if {*map(type, weights)} != {float}:
        return False
    return 0.0 < min(weights) and max(weights) <= 1.0 and math.isfinite(_left_sum(weights))


def _shortest_decimal(value: float) -> tuple[int, int]:
    """The decimal ``repr(value)`` prints, read exactly as n * 10**e: (n, e)."""
    digits, _, exponent = repr(value).partition("e")
    whole, _, fraction = digits.partition(".")
    return int(whole + fraction), int(exponent or 0) - len(fraction)


class MassFunction:
    """A validated basic probability assignment m: subsets -> (0, 1]."""

    __slots__ = ("_frame", "_masses")

    def __init__(self, frame: Frame, entries: Entries):
        if isinstance(entries, Mapping):
            entries = entries.items()
        accumulated: dict[int, float] = {}
        for subset, mass in entries:
            frame.check_same(subset.frame)
            mass = _as_float(mass, MassError, "mass")
            if not math.isfinite(mass):
                raise MassError(f"mass {mass!r} for {subset!r} is not finite")
            if mass < 0.0:
                raise MassError(f"mass {mass!r} for {subset!r} is negative")
            if subset.is_empty and mass > 0.0:
                raise MassError("the empty set cannot carry positive mass")
            if mass > 0.0:
                accumulated[subset.mask] = accumulated.get(subset.mask, 0.0) + mass
        # Summed in mask order, as combining with the vacuous mass function sums
        # them, so that every mass function accepted here stays bit-exact there.
        masses = {mask: accumulated[mask] for mask in sorted(accumulated)}
        total = _left_sum(masses.values())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise NotNormalizedError(f"masses sum to {total!r}, not 1")
        self._frame = frame
        self._masses = masses

    @classmethod
    def _from_mask_dict(cls, frame: Frame, masses: dict[int, float]) -> MassFunction:
        """Internal fast path that checks nothing: the caller gives finite,
        non-negative masses in ascending mask order that sum to 1 within
        ``SUM_TOLERANCE``.  A zero is no focal element, so it is dropped here."""
        if 0.0 in masses.values():
            masses = {mask: m for mask, m in masses.items() if m}
        m = object.__new__(cls)
        m._frame = frame
        m._masses = masses
        return m

    @classmethod
    def vacuous(cls, frame: Frame) -> MassFunction:
        """Total ignorance: all mass on the full frame."""
        return cls._from_mask_dict(frame, {frame._full_mask: 1.0})

    @classmethod
    def simple_support(cls, focal: Subset, weight: float) -> MassFunction:
        """Weight on one proper focal set, the rest on the full frame.

        This is the shape every motion evidence takes: support ``weight`` for
        ``focal`` and residual ignorance ``1 - weight``.
        """
        frame = focal.frame
        mask, weight = _checked_support(focal, weight)
        return cls._from_mask_dict(frame, {mask: weight, frame._full_mask: 1.0 - weight})

    @property
    def frame(self) -> Frame:
        return self._frame

    def mass(self, subset: Subset) -> float:
        """m(subset); zero for anything that is not a focal element."""
        self._frame.check_same(subset.frame)
        return self._masses.get(subset.mask, 0.0)

    __getitem__ = mass

    def belief(self, subset: Subset) -> float:
        """Total mass of focal elements contained in ``subset``."""
        self._frame.check_same(subset.frame)
        target = subset.mask
        return _left_sum(m for s, m in self._masses.items() if s & ~target == 0)

    def plausibility(self, subset: Subset) -> float:
        """Total mass of focal elements intersecting ``subset``."""
        self._frame.check_same(subset.frame)
        target = subset.mask
        return _left_sum(m for s, m in self._masses.items() if s & target)

    def core(self) -> Subset:
        """Union of all focal elements."""
        mask = 0
        for s in self._masses:
            mask |= s
        return self._frame.subset_from_mask(mask)

    def focal_elements(self) -> list[tuple[Subset, float]]:
        """Focal elements with their masses, in ascending mask order."""
        return [
            (self._frame.subset_from_mask(mask), m) for mask, m in self._masses.items()
        ]

    def mask_items(self) -> list[tuple[int, float]]:
        """Raw (mask, mass) pairs in ascending mask order."""
        return list(self._masses.items())

    def __len__(self) -> int:
        return len(self._masses)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MassFunction):
            return NotImplemented
        return self._frame is other._frame and self._masses == other._masses

    def __hash__(self) -> int:
        return hash((self._frame, tuple(self._masses.items())))

    def isclose(self, other: MassFunction, *, tolerance: float = 1e-12) -> bool:
        """Entry-wise comparison over the union of focal elements."""
        self._frame.check_same(other._frame)
        keys = self._masses.keys() | other._masses.keys()
        return all(
            abs(self._masses.get(k, 0.0) - other._masses.get(k, 0.0)) <= tolerance
            for k in keys
        )

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{self._frame.subset_from_mask(mask)!r}: {m:.6g}"
            for mask, m in self._masses.items()
        )
        return f"MassFunction({inner})"
