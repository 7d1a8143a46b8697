"""Dempster's rule of combination with conflict accounting.

The rule pools two mass functions by intersecting every pair of focal
elements, multiplying their masses, discarding the weight that lands on the
empty set (the conflict k), and renormalizing the rest by 1 - k:

    m12(A) = sum(m1(B) * m2(C) for B n C = A, A != {}) / (1 - k)
    k      = sum(m1(B) * m2(C) for B n C = {})

Combination is refused once k reaches ``1 - CONFLICT_EPSILON``: dividing by a
vanishing 1 - k amplifies noise beyond any meaningful precision, and k = 1
exactly means the cores are disjoint.

Every route runs the same cross-product loop, so they agree bit for bit by
construction:

* :func:`combine` pools two evidences; :func:`fuse_all` folds a sequence
  left to right, recording each step's normalized result and conflict, and
  :func:`fold` keeps only the final mass of that fold;
* :func:`combine_traced` and :attr:`FusionReport.steps` wrap a combination in
  a :class:`CombinationTrace`, whose cross-product cells (a hand-worked
  combination table) are recomputed only when read;
* :func:`oracle_fuse_all` is an independent brute-force check: it enumerates
  the full n-way product of focal tuples in exact rational arithmetic and
  normalizes once at the end.  Agreement of the sequential fold with this
  single-normalization enumeration is the associativity of the rule, kept as
  a test, not an assumption.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from typing import NamedTuple

from .errors import (
    EmptyInputError,
    ExplosionGuardError,
    TotalConflictError,
)
from .frame import Frame, Subset
from .mass import MassFunction

CONFLICT_EPSILON = 1e-9
ORACLE_TUPLE_CAP = 10_000_000
# Focal pairs one step of fuse_all may cross.  A fold of simple supports can
# double its focal count at every step, so a few dozen sources could need
# minutes and gigabytes; the cap refuses such a fold in well under a second.
FOLD_CELL_CAP = 2**18


class CombinationCell(NamedTuple):
    """One cross-product cell: left focal meets right focal."""

    left: Subset
    right: Subset
    intersection: Subset
    product: float


class CombinationTrace(NamedTuple):
    """Everything one pairwise combination did.

    ``cells`` lists all focal pairs in deterministic order (left focal
    ascending by mask, then right focal ascending); ``conflict`` is k;
    ``result`` is the normalized combined mass function; ``inputs`` keeps the
    two operands so a renderer can label table rows and columns.
    """

    inputs: tuple[MassFunction, MassFunction]
    conflict: float
    result: MassFunction

    @property
    def cells(self) -> tuple[CombinationCell, ...]:
        """The cross-product table, recomputed from ``inputs`` on each read."""
        raw: list[tuple[int, int, int, float]] = []
        _cross(*self.inputs, raw)
        subset = self.inputs[0].frame.subset_from_mask
        return tuple(
            CombinationCell(subset(b), subset(c), subset(inter), p)
            for b, c, inter, p in raw
        )


class FusionReport(NamedTuple):
    """A sequential left-to-right fold of ``sources``.

    ``results[i]`` is the normalized fold of ``sources[:i + 1]`` (so
    ``results[0]`` is the first source) and ``per_step_conflict[i]`` is the k
    of combining ``results[i]`` with ``sources[i + 1]``.
    """

    sources: tuple[MassFunction, ...]
    results: tuple[MassFunction, ...]
    per_step_conflict: tuple[float, ...]

    @property
    def final(self) -> MassFunction:
        return self.results[-1]

    @property
    def steps(self) -> tuple[CombinationTrace, ...]:
        """One trace per additional source, rebuilt from the recorded fold."""
        return tuple(
            CombinationTrace((prefix, source), k, result)
            for prefix, source, k, result in zip(
                self.results, self.sources[1:], self.per_step_conflict, self.results[1:]
            )
        )


def _common_frame(sources: Sequence[MassFunction]) -> Frame:
    if not sources:
        raise EmptyInputError("at least one mass function is required")
    frame = sources[0].frame
    for m in sources[1:]:
        frame.check_same(m.frame)
    return frame


def _cross(
    m1: MassFunction,
    m2: MassFunction,
    cells: list[tuple[int, int, int, float]] | None = None,
) -> tuple[dict[int, float], float]:
    """The un-normalized cross product of two mass functions.

    Returns the sums of m1(B)*m2(C) by non-empty intersection mask and the
    conflict k.  Pairs are visited left focal ascending by mask, then right
    focal ascending; when ``cells`` is given, each pair is appended to it as
    ``(left mask, right mask, intersection mask, product)``.
    """
    m1.frame.check_same(m2.frame)
    acc: dict[int, float] = {}
    get = acc.get
    k = 0.0
    right = m2.mask_items()
    for b, mb in m1.mask_items():
        for c, mc in right:
            inter = b & c
            p = mb * mc
            if inter:
                acc[inter] = get(inter, 0.0) + p
            else:
                k += p
            if cells is not None:
                cells.append((b, c, inter, p))
    return acc, k


def _normalize(
    frame: Frame,
    products: dict[int, float],
    k: float,
    step: int | None,
) -> MassFunction:
    if k >= 1.0 - CONFLICT_EPSILON:
        raise TotalConflictError(k, step=step)
    masks = sorted(products)
    # Divide by the kept weight itself instead of 1-k.  Equal in exact
    # arithmetic, but near the refusal threshold the cancellation noise in k
    # is amplified by the tiny denominator; the complementary sum keeps the
    # result summing to 1 for every admissible k.  With no conflict at all
    # the true denominator is exactly 1, so the combination stays bit-exact
    # (vacuous stays neutral).
    denom = sum([products[m] for m in masks]) if k > 0.0 else 1.0
    return MassFunction._from_mask_dict(
        frame, {mask: products[mask] / denom for mask in masks}
    )


def conflict(m1: MassFunction, m2: MassFunction) -> float:
    """The conflict k between two evidences: total mass on empty intersections."""
    return _cross(m1, m2)[1]


def combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule for two mass functions (no trace)."""
    products, k = _cross(m1, m2)
    return _normalize(m1.frame, products, k, step=None)


def combine_traced(m1: MassFunction, m2: MassFunction) -> CombinationTrace:
    """Dempster's rule with the full cross-product cell table.

    The cell list mirrors a hand-worked combination table: left focal
    elements as rows, right focal elements as columns, the intersection and
    the product m1(B)*m2(C) in each cell.
    """
    products, k = _cross(m1, m2)
    return CombinationTrace((m1, m2), k, _normalize(m1.frame, products, k, step=None))


def fuse_all(sources: Sequence[MassFunction]) -> FusionReport:
    """Fold sources left to right, recording each step's result and conflict.

    Step i combines the accumulated result with source i+1 and renormalizes,
    exactly like working through the combination tables one by one.  A step
    that would cross more than ``FOLD_CELL_CAP`` focal pairs raises
    :class:`ExplosionGuardError` before it starts.
    """
    frame = _common_frame(sources)
    sources = tuple(sources)
    acc = sources[0]
    results = [acc]
    ks: list[float] = []
    for step_no, source in enumerate(sources[1:], start=1):
        cells = len(acc) * len(source)
        if cells > FOLD_CELL_CAP:
            raise ExplosionGuardError(
                f"step {step_no} would cross {cells} focal pairs, "
                f"over the cap of {FOLD_CELL_CAP}"
            )
        products, k = _cross(acc, source)
        acc = _normalize(frame, products, k, step=step_no)
        results.append(acc)
        ks.append(k)
    return FusionReport(sources, tuple(results), tuple(ks))


def fold(sources: Sequence[MassFunction]) -> MassFunction:
    """The final mass of :func:`fuse_all`."""
    return fuse_all(sources).final


def oracle_fuse_all(sources: Sequence[MassFunction]) -> MassFunction:
    """Brute-force n-way combination in exact rational arithmetic.

    Enumerates every tuple of focal elements (one per source), accumulates
    the product of their masses onto the tuple's intersection, discards
    empty-intersection weight, and normalizes once at the end.  Mass values
    are read through their shortest decimal representation, so ordinary
    decimal inputs are handled exactly.
    """
    # Imported here so that CLI start-up does not pay for it.
    from fractions import Fraction

    frame = _common_frame(sources)
    tuple_count = math.prod(len(m) for m in sources)
    if tuple_count > ORACLE_TUPLE_CAP:
        raise ExplosionGuardError(
            f"{tuple_count} focal tuples exceed the cap of {ORACLE_TUPLE_CAP}"
        )
    rational = [
        [(mask, Fraction(repr(mass))) for mask, mass in m.mask_items()]
        for m in sources
    ]
    full_mask = frame._full_mask
    acc: dict[int, Fraction] = {}
    for combo in itertools.product(*rational):
        inter = full_mask
        weight = Fraction(1)
        for mask, mass in combo:
            inter &= mask
            weight *= mass
        if inter != 0:
            acc[inter] = acc.get(inter, Fraction(0)) + weight
    total = sum(acc.values())
    if total == 0:
        raise TotalConflictError(1.0)
    return MassFunction._from_mask_dict(
        frame, {mask: float(acc[mask] / total) for mask in sorted(acc)}
    )
