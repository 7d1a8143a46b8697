"""Dempster's rule of combination with conflict accounting.

The rule pools two mass functions by intersecting every pair of focal
elements, multiplying their masses, discarding the weight that lands on the
empty set (the conflict k), and renormalizing the rest by 1 - k:

    m12(A) = sum(m1(B) * m2(C) for B n C = A, A != {}) / (1 - k)
    k      = sum(m1(B) * m2(C) for B n C = {})

Combination is refused once k reaches ``1 - CONFLICT_EPSILON``: dividing by a
vanishing 1 - k amplifies noise beyond any meaningful precision, and k = 1
exactly means the cores are disjoint.  A product that underflows to exactly
0.0 is dropped, so every stored mass stays strictly positive.

Every fold route shares one cross-product loop, ``_cross``, so they agree bit
for bit by construction:

* :func:`combine` pools two evidences; :func:`fuse_all` folds a sequence
  left to right, recording each step's normalized result and conflict, and
  :func:`fold` keeps only the final mass of that fold;
* :func:`combine_traced` and :attr:`FusionReport.steps` wrap a combination in
  a :class:`CombinationTrace`, which enumerates its cells (a hand-worked
  combination table) from its two inputs only when read, in the same pair
  order and with the same products m1(B) * m2(C) the loop sums;
* :func:`oracle_fuse_all` is an independent exact check with its own loop:
  it folds un-normalized integer products source by source and normalizes
  once at the end.  The tests hold it equal to an n-way enumeration of focal
  tuples, which keeps the rule's associativity a test, not an assumption.

The loop takes the right operand's ignorance column m2(Θ) apart: B n Θ = B,
so that pair is added onto B without an intersection, still last in its
row, and a right operand with a single proper focal beside Θ (a simple
support) is crossed without an inner loop.  The pairs and the order they are
summed in stay those of the plain double loop, so the sums are unchanged.
"""

from __future__ import annotations

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
        left, right = self.inputs
        left.frame.check_same(right.frame)
        subset = left.frame.subset_from_mask
        right_items = right.mask_items()
        return tuple(
            CombinationCell(subset(b), subset(c), subset(b & c), mb * mc)
            for b, mb in left.mask_items()
            for c, mc in right_items
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


def _cross(m1: MassFunction, m2: MassFunction) -> tuple[dict[int, float], float]:
    """The un-normalized cross product of two mass functions.

    Returns the m1(B)*m2(C) sums by non-empty intersection mask and the conflict k.
    Pairs are summed left-major: left focal B ascending, then right focal C
    ascending.  When Θ is a right focal it is the last column, and B n Θ = B,
    so each row adds m1(B)*m2(Θ) onto B after its proper focals with no
    intersection or branch.  A right operand with one proper focal besides Θ
    (every simple support with weight < 1) needs no inner loop at all.  Either
    way each key receives the same products in the same order as the plain
    double loop, so the sums are bit for bit the same.
    """
    m1.frame.check_same(m2.frame)
    acc: dict[int, float] = {}
    get = acc.get
    k = 0.0
    right = m2.mask_items()
    m_full = right.pop()[1] if right[-1][0] == m2.frame._full_mask else None
    if m_full is not None and len(right) == 1:
        ((c, mc),) = right
        for b, mb in m1.mask_items():
            inter = b & c
            p = mb * mc
            if inter:
                acc[inter] = get(inter, 0.0) + p
            else:
                k += p
            acc[b] = get(b, 0.0) + mb * m_full
        return acc, k
    for b, mb in m1.mask_items():
        for c, mc in right:
            inter = b & c
            p = mb * mc
            if inter:
                acc[inter] = get(inter, 0.0) + p
            else:
                k += p
        if m_full is not None:
            acc[b] = get(b, 0.0) + mb * m_full
    return acc, k


def _normalize(
    frame: Frame,
    products: dict[int, float],
    k: float,
    step: int | None,
) -> MassFunction:
    if k >= 1.0 - CONFLICT_EPSILON:
        raise TotalConflictError(k, step=step)
    if 0.0 in products.values():
        # A product that underflowed to 0.0 is no focal element.
        products = {mask: p for mask, p in products.items() if p}
    masks = sorted(products)
    # Divide by the kept weight itself instead of 1-k.  Equal in exact
    # arithmetic, but near the refusal threshold the cancellation noise in k
    # is amplified by the tiny denominator; the complementary sum keeps the
    # result summing to 1 for every admissible k.  With no conflict at all
    # the true denominator is exactly 1, so the combination stays bit-exact
    # (vacuous stays neutral) and no division is needed.
    if k == 0.0:
        return MassFunction._from_mask_dict(frame, {m: products[m] for m in masks})
    denom = sum([products[m] for m in masks])
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
    """The same fusion in exact rational arithmetic, normalized once.

    Each source's masses are read through their shortest decimal
    representation, so ordinary decimal inputs are exact, and scaled to
    integer numerators over that source's common denominator.  The
    un-normalized products are folded source by source onto non-empty
    intersections (Dempster's rule distributes over the sum), and divided by
    their total only at the end.  A step over ``FOLD_CELL_CAP`` focal pairs
    raises :class:`ExplosionGuardError`, as in :func:`fuse_all`.
    """
    # Imported here so that CLI start-up does not pay for it.
    from fractions import Fraction

    frame = _common_frame(sources)
    acc = {frame._full_mask: 1}
    for step_no, source in enumerate(sources):
        exact = [(mask, Fraction(repr(mass))) for mask, mass in source.mask_items()]
        scale = math.lcm(*(q.denominator for _, q in exact))
        right = [(mask, q.numerator * (scale // q.denominator)) for mask, q in exact]
        cells = len(acc) * len(right)
        if cells > FOLD_CELL_CAP:
            raise ExplosionGuardError(
                f"step {step_no} would cross {cells} focal pairs, "
                f"over the cap of {FOLD_CELL_CAP}"
            )
        crossed: dict[int, int] = {}
        for b, nb in acc.items():
            for c, nc in right:
                if inter := b & c:
                    crossed[inter] = crossed.get(inter, 0) + nb * nc
        acc = crossed
    total = sum(acc.values())
    if total == 0:
        raise TotalConflictError(1.0)
    return MassFunction._from_mask_dict(
        frame, {mask: float(Fraction(acc[mask], total)) for mask in sorted(acc)}
    )
