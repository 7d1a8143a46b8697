"""Dempster's rule of combination with conflict accounting.

The rule pools two mass functions by intersecting every pair of focal
elements, multiplying their masses, discarding the weight that lands on the
empty set (the conflict k), and renormalizing the rest by 1 - k:

    m12(A) = sum(m1(B) * m2(C) for B n C = A, A != {}) / (1 - k)
    k      = sum(m1(B) * m2(C) for B n C = {})

``_step_divisor`` owns each fold step's rule: when it is refused and what it
divides by.  A product that underflows to exactly 0.0 is no focal element:
``MassFunction._from_mask_dict`` drops it, so every stored mass stays positive.

The float fold routes share one cross-product loop, ``_cross``, or replay
its operations in its order, so they agree bit for bit:

* :func:`combine` pools two evidences; ``_fold_steps``, the one fold loop,
  yields each step's normalized result and conflict of a left-to-right fold:
  :func:`fuse_all` records every step, while :func:`fold` (and
  ``scenario.predict``) keep one step at a time;
* :func:`combine_traced` and :attr:`FusionReport.steps` wrap a combination in
  a :class:`CombinationTrace`, which enumerates its cells (a hand-worked
  combination table) from its two inputs only when read, in the same pair
  order and with the same products m1(B) * m2(C) the loop sums;
* ``_fold_rows`` folds many rows of simple-support weights on the same
  focals (a scenario's conditions, for ``sweep``) without building the
  supports: it derives each step's focal structure once and replays, per
  row, the float operations of ``_cross`` in their order (a row it returns
  unfolded at ``FOLD_CELL_CAP``, ``sweep`` folds by ``predict``);
* :func:`oracle_fuse_all` is an independent exact check with its own loop:
  it folds un-normalized integer products source by source and normalizes
  once at the end.  The tests hold it equal to an n-way enumeration of focal
  tuples, which keeps the rule's associativity a test, not an assumption.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence

from .errors import (
    EmptyInputError,
    EvidenceError,
    ExplosionGuardError,
    TotalConflictError,
)
from .frame import Frame
from .mass import SUM_TOLERANCE, MassFunction, _left_sum, _shortest_decimal

CONFLICT_EPSILON = 1e-9
# Focal pairs one fold step may cross.  A fold of simple supports can
# double its focal count at every step, so a few dozen sources could need
# minutes and gigabytes; the cap refuses such a fold in well under a second.
FOLD_CELL_CAP = 2**18


class CombinationCell(namedtuple("CombinationCell", "left right intersection product")):
    """One cross-product cell: left focal meets right focal.

    ``left``, ``right`` and ``intersection`` are Subsets; ``product`` is the
    float m1(left) * m2(right).
    """

    __slots__ = ()


class CombinationTrace(namedtuple("CombinationTrace", "inputs conflict result")):
    """Everything one pairwise combination did.

    ``cells`` lists all focal pairs in deterministic order (left focal
    ascending by mask, then right focal ascending); ``conflict`` is k, a
    float; ``result`` is the normalized combined MassFunction; ``inputs``
    keeps the two operands, a pair of MassFunctions, so a renderer can label
    table rows and columns.
    """

    __slots__ = ()

    @property
    def cells(self) -> tuple[CombinationCell, ...]:
        """The cross-product table, recomputed from ``inputs`` on each read."""
        left, right = self.inputs
        left.frame.check_same(right.frame)
        subset = left.frame.subset_from_mask
        right_items = right.mask_items()
        return tuple([
            CombinationCell(subset(b), subset(c), subset(b & c), mb * mc)
            for b, mb in left.mask_items()
            for c, mc in right_items
        ])


class FusionReport(namedtuple("FusionReport", "sources results per_step_conflict")):
    """A sequential left-to-right fold of ``sources``.

    ``sources`` and ``results`` are tuples of MassFunctions, and
    ``per_step_conflict`` a tuple of floats.  ``results[i]`` is the
    normalized fold of ``sources[:i + 1]`` (so ``results[0]`` is the first
    source) and ``per_step_conflict[i]`` is the k of combining ``results[i]``
    with ``sources[i + 1]``.
    """

    __slots__ = ()

    @property
    def final(self) -> MassFunction:
        return self.results[-1]

    @property
    def steps(self) -> tuple[CombinationTrace, ...]:
        """One trace per additional source, rebuilt from the recorded fold."""
        return tuple([
            CombinationTrace((prefix, source), k, result)
            for prefix, source, k, result in zip(
                self.results, self.sources[1:], self.per_step_conflict, self.results[1:]
            )
        ])


def _common_frame(sources: Sequence[MassFunction]) -> Frame:
    if not sources:
        raise EmptyInputError("at least one mass function is required")
    frame = sources[0].frame
    for m in sources[1:]:
        frame.check_same(m.frame)
    return frame


def _cross(m1: MassFunction, m2: MassFunction) -> tuple[dict[int, float], float]:
    """The un-normalized cross product of two mass functions.

    Returns the m1(B)*m2(C) sums by non-empty intersection mask and the conflict
    k, summed left-major: left focal B ascending, then right focal C ascending.
    A simple support with weight < 1 (one proper focal C, then Θ) needs no
    inner loop.  Masks ascend and a row adds only to B n C and B, both within
    B, so no earlier row has reached B: row B writes its own slot, and only
    later supersets add to it.  As 0.0 + x == x, every sum is the double loop's.
    """
    m1.frame.check_same(m2.frame)
    acc: dict[int, float] = {}
    get = acc.get
    k = 0.0
    right = m2._masses
    if len(right) == 2 and m2.frame._full_mask in right:
        (c, mc), (_, m_full) = right.items()
        for b, mb in m1._masses.items():
            inter = b & c
            if inter == b:
                acc[b] = mb * mc + mb * m_full
                continue
            if inter:
                acc[inter] = get(inter, 0.0) + mb * mc
            else:
                k += mb * mc
            acc[b] = mb * m_full
        return acc, k
    for b, mb in m1._masses.items():
        for c, mc in right.items():
            inter = b & c
            p = mb * mc
            if inter:
                acc[inter] = get(inter, 0.0) + p
            else:
                k += p
    return acc, k


def _step_divisor(kept: Iterable[float], k: float) -> float:
    """One fold step's rule, given its kept products in mask order and its k:
    0.0 if the step is refused, else what the products are divided by.

    A step is refused once the k that the float fold computed reaches
    ``1 - CONFLICT_EPSILON``, for a double k the same test as k >= 1 - 10**-9
    (dividing by a vanishing 1 - k amplifies noise beyond any meaningful
    precision; k = 1 means disjoint cores) or nothing is kept, which inputs
    that sum to 1 only within SUM_TOLERANCE allow below the threshold: a
    kept weight of 0 is more than SUM_TOLERANCE off 1, so it is returned
    as the divisor, which is the refusal."""
    total = _left_sum(kept)  # one sum serves the no-conflict test and the divisor
    if k >= 1.0 - CONFLICT_EPSILON:
        return 0.0
    # Divide by the kept weight itself instead of 1-k.  Equal in exact
    # arithmetic, but near the refusal threshold the cancellation noise in k
    # is amplified by the tiny denominator; the complementary sum keeps the
    # result summing to 1 for every admissible k.  Only with no conflict and
    # a kept weight within SUM_TOLERANCE of 1 is 1.0 returned (it divides no
    # bit), so the step stays bit-exact (vacuous stays neutral); any other
    # input is divided, so every valid input gives a valid result.
    if k == 0.0 and abs(total - 1.0) <= SUM_TOLERANCE:
        return 1.0
    return total


def _normalize(
    frame: Frame, products: dict[int, float], k: float, step: int | None
) -> MassFunction:
    """Dempster's normalization of one step's cross product by :func:`_step_divisor`.

    Takes ownership of ``products``, which may become the result's own dict:
    products in ascending mask order are not copied, others are rebuilt."""
    masks = sorted(products)
    if masks != list(products):
        products = {mask: products[mask] for mask in masks}
    divisor = _step_divisor(products.values(), k)
    if not divisor:
        raise TotalConflictError(k, step=step)
    if divisor != 1.0:
        products = {mask: p / divisor for mask, p in products.items()}
    return MassFunction._from_mask_dict(frame, products)


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


def _check_cap(step_no: int, cells: int) -> None:
    if cells > FOLD_CELL_CAP:
        raise ExplosionGuardError(
            f"step {step_no} would cross {cells} focal pairs, "
            f"over the cap of {FOLD_CELL_CAP}"
        )


def _fold_steps(
    sources: Sequence[MassFunction],
) -> Iterator[tuple[MassFunction, float | None]]:
    """The one fold loop: the first source with None, then each step's
    normalized result with its k, left to right.

    Step i combines the accumulated result with source i+1 and renormalizes,
    exactly like working through the combination tables one by one.  Between
    steps the loop keeps only the current result, so a caller that keeps no
    more holds at most the previous result, the step's products and the new
    result.  A step over ``FOLD_CELL_CAP`` focal pairs raises
    :class:`ExplosionGuardError` before it starts.
    """
    frame = _common_frame(sources)
    acc = sources[0]
    yield acc, None
    for step_no, source in enumerate(sources[1:], start=1):
        _check_cap(step_no, len(acc._masses) * len(source._masses))
        products, k = _cross(acc, source)
        acc = _normalize(frame, products, k, step=step_no)
        del products  # not kept past its step
        yield acc, k


def fuse_all(sources: Sequence[MassFunction]) -> FusionReport:
    """Fold sources left to right, recording each step's result and conflict.

    A step over ``FOLD_CELL_CAP`` focal pairs raises
    :class:`ExplosionGuardError` before it starts."""
    # Unpacked from a list: a tuple built from a generator is resized and
    # strands blocks on CPython's free lists.
    results, ks = zip(*list(_fold_steps(sources)))
    return FusionReport(tuple(sources), results, ks[1:])


def _fold_rows(
    frame: Frame, focals: Sequence[int], weights: Sequence[Sequence[float]]
) -> list[tuple[MassFunction, tuple[float, ...]] | EvidenceError | None]:
    """:func:`fuse_all` of each row's simple supports, each step's focal
    structure derived once.

    Source i of a row is the simple support on focal mask ``focals[i]`` with
    the row's weight i, a float in (0, 1], read as the w and 1.0 - w that
    :meth:`MassFunction.simple_support` stores, so no support is built.
    Returns, per row, its final mass function and per-step k, the
    :class:`EvidenceError` that refused it, or None (see below).

    Which focal B lies within C, meets it or is disjoint from it depends on
    the focals alone.  So each step is derived once, on the structure that
    every row would have with a Θ in each source, and each row replays only
    the float operations of :func:`_cross` in their order, then applies
    :func:`_step_divisor` to its mask-order slots: an own row (B within C)
    is x*w + x*r, an intersection adds x*w onto its slot in row order (a new
    slot from 0.0, and 0.0 + p == p), and k adds x*w in row order from 0.0.
    A focal that a row lacks (a source of weight 1.0 has no Θ; a product
    may underflow) is carried as 0.0: x*1.0 + x*0.0 == x, and adding 0.0
    changes no sum, compensated or not.  ``MassFunction._from_mask_dict``
    drops the zeros, so every output is bit for bit that of :func:`fuse_all`.

    The shared structure holds every row's focals, so while it stays
    within ``FOLD_CELL_CAP`` so does every row.  At the first step where it
    would not, each row still folding is held to the cap on its own focal
    count, and any row still under the cap (only zeros can keep it there)
    comes back as None, for the caller to fold on its supports.
    """
    full = frame._full_mask
    masks = [focals[0], full]
    values = [[row[0], 1.0 - row[0]] for row in weights]
    ks: list[list[float]] = [[] for _ in weights]
    out: list = [None] * len(weights)
    live = list(range(len(weights)))
    for step, c in enumerate(focals[1:], start=1):
        if 2 * len(masks) > FOLD_CELL_CAP:
            for r in live:
                x, row = values[r], weights[r]
                try:
                    _check_cap(step, (len(x) - x.count(0.0)) * (1 if row[step] == 1.0 else 2))
                except EvidenceError as exc:
                    out[r] = exc
            live = []
            break
        # Slot mask -> (first row, kind): 0 starts at the row's x*r, 1 (an
        # own row, B within C) at x*w + x*r, 2 (a new slot) at the row's x*w.
        plan: dict[int, tuple[int, int]] = {}
        new, adds, disjoint = [], [], []
        for i, b in enumerate(masks):
            inter = b & c
            if inter == b:
                plan[b] = i, 1
                continue
            plan[b] = i, 0
            if not inter:
                disjoint.append(i)
            elif inter in plan:  # an earlier row's mask, or a new slot
                adds.append((inter, i))
            else:
                plan[inter] = i, 2
                new.append(inter)
        if new:
            masks = sorted(masks + new)
        order = [plan[mask] for mask in masks]
        adds = [(bisect_left(masks, mask), i) for mask, i in adds]
        still = []
        for r in live:
            w = weights[r][step]
            rest = 1.0 - w
            x = values[r]
            y = [
                x[i] * rest if kind == 0 else x[i] * w + x[i] * rest if kind == 1 else x[i] * w
                for i, kind in order
            ]
            for j, i in adds:
                y[j] += x[i] * w
            k = 0.0
            for i in disjoint:
                k += x[i] * w
            divisor = _step_divisor(y, k)
            if not divisor:
                out[r] = TotalConflictError(k, step=step)
                continue
            if divisor != 1.0:
                y = [v / divisor for v in y]
            values[r] = y
            ks[r].append(k)
            still.append(r)
        live = still
        if not live:
            break
    for r in live:
        out[r] = MassFunction._from_mask_dict(frame, dict(zip(masks, values[r]))), tuple(ks[r])
    return out


def fold(sources: Sequence[MassFunction]) -> MassFunction:
    """The final mass of :func:`fuse_all`, from a fold that keeps one step at a time."""
    for final, _ in _fold_steps(sources):
        pass
    return final


def oracle_fuse_all(sources: Sequence[MassFunction]) -> MassFunction:
    """The same fusion in exact integer arithmetic, normalized once.

    Each source's masses are read exactly as the decimals they print as
    (:func:`~dsfusion.mass._shortest_decimal`), so ordinary decimal inputs
    are exact, and scaled to integers at that source's lowest power of ten.
    The un-normalized products are folded source by source onto non-empty
    intersections (Dempster's rule distributes over the sum), and divided by
    their total only at the end.  A step over ``FOLD_CELL_CAP`` focal pairs
    raises :class:`ExplosionGuardError`, as in :func:`fuse_all`.
    """
    frame = _common_frame(sources)
    acc = {frame._full_mask: 1}
    for step_no, source in enumerate(sources):
        exact = [(mask, *_shortest_decimal(mass)) for mask, mass in source.mask_items()]
        low = min(e for _, _, e in exact)
        right = [(mask, n * 10 ** (e - low)) for mask, n, e in exact]
        _check_cap(step_no, len(acc) * len(right))
        crossed: dict[int, int] = {}
        for b, nb in acc.items():
            for c, nc in right:
                if inter := b & c:
                    crossed[inter] = crossed.get(inter, 0) + nb * nc
        acc = crossed
    total = sum(acc.values())
    if total == 0:
        raise TotalConflictError(1.0)
    # Int true division rounds the exact ratio once, perhaps to 0.0.
    return MassFunction._from_mask_dict(frame, {mask: acc[mask] / total for mask in sorted(acc)})
