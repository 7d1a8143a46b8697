"""Shared builders for the test suite: randomized inputs, reference rules and
a fresh interpreter.

Every randomized builder takes a random.Random so individual tests stay reproducible.
Masses are built from integer grids, keeping values exactly representable
enough that sums land within normalization tolerance.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from dsfusion import (
    Frame,
    FusionError,
    MassFunction,
    Motion,
    Scenario,
    Subset,
    TotalConflictError,
)

ROOT = Path(__file__).resolve().parents[1]


def fresh_interpreter(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a new ``python -S`` on this checkout's ``src``.

    -S: site would preload modules of its own and hide what dsfusion loads.
    """
    return subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )


def random_mass(rng: random.Random, frame: Frame, max_focals: int = 4) -> MassFunction:
    """A random normalized mass function with 1..max_focals non-empty focals."""
    n_subsets = (1 << len(frame)) - 1
    count = rng.randint(1, min(max_focals, n_subsets))
    masks = rng.sample(range(1, n_subsets + 1), count)
    # integer weights ensure the float masses sum to exactly 1.0 after division
    weights = [rng.randint(1, 1000) for _ in masks]
    total = sum(weights)
    entries = {
        frame.subset_from_mask(mask): weight / total
        for mask, weight in zip(masks, weights)
    }
    return MassFunction(frame, entries)


def random_simple_masses(
    rng: random.Random, frame: Frame, count: int
) -> list[MassFunction]:
    """Simple support functions with overlapping focals (never total conflict)."""
    n_subsets = (1 << len(frame)) - 1
    masses = []
    for _ in range(count):
        mask = rng.randrange(1, n_subsets)
        weight = rng.randint(1, 99) / 100
        masses.append(
            MassFunction.simple_support(frame.subset_from_mask(mask), weight)
        )
    return masses


def random_scenario(rng: random.Random) -> Scenario:
    """A small random scenario: 2..5 labels, 1..6 motions, 1..4 conditions."""
    size = rng.randint(2, 5)
    labels = [f"h{i}" for i in range(size)]
    frame = Frame(labels)
    n_subsets = (1 << size) - 1

    motions = []
    for i in range(rng.randint(1, 6)):
        mask = rng.randrange(1, n_subsets)
        motions.append(Motion(f"motion {i}", frame.subset_from_mask(mask)))

    conditions = rng.randint(1, 4)
    bpa = [
        tuple(rng.randint(1, 100) / 100 for _ in motions)
        for _ in range(conditions)
    ]
    return Scenario(frame, motions, bpa)


def reference_cross(
    m1: MassFunction, m2: MassFunction
) -> tuple[dict[int, float], float]:
    """The plain left-major double loop the fold kernel must match bit for bit.

    Every focal pair is intersected, left focal ascending then right focal
    ascending, and its product summed onto the intersection or into k.
    """
    acc: dict[int, float] = {}
    k = 0.0
    for b, mb in m1.mask_items():
        for c, mc in m2.mask_items():
            inter = b & c
            p = mb * mc
            if inter:
                acc[inter] = acc.get(inter, 0.0) + p
            else:
                k += p
    return acc, k


def reference_winner(final: MassFunction) -> Subset:
    """The predicted direction subset: argmax mass over proper non-empty focals.

    The full frame never wins (total ignorance is not a direction).  Exact
    ties go to the higher belief, then to the lower subset mask.
    """
    full = final.frame._full_mask
    eligible = [(mask, m) for mask, m in final.mask_items() if mask != full]
    if not eligible:
        raise FusionError("no proper focal element to choose a winner from")
    top = max(m for _, m in eligible)
    # Belief is O(focals), so it is only evaluated when masks tie at the top.
    tied = [final.frame.subset_from_mask(mask) for mask, m in eligible if m == top]
    return tied[0] if len(tied) == 1 else max(tied, key=lambda s: (final.belief(s), -s.mask))


def reference_oracle(sources: list[MassFunction]) -> MassFunction:
    """The n-way enumeration oracle_fuse_all must equal exactly.

    Enumerates every tuple of focal elements (one per source), accumulates
    the product of their masses onto the tuple's intersection, discards
    empty-intersection weight, and normalizes once at the end, in exact
    rational arithmetic.  Exponential in the number of sources: small inputs
    only.
    """
    frame = sources[0].frame
    rational = [
        [(mask, Fraction(repr(mass))) for mask, mass in m.mask_items()]
        for m in sources
    ]
    full_mask = frame.full.mask
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


def doubling_document() -> str:
    """A one-condition scenario document whose fold doubles its focal count.

    64 labels and 22 sources; each supports 60 labels at weight 0.5.  Source
    i leaves out label i, which every other source keeps, and three of the
    labels 22..63.  So the first n sources (n <= 18) intersect in 2**n
    distinct non-empty sets, and fuse_all's step n crosses 2**(n + 1) focal
    pairs: step 17 exactly FOLD_CELL_CAP, step 18 twice that.
    """
    labels = [f"h{i}" for i in range(64)]
    sources = []
    for i in range(22):
        left_out = {i, *(22 + (3 * i + j) % 42 for j in range(3))}
        focal = [label for n, label in enumerate(labels) if n not in left_out]
        sources.append({"name": f"s{i}", "focal": focal, "bpa": [0.5]})
    return json.dumps({"frame": labels, "sources": sources})
