"""Kick-direction prediction scenarios.

A :class:`Scenario` bundles a frame of directions, an ordered list of motion
evidence sources (each supporting one subset of directions), and a weight
matrix: one row per condition, one weight per motion.  Predicting a condition
folds each motion's simple support function (its direction, weighted) with
Dempster's rule and picks the direction subset with the highest combined mass.

The built-in ``takraw`` scenario models the start kick of a sepak-takraw
bicycle kick: four directions (F front, L left, R right, B back), ten body
motions, nine weighting conditions.  Every computation here runs at full
double precision.  Hand-worked two-decimal versions of this scenario circulate
with step-by-step rounding; that rounding compounds badly, so their headline
numbers (for example "back = 0.9" under condition 1) are not reproducible.
Exact evaluation gives back = 0.4999 under condition 1, and under condition 9
the winner is back (0.5527) rather than the front sometimes quoted; see the
README for the full comparison.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from .errors import (
    ConditionOutOfRangeError,
    EvidenceError,
    FusionError,
    MassError,
    ValidationError,
)
from .frame import Frame, Subset, _encodable
from .fusion import FusionReport, _fold_rows, _fold_steps, fuse_all
from .mass import MassFunction, _checked_support, _plain_weights


class Motion(NamedTuple):
    """One evidence source: a named motion supporting a direction subset."""

    name: str
    direction: Subset


class Scenario:
    """Motions plus a [condition][motion] weight matrix over one frame, kept
    as floats; :func:`evidence_for` builds a condition's simple supports."""

    __slots__ = ("_frame", "_motions", "_weights")

    def __init__(
        self,
        frame: Frame,
        motions: Sequence[Motion],
        bpa: Sequence[Sequence[float]],
    ):
        if not motions:
            raise ValidationError("a scenario needs at least one motion")
        # emit_scenario must write every label and name as UTF-8 JSON text.
        for name in (*frame.labels, *(motion.name for motion in motions)):
            if not isinstance(name, str) or not _encodable(name):
                raise ValidationError(
                    f"label or name {name!r} must be a string without lone surrogates"
                )
        # Output keys join a subset's labels with "+", so a "+" would collide.
        for label in frame.labels:
            if "+" in label:
                raise ValidationError(f"label {label!r} must not contain '+'")
        names = set()
        for motion in motions:
            frame.check_same(motion.direction.frame)
            if motion.name in names:
                raise ValidationError(f"duplicate motion name {motion.name!r}")
            names.add(motion.name)
        # Each cell is checked as simple_support checks it; once the first row
        # has passed every focal, a row of floats in (0, 1] is kept as is.
        weights = []
        try:
            rows = tuple(bpa)
        except TypeError as exc:
            raise ValidationError(f"bpa {bpa!r} is not a sequence of rows") from exc
        for c, row in enumerate(rows, start=1):
            try:
                row = tuple(row)
            except TypeError as exc:
                raise ValidationError(f"condition {c} is {row!r}, not a row") from exc
            if len(row) != len(motions):
                raise ValidationError(
                    f"condition {c} has {len(row)} weights for {len(motions)} motions"
                )
            if not (weights and _plain_weights(row)):
                checked = []
                for motion, w in zip(motions, row):
                    try:
                        checked.append(_checked_support(motion.direction, w)[1])
                    except MassError as exc:
                        raise ValidationError(
                            f"motion {motion.name!r} in condition {c}: {exc}"
                        ) from exc
                row = tuple(checked)
            weights.append(row)
        if not weights:
            raise ValidationError("a scenario needs at least one condition")
        self._frame = frame
        self._motions = tuple(motions)
        self._weights = tuple(weights)

    @property
    def frame(self) -> Frame:
        return self._frame

    @property
    def motions(self) -> tuple[Motion, ...]:
        return self._motions

    @property
    def bpa(self) -> tuple[tuple[float, ...], ...]:
        """Weights indexed [condition][motion], conditions in order."""
        return self._weights

    @property
    def condition_count(self) -> int:
        return len(self._weights)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same labels, motions and weights.

        Subsets match only within one frame object, but two scenarios parsed
        from the same document must compare equal, so this compares labels,
        not frames.
        """
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self._frame.labels == other._frame.labels
            and self.bpa == other.bpa
            and [(m.name, m.direction.labels) for m in self._motions]
            == [(m.name, m.direction.labels) for m in other._motions]
        )

    def __repr__(self) -> str:
        return (
            f"Scenario({len(self._motions)} motions, "
            f"{self.condition_count} conditions, frame {self._frame!r})"
        )


class Prediction(NamedTuple):
    """The fusion outcome for one condition."""

    condition: int
    final: MassFunction
    winner: Subset
    winner_mass: float
    winner_belief: float
    winner_plausibility: float
    steps_conflict: tuple[float, ...]


class SweepFailure(NamedTuple):
    """A condition whose fold could not finish (kept so a sweep never aborts)."""

    condition: int
    error: EvidenceError


# Built-in sepak-takraw start-kick scenario: per motion, the supported
# direction subset and the weights for conditions 1..9.
_TAKRAW_LABELS = ("F", "L", "R", "B")
_TAKRAW_MOTIONS: tuple[tuple[str, tuple[str, ...], tuple[float, ...]], ...] = (
    ("left foot moves to front", ("F",),
     (0.75, 0.55, 0.55, 0.55, 0.45, 0.45, 0.45, 0.45, 0.45)),
    ("right foot moves to front", ("F",),
     (0.75, 0.75, 0.55, 0.45, 0.45, 0.45, 0.45, 0.45, 0.65)),
    ("right hand moves to front", ("F",),
     (0.55, 0.55, 0.45, 0.45, 0.45, 0.45, 0.45, 0.65, 0.65)),
    ("left hand moves to front", ("F",),
     (0.55, 0.45, 0.45, 0.45, 0.45, 0.45, 0.65, 0.65, 0.75)),
    ("left foot turning left", ("L", "B"),
     (0.45, 0.45, 0.45, 0.45, 0.65, 0.65, 0.65, 0.75, 0.75)),
    ("right foot turning left", ("L", "B"),
     (0.45, 0.45, 0.45, 0.65, 0.65, 0.75, 0.75, 0.55, 0.55)),
    ("left foot turning right", ("R", "B"),
     (0.45, 0.45, 0.65, 0.65, 0.75, 0.75, 0.55, 0.55, 0.45)),
    ("right foot turning right", ("R", "B"),
     (0.45, 0.65, 0.65, 0.75, 0.75, 0.55, 0.55, 0.45, 0.45)),
    ("left foot turning back", ("B",),
     (0.65, 0.65, 0.75, 0.75, 0.55, 0.55, 0.45, 0.45, 0.45)),
    ("right foot turning back", ("B",),
     (0.65, 0.75, 0.75, 0.55, 0.55, 0.45, 0.45, 0.45, 0.45)),
)


def _from_sources(labels: Sequence[str], sources: Sequence[tuple]) -> Scenario:
    """A scenario from the paper's per-source layout, which the JSON document
    keeps: (name, focal labels, weights) rows whose weights, one per
    condition and all of one length, transpose to per-condition rows."""
    frame = Frame(labels)
    motions = [Motion(name, frame.subset(focal)) for name, focal, _ in sources]
    return Scenario(frame, motions, list(zip(*[weights for _, _, weights in sources])))


def builtin_takraw_scenario() -> Scenario:
    """The bundled 10-motion, 9-condition bicycle-kick scenario."""
    return _from_sources(_TAKRAW_LABELS, _TAKRAW_MOTIONS)


def evidence_for(scenario: Scenario, condition: int) -> list[MassFunction]:
    """The simple supports of a 1-based condition, in motion order, built on
    each call; :func:`sweep` folds the weights and, below the fold cap, builds none."""
    if type(condition) is not int or not 1 <= condition <= scenario.condition_count:
        raise ConditionOutOfRangeError(
            f"condition {condition!r} outside 1..{scenario.condition_count}"
        )
    return [
        MassFunction.simple_support(motion.direction, w)
        for motion, w in zip(scenario._motions, scenario._weights[condition - 1])
    ]


def select_winner(final: MassFunction) -> Subset:
    """The predicted direction subset: argmax mass over proper non-empty focals.

    The full frame never wins (total ignorance is not a direction).  Exact
    ties go to the higher belief, then to the lower subset mask.  Masks
    ascend, so Θ, if it is a focal element, is the last one and is dropped
    before the maximum is taken.

    Belief is O(focals), so it is evaluated only on a tie, and only for the
    tied focals that no other tied focal contains: a tied A inside a tied A'
    always has the lower float belief.  In mask order, bel(A') adds every
    term of bel(A), other positive terms, and last m(A').  Float addition is
    monotone, so the sum before m(A') is at least bel(A) >= m(A); as every
    term is at most m(A) == m(A') and a mass function has far fewer than
    2**51 focals, adding m(A') then raises it.  The tied masks are scanned
    by descending size against the maximal ones found so far, so the work is
    tied x maximal mask tests and maximal x focals belief terms.
    """
    frame = final.frame
    masks = list(final._masses)
    masses = list(final._masses.values())
    if masks[-1] == frame._full_mask:
        del masks[-1], masses[-1]
    if not masses:
        raise FusionError("no proper focal element to choose a winner from")
    top = max(masses)
    if masses.count(top) == 1:
        return frame.subset_from_mask(masks[masses.index(top)])
    tied = [mask for mask, m in zip(masks, masses) if m == top]
    maximal: list[int] = []
    for mask in sorted(tied, key=int.bit_count, reverse=True):
        if all(mask & ~other for other in maximal):
            maximal.append(mask)
    return max(map(frame.subset_from_mask, maximal), key=lambda s: (final.belief(s), -s.mask))


def _prediction(
    condition: int, final: MassFunction, steps_conflict: tuple[float, ...]
) -> Prediction:
    winner = select_winner(final)
    return Prediction(
        condition=condition,
        final=final,
        winner=winner,
        winner_mass=final.mass(winner),
        winner_belief=final.belief(winner),
        winner_plausibility=final.plausibility(winner),
        steps_conflict=steps_conflict,
    )


def prediction_from_report(report: FusionReport, condition: int) -> Prediction:
    """Summarize a finished fold: winner plus its mass, belief, plausibility."""
    return _prediction(condition, report.final, report.per_step_conflict)


def predict(scenario: Scenario, condition: int) -> Prediction:
    """Fuse one condition's evidence and pick the winning direction.

    The fold is :func:`fusion_report`'s, but it keeps only the current
    result and each step's k, so the prediction is
    ``prediction_from_report(fusion_report(scenario, condition), condition)``.
    """
    ks = []
    for final, k in _fold_steps(evidence_for(scenario, condition)):
        ks.append(k)
    return _prediction(condition, final, tuple(ks[1:]))


def fusion_report(scenario: Scenario, condition: int) -> FusionReport:
    """The fold of one condition; its per-step traces are built on demand."""
    return fuse_all(evidence_for(scenario, condition))


def sweep(scenario: Scenario) -> list[Prediction | SweepFailure]:
    """Predict every condition in order; failures are collected, not raised.

    Each result is the one :func:`predict` gives for its condition, bit for
    bit, but the conditions are folded together from the weights alone, on
    one focal structure per step (``fusion._fold_rows``), each step by the
    rule of ``fusion._step_divisor``.  A condition that ``_fold_rows`` leaves
    unfolded (only the shared structure passed the cap) is folded by :func:`predict`.
    """
    results: list[Prediction | SweepFailure] = []
    focals = [motion.direction.mask for motion in scenario._motions]
    folds = _fold_rows(scenario._frame, focals, scenario._weights)
    for condition, folded in enumerate(folds, start=1):
        try:
            if isinstance(folded, EvidenceError):
                raise folded
            results.append(
                predict(scenario, condition) if folded is None else _prediction(condition, *folded)
            )
        except EvidenceError as exc:
            # The traceback would pin every frame of the failed fold (and
            # this one, a cycle) for as long as the results are held.
            results.append(SweepFailure(condition, exc.with_traceback(None)))
    return results
