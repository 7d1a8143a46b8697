"""Kick-direction prediction scenarios.

A :class:`Scenario` bundles a frame of directions, an ordered list of motion
evidence sources (each supporting one subset of directions), and a weight
matrix: one row per condition, one weight per motion.  Predicting a condition
turns every motion into a simple support function, folds them with Dempster's
rule, and picks the direction subset with the highest combined mass.

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
from dataclasses import dataclass

from .errors import ConditionOutOfRangeError, EvidenceError, ValidationError
from .frame import Frame, Subset
from .fusion import FusionReport, fuse_all
from .mass import MassFunction


@dataclass(frozen=True, slots=True)
class Motion:
    """One evidence source: a named motion supporting a direction subset."""

    name: str
    direction: Subset


class Scenario:
    """Motions plus a [condition][motion] weight matrix over one frame."""

    __slots__ = ("_frame", "_motions", "_bpa")

    def __init__(
        self,
        frame: Frame,
        motions: Sequence[Motion],
        bpa: Sequence[Sequence[float]],
    ):
        if not motions:
            raise ValidationError("a scenario needs at least one motion")
        names = set()
        for motion in motions:
            frame.check_same(motion.direction.frame)
            if motion.direction.is_empty:
                raise ValidationError(f"motion {motion.name!r} has an empty direction")
            if motion.direction.is_full:
                raise ValidationError(
                    f"motion {motion.name!r} supports the whole frame; "
                    "a motion must commit to a proper subset"
                )
            if motion.name in names:
                raise ValidationError(f"duplicate motion name {motion.name!r}")
            names.add(motion.name)
        rows = tuple(tuple(float(w) for w in row) for row in bpa)
        if not rows:
            raise ValidationError("a scenario needs at least one condition")
        for c, row in enumerate(rows, start=1):
            if len(row) != len(motions):
                raise ValidationError(
                    f"condition {c} has {len(row)} weights for {len(motions)} motions"
                )
            for motion, w in zip(motions, row):
                if not 0.0 < w <= 1.0:
                    raise ValidationError(
                        f"weight {w!r} for {motion.name!r} in condition {c} "
                        "is outside (0, 1]"
                    )
        self._frame = frame
        self._motions = tuple(motions)
        self._bpa = rows

    @property
    def frame(self) -> Frame:
        return self._frame

    @property
    def motions(self) -> tuple[Motion, ...]:
        return self._motions

    @property
    def bpa(self) -> tuple[tuple[float, ...], ...]:
        """Weights indexed [condition][motion], conditions in order."""
        return self._bpa

    @property
    def condition_count(self) -> int:
        return len(self._bpa)

    def __eq__(self, other: object) -> bool:
        """Structural equality: same labels, motions and weights.

        Frames keep identity semantics for subset compatibility, but two
        scenarios parsed from the same document must compare equal, so this
        compares content, not frame tokens.
        """
        if not isinstance(other, Scenario):
            return NotImplemented
        return (
            self._frame.labels == other._frame.labels
            and self._bpa == other._bpa
            and [(m.name, m.direction.labels) for m in self._motions]
            == [(m.name, m.direction.labels) for m in other._motions]
        )

    def __repr__(self) -> str:
        return (
            f"Scenario({len(self._motions)} motions, "
            f"{self.condition_count} conditions, frame {self._frame!r})"
        )


@dataclass(frozen=True, slots=True)
class Prediction:
    """The fusion outcome for one condition."""

    condition: int
    final: MassFunction
    winner: Subset
    winner_mass: float
    winner_belief: float
    winner_plausibility: float
    steps_conflict: tuple[float, ...]


@dataclass(frozen=True, slots=True)
class SweepFailure:
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


def builtin_takraw_scenario() -> Scenario:
    """The bundled 10-motion, 9-condition bicycle-kick scenario."""
    frame = Frame(_TAKRAW_LABELS)
    motions = [
        Motion(name, frame.subset(direction))
        for name, direction, _ in _TAKRAW_MOTIONS
    ]
    condition_count = len(_TAKRAW_MOTIONS[0][2])
    bpa = [
        tuple(weights[c] for _, _, weights in _TAKRAW_MOTIONS)
        for c in range(condition_count)
    ]
    return Scenario(frame, motions, bpa)


def _check_condition(scenario: Scenario, condition: int) -> None:
    if not 1 <= condition <= scenario.condition_count:
        raise ConditionOutOfRangeError(
            f"condition {condition} outside 1..{scenario.condition_count}"
        )


def evidence_for(scenario: Scenario, condition: int) -> list[MassFunction]:
    """One simple support function per motion, in motion order (1-based condition)."""
    _check_condition(scenario, condition)
    row = scenario.bpa[condition - 1]
    return [
        MassFunction.simple_support(motion.direction, weight)
        for motion, weight in zip(scenario.motions, row)
    ]


def select_winner(final: MassFunction) -> Subset:
    """The predicted direction subset: argmax mass over proper non-empty focals.

    The full frame never wins (total ignorance is not a direction).  Exact
    ties go to the higher belief, then to the lower subset mask.
    """
    full = final.frame.full.mask
    eligible = [(mask, m) for mask, m in final.mask_items() if mask != full]
    if not eligible:
        raise ValidationError("no proper focal element to choose a winner from")
    top = max(m for _, m in eligible)
    # Belief is O(focals), so it is only evaluated for masks tied at the top.
    tied = [final.frame.subset_from_mask(mask) for mask, m in eligible if m == top]
    return max(tied, key=lambda s: (final.belief(s), -s.mask))


def prediction_from_report(report: FusionReport, condition: int) -> Prediction:
    """Summarize a finished fold: winner plus its mass, belief, plausibility."""
    final = report.final
    winner = select_winner(final)
    return Prediction(
        condition=condition,
        final=final,
        winner=winner,
        winner_mass=final.mass(winner),
        winner_belief=final.belief(winner),
        winner_plausibility=final.plausibility(winner),
        steps_conflict=report.per_step_conflict,
    )


def predict(scenario: Scenario, condition: int) -> Prediction:
    """Fuse one condition's evidence and pick the winning direction."""
    return prediction_from_report(fusion_report(scenario, condition), condition)


def fusion_report(scenario: Scenario, condition: int) -> FusionReport:
    """The fold of one condition; its per-step traces are built on demand."""
    return fuse_all(evidence_for(scenario, condition))


def sweep(scenario: Scenario) -> list[Prediction | SweepFailure]:
    """Predict every condition in order; failures are collected, not raised."""
    results: list[Prediction | SweepFailure] = []
    for condition in range(1, scenario.condition_count + 1):
        try:
            results.append(predict(scenario, condition))
        except EvidenceError as exc:
            results.append(SweepFailure(condition, exc))
    return results
