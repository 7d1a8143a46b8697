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
from typing import NamedTuple

from .errors import (
    ConditionOutOfRangeError,
    EvidenceError,
    MassError,
    ValidationError,
)
from .frame import Frame, Subset
from .fusion import FusionReport, fuse_all
from .mass import MassFunction


def _encodable(text: str) -> bool:
    """False if ``text`` holds a lone surrogate such as "\\ud800" (JSON admits
    one, UTF-8 cannot carry it)."""
    return text.isascii() or not any("\ud800" <= ch <= "\udfff" for ch in text)


class Motion(NamedTuple):
    """One evidence source: a named motion supporting a direction subset."""

    name: str
    direction: Subset


class Scenario:
    """Motions plus a [condition][motion] weight matrix over one frame."""

    __slots__ = ("_frame", "_motions", "_bpa", "_evidence")

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
        # simple_support owns the rules: a proper non-empty focal, a weight in (0, 1].
        evidence = []
        for c, row in enumerate(bpa, start=1):
            row = tuple(row)
            if len(row) != len(motions):
                raise ValidationError(
                    f"condition {c} has {len(row)} weights for {len(motions)} motions"
                )
            supports = []
            for motion, w in zip(motions, row):
                try:
                    supports.append(MassFunction.simple_support(motion.direction, w))
                except MassError as exc:
                    raise ValidationError(
                        f"motion {motion.name!r} in condition {c}: {exc}"
                    ) from exc
            evidence.append(tuple(supports))
        if not evidence:
            raise ValidationError("a scenario needs at least one condition")
        self._frame = frame
        self._motions = tuple(motions)
        self._evidence = tuple(evidence)
        # A simple support's mass on its focal is the converted weight exactly.
        self._bpa = tuple([
            tuple([m.mass(motion.direction) for motion, m in zip(motions, row)])
            for row in evidence
        ])

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
    return Scenario(frame, motions, list(zip(*(weights for _, _, weights in sources))))


def builtin_takraw_scenario() -> Scenario:
    """The bundled 10-motion, 9-condition bicycle-kick scenario."""
    return _from_sources(_TAKRAW_LABELS, _TAKRAW_MOTIONS)


def evidence_for(scenario: Scenario, condition: int) -> list[MassFunction]:
    """The simple supports ``Scenario(...)`` built for a 1-based condition, in
    motion order (shared, since a :class:`MassFunction` cannot be changed)."""
    if type(condition) is not int or not 1 <= condition <= scenario.condition_count:
        raise ConditionOutOfRangeError(
            f"condition {condition!r} outside 1..{scenario.condition_count}"
        )
    return list(scenario._evidence[condition - 1])


def select_winner(final: MassFunction) -> Subset:
    """The predicted direction subset: argmax mass over proper non-empty focals.

    The full frame never wins (total ignorance is not a direction).  Exact
    ties go to the higher belief, then to the lower subset mask.
    """
    full = final.frame._full_mask
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
            # The traceback would pin every frame of the failed fold (and
            # this one, a cycle) for as long as the results are held.
            results.append(SweepFailure(condition, exc.with_traceback(None)))
    return results
