"""Exception hierarchy for the dsfusion package.

Everything raised on purpose derives from :class:`EvidenceError`, so callers
can catch one base class at an API boundary.  The CLI maps these onto exit
codes (see ``dsfusion.cli``).
"""

from __future__ import annotations


class EvidenceError(Exception):
    """Base class for all dsfusion errors."""


# --- frame construction and set algebra ------------------------------------

class FrameError(EvidenceError):
    """Invalid frame of discernment or subset usage."""


class EmptyFrameError(FrameError):
    """A frame needs at least one hypothesis label."""


class FrameTooLargeError(FrameError):
    """More labels than the 64-hypothesis cap."""


class DuplicateLabelError(FrameError):
    """The same label appears twice in a frame."""


class EmptyLabelError(FrameError):
    """A frame label is the empty string."""


class UnknownLabelError(FrameError):
    """A label does not belong to the frame."""


class FrameMismatchError(FrameError):
    """Two values built on different frames were mixed."""


# --- mass function construction ---------------------------------------------

class MassError(EvidenceError):
    """Invalid basic probability assignment."""


class NotNormalizedError(MassError):
    """Masses do not sum to one within tolerance."""


class NegativeMassError(MassError):
    """A mass value is negative."""


class EmptySetMassError(MassError):
    """Positive mass was assigned to the empty set."""


class EmptyFocalError(MassError):
    """A simple support function needs a non-empty focal set."""


class WeightOutOfRangeError(MassError):
    """A support weight must lie in (0, 1]."""


class FocalIsFullFrameError(MassError):
    """A simple support focal must be a proper subset of the frame."""


# --- combination -------------------------------------------------------------

class FusionError(EvidenceError):
    """Evidence combination failure."""


class TotalConflictError(FusionError):
    """The evidences cannot be combined: their cores are disjoint.

    ``conflict`` carries the measured conflict weight; ``step`` is the
    1-based combination step at which a sequential fold failed, or ``None``
    for a direct pairwise combination.
    """

    def __init__(self, conflict: float, step: int | None = None):
        self.conflict = conflict
        self.step = step
        where = f" at step {step}" if step is not None else ""
        super().__init__(f"total conflict{where} (k = {conflict!r})")


class ExplosionGuardError(FusionError):
    """A fold step would exceed its size cap.

    ``fuse_all`` (and so ``fold``, ``predict`` and ``sweep``) and
    ``oracle_fuse_all`` raise it for a step that would cross more than
    ``FOLD_CELL_CAP`` focal pairs.
    """


class EmptyInputError(FusionError):
    """At least one mass function is required."""


# --- scenario ----------------------------------------------------------------

class ConditionOutOfRangeError(EvidenceError):
    """Condition index outside 1..condition_count."""


# --- scenario documents -------------------------------------------------------

class DocumentError(EvidenceError):
    """Invalid scenario document."""


class ParseError(DocumentError):
    """The document text is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class SchemaError(DocumentError):
    """The document does not match the scenario schema."""


class ValidationError(DocumentError):
    """The document is well-formed but semantically invalid."""
