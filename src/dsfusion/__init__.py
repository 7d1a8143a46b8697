"""Dempster-Shafer evidence fusion over finite frames of discernment.

Build a :class:`Frame` of hypotheses, assign basic probability to its
subsets with :class:`MassFunction`, and pool independent evidence with
Dempster's rule (:func:`combine`, :func:`fuse_all`).  The bundled sepak
takraw scenario predicts bicycle-kick directions from body-motion evidence;
``dsfusion --help`` exposes the same pipeline on the command line.

>>> from dsfusion import Frame, MassFunction, combine
>>> frame = Frame(["F", "L", "R", "B"])
>>> m1 = MassFunction.simple_support(frame.subset(["F"]), 0.75)
>>> m2 = MassFunction.simple_support(frame.subset(["F"]), 0.75)
>>> round(combine(m1, m2)[frame.subset(["F"])], 4)
0.9375
"""

from .document import emit_scenario, parse_scenario, scenario_digest
from .errors import (
    ConditionOutOfRangeError,
    DocumentError,
    DuplicateLabelError,
    EmptyFocalError,
    EmptyFrameError,
    EmptyInputError,
    EmptyLabelError,
    EmptySetMassError,
    EvidenceError,
    ExplosionGuardError,
    FocalIsFullFrameError,
    FrameError,
    FrameMismatchError,
    FrameTooLargeError,
    FusionError,
    MassError,
    NegativeMassError,
    NotNormalizedError,
    ParseError,
    SchemaError,
    TotalConflictError,
    UnknownLabelError,
    ValidationError,
    WeightOutOfRangeError,
)
from .frame import MAX_FRAME_SIZE, Frame, Subset
from .fusion import (
    CombinationCell,
    CombinationTrace,
    FusionReport,
    combine,
    combine_traced,
    conflict,
    fold,
    fuse_all,
    oracle_fuse_all,
)
from .mass import MassFunction
from .scenario import (
    Motion,
    Prediction,
    Scenario,
    SweepFailure,
    builtin_takraw_scenario,
    evidence_for,
    fusion_report,
    predict,
    prediction_from_report,
    select_winner,
    sweep,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_FRAME_SIZE",
    "CombinationCell",
    "CombinationTrace",
    "ConditionOutOfRangeError",
    "DocumentError",
    "DuplicateLabelError",
    "EmptyFocalError",
    "EmptyFrameError",
    "EmptyInputError",
    "EmptyLabelError",
    "EmptySetMassError",
    "EvidenceError",
    "ExplosionGuardError",
    "FocalIsFullFrameError",
    "Frame",
    "FrameError",
    "FrameMismatchError",
    "FrameTooLargeError",
    "FusionError",
    "FusionReport",
    "MassError",
    "MassFunction",
    "Motion",
    "NegativeMassError",
    "NotNormalizedError",
    "ParseError",
    "Prediction",
    "Scenario",
    "SchemaError",
    "Subset",
    "SweepFailure",
    "TotalConflictError",
    "UnknownLabelError",
    "ValidationError",
    "WeightOutOfRangeError",
    "builtin_takraw_scenario",
    "combine",
    "combine_traced",
    "conflict",
    "emit_scenario",
    "evidence_for",
    "fold",
    "fuse_all",
    "fusion_report",
    "oracle_fuse_all",
    "parse_scenario",
    "predict",
    "prediction_from_report",
    "scenario_digest",
    "select_winner",
    "sweep",
    "__version__",
]
