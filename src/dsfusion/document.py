"""Scenario file format: a small JSON document.

Layout::

    {
      "frame": ["F", "L", "R", "B"],
      "sources": [
        {"name": "left foot moves to front", "focal": ["F"],
         "bpa": [0.75, 0.55, 0.55]},
        ...
      ]
    }

Every source carries one weight per condition; the condition count is the
(shared) length of the ``bpa`` arrays.  Structural problems raise
:class:`SchemaError`, malformed JSON raises :class:`ParseError`, and
semantic problems (weights outside (0, 1], unknown labels, duplicate names)
raise :class:`ValidationError`.
"""

from __future__ import annotations

import json
import sys

from .errors import EvidenceError, ParseError, SchemaError, ValidationError
from .frame import Frame
from .scenario import Motion, Scenario, _encodable

_TOP_KEYS = {"frame", "sources"}
_SOURCE_KEYS = {"name", "focal", "bpa"}


def _check_text(value: str, where: str) -> None:
    if not _encodable(value):
        raise SchemaError(f"{where} holds a lone surrogate")


def _string_list(value: object, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where} must be an array of strings")
    for x in value:
        _check_text(x, where)
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    except ValueError:
        # json.loads refuses integer literals longer than this limit
        raise ParseError(
            f"a number has more than {sys.get_int_max_str_digits()} digits"
        ) from None

    if not isinstance(data, dict):
        raise SchemaError("top level must be an object")
    if set(data) != _TOP_KEYS:
        raise SchemaError(
            f"top-level keys must be exactly {sorted(_TOP_KEYS)}, got {sorted(data)}"
        )
    labels = _string_list(data["frame"], '"frame"')
    sources = data["sources"]
    if not isinstance(sources, list) or not sources:
        raise SchemaError('"sources" must be a non-empty array')

    names: list[str] = []
    focals: list[list[str]] = []
    rows: list[list[int | float]] = []
    for i, source in enumerate(sources):
        where = f"sources[{i}]"
        if not isinstance(source, dict):
            raise SchemaError(f"{where} must be an object")
        if set(source) != _SOURCE_KEYS:
            raise SchemaError(
                f"{where} keys must be exactly {sorted(_SOURCE_KEYS)}, "
                f"got {sorted(source)}"
            )
        if not isinstance(source["name"], str):
            raise SchemaError(f'{where}["name"] must be a string')
        _check_text(source["name"], f'{where}["name"]')
        bpa = source["bpa"]
        if not isinstance(bpa, list) or not all(
            isinstance(w, (int, float)) and not isinstance(w, bool) for w in bpa
        ):
            raise SchemaError(f'{where}["bpa"] must be an array of numbers')
        names.append(source["name"])
        focals.append(_string_list(source["focal"], f'{where}["focal"]'))
        rows.append(bpa)

    lengths = {len(row) for row in rows}
    if len(lengths) != 1:
        raise SchemaError(f"bpa arrays disagree in length: {sorted(lengths)}")

    try:
        frame = Frame(labels)
        motions = [
            Motion(name, frame.subset(focal)) for name, focal in zip(names, focals)
        ]
        bpa = [[row[c] for row in rows] for c in range(len(rows[0]))]
        return Scenario(frame, motions, bpa)
    except ValidationError:
        raise
    except EvidenceError as exc:
        raise ValidationError(str(exc)) from exc


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario; ``parse_scenario`` round-trips it exactly."""
    bpa_by_source = [
        [scenario.bpa[c][i] for c in range(scenario.condition_count)]
        for i in range(len(scenario.motions))
    ]
    document = {
        "frame": list(scenario.frame.labels),
        "sources": [
            {"name": motion.name, "focal": list(motion.direction.labels), "bpa": row}
            for motion, row in zip(scenario.motions, bpa_by_source)
        ],
    }
    return json.dumps(document, indent=2, ensure_ascii=False) + "\n"


def scenario_digest(scenario: Scenario) -> str:
    """Short content hash of the canonical document text."""
    # Imported here so that CLI start-up does not pay for it.
    import hashlib

    return hashlib.sha256(emit_scenario(scenario).encode("utf-8")).hexdigest()[:12]
