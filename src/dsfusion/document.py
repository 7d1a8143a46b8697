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
(shared) length of the ``bpa`` arrays.  The sources go, in this per-source
layout, to the one builder that ``builtin_takraw_scenario`` shares, which
keeps the weights as floats and builds no mass function.
Malformed JSON raises :class:`ParseError` and a wrong shape (a missing or
repeated key, a value of the wrong type) raises :class:`SchemaError`.
Well-formed but invalid content (weights outside (0, 1], unknown labels,
duplicate names, a lone surrogate in a label or name) raises
:class:`ValidationError` from the checks that building the scenario runs, so
a document and ``Scenario(...)`` report the same problem alike.
"""

from __future__ import annotations

import math
import sys

try:  # the C function that json.encoder binds, without importing json
    from _json import encode_basestring
except ImportError:
    from json.encoder import encode_basestring

from .errors import EvidenceError, ParseError, SchemaError, ValidationError
from .scenario import Scenario, _from_sources

_TOP_KEYS = {"frame", "sources"}
_SOURCE_KEYS = {"name", "focal", "bpa"}
_NUMBER_TYPES = {int, float}


def _string_list(value: object, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise SchemaError(f"{where} must be an array of strings")
    return value


def _object(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object whose keys are all distinct: ``json`` would keep the last."""
    data = dict(pairs)
    if len(data) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"key {key!r} is repeated")
            seen.add(key)
    return data


# Built by the first parse, which imports json: a --builtin run never decodes.
# One decoder serves every call: json.loads builds a new one for each call given
# a hook, and those leave blocks behind in a process that parses in a loop.
_decoder = None


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario document."""
    global _decoder
    import json

    if _decoder is None:
        _decoder = json.JSONDecoder(object_pairs_hook=_object)
    if text.startswith("\ufeff"):  # as json.loads refuses it
        message = "Unexpected UTF-8 BOM (decode using utf-8-sig)"
        raise ParseError(message, line=1, column=1)
    try:
        data = _decoder.decode(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, line=exc.lineno, column=exc.colno) from None
    except RecursionError:
        raise ParseError("document nests too deeply") from None
    except ValueError:
        # json refuses integer literals longer than this limit
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

    rows: list[tuple[str, list[str], list[int | float]]] = []
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
        bpa = source["bpa"]
        # json decodes numbers as ints and floats only (true is a bool)
        if not isinstance(bpa, list) or not {*map(type, bpa)} <= _NUMBER_TYPES:
            raise SchemaError(f'{where}["bpa"] must be an array of numbers')
        focal = _string_list(source["focal"], f'{where}["focal"]')
        rows.append((source["name"], focal, bpa))

    lengths = {len(bpa) for _, _, bpa in rows}
    if len(lengths) != 1:
        raise SchemaError(f"bpa arrays disagree in length: {sorted(lengths)}")

    try:
        return _from_sources(labels, rows)
    except ValidationError:
        raise
    except EvidenceError as exc:
        raise ValidationError(str(exc)) from exc


def _json_text(value: object, indent: str = "\n") -> str:
    """Exactly what the json module's encoder writes with ``indent=2`` and
    ``ensure_ascii=False`` (with an indent it never uses its C encoder), for str,
    int, finite float, list, tuple and str-keyed dict; else a TypeError."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)
    inner = indent + "  "
    if kind is dict:
        ends, pairs = "{}", value.items()
        items = [f"{encode_basestring(k)}: {_json_text(v, inner)}" for k, v in pairs]
    elif kind is list or kind is tuple:
        ends, items = "[]", [_json_text(item, inner) for item in value]
    else:
        raise TypeError(f"{value!r} is not written as JSON")
    return ends[0] + inner + ("," + inner).join(items) + indent + ends[1] if items else ends


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario; ``parse_scenario`` round-trips it exactly."""
    document = {
        "frame": scenario.frame.labels,
        "sources": [
            {"name": motion.name, "focal": motion.direction.labels, "bpa": row}
            for motion, row in zip(scenario.motions, zip(*scenario.bpa))
        ],
    }
    return _json_text(document) + "\n"


def scenario_digest(scenario: Scenario) -> str:
    """Short content hash of the canonical document text."""
    # Imported here so that CLI start-up does not pay for it.  The
    # interpreter's built-in SHA-256 (_sha256 up to 3.11, _sha2 from 3.12)
    # gives hashlib's digest without loading OpenSSL, several ms per start.
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256(emit_scenario(scenario).encode("utf-8")).hexdigest()[:12]
