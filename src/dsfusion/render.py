"""Report rendering: trace tables, JSON and CSV emission.

Rendering never recomputes: every number printed comes straight from the
in-memory report, formatted for display only.  Table output rounds the
decimal each value (never negative) prints as, half-up to a configurable
number of places (two places for the 0.1875 cell must read 0.19, which
bankers' rounding would spoil); JSON and CSV carry full precision.
"""

from __future__ import annotations

from collections import namedtuple

from .document import _json_text
from .frame import Subset
from .fusion import CombinationTrace
from .mass import MassFunction, _shortest_decimal
from .scenario import Prediction, SweepFailure

_DIRECTION_WORDS = {"F": "front", "L": "left", "R": "right", "B": "back"}


def format_mass(value: float, digits: int) -> str:
    """``digits`` >= 1 places, half-up on the decimal ``value`` >= 0 prints as."""
    n, e = _shortest_decimal(value)
    shift = e + digits  # value * 10**digits == n * 10**shift
    units = n * 10**shift if shift >= 0 else (2 * n + 10**-shift) // (2 * 10**-shift)
    text = str(units).rjust(digits + 1, "0")
    return f"{text[:-digits]}.{text[-digits:]}"


def format_full(value: float) -> str:
    """Full-precision display for CSV: up to 12 significant digits."""
    return f"{value:.12g}"


def set_key(subset: Subset) -> str:
    """Machine key for a subset: member labels joined by '+', frame order."""
    return "+".join(subset.labels)


def winner_label(subset: Subset) -> str:
    """Winner with a direction gloss on the standard F/L/R/B frame."""
    key = set_key(subset)
    if subset.frame.labels == ("F", "L", "R", "B"):
        gloss = "+".join(_DIRECTION_WORDS[label] for label in subset.labels)
        return f"{key} ({gloss})"
    return key


def mass_map(m: MassFunction, keys: dict[int, str] | None = None) -> dict[str, float]:
    """Focal elements as an ordered {set-key: mass} mapping; ``keys`` keeps
    each mask's key across calls on one frame."""
    if keys is None:
        keys = {}
    labels_of = m._frame._labels_of
    for mask in m._masses.keys() - keys.keys():
        keys[mask] = "+".join(labels_of(mask))
    return {keys[mask]: v for mask, v in m._masses.items()}


class RunReport(namedtuple("RunReport", "scenario report prediction")):
    """One fuse run, ready to render: the Scenario ``scenario``, the
    FusionReport ``report`` whose steps the output prints, or None when it
    prints none, and the Prediction ``prediction``.
    """

    __slots__ = ()


def _mass_line(m: MassFunction, precision: int) -> str:
    return "  ".join(
        f"{subset!r} {format_mass(value, precision)}"
        for subset, value in m.focal_elements()
    )


def _table(rows: list[list[str]], separator: str) -> list[str]:
    """Rows as lines with left-aligned columns, trailing blanks stripped."""
    widths = [max(len(row[col]) for row in rows) for col in range(len(rows[0]))]
    return [
        separator.join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]


def render_trace(trace: CombinationTrace, precision: int) -> str:
    """One combination as a cross-product table, k and result below.

    Left focal elements label the rows, right focal elements the columns,
    and every cell shows the intersection with the product m1(B)*m2(C).
    """
    left, right = trace.inputs
    left_items = left.focal_elements()
    right_items = right.focal_elements()
    # Cells come left-major: each row takes the next len(right_items) cells.
    cells = iter(trace.cells)

    table = [[""] + [f"{s!r} {format_mass(v, precision)}" for s, v in right_items]]
    for ls, lv in left_items:
        row = [f"{ls!r} {format_mass(lv, precision)}"]
        for _ in right_items:
            cell = next(cells)
            row.append(f"{cell.intersection!r} {format_mass(cell.product, precision)}")
        table.append(row)

    lines = _table(table, " | ")
    lines.append(f"k = {format_mass(trace.conflict, precision)}")
    lines.append(f"result: {_mass_line(trace.result, precision)}")
    return "\n".join(lines)


def fuse_text(scenario_name: str, digest: str, run: RunReport, precision: int) -> str:
    """Human-readable fusion report, with a trace table per step when
    ``run.report`` is set."""
    motions = run.scenario.motions
    p = run.prediction
    out: list[str] = [
        f"scenario: {scenario_name} (sha256:{digest})",
        f"condition: {p.condition}",
        f"sources: {len(motions)}",
    ]
    if run.report is not None:
        for i, trace in enumerate(run.report.steps, start=1):
            lead = f"'{motions[0].name}' + " if i == 1 else "+ "
            out.append("")
            out.append(f"step {i}: {lead}'{motions[i].name}'")
            out.append(render_trace(trace, precision))
    out.append("")
    out.append("final masses:")
    for subset, value in p.final.focal_elements():
        out.append(f"  {subset!r}  {format_mass(value, precision)}")
    if p.steps_conflict:
        ks = " ".join(format_mass(k, precision) for k in p.steps_conflict)
        out.append(f"conflict per step: {ks}")
    out.append(
        f"winner: {winner_label(p.winner)}  "
        f"mass {format_mass(p.winner_mass, precision)}  "
        f"belief {format_mass(p.winner_belief, precision)}  "
        f"plausibility {format_mass(p.winner_plausibility, precision)}"
    )
    return "\n".join(out) + "\n"


def _winner_json(p: Prediction) -> dict:
    return {
        "labels": p.winner.labels,
        "mass": p.winner_mass,
        "belief": p.winner_belief,
        "plausibility": p.winner_plausibility,
    }


def fuse_json(run: RunReport) -> str:
    """Machine-readable fusion report at full precision."""
    steps = [
        {
            "k": trace.conflict,
            "cells": [
                {
                    "left": cell.left.labels,
                    "right": cell.right.labels,
                    "intersection": cell.intersection.labels,
                    "product": cell.product,
                }
                for cell in trace.cells
            ],
            "result": mass_map(trace.result),
        }
        for trace in run.report.steps
    ]
    p = run.prediction
    payload = {
        "condition": p.condition,
        "steps": steps,
        "final": mass_map(p.final),
        "winner": _winner_json(p),
    }
    return _json_text(payload) + "\n"


_CSV_HEADER = ["condition", "winner", "winner_mass", "winner_belief", "winner_plausibility"]


def _csv_row(p: Prediction) -> list[str]:
    return [
        str(p.condition),
        set_key(p.winner),
        format_full(p.winner_mass),
        format_full(p.winner_belief),
        format_full(p.winner_plausibility),
    ]


def sweep_csv(results: list[Prediction | SweepFailure]) -> str:
    """Per-condition summary rows (plot data); failed conditions are omitted.
    ``fuse --format csv`` writes the one row of its prediction."""
    # Imported here so that CLI start-up does not pay for it.
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows([_csv_row(r) for r in results if isinstance(r, Prediction)])
    return buffer.getvalue()


_SWEEP_PRECISION = 4


def sweep_text(
    scenario_name: str, digest: str, results: list[Prediction | SweepFailure]
) -> str:
    rows = [["condition", "winner", "mass", "belief", "plausibility"]]
    for r in results:
        if isinstance(r, Prediction):
            rows.append(
                [
                    str(r.condition),
                    winner_label(r.winner),
                    format_mass(r.winner_mass, _SWEEP_PRECISION),
                    format_mass(r.winner_belief, _SWEEP_PRECISION),
                    format_mass(r.winner_plausibility, _SWEEP_PRECISION),
                ]
            )
        else:
            rows.append([str(r.condition), f"ERROR: {r.error}", "", "", ""])
    lines = [f"scenario: {scenario_name} (sha256:{digest})", *_table(rows, "  ")]
    return "\n".join(lines) + "\n"


def sweep_json(results: list[Prediction | SweepFailure]) -> str:
    # Every condition folds onto the same focal masks: one key per mask.
    keys: dict[int, str] = {}
    entries: list[dict] = []
    for r in results:
        if isinstance(r, Prediction):
            entries.append(
                {
                    "condition": r.condition,
                    "final": mass_map(r.final, keys),
                    "winner": _winner_json(r),
                }
            )
        else:
            entries.append({"condition": r.condition, "error": str(r.error)})
    return _json_text(entries) + "\n"
