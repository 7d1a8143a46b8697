"""Report rendering: trace tables, JSON and CSV emission.

Rendering never recomputes: every number printed comes straight from the
in-memory report, formatted for display only.  Table output rounds half-up
at a configurable number of decimals (a two-decimal rendering of the 0.1875
cell must read 0.19, which bankers' rounding would spoil); JSON and CSV carry
full precision.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .errors import TotalConflictError
from .frame import Subset
from .fusion import CombinationTrace, FusionReport
from .mass import MassFunction
from .scenario import Prediction, Scenario, SweepFailure

_DIRECTION_WORDS = {"F": "front", "L": "left", "R": "right", "B": "back"}


def format_mass(value: float, digits: int) -> str:
    """Fixed-point decimal with half-up rounding."""
    quantum = Decimal(1).scaleb(-digits)
    return str(Decimal(repr(value)).quantize(quantum, rounding=ROUND_HALF_UP))


def format_full(value: float) -> str:
    """Full-precision display for CSV: up to 12 significant digits."""
    return f"{value:.12g}"


def set_key(subset: Subset) -> str:
    """Machine key for a subset: member labels joined by '+', frame order."""
    return "+".join(subset.labels)


def set_display(subset: Subset) -> str:
    """Human display: {L,B} braces, ∅ for empty, Θ for the full frame."""
    return repr(subset)


def winner_label(subset: Subset) -> str:
    """Winner with a direction gloss on the standard F/L/R/B frame."""
    key = set_key(subset)
    if subset.frame.labels == ("F", "L", "R", "B"):
        gloss = "+".join(_DIRECTION_WORDS[label] for label in subset.labels)
        return f"{key} ({gloss})"
    return key


def mass_map(m: MassFunction) -> dict[str, float]:
    """Focal elements as an ordered {set-key: mass} mapping."""
    return {set_key(subset): value for subset, value in m.focal_elements()}


@dataclass(frozen=True, slots=True)
class RunReport:
    """One fusion run, ready to render: scenario identity plus the numbers."""

    scenario: Scenario
    scenario_name: str
    scenario_digest: str
    condition: int
    report: FusionReport
    prediction: Prediction


def _mass_line(m: MassFunction, precision: int) -> str:
    return "  ".join(
        f"{set_display(subset)} {format_mass(value, precision)}"
        for subset, value in m.focal_elements()
    )


def render_trace(trace: CombinationTrace, precision: int = 4) -> str:
    """One combination as a cross-product table, k and result below.

    Left focal elements label the rows, right focal elements the columns,
    and every cell shows the intersection with the product m1(B)*m2(C).
    """
    left, right = trace.inputs
    left_items = left.focal_elements()
    right_items = right.focal_elements()
    # Cells come left-major: each row takes the next len(right_items) cells.
    cells = iter(trace.cells)

    header = [""] + [
        f"{set_display(s)} {format_mass(v, precision)}" for s, v in right_items
    ]
    table = [header]
    for ls, lv in left_items:
        row = [f"{set_display(ls)} {format_mass(lv, precision)}"]
        for _ in right_items:
            cell = next(cells)
            row.append(
                f"{set_display(cell.intersection)} "
                f"{format_mass(cell.product, precision)}"
            )
        table.append(row)

    widths = [
        max(len(row[col]) for row in table) for col in range(len(header))
    ]
    lines = [
        " | ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    lines.append(f"k = {format_mass(trace.conflict, precision)}")
    lines.append(f"result: {_mass_line(trace.result, precision)}")
    return "\n".join(lines)


def fuse_text(run: RunReport, precision: int, show_trace: bool) -> str:
    """Human-readable fusion report, optionally with per-step trace tables."""
    motions = run.scenario.motions
    out: list[str] = [
        f"scenario: {run.scenario_name} (sha256:{run.scenario_digest})",
        f"condition: {run.condition}",
        f"sources: {len(motions)}",
    ]
    if show_trace:
        for i, trace in enumerate(run.report.steps, start=1):
            lead = f"'{motions[0].name}' + " if i == 1 else "+ "
            out.append("")
            out.append(f"step {i}: {lead}'{motions[i].name}'")
            out.append(render_trace(trace, precision))
    p = run.prediction
    out.append("")
    out.append("final masses:")
    for subset, value in p.final.focal_elements():
        out.append(f"  {set_display(subset)}  {format_mass(value, precision)}")
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


def _labels(subset: Subset) -> list[str]:
    return list(subset.labels)


def _winner_json(p: Prediction) -> dict:
    return {
        "labels": _labels(p.winner),
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
                    "left": _labels(cell.left),
                    "right": _labels(cell.right),
                    "intersection": _labels(cell.intersection),
                    "product": cell.product,
                }
                for cell in trace.cells
            ],
            "result": mass_map(trace.result),
        }
        for trace in run.report.steps
    ]
    payload = {
        "condition": run.condition,
        "steps": steps,
        "final": mass_map(run.report.final),
        "winner": _winner_json(run.prediction),
    }
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


_CSV_HEADER = ["condition", "winner", "winner_mass", "winner_belief", "winner_plausibility"]


def _csv_row(p: Prediction) -> list[str]:
    return [
        str(p.condition),
        set_key(p.winner),
        format_full(p.winner_mass),
        format_full(p.winner_belief),
        format_full(p.winner_plausibility),
    ]


def _csv(rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    writer.writerows(rows)
    return buffer.getvalue()


def fuse_csv(run: RunReport) -> str:
    """One summary row in the sweep CSV schema."""
    return _csv([_csv_row(run.prediction)])


def sweep_csv(results: list[Prediction | SweepFailure]) -> str:
    """Per-condition summary rows (plot data); failed conditions are omitted."""
    return _csv([_csv_row(r) for r in results if isinstance(r, Prediction)])


def sweep_text(
    scenario_name: str,
    digest: str,
    results: list[Prediction | SweepFailure],
    precision: int = 4,
) -> str:
    header = ["condition", "winner", "mass", "belief", "plausibility"]
    rows = [header]
    for r in results:
        if isinstance(r, Prediction):
            rows.append(
                [
                    str(r.condition),
                    winner_label(r.winner),
                    format_mass(r.winner_mass, precision),
                    format_mass(r.winner_belief, precision),
                    format_mass(r.winner_plausibility, precision),
                ]
            )
        else:
            rows.append([str(r.condition), f"ERROR: {r.error}", "", "", ""])
    widths = [max(len(row[col]) for row in rows) for col in range(len(header))]
    lines = [f"scenario: {scenario_name} (sha256:{digest})"]
    lines += [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in rows
    ]
    return "\n".join(lines) + "\n"


def sweep_json(results: list[Prediction | SweepFailure]) -> str:
    entries: list[dict] = []
    for r in results:
        if isinstance(r, Prediction):
            entries.append(
                {
                    "condition": r.condition,
                    "final": mass_map(r.final),
                    "winner": _winner_json(r),
                }
            )
        else:
            entries.append({"condition": r.condition, "error": str(r.error)})
    return json.dumps(entries, indent=2, ensure_ascii=False) + "\n"


def worst_failure_exit(results: list[Prediction | SweepFailure]) -> int:
    """Exit code contribution of sweep failures: 3 for conflict, 2 otherwise."""
    code = 0
    for r in results:
        if isinstance(r, SweepFailure):
            code = max(code, 3 if isinstance(r.error, TotalConflictError) else 2)
    return code
