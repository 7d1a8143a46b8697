"""Reference arithmetic and output validators for the benchmark.

Every simple-support weight the benchmark feeds the program is a multiple of
1/SCALE, so Dempster's rule can be carried out exactly in integers: the
unnormalized mass of each focal set after step i is an integer over
SCALE**i, and normalizing once at the end equals normalizing after every
step.  ``exact_fold`` is that sequential fold, independent of the program.
The validators parse what the CLI printed and hold it to the exact fold:
full-precision JSON and CSV within TOL, four-decimal tables within half a
display unit.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field
from fractions import Fraction

SCALE = 1000
TOL = 1e-9
TABLE_TOL = 0.5e-4 + TOL
CONFLICT_EPSILON = Fraction(1, 10**9)


class Mismatch(Exception):
    """An output disagrees with the reference."""


@dataclass(frozen=True)
class Spec:
    """A scenario as plain data: labels, one focal mask per source, weights.

    ``weights[c][s]`` is source s's weight under condition c+1, times SCALE.
    """

    labels: tuple[str, ...]
    masks: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]

    @property
    def full(self) -> int:
        return (1 << len(self.labels)) - 1

    def key(self, mask: int) -> str:
        """The program's machine key for a subset: labels joined by '+'."""
        return "+".join(label for i, label in enumerate(self.labels) if mask >> i & 1)

    def mask_of_labels(self, labels: list[str]) -> int:
        mask = 0
        for label in labels:
            mask |= 1 << self.labels.index(label)
        return mask

    def mask_of_display(self, text: str) -> int:
        """Inverse of the table display of a focal set: Θ or {a,b}."""
        if text == "Θ":
            return self.full
        if not (text.startswith("{") and text.endswith("}")):
            raise Mismatch(f"not a subset display: {text!r}")
        return self.mask_of_labels(text[1:-1].split(","))


def spec_from_scenario(scenario) -> Spec:
    """Read a dsfusion Scenario's data (labels, focal masks, weights)."""
    weights = []
    for row in scenario.bpa:
        scaled = []
        for w in row:
            exact = Fraction(repr(w)) * SCALE
            if exact.denominator != 1:
                raise ValueError(f"weight {w!r} is not a multiple of 1/{SCALE}")
            scaled.append(int(exact))
        weights.append(tuple(scaled))
    return Spec(
        tuple(scenario.frame.labels),
        tuple(m.direction.mask for m in scenario.motions),
        tuple(weights),
    )


@dataclass
class ExactRun:
    """The exact sequential fold of one condition.

    ``snapshots[i]`` is ``(acc, total)`` after step i (index 0 is the first
    source alone): integer masses whose ratio to ``total`` is the
    normalized mass.  ``ks`` holds the per-step conflict.  ``refused`` is
    True when some step reaches the program's refusal threshold.
    """

    snapshots: list[tuple[dict[int, int], int]] = field(default_factory=list)
    ks: list[Fraction] = field(default_factory=list)
    refused: bool = False

    @property
    def final(self) -> tuple[dict[int, int], int]:
        return self.snapshots[-1]


def _simple(mask: int, weight: int, full: int) -> dict[int, int]:
    return {m: v for m, v in ((mask, weight), (full, SCALE - weight)) if v}


def exact_fold(full: int, sources: list[tuple[int, int]]) -> ExactRun:
    """Fold simple supports ``(focal mask, weight*SCALE)`` left to right."""
    mask0, w0 = sources[0]
    acc, total = _simple(mask0, w0, full), SCALE
    run = ExactRun(snapshots=[(acc, total)])
    for mask, weight in sources[1:]:
        source = _simple(mask, weight, full)
        new: dict[int, int] = {}
        empty = 0
        for a, va in acc.items():
            for b, vb in source.items():
                inter = a & b
                if inter:
                    new[inter] = new.get(inter, 0) + va * vb
                else:
                    empty += va * vb
        k = Fraction(empty, total * SCALE)
        run.ks.append(k)
        if k >= 1 - CONFLICT_EPSILON:
            run.refused = True
            return run
        acc = dict(sorted(new.items()))
        total = total * SCALE - empty
        run.snapshots.append((acc, total))
    return run


def exact_condition(spec: Spec, condition: int) -> ExactRun:
    row = spec.weights[condition - 1]
    return exact_fold(spec.full, list(zip(spec.masks, row)))


def _close(value: float, exact: float, tol: float, what: str) -> None:
    if not abs(value - exact) <= tol:
        raise Mismatch(f"{what}: got {value!r}, exact {exact!r}")


def check_masses(spec: Spec, got: dict[str, float], snap, tol: float, what: str) -> None:
    acc, total = snap
    expected = {spec.key(m): v / total for m, v in acc.items()}
    if list(got) != list(expected):
        raise Mismatch(f"{what}: focal sets {list(got)} != {list(expected)}")
    for key, value in got.items():
        _close(value, expected[key], tol, f"{what}[{key}]")


def check_winner(spec: Spec, snap, winner: int, values, tol: float) -> None:
    """Winner is an argmax of proper focal mass; its three numbers are exact."""
    acc, total = snap
    if winner == spec.full or winner not in acc:
        raise Mismatch(f"winner {spec.key(winner)} is not a proper focal element")
    best = max(v for m, v in acc.items() if m != spec.full)
    if (best - acc[winner]) / total > TOL:
        raise Mismatch(f"winner {spec.key(winner)} is not an argmax")
    bel = sum(v for m, v in acc.items() if m & ~winner == 0) / total
    pl = sum(v for m, v in acc.items() if m & winner) / total
    for value, exact, name in zip(values, (acc[winner] / total, bel, pl),
                                  ("mass", "belief", "plausibility")):
        _close(value, exact, tol, f"winner {name}")


def _winner_key_mask(spec: Spec, label: str) -> int:
    """Winner label as printed: 'h0+h2', or 'B (back)' with a direction gloss."""
    key = label.split(" (", 1)[0]
    return spec.mask_of_labels(key.split("+"))


def expected_sweep_exit(runs: list[ExactRun]) -> int:
    return 3 if any(r.refused for r in runs) else 0


def check_sweep_json(spec: Spec, runs: list[ExactRun], text: str) -> None:
    entries = json.loads(text)
    if [e["condition"] for e in entries] != list(range(1, len(runs) + 1)):
        raise Mismatch("sweep json: conditions out of order")
    for entry, run in zip(entries, runs):
        c = entry["condition"]
        if run.refused:
            if "error" not in entry or "final" in entry:
                raise Mismatch(f"condition {c}: expected an error entry")
            continue
        check_masses(spec, entry["final"], run.final, TOL, f"condition {c} final")
        w = entry["winner"]
        check_winner(spec, run.final, spec.mask_of_labels(w["labels"]),
                     (w["mass"], w["belief"], w["plausibility"]), TOL)


def check_sweep_csv(spec: Spec, runs: list[ExactRun], text: str) -> None:
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["condition", "winner", "winner_mass", "winner_belief",
                   "winner_plausibility"]:
        raise Mismatch("sweep csv: bad header")
    expected = [c for c, r in enumerate(runs, start=1) if not r.refused]
    if [int(row[0]) for row in rows[1:]] != expected:
        raise Mismatch("sweep csv: wrong condition rows")
    for row in rows[1:]:
        run = runs[int(row[0]) - 1]
        check_winner(spec, run.final, spec.mask_of_labels(row[1].split("+")),
                     [float(x) for x in row[2:]], TOL)


_SWEEP_ROW = re.compile(r"^(\d+)  +(.+?)  +(\d\.\d{4})  +(\d\.\d{4})  +(\d\.\d{4})$")
_ERROR_ROW = re.compile(r"^(\d+)  +ERROR: ")


def check_sweep_table(spec: Spec, runs: list[ExactRun], text: str) -> None:
    lines = text.splitlines()
    if not lines[0].startswith("scenario: ") or not lines[1].startswith("condition"):
        raise Mismatch("sweep table: bad header")
    if len(lines) != 2 + len(runs):
        raise Mismatch("sweep table: wrong row count")
    for c, (line, run) in enumerate(zip(lines[2:], runs), start=1):
        if run.refused:
            match = _ERROR_ROW.match(line)
            if not match or int(match[1]) != c:
                raise Mismatch(f"condition {c}: expected an ERROR row")
            continue
        match = _SWEEP_ROW.match(line)
        if not match or int(match[1]) != c:
            raise Mismatch(f"condition {c}: unparsable row {line!r}")
        check_winner(spec, run.final, _winner_key_mask(spec, match[2]),
                     [float(x) for x in match.groups()[2:]], TABLE_TOL)


def check_fuse_json(spec: Spec, run: ExactRun, condition: int, text: str) -> None:
    payload = json.loads(text)
    if payload["condition"] != condition or run.refused:
        raise Mismatch("fuse json: wrong condition")
    steps = payload["steps"]
    if len(steps) != len(spec.masks) - 1:
        raise Mismatch("fuse json: wrong step count")
    for i, step in enumerate(steps, start=1):
        _close(step["k"], float(run.ks[i - 1]), TOL, f"step {i} k")
        rows = len(run.snapshots[i - 1][0])
        cols = len(_simple(spec.masks[i], spec.weights[condition - 1][i], spec.full))
        if len(step["cells"]) != rows * cols:
            raise Mismatch(f"step {i}: {len(step['cells'])} cells, expected {rows * cols}")
        check_masses(spec, step["result"], run.snapshots[i], TOL, f"step {i} result")
    check_masses(spec, payload["final"], run.final, TOL, "final")
    w = payload["winner"]
    check_winner(spec, run.final, spec.mask_of_labels(w["labels"]),
                 (w["mass"], w["belief"], w["plausibility"]), TOL)


_WINNER_LINE = re.compile(
    r"^winner: (.+?)  mass (\S+)  belief (\S+)  plausibility (\S+)$"
)


def check_fuse_table(
    spec: Spec, run: ExactRun, condition: int, text: str, traced: bool
) -> None:
    lines = text.splitlines()
    if lines[1] != f"condition: {condition}" or lines[2] != f"sources: {len(spec.masks)}":
        raise Mismatch("fuse table: bad header")
    if run.refused:
        raise Mismatch("fuse table: the exact fold refuses this condition")
    steps = [n for n, line in enumerate(lines) if line.startswith("step ")]
    if len(steps) != (len(spec.masks) - 1 if traced else 0):
        raise Mismatch("fuse table: wrong step count")
    for i, start in enumerate(steps, start=1):
        rows = len(run.snapshots[i - 1][0])
        k_line = lines[start + 2 + rows]
        if not k_line.startswith("k = "):
            raise Mismatch(f"step {i}: table does not have {rows} rows")
        _close(float(k_line[4:]), float(run.ks[i - 1]), TABLE_TOL, f"step {i} k")
    first = lines.index("final masses:") + 1
    last = next(n for n in range(first, len(lines)) if not lines[n].startswith("  "))
    got = {}
    for line in lines[first:last]:
        display, value = line.strip().split("  ")
        got[spec.key(spec.mask_of_display(display))] = float(value)
    check_masses(spec, got, run.final, TABLE_TOL, "final")
    ks = lines[last].removeprefix("conflict per step: ").split()
    if len(ks) != len(run.ks):
        raise Mismatch("fuse table: wrong conflict count")
    for i, (value, k) in enumerate(zip(ks, run.ks), start=1):
        _close(float(value), float(k), TABLE_TOL, f"conflict {i}")
    match = _WINNER_LINE.match(lines[last + 1])
    if not match:
        raise Mismatch("fuse table: no winner line")
    check_winner(spec, run.final, _winner_key_mask(spec, match[1]),
                 [float(x) for x in match.groups()[1:]], TABLE_TOL)
