"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of each dsfusion module where they
are looked up (``dsfusion.scenario.fuse_all``, ``dsfusion.cli.sweep``, ...),
so the program itself is not modified.  Each call records a span (id, name,
start, end, parent span, op id) in memory; counters are computed from the
call's arguments and result after the span closes, and the time spent
computing them is excluded from every enclosing span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict

from dsfusion.errors import EvidenceError

_now = time.perf_counter_ns


def _fusion_cells(tracer, args, result) -> None:
    m1, m2 = args
    tracer.step(len(m1) * len(m2), sum(1 for c in result.cells if c.intersection.mask),
                len(result.result), result.conflict)
    tracer.counts["trace_cells_built"] += len(result.cells)


def _backend_pairs(tracer, args, result) -> None:
    masks1, _, masks2, _ = args
    pairs = len(masks1) * len(masks2)
    kept = sum(1 for c in masks2 for b in masks1 if b & c)
    tracer.step(pairs, kept, len(result[0]), result[2])
    tracer.counts["backend_pairs"] += pairs


def _trace_rendered(tracer, args, result) -> None:
    tracer.counts["trace_cells_rendered"] += len(args[0].cells)


def _fuse_json_rendered(tracer, args, result) -> None:
    tracer.counts["trace_cells_rendered"] += sum(len(s.cells) for s in args[0].report.steps)
    _bytes_out(tracer, args, result)


def _bytes_out(tracer, args, result) -> None:
    tracer.counts["bytes_out"] += len(result.encode("utf-8"))


def _bytes_in(tracer, args, result) -> None:
    tracer.counts["bytes_in"] += len(args[0].encode("utf-8"))


def _sweep_conditions(tracer, args, result) -> None:
    tracer.counts["conditions"] += len(result)
    tracer.counts["conditions_failed"] += sum(hasattr(r, "error") for r in result)


def _fuse_condition(tracer, args, result) -> None:
    tracer.counts["conditions"] += 1


# (module, attribute, span name, counter hook).  A name a later version of
# the program no longer has is skipped, and its metrics read 0.  Hooks run
# on success; a call that raises EvidenceError is counted under
# "<module>.<attribute>.failed" instead.  Conditions are counted where the
# CLI asks for them (sweep results, one fuse), whatever the fold does inside.
PATCHES = (
    ("dsfusion.cli", "main", "cli.main", None),
    ("dsfusion.cli", "build_parser", "cli.build_parser", None),
    ("dsfusion.cli", "parse_scenario", "document.parse_scenario", _bytes_in),
    ("dsfusion.cli", "scenario_digest", "document.scenario_digest", None),
    ("dsfusion.cli", "emit_scenario", "document.emit_scenario", None),
    ("dsfusion.document", "parse_scenario", "document.parse_scenario", _bytes_in),
    ("dsfusion.document", "emit_scenario", "document.emit_scenario", None),
    ("dsfusion.document", "scenario_digest", "document.scenario_digest", None),
    ("dsfusion.cli", "builtin_takraw_scenario", "scenario.builtin_takraw", None),
    ("dsfusion.cli", "fusion_report", "scenario.fusion_report", _fuse_condition),
    ("dsfusion.cli", "prediction_from_report", "scenario.prediction_from_report", None),
    ("dsfusion.cli", "sweep", "scenario.sweep", _sweep_conditions),
    ("dsfusion.scenario", "sweep", "scenario.sweep", _sweep_conditions),
    ("dsfusion.scenario", "predict", "scenario.predict", None),
    ("dsfusion.scenario", "fusion_report", "scenario.fusion_report", None),
    ("dsfusion.scenario", "prediction_from_report", "scenario.prediction_from_report", None),
    ("dsfusion.scenario", "evidence_for", "scenario.evidence_for", None),
    ("dsfusion.scenario", "select_winner", "scenario.select_winner", None),
    ("dsfusion.scenario", "fuse_all", "fusion.fuse_all", None),
    ("dsfusion.fusion", "fuse_all", "fusion.fuse_all", None),
    ("dsfusion.fusion", "fold", "fusion.fold", None),
    ("dsfusion.fusion", "combine", "fusion.combine", None),
    ("dsfusion.fusion", "combine_traced", "fusion.combine_traced", _fusion_cells),
    ("dsfusion.fusion", "combine_products", "backend.combine_products", _backend_pairs),
    ("dsfusion.mass", "MassFunction.simple_support", "mass.simple_support", None),
    ("dsfusion.mass", "MassFunction.belief", "mass.belief", None),
    ("dsfusion.mass", "MassFunction.plausibility", "mass.plausibility", None),
    ("dsfusion.cli", "fuse_text", "render.fuse_text", _bytes_out),
    ("dsfusion.cli", "fuse_json", "render.fuse_json", _fuse_json_rendered),
    ("dsfusion.cli", "fuse_csv", "render.fuse_csv", _bytes_out),
    ("dsfusion.cli", "sweep_text", "render.sweep_text", _bytes_out),
    ("dsfusion.cli", "sweep_json", "render.sweep_json", _bytes_out),
    ("dsfusion.cli", "sweep_csv", "render.sweep_csv", _bytes_out),
    ("dsfusion.render", "render_trace", "render.render_trace", _trace_rendered),
)


class Tracer:
    """Spans and counters of one traced run, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, int]] = []
        self.counts: Counter = Counter()
        self.maxes: dict[str, float] = defaultdict(float)
        self.op = 0
        self._next_id = 0
        # open spans: [span id, ns excluded from it (counter hooks below it)]
        self._stack: list[list[int]] = []
        self._undo: list[tuple[object, str, object]] = []

    def step(self, cells: int, kept: int, focals: int, k: float) -> None:
        """Counters of one pairwise combination, whichever loop ran it."""
        self.counts["steps"] += 1
        self.counts["cells"] += cells
        self.counts["cells_kept"] += kept
        self.maxes["focals"] = max(self.maxes["focals"], focals)
        self.maxes["conflict"] = max(self.maxes["conflict"], k)

    def wrap(self, name: str, fn, hook, failed_key: str):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0]
            stack.append(frame)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            except EvidenceError:
                counts[failed_key] += 1
                raise
            finally:
                t1 = _now()
                stack.pop()
                spans.append((sid, name, t0, t1 - frame[1], parent, self.op))
            if hook is not None:
                hook(self, args, result)
                spent = _now() - t1
                for open_frame in stack:
                    open_frame[1] += spent
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in PATCHES:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if raw is None:
                continue
            self._undo.append((owner, attr, raw))
            failed_key = f"{module_name}.{attr}.failed"
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self.wrap(name, raw.__func__, hook, failed_key)))
            else:
                setattr(owner, attr, self.wrap(name, raw, hook, failed_key))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo.clear()

    def merge(self, data: dict) -> None:
        """Add spans and counters dumped by a traced child process."""
        offset = self._next_id
        for sid, name, t0, t1, parent, op in data["spans"]:
            self.spans.append((sid + offset, name, t0, t1,
                               parent + offset if parent >= 0 else -1, op))
            self._next_id = max(self._next_id, sid + offset + 1)
        self.counts.update(data["counts"])
        for key, value in data["maxes"].items():
            self.maxes[key] = max(self.maxes[key], value)

    def dump(self, path: str, header: dict | None = None) -> None:
        """Write the spans out: a header line, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                **(header or {}),
                "fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                "counts": self.counts, "maxes": self.maxes,
            }) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    @staticmethod
    def load(path: str) -> dict:
        with open(path, encoding="utf-8") as handle:
            header = json.loads(handle.readline())
            spans = [json.loads(line) for line in handle]
        return {"spans": spans, "counts": header["counts"], "maxes": header["maxes"]}

    def layers(self) -> dict[str, tuple[int, int, int]]:
        """Per span name: (calls, total ns, self ns).

        Self time is a span's duration minus the durations of its children;
        calls are sequential, so children never overlap.
        """
        child_ns: dict[int, int] = defaultdict(int)
        for _, _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += t1 - t0
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])
        for sid, name, t0, t1, _, _ in self.spans:
            entry = out[name]
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - child_ns.get(sid, 0)
        return {name: tuple(v) for name, v in out.items()}
