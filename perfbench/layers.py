"""Per-layer measurements of the traced run.

Three sources feed the per-layer metrics:

* the spans and counters the tracer recorded around the workload's ops;
* the baseline pass: the rows of the ROADMAP baseline table (parse, emit,
  digest, predict, fuse_all, fold, sweep, cli.main with JSON output, a
  64x64 combination and a 40-source fold), timed untraced and then run once
  more traced, so every layer has spans on every workload;
* startup probes: ``python -c pass`` and ``python -X importtime -c
  "import dsfusion.cli"`` as fresh subprocesses.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import dsfusion
import dsfusion.document
import dsfusion.fusion
import dsfusion.scenario
from workloads import ROOT, cli_env, run_cli_in_process

BASELINE_REPS = 5


def _random_mass(rng: random.Random, frame, focals: int):
    masks = rng.sample(range(1, 1 << len(frame)), focals)
    weights = [rng.randint(1, 1000) for _ in masks]
    total = sum(weights)
    return dsfusion.MassFunction(
        frame, {frame.subset_from_mask(m): w / total for m, w in zip(masks, weights)})


def baseline_rows() -> dict[str, object]:
    """Metric name -> zero-argument callable, one per baseline table row.

    Inputs are fixed (seed 0), so the rows read the same layers on every
    workload and seed.  Calls go through the module attributes the tracer
    patches.
    """
    rng = random.Random(0)
    takraw = dsfusion.scenario.builtin_takraw_scenario()
    text = dsfusion.document.emit_scenario(takraw)
    evidence = dsfusion.scenario.evidence_for(takraw, 1)
    wide = dsfusion.Frame([f"x{i}" for i in range(32)])
    m64a, m64b = _random_mass(rng, wide, 64), _random_mass(rng, wide, 64)
    ten = dsfusion.Frame([f"y{i}" for i in range(10)])
    fold40 = [
        dsfusion.MassFunction.simple_support(
            ten.subset_from_mask(rng.randrange(1, (1 << 10) - 1)), rng.randint(50, 950) / 1000)
        for _ in range(40)
    ]
    doc, scn, fus = dsfusion.document, dsfusion.scenario, dsfusion.fusion
    return {
        "baseline.parse_ms": lambda: doc.parse_scenario(text),
        "baseline.emit_ms": lambda: doc.emit_scenario(takraw),
        "baseline.digest_ms": lambda: doc.scenario_digest(takraw),
        "baseline.predict_ms": lambda: scn.predict(takraw, 1),
        "baseline.fuse_all_ms": lambda: fus.fuse_all(evidence),
        "baseline.fold_ms": lambda: fus.fold(evidence),
        "baseline.sweep_builtin_ms": lambda: scn.sweep(takraw),
        "baseline.cli_fuse_json_ms": lambda: run_cli_in_process(
            ["fuse", "--builtin", "takraw", "--condition", "1", "--format", "json"]),
        "baseline.combine_64x64_ms": lambda: fus.combine(m64a, m64b),
        "baseline.fold40_ms": lambda: scn.select_winner(fus.fold(fold40)),
    }


# CLI calls the traced baseline pass adds so every render layer has spans
_RENDER_ARGV = [
    ["sweep", "--builtin", "takraw"],
    ["sweep", "--builtin", "takraw", "--format", "json"],
    ["sweep", "--builtin", "takraw", "--format", "csv"],
    ["fuse", "--builtin", "takraw", "--condition", "1", "--trace"],
    ["fuse", "--builtin", "takraw", "--condition", "1", "--format", "csv"],
]


def time_baseline(rows: dict[str, object]) -> dict[str, float]:
    """Median wall time of each row over BASELINE_REPS calls, in ms."""
    out = {}
    for name, call in rows.items():
        samples = []
        for _ in range(BASELINE_REPS):
            t0 = time.perf_counter_ns()
            call()
            samples.append(time.perf_counter_ns() - t0)
        out[name] = statistics.median(samples) / 1e6
    return out


def traced_baseline_pass(rows: dict[str, object], tracer, first_op: int) -> int:
    """Run each row and render call once under the tracer; returns ops run."""
    calls = list(rows.values()) + [
        (lambda argv=argv: run_cli_in_process(argv)) for argv in _RENDER_ARGV
    ]
    for n, call in enumerate(calls):
        tracer.op = first_op + n
        call()
    return len(calls)


def _wall_ms(cmd: list[str], env) -> tuple[float, str]:
    t0 = time.perf_counter_ns()
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, check=True)
    return (time.perf_counter_ns() - t0) / 1e6, done.stderr


def parse_importtime(stderr: str) -> tuple[float, float, float]:
    """(site ms, dsfusion.cli import ms, stdlib ms inside that import).

    ``-X importtime`` lists each import after its children, indented two
    spaces per level; a top-level line closes the group above it.
    """
    site = package = stdlib = 0
    group: list[tuple[str, int]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative_us, raw = line[len("import time:"):].split("|")
        name = raw.strip()
        if len(raw) - len(raw.lstrip()) > 1:
            group.append((name, int(self_us)))
            continue
        if name == "site":
            site += int(cumulative_us)
        elif name.startswith("dsfusion"):
            package += int(cumulative_us)
            stdlib += sum(us for child, us in group if not child.startswith("dsfusion"))
        group = []
    return site / 1e3, package / 1e3, stdlib / 1e3


def startup_probes(reps: int) -> dict[str, float]:
    """Median over ``reps`` fresh interpreters of each startup layer, in ms."""
    env = cli_env()
    exe = sys.executable
    interpreter, site, package, stdlib, sweep = [], [], [], [], []
    for _ in range(reps):
        interpreter.append(_wall_ms([exe, "-c", "pass"], env)[0])
        parts = parse_importtime(
            _wall_ms([exe, "-X", "importtime", "-c", "import dsfusion.cli"], env)[1])
        for bucket, value in zip((site, package, stdlib), parts):
            bucket.append(value)
        sweep.append(_wall_ms([exe, "-m", "dsfusion.cli", "sweep", "--builtin", "takraw"], env)[0])
    med = statistics.median
    return {
        "startup.interpreter_ms": med(interpreter),
        "import.site_ms": med(site),
        "import.dsfusion_cli_ms": med(package),
        "import.stdlib_ms": med(stdlib),
        "baseline.cli_sweep_subprocess_ms": med(sweep),
    }


def layer_metrics(tracer, fallback, ops: int) -> dict[str, float]:
    """Per-layer metrics from the spans and counters of the traced run.

    ``X.ms`` is the mean time per call including callees, ``X.self_ms``
    the mean self time per call, taken from the workload's own ops, or from
    the traced baseline pass (``fallback``) for a layer the workload never
    calls.  Counts and ratios come from the workload's ops only; plain
    counts are per op.
    """
    layers, spare = tracer.layers(), fallback.layers()
    counts, maxes = tracer.counts, tracer.maxes

    def ms(name: str, self_time: bool = False) -> float:
        calls, total, own = layers.get(name) or spare.get(name) or (0, 0, 0)
        return (own if self_time else total) / calls / 1e6 if calls else 0.0

    def calls(name: str) -> int:
        return layers.get(name, (0, 0, 0))[0]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    conditions = counts["conditions"]
    # a fuse whose fold refuses raises out of fusion_report; a sweep keeps
    # the failure as a SweepFailure entry
    failed = counts["conditions_failed"] + counts["dsfusion.cli.fusion_report.failed"]
    built = counts["trace_cells_built"]
    return {
        "cli.main.self_ms": ms("cli.main", True),
        "cli.build_parser.ms": ms("cli.build_parser"),
        "document.parse_scenario.ms": ms("document.parse_scenario"),
        "document.scenario_digest.ms": ms("document.scenario_digest"),
        "document.emit_scenario.ms": ms("document.emit_scenario"),
        "document.bytes_in": counts["bytes_in"] / ops,
        "scenario.evidence_for.ms": ms("scenario.evidence_for"),
        "scenario.predict.self_ms": ms("scenario.predict", True),
        "scenario.select_winner.ms": ms("scenario.select_winner"),
        "scenario.sweep.self_ms": ms("scenario.sweep", True),
        "scenario.conditions": conditions / ops,
        "scenario.failed_ratio": ratio(failed, conditions),
        "fusion.fuse_all.self_ms": ms("fusion.fuse_all", True),
        "fusion.combine_traced.ms": ms("fusion.combine_traced"),
        "fusion.fold.self_ms": ms("fusion.fold", True),
        "fusion.steps": counts["steps"] / ops,
        "fusion.cells": counts["cells"] / ops,
        "fusion.cells_kept_ratio": ratio(counts["cells_kept"], counts["cells"]),
        "fusion.ns_per_cell": ratio(layers.get("fusion.combine_traced", (0, 0))[1], built),
        "fusion.focals_max": maxes["focals"],
        "fusion.conflict_max": maxes["conflict"],
        "fusion.refusals": sum(counts[f"dsfusion.{key}.failed"] for key in (
            "scenario.fuse_all", "fusion.fuse_all", "fusion.fold")) / ops,
        "fusion.trace_cells_built": built / ops,
        "render.trace_cells_rendered": counts["trace_cells_rendered"] / ops,
        "fusion.trace_cells_used_ratio": ratio(counts["trace_cells_rendered"], built),
        "backend.combine_products.ms": ms("backend.combine_products"),
        "backend.calls": calls("backend.combine_products") / ops,
        "backend.ns_per_pair": ratio(layers.get("backend.combine_products", (0, 0))[1],
                                     counts["backend_pairs"]),
        "mass.simple_support.ms": ms("mass.simple_support"),
        "mass.belief.calls": calls("mass.belief") / ops,
        "mass.belief.ms": ms("mass.belief"),
        "render.fuse_text.ms": ms("render.fuse_text"),
        "render.fuse_json.ms": ms("render.fuse_json"),
        "render.sweep_text.ms": ms("render.sweep_text"),
        "render.sweep_json.ms": ms("render.sweep_json"),
        "render.sweep_csv.ms": ms("render.sweep_csv"),
        "render.bytes_out": counts["bytes_out"] / ops,
    }
