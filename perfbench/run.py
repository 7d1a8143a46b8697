"""dsfusion end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_oneshot, scenario_sweep, wide_fold (see perfbench/README.md).
With ``--trace 0`` the last stdout line holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics of a
traced run.  The line before it stamps the run
(Python version, git SHA, source digest, backend, nproc, seed, sample
counts).  Spans of a traced run are written to
``.perfbench_runs/spans-<workload>.jsonl``.

Exits 1 without a result when the checkout has no ``src/dsfusion``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_runs"
SETUP_PROBES = 4  # before and again after the timed loop
MIN_SAMPLES = 200  # so that p90 rests on twenty samples beyond it
STARTUP_PROBES = 5


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="smallest pools and one probe each (self-test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="give the first op a wrong reference (self-test)")
    return parser.parse_args()


def load_program():
    """Import dsfusion from this checkout's src/, never from elsewhere."""
    if not (SRC / "dsfusion" / "__init__.py").is_file():
        sys.exit(f"perfbench: {SRC / 'dsfusion'} not found; run from a dsfusion checkout")
    sys.path.insert(0, str(SRC))
    import dsfusion

    if Path(dsfusion.__file__).resolve().parent != SRC / "dsfusion":
        sys.exit(f"perfbench: imported dsfusion from {dsfusion.__file__}, not {SRC}")
    return dsfusion


def stamp(dsfusion, args) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "dsfusion").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    backend = getattr(dsfusion, "backend_name", None)
    return {
        "python": platform.python_version(),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "backend": backend() if backend else None,
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Loop:
    """Closed loop, one caller: run ops back to back for ``seconds``.

    The ops cycle through the workload's fixed schedule, so every whole
    cycle runs the same op mix.  Rates, CPU time and latencies come from the
    slowest whole cycles: at least a quarter of them and at least
    MIN_SAMPLES ops.  On a shared host the CPU runs in bursts of extra speed
    that last seconds; the slowest cycles are its steady floor, which is
    what makes runs taken at different times comparable.
    """

    def __init__(self, workload, seconds: float, tracer=None, first_op: int = 0):
        latency, cpu, ends, rss = [], [], [], []
        self.failed = 0
        i = first_op
        start = time.perf_counter_ns()
        deadline = start + int(seconds * 1e9)
        while True:
            if tracer is not None:
                tracer.op = i
            wall, used, ok, peak = workload.run(i, tracer)
            ends.append(time.perf_counter_ns())
            latency.append(wall)
            cpu.append(used)
            rss.append(peak)
            self.failed += not ok
            i += 1
            if ends[-1] >= deadline:
                break
        self.ops = len(latency)
        self.rss_kib = rss
        cycle = min(workload.cycle, self.ops)
        cycles = sorted(
            ((ends[b + cycle - 1] - (ends[b - 1] if b else start), b)
             for b in range(0, self.ops - cycle + 1, cycle)),
            reverse=True)
        keep = max(-(-len(cycles) // 4), -(-MIN_SAMPLES // cycle))
        slowest = cycles[:keep]
        picked = [j for _, b in slowest for j in range(b, b + cycle)]
        self.latency_ns = [latency[j] for j in picked]
        self.ops_per_s = len(picked) * 1e9 / sum(wall for wall, _ in slowest)
        self.cpu_ms_per_op = sum(cpu[j] for j in picked) / len(picked) / 1e6


def probe_setup(args, reps: int) -> list[float]:
    """Set-up seconds of ``reps`` fresh interpreters (setup_probe.py)."""
    times = []
    for _ in range(reps):
        workdir = tempfile.mkdtemp(dir=OUT, prefix="probe-")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py"), args.workload,
                 str(args.seed), "1" if args.small else "0", workdir],
                cwd=ROOT, capture_output=True, text=True, check=True)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def end_to_end(workload, args) -> tuple[dict, dict, int, int]:
    """Untraced run: the end-to-end metrics, sample counts, ops, failed ops."""
    probes = 1 if args.small else SETUP_PROBES
    setup = probe_setup(args, probes)
    loop = Loop(workload, args.seconds)
    setup += probe_setup(args, probes)
    lat = loop.latency_ns
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    if workload.subprocess:
        peak_kib = max(loop.rss_kib)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": loop.ops_per_s,
        "latency_p50_ms": statistics.median(lat) / 1e6,
        "latency_p90_ms": p90 / 1e6,
        "cpu_ms_per_op": loop.cpu_ms_per_op,
        "success_rate": (loop.ops - loop.failed) / loop.ops,
        "peak_rss_mib": peak_kib / 1024,
    }
    samples = {"setup_s": len(setup), "latency_p50_ms": len(lat), "latency_p90_ms": len(lat),
               "ops_per_s": len(lat), "cpu_ms_per_op": len(lat), "ops_run": loop.ops}
    return values, samples, loop.ops, loop.failed


def per_layer(workload, args, stamp_info) -> tuple[dict, dict, int, int]:
    """Half the time untraced, half traced: the per-layer metrics."""
    from layers import (
        baseline_rows, layer_metrics, startup_probes, time_baseline, traced_baseline_pass,
    )
    from tracer import Tracer

    plain = Loop(workload, args.seconds / 2)
    rows = baseline_rows()
    values = time_baseline(rows)
    tracer = Tracer()
    if not workload.subprocess:
        tracer.install()
    traced = Loop(workload, args.seconds / 2, tracer, first_op=plain.ops)
    tracer.uninstall()
    # the baseline pass has its own tracer: its spans stand in only for
    # layers the workload never called, and never enter the counters
    fallback = Tracer()
    fallback.install()
    extra = traced_baseline_pass(rows, fallback, plain.ops + traced.ops)
    fallback.uninstall()
    values |= layer_metrics(tracer, fallback, traced.ops)
    values["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
    values |= startup_probes(1 if args.small else STARTUP_PROBES)
    tracer.merge({"spans": fallback.spans, "counts": {}, "maxes": {}})
    tracer.dump(str(OUT / f"spans-{args.workload}.jsonl"), stamp_info)
    samples = {"untraced_ops": plain.ops, "traced_ops": traced.ops, "baseline_pass_ops": extra}
    ops = plain.ops + traced.ops
    return values, samples, ops, plain.failed + traced.failed


def main() -> int:
    args = parse_args()
    dsfusion = load_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    info = stamp(dsfusion, args)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="work-"))
    try:
        workload = WORKLOADS[args.workload](args.seed, args.small, workdir)
        workload.prepare(args.corrupt_reference)
        workload.warm_up()
        if args.trace:
            values, samples, attempted, failed = per_layer(workload, args, info)
        else:
            values, samples, attempted, failed = end_to_end(workload, args)
        reference_errors = sorted({op.ref_error for op in workload.ops if op.ref_error})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"stamp": info, "samples": samples,
                      "reference_errors": reference_errors[:5]}))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
