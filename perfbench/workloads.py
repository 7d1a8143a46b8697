"""Seeded inputs and the benchmark workloads.

Every workload is a closed loop with one caller: op i starts when op i-1
has returned.  A workload builds its inputs from the seed (``__init__``),
computes and validates its references (``prepare``, not part of set-up
time), and runs op i of its fixed schedule (``run``), returning the op's
wall time, CPU time, whether its output matched the reference, and the
child's peak RSS in KiB (0 for in-process ops).

Input sizes are stratified: item j of a pool has a size fixed by j alone
(label count, source count, condition count and a target final focal
count), and the seed only draws the subsets and weights within those
sizes.  Different seeds therefore cost about the same, which keeps the
run-to-run spread small.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, replace
from pathlib import Path

import dsfusion
import dsfusion.cli
import dsfusion.document
import dsfusion.fusion
import dsfusion.scenario
from checks import (
    SCALE,
    TOL,
    Mismatch,
    Spec,
    check_fuse_json,
    check_fuse_table,
    check_masses,
    check_sweep_csv,
    check_sweep_json,
    check_sweep_table,
    check_winner,
    exact_condition,
    expected_sweep_exit,
    spec_from_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"
WARMUP_OPS = 10
# oracle_fuse_all enumerates every focal tuple; keep it to small folds
ORACLE_MAX_SOURCES = 10
# fuse_all builds every cell; compare it with fold on one problem in four
FUSE_ALL_SAMPLE = 4
_now = time.perf_counter_ns
_cpu = time.process_time_ns


def cli_env() -> dict[str, str]:
    """Environment for CLI children: this checkout's src first on PYTHONPATH."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def evenly_spaced(items: list, count: int) -> list:
    """``count`` items spread over ``items``, in order.

    Taken from a pool in generation order, where size follows the index,
    so the warm-up does the same amount of work whatever the seed."""
    return items[::max(1, len(items) // count)][:count]


# ---------------------------------------------------------------- generators

def _random_subset(rng: random.Random, n_labels: int, size: int) -> int:
    mask = 0
    for i in rng.sample(range(n_labels), size):
        mask |= 1 << i
    return mask


def focal_family(
    rng: random.Random, n_labels: int, n_sources: int, target: int, min_size: int
) -> list[int]:
    """Focal masks for n_sources simple supports whose fold ends with about
    ``target`` focal elements (within [0.95, 1.05] x target, rounded out).

    The final focal set of a fold of simple supports is the closure of the
    focals and the full frame under non-empty intersection, so it can be
    sized without running the program.  The distinct focals come first and
    the repeats after, so the accumulated focal count, and with it the cost
    of each later step, is near the target for most of the fold.
    """
    full = (1 << n_labels) - 1
    low, high = int(0.95 * target), -(-21 * target // 20)
    for _ in range(100_000):
        closure, chosen = {full}, []
        while len(closure) < low and len(chosen) < n_sources:
            focal = _random_subset(rng, n_labels, rng.randint(min_size, n_labels - 1))
            if focal in chosen:
                continue
            chosen.append(focal)
            closure |= {a & focal for a in closure if a & focal}
        if low <= len(closure) <= high:
            return chosen + [rng.choice(chosen) for _ in range(n_sources - len(chosen))]
    raise ValueError(f"no focal family of {target} focals on {n_labels} labels")


def scenario_document(
    rng: random.Random,
    n_labels: int,
    n_sources: int,
    n_conditions: int,
    target: int,
    conflicting: bool = False,
) -> tuple[str, Spec]:
    """A scenario document and its Spec.

    A conflicting document ends with two sources on {h0} and {h1}; in every
    third condition (1, 4, 7, ...) both carry weight 1, which is total
    conflict: sweep reports an ERROR row there and exits 3.
    """
    labels = tuple(f"h{i}" for i in range(n_labels))
    masks = focal_family(rng, n_labels, n_sources, target, max(1, n_labels // 3))
    if conflicting:
        masks[-2:] = [1, 2]
    weights = []
    for c in range(n_conditions):
        row = [rng.randint(50, 950) for _ in masks]
        if conflicting and c % 3 == 0:
            row[-2:] = [SCALE, SCALE]
        weights.append(tuple(row))
    spec = Spec(labels, tuple(masks), tuple(weights))
    document = {
        "frame": list(labels),
        "sources": [
            {
                "name": f"s{i}",
                "focal": spec.key(mask).split("+"),
                "bpa": [weights[c][i] / SCALE for c in range(n_conditions)],
            }
            for i, mask in enumerate(masks)
        ],
    }
    return json.dumps(document, indent=2) + "\n", spec


# ---------------------------------------------------------------- CLI ops

@dataclass
class CliOp:
    """One CLI invocation, its validator and its reference output.

    ``command`` is "sweep", "fuse" or "export-builtin"; ``source`` is
    ``["--builtin", "takraw"]`` or ``["--scenario", PATH]``; ``fmt`` "table"
    is the default and is not passed on the command line.
    """

    command: str
    source: list[str]
    spec: Spec
    fmt: str = "table"
    condition: int = 0
    trace: bool = False
    out_path: Path | None = None  # export-builtin writes here instead of stdout
    ref: tuple[int, str] | None = None
    ref_error: str | None = None

    @property
    def argv(self) -> list[str]:
        if self.command == "export-builtin":
            return ["export-builtin", "takraw", "--out", str(self.out_path)]
        argv = [self.command, *self.source]
        if self.command == "fuse":
            argv += ["--condition", str(self.condition)] + ["--trace"] * self.trace
        return argv + ([] if self.fmt == "table" else ["--format", self.fmt])

    def validate(self, code: int, text: str, exact) -> None:
        """Hold one output to the exact fold; raises Mismatch."""
        spec = self.spec
        expected_exit = 0
        if self.command == "export-builtin":
            if spec_from_scenario(dsfusion.document.parse_scenario(text)) != spec:
                raise Mismatch("exported document does not round-trip to the builtin")
        elif self.command == "sweep":
            runs = [exact(spec, c) for c in range(1, len(spec.weights) + 1)]
            check = {"json": check_sweep_json, "csv": check_sweep_csv,
                     "table": check_sweep_table}[self.fmt]
            check(spec, runs, text)
            expected_exit = expected_sweep_exit(runs)
        elif self.fmt == "json":
            check_fuse_json(spec, exact(spec, self.condition), self.condition, text)
        else:
            check_fuse_table(spec, exact(spec, self.condition), self.condition, text, self.trace)
        if code != expected_exit:
            raise Mismatch(f"exit {code}, expected {expected_exit}")

    def matches(self, code: int, text: str) -> bool:
        return self.ref_error is None and (code, text) == self.ref


def run_cli_in_process(argv: list[str]) -> tuple[int, int, int, str]:
    """cli.main(argv) with stdout captured: (wall ns, cpu ns, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    main = dsfusion.cli.main
    with redirect_stdout(out), redirect_stderr(err):
        t0, c0 = _now(), _cpu()
        code = main(argv)
        c1, t1 = _cpu(), _now()
    return t1 - t0, c1 - c0, code, out.getvalue()


def _oracle_check(spec: Spec, document: str, exact) -> None:
    """dsfusion's exact-rational oracle agrees with the exact fold (small folds)."""
    if len(spec.masks) > ORACLE_MAX_SOURCES:
        return
    scenario = dsfusion.document.parse_scenario(document)
    for c in range(1, len(spec.weights) + 1):
        run = exact(spec, c)
        if run.refused:
            continue
        oracle = dsfusion.fusion.oracle_fuse_all(dsfusion.scenario.evidence_for(scenario, c))
        acc, total = run.final
        got = dict(oracle.mask_items())
        if list(got) != list(acc) or any(abs(got[m] - v / total) > TOL for m, v in acc.items()):
            raise Mismatch(f"oracle_fuse_all disagrees with the exact fold, condition {c}")


def corrupted(spec: Spec) -> Spec:
    """The spec with source 0's weight moved far in every condition: a
    reference that every output of that scenario must disagree with."""
    return replace(spec, weights=tuple(
        (50 if row[0] > SCALE // 2 else 950, *row[1:]) for row in spec.weights))


class CliWorkload:
    """Base for workloads whose ops are CLI invocations."""

    subprocess = False

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.workdir = workdir
        self.ops: list[CliOp] = []
        self.documents: dict[Spec, str] = {}  # for the oracle cross-check

    @property
    def cycle(self) -> int:
        """Length of the op schedule."""
        return len(self.ops)

    def add_document(self, name: str, text: str, spec: Spec) -> Path:
        self.documents[spec] = text
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        return path

    def warm_up(self) -> None:
        for op in self.warm_ops:
            run_cli_in_process(op.argv)

    def prepare(self, corrupt: bool) -> None:
        """Run every distinct op in process once and validate its output.

        With ``corrupt``, the first op's scenario gets a wrong exact
        reference, so its ops must all count as failed.
        """
        if corrupt:
            bad = self.ops[0].spec
            for op in self.ops:
                if op.spec == bad:
                    op.spec = corrupted(bad)
            self.documents[self.ops[0].spec] = self.documents[bad]
        memo: dict[tuple[Spec, int], object] = {}

        def exact(spec: Spec, condition: int):
            if (spec, condition) not in memo:
                memo[spec, condition] = exact_condition(spec, condition)
            return memo[spec, condition]

        oracle_errors = {}
        for spec, document in self.documents.items():
            try:
                _oracle_check(spec, document, exact)
            except Mismatch as exc:
                oracle_errors[spec] = str(exc)
        refs: dict[tuple[str, ...], tuple] = {}
        for op in self.ops:
            key = tuple(op.argv)
            if key not in refs:
                _, _, code, text = run_cli_in_process(op.argv)
                if op.out_path is not None:
                    text = op.out_path.read_text(encoding="utf-8")
                error = oracle_errors.get(op.spec)
                try:
                    op.validate(code, text, exact)
                except (Mismatch, ValueError, KeyError, IndexError, StopIteration) as exc:
                    error = f"{' '.join(op.argv)}: {type(exc).__name__}: {exc}"
                refs[key] = ((code, text), error)
            op.ref, op.ref_error = refs[key]

    def run(self, i: int, tracer=None):
        op = self.ops[i % len(self.ops)]
        wall, cpu, code, text = run_cli_in_process(op.argv)
        return wall, cpu, op.matches(code, text), 0


class ScenarioSweep(CliWorkload):
    """In-process ``sweep --scenario`` over generated, builtin and conflicting documents."""

    name = "scenario_sweep"

    def __init__(self, seed: int, small: bool, workdir: Path):
        super().__init__(seed, small, workdir)
        rng = self.rng
        docs = []
        for j in range(6 if small else 48):
            n_labels = 3 + j % 6
            target = min(1 << (n_labels - 1), 4 + (j * 7) % 20)
            text, spec = scenario_document(
                rng, n_labels, 6 + (j * 7) % 15, 3 + (j * 5) % 10, target)
            docs.append((self.add_document(f"doc{j}.json", text, spec), spec))
        # fixed shares: 8 generated : 1 builtin : 1 conflicting
        extra = max(1, len(docs) // 8)
        builtin = dsfusion.scenario.builtin_takraw_scenario()
        takraw_spec = spec_from_scenario(builtin)
        takraw = self.add_document(
            "takraw.json", dsfusion.document.emit_scenario(builtin), takraw_spec)
        docs += [(takraw, takraw_spec)] * extra
        for j in range(extra):
            text, spec = scenario_document(rng, 3 + j % 6, 6 + (j * 5) % 15,
                                           3 + (j * 7) % 10, 4, conflicting=True)
            docs.append((self.add_document(f"conflict{j}.json", text, spec), spec))
        for path, spec in docs:
            for fmt in ("csv", "json", "table"):
                self.ops.append(CliOp("sweep", ["--scenario", str(path)], spec, fmt))
        self.warm_ops = evenly_spaced(self.ops, WARMUP_OPS)
        rng.shuffle(self.ops)


class CliOneshot(CliWorkload):
    """``python -m dsfusion.cli`` as a fresh subprocess per op."""

    name = "cli_oneshot"
    subprocess = True

    def __init__(self, seed: int, small: bool, workdir: Path):
        super().__init__(seed, small, workdir)
        rng = self.rng
        self.env = cli_env()
        builtin = dsfusion.scenario.builtin_takraw_scenario()
        takraw = spec_from_scenario(builtin)
        self.documents[takraw] = dsfusion.document.emit_scenario(builtin)
        source = ["--builtin", "takraw"]
        paths = []
        for j in range(2):
            text, spec = scenario_document(rng, 4 + j, 8 + 2 * j, 6, 8 + 4 * j)
            paths.append((["--scenario", str(self.add_document(f"oneshot{j}.json", text, spec))],
                          spec))
        c1, c2, c3 = rng.sample(range(1, 10), 3)
        self.ops = [
            CliOp("sweep", source, takraw, "table"),
            CliOp("sweep", source, takraw, "json"),
            CliOp("sweep", source, takraw, "csv"),
            CliOp("fuse", source, takraw, "table", c1),
            CliOp("fuse", source, takraw, "table", c2, trace=True),
            CliOp("fuse", source, takraw, "json", c3),
            CliOp("fuse", *paths[0], "table", rng.randint(1, 6)),
            CliOp("sweep", *paths[1], "table"),
            CliOp("export-builtin", source, takraw, out_path=workdir / "export.json"),
        ]
        self.warm_ops = self.ops[:1]
        rng.shuffle(self.ops)

    def warm_up(self) -> None:
        self.run(self.ops.index(self.warm_ops[0]))

    def run(self, i: int, tracer=None):
        op = self.ops[i % len(self.ops)]
        if op.out_path is not None and op.out_path.exists():
            op.out_path.unlink()
        if tracer is None:
            cmd = [sys.executable, "-m", "dsfusion.cli", *op.argv]
        else:
            spans = self.workdir / f"spans-{i}.jsonl"
            cmd = [sys.executable, str(TRACED_CLI), str(spans), str(tracer.op), *op.argv]
        t0 = _now()
        child = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                 stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        out = child.stdout.read()
        child.stdout.close()
        # wait4 gives this child's own CPU time and peak RSS
        _, status, usage = os.wait4(child.pid, 0)
        wall = _now() - t0
        child.returncode = os.waitstatus_to_exitcode(status)
        text = out.decode("utf-8", errors="replace")
        if op.out_path is not None:
            text = op.out_path.read_text(encoding="utf-8") if op.out_path.exists() else ""
        if tracer is not None and spans.exists():
            tracer.merge(tracer.load(str(spans)))
            spans.unlink()
        cpu = int((usage.ru_utime + usage.ru_stime) * 1e9)
        return wall, cpu, op.matches(child.returncode, text), usage.ru_maxrss


# ---------------------------------------------------------------- library API

@dataclass
class FoldProblem:
    """One wide_fold op: simple supports to fold, and its reference."""

    sources: list
    spec: Spec
    sampled: bool  # also held to fuse_all's traced fold
    ref: tuple | None = None
    ref_error: str | None = None


class WideFold:
    """``fold`` + ``select_winner`` + belief/plausibility through the API."""

    name = "wide_fold"
    subprocess = False

    def __init__(self, seed: int, small: bool, workdir: Path):
        self.rng = random.Random(f"{self.name}:{seed}")
        pool = 4 if small else 72
        self.ops: list[FoldProblem] = []
        for j in range(pool):
            # final focal counts spread geometrically over 50..700
            target = round(50 * 14 ** (j / max(1, pool - 1)))
            n_labels = max(8 + j % 9, target.bit_length() + 2)
            n_sources = 20 + (j * 7) % 11
            masks = focal_family(self.rng, n_labels, n_sources, target, (2 * n_labels) // 3)
            weights = tuple(self.rng.randint(50, 950) for _ in masks)
            frame = dsfusion.Frame([f"h{i}" for i in range(n_labels)])
            sources = [
                dsfusion.MassFunction.simple_support(frame.subset_from_mask(m), w / SCALE)
                for m, w in zip(masks, weights)
            ]
            spec = Spec(frame.labels, tuple(masks), (weights,))
            self.ops.append(FoldProblem(sources, spec, sampled=j % FUSE_ALL_SAMPLE == 0))
        self.warm_ops = evenly_spaced(self.ops, WARMUP_OPS)
        self.rng.shuffle(self.ops)

    @property
    def cycle(self) -> int:
        return len(self.ops)

    def warm_up(self) -> None:
        for p in self.warm_ops:
            self._op(p.sources)

    @staticmethod
    def _op(sources):
        final = dsfusion.fusion.fold(sources)
        winner = dsfusion.scenario.select_winner(final)
        return final, winner, final.belief(winner), final.plausibility(winner)

    def prepare(self, corrupt: bool) -> None:
        """Reference per problem: the exact-rational fold within TOL; on the
        fixed sample (every FUSE_ALL_SAMPLE-th problem by size), also
        ``fold(s) == fuse_all(s).final`` bit for bit."""
        if corrupt:
            self.ops[0].spec = corrupted(self.ops[0].spec)
        for p in self.ops:
            final, winner, bel, pl = p.ref = self._op(p.sources)
            spec = p.spec
            try:
                if p.sampled and final != dsfusion.fusion.fuse_all(p.sources).final:
                    raise Mismatch("fold(s) != fuse_all(s).final")
                run = exact_condition(spec, 1)
                check_masses(spec, {spec.key(m): v for m, v in final.mask_items()},
                             run.final, TOL, "fold")
                check_winner(spec, run.final, winner.mask, (final.mass(winner), bel, pl), TOL)
            except Mismatch as exc:
                p.ref_error = str(exc)

    def run(self, i: int, tracer=None):
        p = self.ops[i % len(self.ops)]
        t0, c0 = _now(), _cpu()
        result = self._op(p.sources)
        c1, t1 = _cpu(), _now()
        return t1 - t0, c1 - c0, p.ref_error is None and result == p.ref, 0


WORKLOADS = {w.name: w for w in (CliOneshot, ScenarioSweep, WideFold)}
