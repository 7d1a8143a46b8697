"""Self-test of the benchmark, every workload at its smallest size.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

For each workload of BENCHMARK.json it checks that

* an untraced run is correct and emits exactly the ``end_to_end`` metric
  names, and a traced run exactly the ``per_layer`` names;
* a run whose first reference is deliberately corrupted counts failed ops,
  so its error rate (``failed / attempted``, and ``1 - success_rate``) is
  above 0;

and that run.py, copied into a directory without ``src/dsfusion``, exits
non-zero without printing a result.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, *args: str) -> tuple[int, dict | None]:
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args, "--small"],
        cwd=root, capture_output=True, text=True, timeout=180)
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if done.returncode and result is None:
        sys.stderr.write(done.stderr[-2000:])
    return done.returncode, result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {
        0: [m["name"] for m in bench["end_to_end"]],
        1: [m["name"] for m in bench["per_layer"]],
    }
    failures = 0

    def check(ok: bool, what: str) -> None:
        nonlocal failures
        failures += not ok
        print(f"[selftest] {what}: {'PASS' if ok else 'FAIL'}", flush=True)

    for workload in (w["name"] for w in bench["workloads"]):
        base = ["--workload", workload, "--seed", "1", "--seconds", "1"]
        for trace in (0, 1):
            code, result = run(ROOT, *base, "--trace", str(trace))
            check(code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1
                  and list(result["metrics"]) == names[trace],
                  f"{workload} trace={trace} correct, metric names match BENCHMARK.json")
        code, result = run(ROOT, *base, "--trace", "0", "--corrupt-reference")
        check(code == 0 and result is not None and not result["correct"]
              and result["failed"] > 0
              and result["metrics"]["success_rate"]["value"] < 1,
              f"{workload} corrupted reference gives error rate > 0")

    bare = Path(tempfile.mkdtemp(dir=ROOT, prefix=".perfbench_bare-"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        first = bench["workloads"][0]["name"]
        code, result = run(bare, "--workload", first, "--seed", "1", "--seconds", "1")
        check(code != 0 and result is None, "no src/dsfusion: non-zero exit, no result")
    finally:
        shutil.rmtree(bare)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
