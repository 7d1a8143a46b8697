"""The benchmark harness still runs against this checkout.

``perfbench/tracer.py`` patches render and CLI functions by name and reads
``RunReport.report.steps``, so a refactor of that layer can break traced
benchmark runs while every unit test stays green.  The harness's own
self-test runs each workload once, traced and untraced, at its smallest size.
A hooked name that no longer exists only makes a per-layer metric read 0,
which the self-test does not see, so the hooked names are checked too.
"""

import importlib
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Tracer rows whose function is gone from dsfusion, kept until the tracer
# drops them: the combination backend and the CSV writer of fuse.
STALE_HOOKS = {"dsfusion.fusion.combine_products", "dsfusion.cli.fuse_csv"}


def test_tracer_hooks_name_existing_functions():
    # run_path executes the tracer's source without writing its bytecode
    patches = runpy.run_path(str(ROOT / "perfbench" / "tracer.py"))["PATCHES"]
    missing = set()
    for module_name, attr, _, _ in patches:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.add(f"{module_name}.{attr}")
    assert missing <= STALE_HOOKS


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
