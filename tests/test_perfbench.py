"""The benchmark harness still runs against this checkout.

``perfbench/tracer.py`` patches render and CLI functions by name and reads
``RunReport.report.steps``, so a refactor of that layer can break traced
benchmark runs while every unit test stays green.  The harness's own
self-test runs each workload once, traced and untraced, at its smallest size.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
