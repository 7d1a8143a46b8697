"""A mutant check: each stated rule has a test that fails without it.

``MUTANTS`` lists, for each rule that the README or a docstring states, a
piece of text in a module under ``src/dsfusion``, the text that breaks the
rule in its place, and the test files that must then fail.  Run it from any
directory:

    python tests/mutants.py

Each mutant is applied to a temporary copy of ``src``, ``tests``,
``pyproject.toml`` and ``README.md``, so that the tests which start
``python -m dsfusion.cli`` run the mutant too, and its test files run in a
child ``pytest -x``.  The script prints, per mutant, killed (a test failed),
survived (every test passed) or equivalent (not run: it computes what the
original does, for the reason given), with the seconds the run took, and
exits 1 if any mutant survived.  A test that fails on the unmutated tree
reads as a kill too, so run the tests first.  Mutation testing after
DeMillo, Lipton and Sayward, "Hints on Test Data Selection", IEEE Computer
11(4), 1978.

pytest imports this module (``--doctest-modules``) but collects no test
from it; only running it as a script does any work.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    file: str  # a module under src/dsfusion
    original: str  # occurs exactly once in that module
    mutant: str
    tests: tuple[str, ...]  # test files, relative to the repository root
    equivalent: str | None = None  # why the mutant computes what the original does


MUTANTS = (
    # A zero is no focal element.
    Mutant(
        "mass.py",
        "        if 0.0 in masses.values():\n"
        "            masses = {mask: m for mask, m in masses.items() if m}\n",
        "",
        ("tests/test_fusion.py",),
    ),
    # The step rule: skip the division only when k is exactly 0 ...
    Mutant(
        "fusion.py",
        "    if k == 0.0 and abs(total - 1.0) <= SUM_TOLERANCE:",
        "    if abs(total - 1.0) <= SUM_TOLERANCE:",
        ("tests/test_fusion.py",),
    ),
    # ... refuse once k reaches the threshold ...
    Mutant(
        "fusion.py",
        "    if k >= 1.0 - CONFLICT_EPSILON:",
        "    if k > 1.0 - CONFLICT_EPSILON:",
        ("tests/test_scenario.py",),
    ),
    # ... and divide by the kept weight, not by 1 - k.
    Mutant(
        "fusion.py",
        "    return total\n",
        "    return 1.0 - k\n",
        ("tests/test_fusion.py",),
    ),
    Mutant(
        "fusion.py",
        "    if divisor != 1.0:\n        products = {mask: p / divisor",
        "    if True:\n        products = {mask: p / divisor",
        ("tests/test_fusion.py",),
        "the rule returns 1.0 only to skip the division, and x / 1.0 == x exactly",
    ),
    # A step may cross FOLD_CELL_CAP focal pairs, and no more.
    Mutant(
        "fusion.py",
        "    if cells > FOLD_CELL_CAP:",
        "    if cells >= FOLD_CELL_CAP:",
        ("tests/test_fusion.py",),
    ),
    # fold and predict keep one step of the fold at a time.
    Mutant(
        "fusion.py",
        "    for final, _ in _fold_steps(sources):\n        pass\n    return final\n",
        "    return fuse_all(sources).final\n",
        ("tests/test_footprint.py",),
    ),
    Mutant(
        "scenario.py",
        "    ks = []\n"
        "    for final, k in _fold_steps(evidence_for(scenario, condition)):\n"
        "        ks.append(k)\n"
        "    return _prediction(condition, final, tuple(ks[1:]))\n",
        "    return prediction_from_report(fusion_report(scenario, condition), condition)\n",
        ("tests/test_footprint.py",),
    ),
    # Winner selection evaluates belief only for the maximal tied focals.
    Mutant(
        "scenario.py",
        "        if all(mask & ~other for other in maximal):",
        "        if True:",
        ("tests/test_footprint.py",),
    ),
    # Exact ties go to the higher belief, then to the lower subset mask.
    Mutant(
        "scenario.py",
        "(final.belief(s), -s.mask)",
        "(final.belief(s), s.mask)",
        ("tests/test_scenario.py",),
    ),
    Mutant(
        "scenario.py",
        "(final.belief(s), -s.mask)",
        "-s.mask",
        ("tests/test_scenario.py",),
    ),
    # The full frame never wins.
    Mutant(
        "scenario.py",
        "    if masks[-1] == frame._full_mask:",
        "    if False:",
        ("tests/test_scenario.py",),
    ),
    # Belief sums the focals within a subset, plausibility those meeting it.
    Mutant(
        "mass.py",
        "self._masses.items() if s & ~target == 0)",
        "self._masses.items() if s & target)",
        ("tests/test_mass.py",),
    ),
    Mutant(
        "mass.py",
        "self._masses.items() if s & target)",
        "self._masses.items() if s & ~target == 0)",
        ("tests/test_mass.py",),
    ),
    # Focal masks ascend on every path.
    Mutant(
        "fusion.py",
        "    if masks != list(products):",
        "    if False:",
        ("tests/test_fusion.py",),
    ),
    # sweep's replay carries a missing focal as 0.0 and counts only the
    # focals a row has against the cap: its nonzero slots, times 1 for a
    # source of weight 1.0 (no Θ) or 2 ...
    Mutant(
        "fusion.py",
        "_check_cap(step, (len(x) - x.count(0.0)) *",
        "_check_cap(step, len(x) *",
        ("tests/test_untraced.py",),
    ),
    Mutant(
        "fusion.py",
        "(1 if row[step] == 1.0 else 2)",
        "2",
        ("tests/test_untraced.py",),
    ),
    # ... and a row still under the cap there is folded by predict, not cut short.
    Mutant(
        "fusion.py",
        "            live = []\n            break\n",
        "            break\n",
        ("tests/test_untraced.py",),
    ),
    # fuse prints the steps exactly when its RunReport holds a report.
    Mutant(
        "render.py",
        "    if run.report is not None:",
        "    if False:",
        ("tests/test_cli.py",),
    ),
    # The JSON writer holds a level's items and their one joined string, and
    # no concatenated copy of it.
    Mutant(
        "document.py",
        '    items[0] = f"{ends[0]}{inner}{items[0]}"\n'
        '    items[-1] = f"{items[-1]}{indent}{ends[1]}"\n'
        "    return (\",\" + inner).join(items)\n",
        "    return ends[0] + inner + (\",\" + inner).join(items) + indent + ends[1]\n",
        ("tests/test_footprint.py",),
    ),
    # Usage and I/O errors exit 1, a total conflict 3, every other evidence error 2.
    Mutant(
        "cli.py",
        "        return EXIT_USAGE\n    return EXIT_CONFLICT",
        "        return EXIT_VALIDATION\n    return EXIT_CONFLICT",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli.py",
        "    if isinstance(exc, (OSError, UnicodeEncodeError)):",
        "    if isinstance(exc, OSError):",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli.py",
        "    return EXIT_CONFLICT if isinstance(exc, TotalConflictError) else EXIT_VALIDATION",
        "    return EXIT_VALIDATION",
        ("tests/test_cli.py",),
    ),
    Mutant(
        "cli.py",
        "isinstance(exc, TotalConflictError) else EXIT_VALIDATION",
        "isinstance(exc, TotalConflictError) else EXIT_USAGE",
        ("tests/test_cli.py",),
    ),
    # The argv reader leaves to argparse a command line without exactly one
    # source, with a repeated option, or with a value that is empty or starts
    # with "-".
    Mutant(
        "cli.py",
        "    if sources and sum(flag in given for flag, _ in sources) != 1:",
        "    if sources and sum(flag in given for flag, _ in sources) > 1:",
        ("tests/test_argv.py",),
    ),
    Mutant(
        "cli.py",
        "            if options is None or token in given:",
        "            if options is None:",
        ("tests/test_argv.py",),
    ),
    Mutant(
        "cli.py",
        '            if value.startswith("-"):',
        "            if False:",
        ("tests/test_argv.py",),
    ),
    Mutant(
        "cli.py",
        "        if not value:",
        "        if False:",
        ("tests/test_argv.py",),
    ),
    # A document needs at least one source ...
    Mutant(
        "document.py",
        "    if not isinstance(sources, list) or not sources:",
        "    if not isinstance(sources, list):",
        ("tests/test_document.py",),
    ),
    # ... repeats no key in an object, starts with no byte order mark ...
    Mutant(
        "document.py",
        "    if len(data) < len(pairs):",
        "    if False:",
        ("tests/test_document.py",),
    ),
    Mutant(
        "document.py",
        '    if text.startswith("\\ufeff"):',
        "    if False:",
        ("tests/test_cli.py",),
    ),
    # ... has exactly the top-level and per-source keys ...
    Mutant(
        "document.py",
        "    if set(data) != _TOP_KEYS:",
        "    if not _TOP_KEYS <= set(data):",
        ("tests/test_document.py",),
    ),
    Mutant(
        "document.py",
        "        if set(source) != _SOURCE_KEYS:",
        "        if not _SOURCE_KEYS <= set(source):",
        ("tests/test_document.py",),
    ),
    # ... and gives every source one weight per condition.
    Mutant(
        "document.py",
        "    if len(lengths) != 1:",
        "    if False:",
        ("tests/test_document.py",),
    ),
)


def run(mutant: Mutant) -> tuple[str, float]:
    """Run ``mutant``'s tests on a mutated copy: ("killed" or "survived", seconds)."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="dsfusion-mutant-") as tmp:
        for name in COPIED:
            source, target = ROOT / name, Path(tmp, name)
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copyfile(source, target)
        path = Path(tmp, "src", "dsfusion", mutant.file)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(mutant.original, mutant.mutant, 1), encoding="utf-8")
        paths = (str(Path(tmp, "src")), os.environ.get("PYTHONPATH"))  # the copy first
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests],
            cwd=tmp,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))},
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
    if child.returncode not in (0, 1):  # 1: a test failed; anything else is no verdict
        raise RuntimeError(f"pytest exited {child.returncode} on {mutant}")
    return ("killed" if child.returncode else "survived"), time.perf_counter() - start


def main() -> int:
    survivors = 0
    for i, mutant in enumerate(MUTANTS):
        change = f"{mutant.file}: {mutant.original.strip()!r} -> {mutant.mutant.strip()!r}"
        if mutant.equivalent:
            print(f"{i:2}  equivalent          {change}\n    ({mutant.equivalent})", flush=True)
            continue
        outcome, seconds = run(mutant)
        survivors += outcome == "survived"
        print(f"{i:2}  {outcome:<9} {seconds:6.1f} s  {change}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
