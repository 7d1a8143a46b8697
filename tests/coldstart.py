"""A cold-start A/B: ``python -m dsfusion.cli sweep --builtin takraw`` run
from two source trees, in alternating rounds, in a clean venv.

    python tests/coldstart.py --a PATH/TO/OLD/src --b src --rounds 15
    python tests/coldstart.py --a PATH/TO/OLD/src --b src --rounds 15 --from-source

Each ``--a``/``--b`` tree is a directory that holds the ``dsfusion`` package.
The venv is made by ``venv.create(..., with_pip=False)`` in a temporary
directory, so nothing is downloaded and its ``site`` finds no ``.pth`` file
that imports modules before the command does: what dsfusion imports shows
in the time.  Every ``PYTHON*`` variable of the caller is dropped.  Each
tree runs with ``PYTHONPATH`` at the tree and its own temporary
``PYTHONPYCACHEPREFIX``, filled by one untimed run, so bytecode is cached
alike for both.  With ``--from-source``, the tree's own bytecode is then
removed from its prefix and none is written, so dsfusion is compiled on
every run while the standard library stays cached.

Round i runs ``python -c pass`` (the floor), then A and B, in the order
A, B for even i and B, A for odd i (ABBA), so a drift in machine speed
falls on both sides alike.  Wall time is taken around each child and child
CPU (user + system) from ``os.wait4``.  The script prints, per side, the
minimum and median of both, and the paired differences B - A per round: their median,
quartiles and the rounds in which B was lower.  POSIX only (``os.wait4``).

pytest imports this module (``--doctest-modules``) but collects no test
from it; only running it as a script does any work.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time
import venv
from pathlib import Path

COMMAND = ("-m", "dsfusion.cli", "sweep", "--builtin", "takraw")
FLOOR = ("-c", "pass")


def run(python: str, args: tuple[str, ...], env: dict[str, str]) -> tuple[float, float]:
    """Wall and child CPU milliseconds of one ``python args``, stdout discarded."""
    devnull = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
    start = time.perf_counter()
    pid = os.posix_spawn(python, [python, *args], env, file_actions=devnull)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status):
        raise RuntimeError(f"{python} {' '.join(args)} with {env} failed: status {status}")
    return wall * 1e3, (usage.ru_utime + usage.ru_stime) * 1e3


def tree_env(tree: Path, prefix: Path, python: str, from_source: bool) -> dict[str, str]:
    """The environment that runs ``tree``, its prefix warmed by one run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(tree), PYTHONPYCACHEPREFIX=str(prefix))
    run(python, COMMAND, env)
    if from_source:
        shutil.rmtree(prefix / tree.relative_to(tree.anchor), ignore_errors=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spread(values: list[float]) -> str:
    return f"min {min(values):7.2f}  median {statistics.median(values):7.2f}"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--a", type=Path, required=True, help="the first tree's src")
    parser.add_argument("--b", type=Path, required=True, help="the second tree's src")
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--from-source", action="store_true",
                        help="compile dsfusion on every run")
    args = parser.parse_args(argv)
    trees = {"A": args.a.resolve(), "B": args.b.resolve()}
    for tree in trees.values():
        if not (tree / "dsfusion" / "__init__.py").is_file():
            parser.error(f"{tree} holds no dsfusion package")
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="dsfusion-coldstart-") as tmp:
        os.chdir(tmp)  # -m puts the working directory first on sys.path
        try:
            venv.create("venv", with_pip=False, symlinks=os.name != "nt")
            python = str(Path(tmp, "venv", "bin", "python"))
            envs = {
                side: tree_env(tree, Path(tmp, f"pycache-{side}"), python, args.from_source)
                for side, tree in trees.items()
            }
            times: dict[str, list[tuple[float, float]]] = {"floor": [], "A": [], "B": []}
            for i in range(args.rounds):
                times["floor"].append(run(python, FLOOR, envs["A"]))
                for side in ("A", "B") if i % 2 == 0 else ("B", "A"):
                    times[side].append(run(python, COMMAND, envs[side]))
        finally:
            os.chdir(home)
    mode = "from source" if args.from_source else "bytecode cached"
    print(f"python {sys.version.split()[0]}, clean venv, {args.rounds} ABBA rounds, {mode}")
    print(f"{'':<6} {'wall ms':<32} child CPU ms")
    for side, label in (("floor", "python -c pass"), ("A", trees["A"]), ("B", trees["B"])):
        wall, cpu = zip(*times[side])
        print(f"{side:<6} {spread(wall):<32} {spread(cpu):<32} {label}")
    for what, index in (("wall", 0), ("CPU", 1)):
        diffs = [b[index] - a[index] for a, b in zip(times["A"], times["B"])]
        q1, q3 = quartiles(diffs)
        lower = sum(d < 0 for d in diffs)
        print(f"B - A {what:<4} median {statistics.median(diffs):7.2f} ms  "
              f"quartiles [{q1:.2f}, {q3:.2f}]  B lower in {lower} of {len(diffs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
