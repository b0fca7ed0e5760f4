"""On-demand probe: the largest n each command finishes within a time limit.

Run from the repository root (takes about a minute per command):

    python3 bench/probe.py

For `count --n N`, `count --n N --avoid P1` and `table --n-max N` it runs
N = 1, 2, ... each in a fresh interpreter, stops a run once it exceeds
LIMIT_S (the child is killed and reaped), checks each finished output, and
prints one JSON object: the largest N per command with its wall time.
The figure is an integer, so it is reported, not gated: no workload of
run.py includes it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import oracles

ROOT = Path(__file__).resolve().parent.parent
MAX_N = 14  # the CLI's MAX_ARCS
LIMIT_S = 10.0  # the roadmap's figure: largest n finished in <= 10 s

COMMANDS = {
    "count": (lambda n: ["count", "--n", str(n)], lambda n, out: out == f"{oracles.fishburn(n)}\n"),
    "count_avoid_P1": (
        lambda n: ["count", "--n", str(n), "--avoid", "P1"],
        lambda n, out: out == f"{oracles.catalan(n)}\n",
    ),
    "table": (
        lambda n: ["table", "--n-max", str(n)],
        lambda n, out: "overall: PASS (" in out and out.rstrip().endswith(f"n_max={n})"),
    ),
}


def largest_n(argv_for, ok) -> dict:
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    best = {"n": 0, "seconds": 0.0}
    for n in range(1, MAX_N + 1):
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "stoimenow", *argv_for(n)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=LIMIT_S,
            )
        except subprocess.TimeoutExpired:
            break
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or not ok(n, proc.stdout):
            best["wrong_at"] = n
            break
        best = {"n": n, "seconds": elapsed}
    return best


def main() -> int:
    result = {name: largest_n(argv_for, ok) for name, (argv_for, ok) in COMMANDS.items()}
    print(json.dumps({"limit_s": LIMIT_S, "largest_n": result}))
    return 1 if any("wrong_at" in r for r in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
