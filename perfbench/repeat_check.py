"""Check that the traced counts repeat exactly across runs with one seed.

    python3 perfbench/repeat_check.py --workload evolve --seed 3

Runs ``run.py --trace 1`` twice and compares every metric that
``layers.repeats_exactly`` names (calls, rows, node steps, nodes, computed
bytes and the count ratios such as evolve.probe_ratio).  Exits 1 and lists
the differences if any value moved.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
        timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run not correct:\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()
            if layers.repeats_exactly(name)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    first, second = (traced_counts(args.workload, args.seed, args.seconds)
                     for _ in range(2))
    moved = {name: (first[name], second[name]) for name in first
             if first[name] != second[name]}
    for name, (a, b) in moved.items():
        print(f"{name}: {a} != {b}")
    print(f"{len(first) - len(moved)} of {len(first)} counts repeat exactly")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
