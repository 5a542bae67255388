"""Run every workload once and print one table.  Run from the repository root:

    python3 perfbench/all.py [--seed N] [--seconds T] [--trace 0|1]

Each workload runs in its own ``run.py`` process, exactly as a single run
would; their human-readable lines are repeated, then every metric is listed
by workload with its unit.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: int,
                 rounds: int | None = None):
    """Run ``run.py`` of ``root`` once; return the process and its parsed result line."""
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if rounds is not None:
        argv += ["--rounds", str(rounds)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=900)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if proc.returncode == 0 and lines else None)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    results = {}
    for name in WORKLOADS:
        proc, result = run_workload(HERE.parent, name, args.seed, args.seconds, args.trace)
        print(f"== {name} (exit {proc.returncode})")
        print("\n".join(proc.stdout.strip().splitlines()[:-1]))
        sys.stderr.write(proc.stderr)
        if result is None:
            return proc.returncode or 1
        results[name] = result
    print(f"{'metric':36s}" + "".join(f"{name:>16s}" for name in results))
    for key in ("attempted", "failed", "correct"):
        print(f"{key:36s}" + "".join(f"{str(r[key]):>16s}" for r in results.values()))
    first = next(iter(results.values()))
    for metric, entry in first["metrics"].items():
        print(f"{metric + ' (' + entry['unit'] + ')':36s}"
              + "".join(f"{r['metrics'][metric]['value']:16.6g}" for r in results.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
