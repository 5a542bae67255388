"""Checks the benchmark itself.  Run from the repository root:

    python3 perfbench/selfcheck.py [--seed N] [--rounds K] [--workload NAME ...]

1. For each workload, one untraced and two traced runs of the same seed and
   the same number of distinct rounds: all three attempt and fail the same
   number of operations, each traced run passes its own traced-against-
   untraced check, and ``jetgroup.einsum_calls`` repeats exactly between the
   traced runs (whose traced passes run a fixed number of rounds).
2. A copy holding only BENCHMARK.json and this directory exits non-zero
   without printing a result.

Exits 1 and names the check if any of them fails.
"""
import argparse
import shutil
import sys
from pathlib import Path

from all import run_workload
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=1)
    parser.add_argument("--workload", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    problems = []

    for workload in args.workload:
        runs = [run_workload(ROOT, workload, args.seed, 1, trace, args.rounds)
                for trace in (0, 1, 1)]
        if any(result is None for _, result in runs):
            problems.append(f"{workload}: exit codes {[proc.returncode for proc, _ in runs]}")
            continue
        plain, traced, again = (result for _, result in runs)
        counts = [(r["attempted"], r["failed"]) for r in (plain, traced, again)]
        einsum = [r["metrics"]["jetgroup.einsum_calls"]["value"] for r in (traced, again)]
        print(f"{workload}: (attempted, failed) {counts}; jetgroup.einsum_calls {einsum}; "
              f"correct {[r['correct'] for r in (plain, traced, again)]}")
        if len(set(counts)) != 1:
            problems.append(f"{workload}: attempted/failed differ between runs: {counts}")
        if einsum[0] != einsum[1]:
            problems.append(f"{workload}: jetgroup.einsum_calls does not repeat: {einsum}")
        if not (traced["correct"] and again["correct"]) and plain["correct"]:
            problems.append(f"{workload}: a traced run is incorrect where the untraced one is not")

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc, result = run_workload(bare, next(iter(WORKLOADS)), args.seed, 1, 0, 1)
    shutil.rmtree(bare)
    if proc.returncode == 0 or result is not None:
        problems.append(f"without the package source the run exited {proc.returncode}")

    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
