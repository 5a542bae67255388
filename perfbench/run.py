"""formalframes benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root; the package is imported from ``src/`` of that
checkout.  Workloads: jet-highorder, frame-forms, verify-desk, cli-oneshot
(see ``workloads.py``).  The run

* pins the BLAS thread count to ``BLAS_THREADS`` (recorded with the run),
* warms the lazy caches the workload uses, then runs the workload's
  ``distinct_rounds`` rounds of operations once in a closed loop with one
  client, checking every operation against its reference outside the timed
  region; then repeats the same rounds in turn, with the same inputs, timed
  but not checked, until T seconds from the start: a repeat that would end
  after T at the time the round first took is not started (``--rounds K``
  runs K distinct rounds once and no repeats instead),
* counts each operation once in ``attempted`` and ``failed``, so both depend
  on the seed only, not on how many repeats fitted in T seconds,
* with ``--trace 0`` reports the end-to-end metrics over the median time of
  each operation; set-up time is the median of ``PROBES`` fresh processes
  that import the package and warm the same caches,
* with ``--trace 1`` runs, after the untraced pass, the workload's first
  ``trace_rounds`` rounds again with the span tracer installed (a fixed
  number, so the per-layer values do not depend on how fast the untraced
  pass was), checks that both passes attempted and failed the same
  operations in those rounds, and reports the per-layer metrics of the
  traced pass, per operation.

Metric names, units and bounds are read from ``BENCHMARK.json`` at the root.

Human-readable lines go first; the last line of standard output is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
operations that raised, exited with an undocumented code or disagreed with
their reference (fail_ratio = failed / attempted); ``correct`` is false when
an output disagreed with its reference.  Records of the run, every operation
and, for traced runs, every span are written under ``.perfbench_out/``.
Exits 2 without a result when the package source is not in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1  # at most nproc; one thread keeps a single client's timings steady
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBES = 5


def manifest() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=manifest()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="run this many distinct rounds once, with no repeats, "
                             "instead of --seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")
    return args


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def run_phase(workload, seconds, rounds, checking):
    """Rounds 0..rounds-1 once, checked; then, with ``seconds``, the same
    rounds again in turn, timed only, while a repeat would end by the deadline
    at the busy time its round first took."""
    import inputs

    records, busy, number, start = [], [], 0, perf_counter()
    while number < rounds or (seconds is not None and
                              perf_counter() - start + busy[number % rounds] <= seconds):
        key, repeat = number % rounds, number >= rounds
        rng = inputs.generator(workload.seed, workload.index, inputs.INPUT_STREAM, key)
        check_rng = inputs.generator(workload.seed, workload.index, inputs.CHECK_STREAM, key)
        batch = workload.round(key, rng, check_rng, None if repeat else checking)
        for position, record in enumerate(batch):
            record.op = f"{key}.{position}"
        if not repeat:
            busy.append(sum(r.seconds for r in batch))
        records += batch
        number += 1
    return records, number


def per_operation(records):
    """The first (checked) record of each operation, and the median of its times.

    A repeat that raised where the first run did not, or the other way round,
    makes the operation a mismatch: the same inputs must give the same result.
    """
    runs = defaultdict(list)
    for record in records:
        runs[record.op].append(record)
    first, medians = [], []
    for group in runs.values():
        head = group[0]
        if any(r.raised != head.raised for r in group[1:]):
            head.status, head.detail = "mismatch", "a repeat with the same inputs " + (
                "did not raise" if head.raised else "raised")
        first.append(head)
        medians.append(statistics.median(r.seconds for r in group))
    return first, medians


def setup_probes(name: str, env: dict) -> list[float]:
    times = []
    for _ in range(PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "probe.py"), name],
                              capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def throughput(records) -> float:
    return len(records) / sum(r.seconds for r in records)


def report_failures(records, phase: str) -> None:
    bad = [r for r in records if r.status != "ok"]
    for r in bad[:5]:
        print(f"{phase} {r.status}: {r.label}: {r.detail}", file=sys.stderr)
    if len(bad) > 5:
        print(f"{phase}: {len(bad) - 5} more failures", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "formalframes" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'formalframes'}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy is first imported, here and in children
        os.environ[var] = str(BLAS_THREADS)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    import formalframes
    if Path(formalframes.__file__).resolve().parent != SRC / "formalframes":
        print(f"error: imported formalframes from {formalframes.__file__}", file=sys.stderr)
        return 2
    import numpy as np

    import metrics
    import warm
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    cls = WORKLOADS[args.workload]
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "rounds_requested": args.rounds, "trace": args.trace, "commit": commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "loop": "closed, one client, one process",
    }

    workload = cls(ROOT, args.seed, OUT)
    warm.warm(args.workload)
    distinct = args.rounds or cls.distinct_rounds
    records, rounds = run_phase(workload, None if args.rounds else args.seconds, distinct,
                                contextlib.nullcontext)
    executions = len(records)
    records, medians = per_operation(records)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    meta["rounds"] = {"distinct": distinct, "run": rounds}
    report_failures(records, "untraced")
    mismatches = sum(r.status == "mismatch" for r in records)
    failed = sum(r.status != "ok" for r in records)
    lat = metrics.latency_summary(medians)
    ops_per_s = len(medians) / sum(medians)
    correct = mismatches == 0
    print(f"# {json.dumps(meta)}")
    print(f"attempted {len(records)} ops in {distinct} distinct rounds, timed {executions} "
          f"times in {rounds} rounds; failed {failed}; "
          f"fail_ratio {failed / len(records):.4g} ({failed}/{len(records)})")
    for label, count in sorted(Counter(r.label for r in records if r.status != "ok").items()):
        print(f"  failed {label}: {count}")
    print(f"ops_per_s {ops_per_s:.6g} 1/s ({len(medians)} ops over the sum of their "
          f"median times, {sum(medians):.3f} s)")
    print(f"op_p50_ms {lat['p50'] * 1e3:.6g} ms (n={lat['count']} operation medians)")
    print(f"op_tail_ms {lat['tail'] * 1e3:.6g} ms (p{lat['tail_percentile']:g}, "
          f"n={lat['count']} operation medians, {lat['beyond']} beyond)")

    run_record = {"meta": meta, "ops": [dict(vars(r), median_s=m)
                                        for r, m in zip(records, medians)]}
    if args.trace == 0:
        setups = setup_probes(args.workload, dict(os.environ))
        setup_s = statistics.median(setups)
        print(f"setup_s {setup_s:.6g} s (median of {len(setups)} fresh processes)")
        whose = "largest command process" if who == resource.RUSAGE_CHILDREN else "this process"
        print(f"peak_rss_mb {peak_rss_mb:.6g} MB ({whose})")
        values = {"ops_per_s": ops_per_s, "op_p50_ms": lat["p50"] * 1e3,
                  "op_tail_ms": lat["tail"] * 1e3, "setup_s": setup_s,
                  "peak_rss_mb": peak_rss_mb}
        result_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in manifest()["end_to_end"]}
        run_record["setup_s"] = setups
    else:
        warm.reset()
        tracer = Tracer()
        tracer.install()
        try:
            traced_workload = cls(ROOT, args.seed, OUT)
            traced_workload.tracer = tracer
            warm.warm(args.workload)
            tracer.reset_totals()
            traced, _ = run_phase(traced_workload, None, cls.trace_rounds, tracer.paused)
        finally:
            tracer.uninstall()
        report_failures(traced, "traced")
        # the rounds both passes ran (the untraced pass may have run fewer)
        common = min(len(traced), len(records))
        same = ([(r.label, r.status) for r in traced[:common]]
                == [(r.label, r.status) for r in records[:common]])
        if not same:
            print("error: the traced pass did not attempt and fail the same operations "
                  "as the untraced pass", file=sys.stderr)
        correct = correct and same and not any(r.status == "mismatch" for r in traced)
        busy_by_suite = Counter()
        if args.workload == "verify-desk":
            for r in traced:
                busy_by_suite[r.label] += r.seconds
        values = metrics.per_layer(tracer, len(traced), busy_by_suite,
                                   throughput(records[:common]), throughput(traced[:common]))
        result_metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                          for m in manifest()["per_layer"]}
        print(f"traced pass: {len(traced)} ops in {cls.trace_rounds} rounds, "
              f"{len(tracer.start)} spans in this process, "
              f"{len(tracer.child_spans)} traced child processes; self-check "
              f"{'passed' if same else 'FAILED'}")
        for name, entry in result_metrics.items():
            print(f"  {name} {entry['value']:.6g} {entry['unit']}  -> {metrics.MOVES[name]}")
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.npz"
        tracer.write(trace_path)
        run_record["traced_ops"] = [vars(r) for r in traced]
        run_record["trace_file"] = trace_path.name

    run_record["metrics"] = result_metrics
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(run_record))
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
