"""Set-up probe: one fresh process imports formalframes and warms one workload.

Run as ``python3 perfbench/probe.py WORKLOAD`` with the package source on
PYTHONPATH; prints ``{"setup_s": seconds}``.
"""
import json
import sys
from time import perf_counter

t0 = perf_counter()
import formalframes  # noqa: E402,F401  (the import is what is timed)
from warm import warm  # noqa: E402

warm(sys.argv[1])
print(json.dumps({"setup_s": perf_counter() - t0}))
