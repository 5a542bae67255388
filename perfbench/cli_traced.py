"""Traced stand-in for ``python3 -m formalframes.cli``, used only by traced runs.

Times the import of ``formalframes.cli``, installs the tracer, runs
``cli.main`` on the given arguments and writes the tracer's summary to the
file named by PERFBENCH_TRACE_OUT.  Exits with the command's own exit code.
"""
import json
import os
import sys
from time import perf_counter

from tracer import Tracer

t0 = perf_counter()
import formalframes.cli as cli  # noqa: E402  (the import is what is timed)

import_s = perf_counter() - t0

tracer = Tracer()
tracer.imports_s.append(import_s)
tracer.install()
try:
    code = cli.main(sys.argv[1:])
finally:
    tracer.uninstall()
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w") as fh:
        json.dump(tracer.summary(), fh)
sys.exit(code)
