"""Smoke test of the benchmark harness and the package internals it reads."""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import rand_frame

from formalframes import FrameCalculus, forms

ROOT = Path(__file__).resolve().parents[1]


def test_traced_frame_forms_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "frame-forms", "--seed", "1",
           "--rounds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True


def test_internals_read_by_the_tracer_and_warmer():
    # perfbench/tracer.py counts a partials computation when `_partials` is
    # None before the property runs, and cache misses of `_DL_CACHE` around
    # `translation_matrix_derivative(n, r)`; perfbench/warm.py fills and
    # clears that cache
    calc = FrameCalculus(rand_frame(np.random.default_rng(70), 2, 3))
    assert calc._partials is None
    G = calc.partials
    assert calc._partials is G and calc.partials is G
    assert isinstance(FrameCalculus.__dict__["partials"], property)
    assert isinstance(forms._DL_CACHE, dict)
    triplets = forms.translation_matrix_derivative(2, 3)
    assert forms._DL_CACHE[(2, 3)] is triplets
