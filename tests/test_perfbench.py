"""Smoke test of the benchmark harness and the package internals it reads."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from conftest import rand_frame

from formalframes import FrameCalculus, bundle, forms
from formalframes.bundle import translation_matrix

ROOT = Path(__file__).resolve().parents[1]


def test_traced_frame_forms_run_is_correct():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "frame-forms", "--seed", "1",
           "--rounds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True


def test_traced_cli_child_runs_the_readme_compose(tmp_path):
    # perfbench/cli_traced.py wraps jetgroup, bundle and forms right after
    # importing formalframes.cli, so the CLI module must have loaded them
    doc = {"a": {"n": 1, "r": 2, "tensors": [{"n": 1, "k": 1, "entries": [2.0]},
                                             {"n": 1, "k": 2, "entries": [3.0]}]},
           "b": {"n": 1, "r": 2, "tensors": [{"n": 1, "k": 1, "entries": [5.0]},
                                             {"n": 1, "k": 2, "entries": [7.0]}]}}
    summary = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERFBENCH_TRACE_OUT=str(summary))
    done = subprocess.run([sys.executable, "perfbench/cli_traced.py", "compose"], cwd=ROOT,
                          input=json.dumps(doc), capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert [t["entries"] for t in json.loads(done.stdout)["tensors"]] == [[10.0], [89.0]]
    einsum = json.loads(summary.read_text())["einsum"]
    assert sum(n for layer, *_, n in einsum if layer == "jetgroup") > 0


def test_internals_read_by_the_tracer_and_warmer(monkeypatch):
    # perfbench/tracer.py counts a partials computation when `_partials` is
    # None before the property runs, and cache misses of `_DL_CACHE` around
    # `translation_matrix_derivative(n, r)`; perfbench/warm.py fills and
    # clears that cache
    calc = FrameCalculus(rand_frame(np.random.default_rng(70), 2, 3))
    assert calc._partials is None
    G = calc.partials
    assert calc._partials is G and calc.partials is G
    assert isinstance(FrameCalculus.__dict__["partials"], property)
    # the tracer sees one partials computation per frame of a frame-forms
    # chain, of 8·N·M² bytes, so forms.partials_bytes stays comparable
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        calc = FrameCalculus(rand_frame(np.random.default_rng(72), 2, 4))
        calc.partials
        for k in range(1, calc.r):
            for t in forms.enumerate_torsion_types(k):
                calc.torsion_table(t)
        calc.curvature_table()
        calc.partials
    finally:
        tracer.uninstall()
    assert tracer.partials_bytes == calc.partials.nbytes == 8 * calc.N * calc.M ** 2
    # forms does no work at import or warm-up beyond filling `_DL_CACHE`
    code = """if True:
        import warm
        from formalframes import forms
        plans = forms._wedge_plan.cache_info
        assert forms._DL_CACHE == {} and plans().currsize == 0
        warm.warm("frame-forms")
        assert sorted(forms._DL_CACHE) == sorted(warm.WARM["frame-forms"][1])
        assert plans().currsize == 0
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert isinstance(forms._DL_CACHE, dict)
    triplets = forms.translation_matrix_derivative(2, 3)
    assert forms._DL_CACHE[(2, 3)] is triplets
    # that cache is the only one of the table behind L_u: filling it builds
    # no L_u, and building a frame's L_u fills it
    calls = []

    def counted(*args):
        calls.append(args)
        return translation_matrix(*args)

    for module in (bundle, forms):  # wherever translation_matrix is bound
        if hasattr(module, "translation_matrix"):
            monkeypatch.setattr(module, "translation_matrix", counted)
    forms._DL_CACHE.clear()
    forms.translation_matrix_derivative(3, 4)
    assert calls == [] and list(forms._DL_CACHE) == [(3, 4)]
    forms._DL_CACHE.clear()
    rand_frame(np.random.default_rng(71), 2, 3).iso
    assert len(calls) == 1 and list(forms._DL_CACHE) == [(2, 3)]
