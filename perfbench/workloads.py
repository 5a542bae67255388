"""The four workloads: their inputs, timed operations and reference checks.

Each workload runs as a closed loop with one client: the next operation is
issued when the previous one has finished.  Operations come in rounds that
hold every kind and size of operation of the workload once, in a seeded
order, so every seed runs the same mix.  A run draws ``distinct_rounds``
rounds of inputs from its seed; each round's inputs come from a generator of
their own, so a round can be drawn again and repeated with the same inputs.
Only the library call of an operation is timed; inputs are generated before
it and, on the first run of a round, checked after it.

An operation fails when it raises, exits with a code other than the
documented one, or disagrees with its reference.  A disagreement with a
reference is a "mismatch" and also makes the run incorrect.  Inputs that
make the library fail are counted, never resampled or filtered.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import metrics

# the documented defaults of tensors.close, restated so that a change to the
# library's comparison cannot loosen the benchmark's
ATOL = 1e-9
RTOL = 1e-9
STEP = 1e-20  # complex-step size: exact derivatives of polynomial maps


def close(x, y, atol: float = ATOL, rtol: float = RTOL) -> bool:
    """|x - y| <= atol + rtol * max(|x|, |y|), elementwise."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        return False
    return bool(np.all(np.abs(x - y) <= atol + rtol * np.maximum(np.abs(x), np.abs(y))))


def disagreement(got, want, what: str):
    """None if every component agrees, else a mismatch naming the first that does not."""
    if len(got) != len(want):
        return ("mismatch", f"{what}: {len(got)} components, expected {len(want)}")
    for k, (x, y) in enumerate(zip(got, want)):
        if not close(x, y):
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            gap = float(np.max(np.abs(x - y))) if x.shape == y.shape else float("inf")
            return ("mismatch", f"{what}: component {k} differs by {gap:.3g}")
    return None


def derivative_at_zero(path, h: float = 0.25) -> list:
    """d/dt at t = 0 of a path of arrays that is polynomial of degree <= 4 in t.

    The five-point stencil is exact for such polynomials; h is a power of two,
    so the sample points are exact too.
    """
    p2, p1, m1, m2 = (path(t) for t in (2 * h, h, -h, -2 * h))
    return [(8 * (x1 - y1) - (x2 - y2)) / (12 * h) for x2, x1, y1, y2 in zip(p2, p1, m1, m2)]


def first_problem(*problems):
    return next((p for p in problems if p), None)


@dataclass
class Record:
    label: str
    seconds: float
    status: str  # "ok", "fail" or "mismatch"
    detail: str = ""
    raised: bool = False  # the library call raised
    op: str = ""  # "<round>.<position>": the same inputs when a round is repeated


def timed(label: str, run, check, checking) -> Record:
    """Time ``run()``; judge its result with ``check`` outside the timed region.

    ``checking`` is the context the check runs in; None on a repeat, which is
    timed only.
    """
    t0 = perf_counter()
    try:
        out = run()
    except Exception as exc:  # an operation that raises is a counted failure
        return Record(label, perf_counter() - t0, "fail", f"{type(exc).__name__}: {exc}",
                      raised=True)
    seconds = perf_counter() - t0
    if checking is None:
        return Record(label, seconds, "ok")
    with checking():
        try:
            problem = check(out)
        except Exception as exc:  # the reference computation itself was refused
            problem = ("fail", f"check raised {type(exc).__name__}: {exc}")
    return Record(label, seconds, *problem) if problem else Record(label, seconds, "ok")


class Workload:
    name = ""
    index = 0
    distinct_rounds: int  # rounds of distinct inputs a run checks, then repeats
    trace_rounds: int  # rounds of the traced pass: fixed, so per-layer values repeat

    def __init__(self, root: Path, seed: int, out_dir: Path):
        import formalframes

        self.ff = formalframes
        self.root = root
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = None  # set by the traced phase

    def round(self, number: int, rng, check_rng, checking) -> list[Record]:
        """Round ``number`` (< distinct_rounds), inputs drawn from ``rng``."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class JetHighOrder(Workload):
    name = "jet-highorder"
    index = 0
    distinct_rounds = 5
    trace_rounds = 5
    sizes = ((3, 5), (4, 4), (2, 6))
    kinds = ("compose", "inverse", "adjoint", "right_action",
             "fundamental_vector", "pushforward")
    law_rate = 1 / 8  # associativity and action-law residuals
    taylor_rate = 1 / 25  # the Taylor oracle takes seconds at (4, 4)

    def round(self, number, rng, check_rng, checking):
        ops = [(kind, size) for kind in self.kinds for size in self.sizes]
        return [self._op(kind, n, r, rng, check_rng, checking)
                for kind, (n, r) in (ops[i] for i in rng.permutation(len(ops)))]

    def _element(self, rng, n, r, symmetric=False):
        return self.ff.jetgroup.JetGroupElement.from_arrays(inputs.jet(rng, n, r, symmetric))

    def _frame(self, rng, n, r):
        return self.ff.bundle.FrameCoords.from_arrays(rng.uniform(-1, 1, n), inputs.jet(rng, n, r))

    def _op(self, kind, n, r, rng, check_rng, checking):
        ff = self.ff
        jg, bd, oracles = ff.jetgroup, ff.bundle, ff.oracles
        label = f"{kind}@{n},{r}"
        eye = [np.eye(n)] + [np.zeros((n,) * (k + 1)) for k in range(2, r + 1)]
        law = check_rng.random() < self.law_rate
        taylor = check_rng.random() < self.taylor_rate

        def low_order(x, y, got, what):
            return disagreement(got[:3], oracles.closed_form_compose(x[:3], y[:3], 3), what)

        if kind == "compose":
            a, b = self._element(rng, n, r), self._element(rng, n, r)

            def check(c):
                problems = [low_order(a.arrays, b.arrays, c.arrays, "closed form (r<=3)")]
                if law:
                    d = self._element(check_rng, n, r)
                    problems.append(disagreement(
                        jg.jet_compose(c, d).arrays,
                        jg.jet_compose(a, jg.jet_compose(b, d)).arrays, "associativity"))
                if taylor:
                    sa = self._element(check_rng, n, r, symmetric=True)
                    sb = self._element(check_rng, n, r, symmetric=True)
                    problems.append(disagreement(
                        jg.jet_compose(sa, sb).arrays,
                        oracles.taylor_map_compose(sa.arrays, sb.arrays, r), "Taylor oracle"))
                return first_problem(*problems)
            return timed(label, lambda: jg.jet_compose(a, b), check, checking)

        if kind == "inverse":
            a = self._element(rng, n, r)

            def check(b):
                return first_problem(
                    disagreement(jg.jet_compose(a, b).arrays, eye, "a·a⁻¹ = e"),
                    low_order(a.arrays, b.arrays, eye, "closed form a·a⁻¹ (r<=3)"))
            return timed(label, lambda: jg.jet_inverse(a), check, checking)

        if kind == "adjoint":
            a = self._element(rng, n, r)
            X = jg.JetAlgebraElement.from_arrays(inputs.algebra(rng, n, r))

            def check(Y):
                back = jg.adjoint_action(jg.jet_inverse(a), Y)
                return disagreement(back.arrays, X.arrays, "Ad(a⁻¹)·Ad(a) = id")
            return timed(label, lambda: jg.adjoint_action(a, X), check, checking)

        if kind == "right_action":
            u, a = self._frame(rng, n, r), self._element(rng, n, r)

            def check(v):
                problems = [disagreement([v.base], [u.base], "base fixed"),
                            low_order(u.arrays, a.arrays, v.arrays, "closed form (r<=3)")]
                if law:
                    b = self._element(check_rng, n, r)
                    problems.append(disagreement(
                        bd.right_action(v, b).arrays,
                        bd.right_action(u, jg.jet_compose(a, b)).arrays, "(u·a)·b = u·(ab)"))
                return first_problem(*problems)
            return timed(label, lambda: bd.right_action(u, a), check, checking)

        if kind == "fundamental_vector":
            u = self._frame(rng, n, r)
            Y = [inputs.tensor(rng, n, k) for k in range(1, r + 1)]

            def check(V):
                # d/dt u·(e + tY) at t = 0: orders <= 3 from the closed form, all
                # orders by a complex step through the product engine itself
                closed = derivative_at_zero(lambda t: oracles.closed_form_compose(
                    u.arrays[:3], [e + t * y for e, y in zip(eye[:3], Y[:3])], 3))
                moved = [e + 1j * STEP * y for e, y in zip(eye, Y)]
                want = [np.imag(z) / STEP for z in jg.compose_tensors(u.arrays, moved)]
                return first_problem(
                    disagreement([V.d_base], [np.zeros(n)], "vertical"),
                    disagreement(V.arrays[:3], closed, "closed form d/dt u·(e+tY) (r<=3)"),
                    disagreement(V.arrays, want, "d/dt u·(e+tY)"))
            return timed(label, lambda: bd.fundamental_vector(u, Y), check, checking)

        # pushforward of a chart change through a random (generic) transition jet
        u = self._frame(rng, n, r)
        D = [ff.tensors.LowerTensor(n, k, arr)
             for k, arr in enumerate(inputs.jet(rng, n, r + 1), start=1)]
        T = ff.charts.TransitionJet(u.base, rng.uniform(-1, 1, n), tuple(D))
        dh, du = inputs.tangent(rng, n, r)
        X = bd.BundleTangent.from_arrays(dh, du)

        def moved(t, orders):
            # base motion moves each D^k by D^{k+1} contracted with δh
            Dt = [T.arrays[k - 1] + t * np.tensordot(T.arrays[k], dh, axes=([-1], [0]))
                  for k in range(1, orders + 1)]
            return Dt, [x + t * y for x, y in zip(u.arrays[:orders], du)]

        def check(Z):
            # orders <= 3 from the closed form, all orders by a complex step
            # through the product engine itself
            closed = derivative_at_zero(
                lambda t: oracles.closed_form_compose(*moved(t, 3), 3))
            want = [np.imag(z) / STEP for z in jg.compose_tensors(*moved(1j * STEP, r), r)]
            return first_problem(
                disagreement([Z.d_base], [T.arrays[0] @ dh], "base"),
                disagreement(Z.arrays[:3], closed, "closed form d/dt change_chart (r<=3)"),
                disagreement(Z.arrays, want, "d/dt change_chart"))
        return timed(label, lambda: bd.change_chart_pushforward(u, T, X), check, checking)


class FrameForms(Workload):
    name = "frame-forms"
    index = 1
    distinct_rounds = 2
    trace_rounds = 2
    sizes = ((2, 4), (3, 3), (3, 4))

    def round(self, number, rng, check_rng, checking):
        records = []
        for i in rng.permutation(len(self.sizes)):
            n, r = self.sizes[i]
            for classical in (True, False):  # alternating classical and generic
                records.append(self._op(n, r, classical, rng, checking))
        return records

    def _op(self, n, r, classical, rng, checking):
        ff = self.ff
        bd, forms = ff.bundle, ff.forms
        u = bd.FrameCoords.from_arrays(rng.uniform(-1, 1, n), inputs.jet(rng, n, r, classical))
        # a genuine chart change has symmetric derivative tensors; its first
        # order scales u¹ by 10^U(-1, 1)
        scale = 10.0 ** rng.uniform(-1, 1)
        D = [ff.tensors.LowerTensor(n, k, arr)
             for k, arr in enumerate(inputs.jet(rng, n, r, True, scale), start=1)]
        T = ff.charts.TransitionJet(u.base, rng.uniform(-1, 1, n), tuple(D))
        X = bd.BundleTangent.from_arrays(*inputs.tangent(rng, n, r))

        def chain():
            v = bd.change_chart(u, T)
            try:
                verdict = forms.realizability_check(v)
            except forms.RealizabilityDisagreement as exc:
                # the operation fails, but the steps below do not use the
                # verdict and still run: a failure must not make it cheaper.
                # Only the message is kept; the exception's traceback would
                # hold this frame's arrays alive past the operation.
                verdict = f"RealizabilityDisagreement: {exc}"
            calc = forms.FrameCalculus(v)
            calc.partials  # the property computes and keeps the (N, M, M) array
            for k in range(1, r):
                for t in forms.enumerate_torsion_types(k):
                    calc.torsion_table(t)
            calc.curvature_table()
            forms.canonical_form(v, X)
            return verdict

        def check(verdict):
            if isinstance(verdict, str):
                return ("fail", verdict)
            if verdict["realizable"] != classical:
                return ("mismatch", f"{'classical' if classical else 'generic'} frame "
                                    f"judged realizable={verdict['realizable']}")
            return None
        kind = "classical" if classical else "generic"
        return timed(f"{kind}@{n},{r}", chain, check, checking)


class VerifyDesk(Workload):
    name = "verify-desk"
    index = 2
    distinct_rounds = 4
    trace_rounds = 2
    suites = metrics.SUITES

    def round(self, number, rng, check_rng, checking):
        """One pass of run_suites; each suite is one operation."""
        verify = self.ff.verify
        seconds: dict[str, float] = {}

        def timed_suite(name, fn):
            def run(suite_rng, cfg):
                t0 = perf_counter()
                try:
                    return fn(suite_rng, cfg)
                finally:
                    seconds[name] = perf_counter() - t0
            return run

        # seed 0 runs VerifyConfig(seed=0), the README configuration
        cfg = verify.VerifyConfig(seed=self.seed * 1000 + number)
        original = verify.SUITES
        verify.SUITES = [(name, statement, timed_suite(name, getattr(verify, fn.__name__, fn)))
                         for name, statement, fn in original]
        t0 = perf_counter()
        try:
            report = verify.run_suites(cfg)
        except Exception as exc:  # the whole pass failed: every suite counts
            return [Record(name, (perf_counter() - t0) / len(self.suites), "fail",
                           f"run_suites raised {type(exc).__name__}: {exc}", raised=True)
                    for name in self.suites]
        finally:
            verify.SUITES = original
        records = []
        for entry in report["suites"]:
            name = entry["suite"]
            worst, tol = entry["worst_residual"], entry["tolerance"]
            if entry["passed"] != (worst <= tol) or entry["trials"] != cfg.trials:
                status, detail = "mismatch", f"inconsistent report entry {entry}"
            elif not entry["passed"]:
                status, detail = "fail", f"seed {cfg.seed}: worst residual {worst:.3g} > {tol:.3g}"
            else:
                status, detail = "ok", ""
            records.append(Record(name, seconds.get(name, 0.0), status, detail))
        missing = set(self.suites) - {r.label for r in records}
        records += [Record(name, 0.0, "mismatch", "suite missing from the report")
                    for name in sorted(missing)]
        return records


class CliOneShot(Workload):
    name = "cli-oneshot"
    index = 3
    distinct_rounds = 8
    trace_rounds = 8
    commands = ("compose", "invert", "kappa", "schwarzian", "torsion")
    readme_compose = {
        "a": {"n": 1, "r": 2, "tensors": [{"n": 1, "k": 1, "entries": [2.0]},
                                          {"n": 1, "k": 2, "entries": [3.0]}]},
        "b": {"n": 1, "r": 2, "tensors": [{"n": 1, "k": 1, "entries": [5.0]},
                                          {"n": 1, "k": 2, "entries": [7.0]}]},
    }

    def __init__(self, root, seed, out_dir):
        super().__init__(root, seed, out_dir)
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.input_dir = out_dir / "cli-inputs"
        self.input_dir.mkdir(parents=True, exist_ok=True)
        self.count = 0
        self.pending_trace = None

    def round(self, number, rng, check_rng, checking):
        return [self._op(self.commands[i], number, rng, checking)
                for i in rng.permutation(len(self.commands))]

    def _spawn(self, argv, stdin: str):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "formalframes.cli", *argv]
            env = self.env
            trace_out = None
        else:
            trace_out = self.out_dir / f"cli-trace-{self.count}.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), *argv]
            env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_out))
        self.pending_trace = trace_out
        return subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              env=env, cwd=self.root, timeout=120)

    def _collect_trace(self) -> None:
        """Fold a traced child's spans into this run's tracer (outside the timing)."""
        path, self.pending_trace = self.pending_trace, None
        if path is not None and path.exists():
            self.tracer.merge(json.loads(path.read_text()))
            path.unlink()

    def _op(self, command, number, rng, checking):
        self.count += 1
        argv, stdin = [command], ""
        n, r = 2, 3
        if command == "compose":
            stdin = json.dumps(self.readme_compose)

            def want(doc):
                got = [t["entries"] for t in doc["tensors"]]
                if got != [[10.0], [89.0]]:
                    return ("mismatch", f"README product {got} != (10, 89)")
                return None
        elif command == "invert":
            a = inputs.jet(rng, n, r)
            stdin = json.dumps({"n": n, "r": r, "tensors": [inputs.tensor_doc(x) for x in a]})

            def want(doc):
                b = [np.reshape(t["entries"], (n,) * (t["k"] + 1)) for t in doc["tensors"]]
                eye = [np.eye(n), np.zeros((n,) * 3), np.zeros((n,) * 4)]
                return disagreement(self.ff.oracles.closed_form_compose(a, b, r), eye,
                                    "closed form a·a⁻¹ = e")
        elif command == "kappa":
            a = inputs.jet(rng, n, r)
            stdin = json.dumps({"n": n, "r": r, "tensors": [inputs.tensor_doc(x) for x in a]})

            def want(doc):
                got = [np.reshape(t["entries"], (n,) * (t["k"] + 1)) for t in doc["tensors"]]
                return disagreement(got, [inputs.symmetrized(x) for x in a], "symmetrization")
        elif command == "schwarzian":
            c = inputs.cubic(rng)
            points = [float(x) for x in rng.uniform(-1, 1, 3)]
            stdin = json.dumps({"map": {"kind": "polynomial", "m_in": 1, "m_out": 1, "coeffs": [
                {"exp": [k], "value": [v]} for k, v in enumerate(c)]}, "points": points})

            def want(doc):
                ref = []
                for x in points:
                    d1 = c[1] + 2 * c[2] * x + 3 * c[3] * x * x
                    d2 = 2 * c[2] + 6 * c[3] * x
                    ref.append(6 * c[3] / d1 - 1.5 * (d2 / d1) ** 2)
                return disagreement([[v["schwarzian"] for v in doc["values"]]], [ref],
                                    "closed-form Schwarzian of a cubic")
        else:
            classical = number % 2 == 0  # alternating classical and generic
            tensors = inputs.jet(rng, n, r, classical)
            path = self.input_dir / f"frame-{self.count}.json"
            path.write_text(json.dumps({"chart": "chart0", "base": rng.uniform(-1, 1, n).tolist(),
                                        "tensors": [inputs.tensor_doc(x) for x in tensors]}))
            argv += ["--input", str(path)]

            def want(doc):
                if doc["realizable"] != classical:
                    return ("mismatch", f"{'classical' if classical else 'generic'} frame "
                                        f"judged realizable={doc['realizable']}")
                return None

        def check(proc):
            self._collect_trace()
            if proc.returncode != 0:
                return ("fail", f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
            try:
                doc = json.loads(proc.stdout)
            except json.JSONDecodeError as exc:
                return ("mismatch", f"output is not JSON: {exc}")
            return want(doc)
        return timed(command, lambda: self._spawn(argv, stdin), check, checking)


WORKLOADS = {w.name: w for w in (JetHighOrder, FrameForms, VerifyDesk, CliOneShot)}
