"""Span tracer for the benchmark's traced runs.

Nothing inside the library is instrumented.  ``Tracer.install`` wraps, from
the outside, every public function, method, property and constructor defined
in each layer module, and rebinds the wrapper in every ``formalframes``
namespace that imported the original by name (``verify``, ``cli`` and
``bundle`` bind ``jet_compose``, ``compose_tensors`` and others at import
time).  It also swaps the ``np`` name of ``jetgroup``, ``bundle`` and
``forms`` for a copy of numpy whose ``einsum`` counts its calls.  Untraced
runs never install anything.

Spans nest through parent ids and stay in memory until ``write`` is called.
A span's self time is its duration minus the time covered by its children.

Only the standard library is imported here, so a traced child process can
load this module before it starts timing the import of the package.
"""
from __future__ import annotations

import contextlib
import functools
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

PACKAGE = "formalframes"
LAYERS = ("tensors", "jetgroup", "taylor", "charts", "bundle", "forms", "garcia",
          "connection", "deform", "foliation", "oracles", "verify", "cli")
EINSUM_LAYERS = ("jetgroup", "bundle", "forms")

PARTIALS_SPAN = "forms.FrameCalculus.partials"
DL_SPAN = "forms.translation_matrix_derivative"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.calls: list[int] = []
        # one entry per span
        self.parent = array("q")
        self.name = array("q")
        self.start = array("d")
        self.end = array("d")
        self.einsum: Counter = Counter()  # (layer, spec, shapes, optimize) -> calls
        self.partials_bytes = 0
        self.dl_misses = 0
        self.dl_fill_s = 0.0
        self.imports_s: list[float] = []  # child processes: import of formalframes.cli
        self.child_spans: list[dict] = []
        self.active = False
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        stack = self._stack
        sid = len(self.start)
        self.parent.append(stack[-1][0] if stack else -1)
        self.name.append(nid)
        self.end.append(0.0)
        frame = [sid, 0.0]
        stack.append(frame)
        t0 = perf_counter()
        self.start.append(t0)
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.end[sid] = t1
            stack.pop()
            d = t1 - t0
            self.self_s[nid] += d - frame[1]
            self.total_s[nid] += d
            self.calls[nid] += 1
            if stack:
                stack[-1][1] += d

    @contextlib.contextmanager
    def paused(self):
        """Run reference checks without spans or einsum counts."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- installation ------------------------------------------------------

    def _wrap(self, span: str, fn):
        nid = self.intern(span)
        call = self.call
        if span == PARTIALS_SPAN:
            def wrapper(calc):
                miss = calc._partials is None  # later reads return the kept array
                out = call(nid, fn, (calc,), {})
                if miss and self.active:
                    self.partials_bytes += int(out.nbytes)  # 8·N·M² per computation
                return out
        elif span == DL_SPAN:
            cache = getattr(sys.modules[f"{PACKAGE}.forms"], "_DL_CACHE", {})

            def wrapper(n, r):
                miss = (n, r) not in cache
                t0 = perf_counter()
                out = call(nid, fn, (n, r), {})
                if miss and self.active:
                    self.dl_misses += 1
                    self.dl_fill_s += perf_counter() - t0
                return out
        else:
            def wrapper(*args, **kwargs):
                return call(nid, fn, args, kwargs)
        return functools.wraps(fn)(wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            span = f"{layer}.{cls.__name__}" + ("" if attr == "__init__" else f".{attr}")
            if isinstance(raw, (classmethod, staticmethod)):
                new = type(raw)(self._wrap(span, raw.__func__))
            elif isinstance(raw, property) and raw.fget is not None:
                new = property(self._wrap(span, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif isinstance(raw, types.FunctionType):
                new = self._wrap(span, raw)
            else:
                continue
            self._set(cls, attr, new)

    def _count_einsum(self, layer: str, einsum):
        counter = self.einsum

        def counted(*operands, **kwargs):
            if self.active:
                shapes = tuple(getattr(o, "shape", None) for o in operands[1:])
                counter[(layer, operands[0], shapes, kwargs.get("optimize", False))] += 1
            return einsum(*operands, **kwargs)
        return counted

    def install(self) -> None:
        """Wrap the layers of the already imported package, then start tracing."""
        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{PACKAGE}.{layer}")
            if mod is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(layer, obj)
                elif callable(obj):
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for layer in EINSUM_LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            real = mod.np
            proxy = types.ModuleType(real.__name__)
            proxy.__dict__.update(real.__dict__)
            proxy.einsum = self._count_einsum(layer, real.einsum)
            self._set(mod, "np", proxy)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def reset_totals(self) -> None:
        """Zero the per-name totals, einsum and partials counts (not the spans).

        Called after the traced warm-up, so the totals cover only the timed
        rounds; the cache-fill counts of the warm-up are kept.
        """
        n = len(self.names)
        self.self_s[:] = [0.0] * n
        self.total_s[:] = [0.0] * n
        self.calls[:] = [0] * n
        self.einsum.clear()
        self.partials_bytes = 0

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Aggregates and spans in JSON form (what a traced child hands back)."""
        return {
            "names": self.names,
            "self_s": self.self_s,
            "total_s": self.total_s,
            "calls": self.calls,
            "einsum": [[lay, spec, [list(s) if s is not None else None for s in shapes], opt, n]
                       for (lay, spec, shapes, opt), n in self.einsum.items()],
            "partials_bytes": self.partials_bytes,
            "dl_misses": self.dl_misses,
            "dl_fill_s": self.dl_fill_s,
            "imports_s": self.imports_s,
            "spans": {"parent": self.parent.tolist(), "name": self.name.tolist(),
                      "start": self.start.tolist(), "end": self.end.tolist()},
        }

    def merge(self, child: dict) -> None:
        """Add a traced child process's summary to this tracer's totals."""
        for i, name in enumerate(child["names"]):
            nid = self.intern(name)
            self.self_s[nid] += child["self_s"][i]
            self.total_s[nid] += child["total_s"][i]
            self.calls[nid] += child["calls"][i]
        for lay, spec, shapes, opt, n in child["einsum"]:
            key = (lay, spec, tuple(tuple(s) if s is not None else None for s in shapes), opt)
            self.einsum[key] += n
        self.partials_bytes += child["partials_bytes"]
        self.dl_misses += child["dl_misses"]
        self.dl_fill_s += child["dl_fill_s"]
        self.imports_s.extend(child["imports_s"])
        self.child_spans.append({"names": child["names"], **child["spans"]})

    def span_stat(self, stat: list, predicate) -> float:
        return sum(v for name, v in zip(self.names, stat) if predicate(name))

    def layer_self_s(self, layer: str) -> float:
        return self.span_stat(self.self_s, lambda name: name.startswith(layer + "."))

    def einsum_calls(self, layer: str) -> int:
        return sum(n for key, n in self.einsum.items() if key[0] == layer)

    def einsum_flops(self, layer: str) -> float:
        """FLOP count computed by ``np.einsum_path`` for every counted call.

        Calls without ``optimize`` run numpy's single-pass kernel, so they are
        charged the naive count; optimized calls the count of their path.
        """
        import numpy as np

        total = 0.0
        for (lay, spec, shapes, opt), n in self.einsum.items():
            if lay != layer:
                continue
            operands = [np.empty(s) for s in shapes]
            report = np.einsum_path(spec, *operands, optimize=opt)[1]
            label = "Optimized FLOP count:" if opt else "Naive FLOP count:"
            line = next(ln for ln in report.splitlines() if label in ln)
            total += n * float(line.split(":")[1])
        return total

    def write(self, path) -> None:
        """Write every span, of this process and of each traced child, as .npz.

        Arrays are parallel, one entry per span: ``proc`` (0 for this
        process, then one number per traced child), ``parent`` (an index into
        the same process's spans, -1 for a root), ``name`` (an index into
        ``names``), and ``start``/``end`` in perf_counter seconds.
        """
        import numpy as np

        procs = [{"names": self.names, "parent": self.parent, "name": self.name,
                  "start": self.start, "end": self.end}] + self.child_spans
        names = sorted({name for p in procs for name in p["names"]})
        index = {name: i for i, name in enumerate(names)}
        columns = {"proc": [], "parent": [], "name": [], "start": [], "end": []}
        for number, p in enumerate(procs):
            remap = np.array([index[name] for name in p["names"]] or [0], dtype=np.int32)
            columns["proc"].append(np.full(len(p["start"]), number, dtype=np.int32))
            columns["parent"].append(np.asarray(p["parent"], dtype=np.int64))
            columns["name"].append(remap[np.asarray(p["name"], dtype=np.int64)])
            columns["start"].append(np.asarray(p["start"], dtype=np.float64))
            columns["end"].append(np.asarray(p["end"], dtype=np.float64))
        np.savez_compressed(path, names=np.array(names),
                            **{key: np.concatenate(parts) for key, parts in columns.items()})
