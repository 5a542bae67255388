"""What each metric is, beyond its name, unit and direction in BENCHMARK.json.

End-to-end metrics come from untraced runs only; per-layer metrics from the
traced run.  Every per-layer metric names the end-to-end metric and the
workload it should move, written down before any optimisation; BENCHMARK.json
has no field for that, so it is kept here and printed by traced runs.

Per-layer values are per operation of the traced pass ("/op" units), except
the cache fills of the warm-up (once per run) and the ``trace.*`` ratios.
The traced pass runs a fixed number of rounds per workload, so neither the
machine's speed nor the untraced timing changes what it covers.
"""
from __future__ import annotations

import numpy as np

SUITES = ("canonical-form", "connection", "deform", "deformation-pair", "foliation",
          "garcia", "group-laws", "schwarzian", "structural-equations",
          "symmetrization", "torsion-characterization")

_VERIFY = "ops_per_s on verify-desk"
# per-layer metric -> the end-to-end metric and workload it should move
MOVES = {
    "jetgroup.self_s": ("ops_per_s and op_p50_ms on jet-highorder; "
                        "frame-forms unchanged; no worse on verify-desk or cli-oneshot"),
    "jetgroup.calls": "ops_per_s and op_p50_ms on jet-highorder",
    "jetgroup.einsum_calls": "ops_per_s and op_p50_ms on jet-highorder",
    "jetgroup.einsum_flops": "ops_per_s and op_p50_ms on jet-highorder",
    "jetgroup.classical_compose.self_s": _VERIFY,
    "tensors.self_s": "op_p50_ms on verify-desk and cli-oneshot",
    "taylor.self_s": _VERIFY,
    "charts.self_s": _VERIFY,
    "bundle.self_s": "ops_per_s on jet-highorder and frame-forms",
    "bundle.einsum_calls": "ops_per_s on frame-forms",
    "bundle.translation_matrix.self_s": "ops_per_s on frame-forms",
    "bundle.translation_matrix.calls": "ops_per_s on frame-forms",
    "bundle.tangent_iso.self_s": "ops_per_s on frame-forms",
    "forms.self_s": "ops_per_s on frame-forms",
    "forms.einsum_calls": "ops_per_s on frame-forms",
    "forms.partials.self_s": "op_tail_ms and peak_rss_mb on frame-forms",
    "forms.partials_bytes": "op_tail_ms and peak_rss_mb on frame-forms",
    "forms.torsion.self_s": "op_tail_ms and peak_rss_mb on frame-forms",
    "forms.realizability.self_s": "op_tail_ms and peak_rss_mb on frame-forms",
    "forms.dl_cache.misses": "setup_s on frame-forms",
    "forms.dl_cache.fill_s": "setup_s on frame-forms",
    "garcia.self_s": _VERIFY,
    "connection.self_s": _VERIFY,
    "deform.self_s": _VERIFY,
    "foliation.self_s": _VERIFY,
    "oracles.self_s": _VERIFY,
    "verify.self_s": _VERIFY,
    **{f"verify.{suite}.busy_s": "op_tail_ms and ops_per_s on verify-desk"
       for suite in SUITES},
    "cli.self_s": "op_p50_ms on cli-oneshot",
    "cli.import_s": "op_p50_ms on cli-oneshot and setup_s on every workload",
    "cli.main_s": "op_p50_ms on cli-oneshot and setup_s on every workload",
    "trace.overhead_ratio": "none: traced ops_per_s over untraced ops_per_s",
    "trace.traced_ops_per_s": "none: base of trace.overhead_ratio",
    "trace.untraced_ops_per_s": "none: base of trace.overhead_ratio",
}


# ---------------------------------------------------------------------------
# end-to-end


PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)


def latency_summary(seconds: list[float]) -> dict:
    """Median, and the highest of PERCENTILES with at least ten samples beyond it.

    The samples are the median times of a run's operations, whose number is
    fixed per workload, so the tail is always taken at the same percentile.
    """
    samples = np.asarray(seconds)
    count = len(samples)
    percentile = max([p for p in PERCENTILES if count * (1 - p / 100) >= 10] or [50.0])
    tail = float(np.percentile(samples, percentile))
    return {"p50": float(np.median(samples)), "tail": tail, "tail_percentile": percentile,
            "count": count, "beyond": int(np.sum(samples > tail))}


# ---------------------------------------------------------------------------
# per layer

# totals of the warm-up, reported once per run rather than per operation
PER_RUN = ("forms.dl_cache.misses", "forms.dl_cache.fill_s")


def per_layer(tracer, ops: int, suite_busy: dict, untraced_ops_per_s: float,
              traced_ops_per_s: float) -> dict:
    """Every per-layer metric of MOVES: totals of the traced rounds divided by ``ops``."""
    def self_of(pred):
        return tracer.span_stat(tracer.self_s, pred)

    totals = {
        "jetgroup.calls": tracer.span_stat(tracer.calls, lambda s: s.startswith("jetgroup.")),
        "jetgroup.einsum_flops": tracer.einsum_flops("jetgroup"),
        "jetgroup.classical_compose.self_s": self_of(lambda s: s == "jetgroup.classical_compose"),
        "bundle.translation_matrix.self_s": self_of(lambda s: s == "bundle.translation_matrix"),
        "bundle.translation_matrix.calls": tracer.span_stat(
            tracer.calls, lambda s: s == "bundle.translation_matrix"),
        "bundle.tangent_iso.self_s": self_of(
            lambda s: s in ("bundle.tangent_iso", "bundle.TangentIso")),
        "forms.partials.self_s": self_of(lambda s: s == "forms.FrameCalculus.partials"),
        "forms.partials_bytes": tracer.partials_bytes,
        "forms.torsion.self_s": self_of(
            lambda s: s.startswith("forms.") and "torsion" in s.rsplit(".", 1)[-1].lower()),
        "forms.realizability.self_s": self_of(
            lambda s: s in ("forms.realizability_check", "forms.is_classical_frame")),
        "cli.import_s": sum(tracer.imports_s),
        "cli.main_s": tracer.span_stat(tracer.total_s, lambda s: s == "cli.main"),
    }
    for name in MOVES:
        layer, _, rest = name.partition(".")
        if rest == "self_s":
            totals[name] = tracer.layer_self_s(layer)
        elif rest == "einsum_calls":
            totals[name] = tracer.einsum_calls(layer)
        elif layer == "verify" and rest.endswith(".busy_s"):
            totals[name] = suite_busy.get(rest[: -len(".busy_s")], 0.0)
    values = {name: float(total) / ops for name, total in totals.items()}
    values.update({
        "forms.dl_cache.misses": float(tracer.dl_misses),
        "forms.dl_cache.fill_s": tracer.dl_fill_s,
        "trace.overhead_ratio": traced_ops_per_s / untraced_ops_per_s,
        "trace.traced_ops_per_s": traced_ops_per_s,
        "trace.untraced_ops_per_s": untraced_ops_per_s,
    })
    return values
