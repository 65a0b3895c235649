"""Layer boundaries and the per-layer metrics derived from their spans.

Each layer is one relucalc module.  `layer_targets` lists the public
functions wrapped in a traced run, at the module attributes their callers
look them up through (the benchmark calls `core.evaluate_batch`, while
`error_report` calls `analysis.evaluate_batch`).  Builds are recorded by the
workloads themselves as `constructors.<net>.build` spans, and items as
`<workload>.<item>` spans.
"""

from __future__ import annotations

import os
import statistics

from .tracing import Tracer, self_times

EVAL_NETS = ("weier", "gauss2", "cos100")
ITEM_NETS = ("cos30", "bspline3", "mult")

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_s", "s", "lower"),
]

PER_LAYER = (
    [
        ("core.evaluate_batch.busy_s", "s", "lower"),
        ("core.evaluate_batch.calls", "count", "lower"),
        ("core.evaluate_batch.points", "count", "higher"),
        ("core.evaluate_batch.bulk.busy_s", "s", "lower"),
        ("core.evaluate_batch.bulk.calls", "count", "lower"),
        ("core.evaluate_batch.bulk.points", "count", "higher"),
    ]
    + [(f"core.evaluate_batch.bulk.{n}.nnz_per_s", "1e6/s", "higher") for n in EVAL_NETS]
    + [
        (f"core.eval.{n}.{key}", unit, "lower")
        for n in EVAL_NETS
        for key, unit in (
            ("dense_macs", "count"),
            ("nnz_share", "ratio"),
            ("copy_row_share", "ratio"),
            ("buffer_mb", "MB"),
        )
    ]
    + [
        ("core.evaluate_batch.small.busy_s", "s", "lower"),
        ("core.evaluate_batch.small.calls", "count", "lower"),
    ]
    + [(f"constructors.{n}.build_s", "s", "lower") for n in EVAL_NETS + ITEM_NETS]
    + [
        ("analysis.error_report.busy_s", "s", "lower"),
        ("analysis.error_report.self_s", "s", "lower"),
        ("analysis.exact_pwl.busy_s", "s", "lower"),
        ("analysis.exact_pwl.breakpoints", "count", "lower"),
        ("analysis.reference.busy_s", "s", "lower"),
        ("analysis.reference.calls", "count", "lower"),
    ]
    + [(f"verify.{n}.s", "s", "lower") for n in ITEM_NETS]
    + [
        ("calculus.prune.busy_s", "s", "lower"),
        ("calculus.prune.rows_removed", "count", "higher"),
        ("quantcode.quantize_network.busy_s", "s", "lower"),
        ("quantcode.quantize_network.weights", "count", "lower"),
        ("quantcode.quantize_network.m", "count", "lower"),
        ("quantcode.encode.busy_s", "s", "lower"),
        ("quantcode.encode.bits", "count", "lower"),
        ("quantcode.encode.mbits_per_s", "1e6/s", "higher"),
        ("quantcode.decode.busy_s", "s", "lower"),
        ("quantcode.decode.mbits_per_s", "1e6/s", "higher"),
        ("quantcode.bytes.busy_s", "s", "lower"),
        ("core.write_network.busy_s", "s", "lower"),
        ("core.write_network.bytes", "B", "lower"),
        ("core.read_network.busy_s", "s", "lower"),
        ("core.metrics.calls", "count", "lower"),
        ("core.metrics.busy_s", "s", "lower"),
        ("proc.cpu_s", "s", "lower"),
        ("proc.wall_s", "s", "lower"),
        ("trace.passes", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.small_overhead_us", "us", "lower"),
    ]
)

UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def layer_targets(tracer: Tracer):
    """(owner, attribute, recording wrapper) for every traced public function."""
    from relucalc import analysis, calculus, core, quantcode

    def size_of(path):
        return {"bytes": os.path.getsize(path)}

    ev = tracer.wrap(
        "core.evaluate_batch", core.evaluate_batch, lambda a, r: {"points": len(a[1])}
    )
    met = tracer.wrap("core.metrics", core.metrics)
    bits = quantcode.BitString
    return [
        (core, "evaluate_batch", ev),
        (analysis, "evaluate_batch", ev),
        (core, "metrics", met),
        (analysis, "metrics", met),
        (quantcode, "metrics", met),
        (core, "write_network",
         tracer.wrap("core.write_network", core.write_network, lambda a, r: size_of(a[1]))),
        (core, "read_network",
         tracer.wrap("core.read_network", core.read_network, lambda a, r: size_of(a[0]))),
        (calculus, "prune",
         tracer.wrap("calculus.prune", calculus.prune,
                     lambda a, r: {"rows_removed": sum(a[0].dims) - sum(r.dims)})),
        (analysis, "exact_pwl",
         tracer.wrap("analysis.exact_pwl", analysis.exact_pwl,
                     lambda a, r: {"breakpoints": int(r.breakpoints.size)})),
        (analysis, "error_report", tracer.wrap("analysis.error_report", analysis.error_report)),
        (quantcode, "quantize_network",
         tracer.wrap("quantcode.quantize_network", quantcode.quantize_network,
                     lambda a, r: {"weights": sum(l.matrix.size + l.bias.size for l in a[0].layers),
                                   "m": r[1]})),
        (quantcode, "encode",
         tracer.wrap("quantcode.encode", quantcode.encode, lambda a, r: {"bits": len(r)})),
        (quantcode, "decode",
         tracer.wrap("quantcode.decode", quantcode.decode, lambda a, r: {"bits": len(a[0])})),
        (bits, "to_bytes",
         tracer.wrap("quantcode.bytes", bits.to_bytes, lambda a, r: {"bytes": len(r)})),
        (bits, "from_bytes",
         classmethod(tracer.wrap("quantcode.bytes", bits.from_bytes.__func__,
                                 lambda a, r: {"bytes": len(a[1])}))),
    ]


def layer_metrics(tracer: Tracer, passes: int, extras: dict) -> dict[str, float]:
    """Every PER_LAYER metric from the spans of `passes` traced passes, as a
    mean per pass; small-call figures are totals over the traced small calls.
    `extras` supplies the figures that do not come from spans.  Layers a
    workload does not call read 0."""
    spans = tracer.spans
    by_id = {s.id: s for s in spans}
    in_pass = [s for s in spans if s.root == "pass"]
    small = [s for s in spans if s.root == "small" and s.name == "core.evaluate_batch"]

    def pick(name, pool=in_pass):
        return [s for s in pool if s.name == name]

    def busy(name, pool=in_pass):
        return sum(s.duration for s in pick(name, pool))

    def calls(name, pool=in_pass):
        return sum(s.count for s in pick(name, pool))

    def total(name, key, pool=in_pass):
        return sum(s.attrs.get(key, 0) for s in pick(name, pool))

    def rate(amount, seconds):
        return amount / seconds / 1e6 if seconds > 0 else 0.0

    per = 1.0 / passes
    out = {}
    ev = "core.evaluate_batch"
    out[f"{ev}.busy_s"] = busy(ev) * per + busy(ev, small)
    out[f"{ev}.calls"] = calls(ev) * per + len(small)
    out[f"{ev}.points"] = total(ev, "points") * per + total(ev, "points", small)
    out[f"{ev}.bulk.busy_s"] = busy(ev) * per
    out[f"{ev}.bulk.calls"] = calls(ev) * per
    out[f"{ev}.bulk.points"] = total(ev, "points") * per
    for net in EVAL_NETS:
        mine = [s for s in pick(ev) if by_id[s.parent].name == f"eval_deep.{net}"]
        nnz = sum(s.attrs["points"] * by_id[s.parent].attrs["connectivity"] for s in mine)
        out[f"{ev}.bulk.{net}.nnz_per_s"] = rate(nnz, sum(s.duration for s in mine))
        for key in ("dense_macs", "nnz_share", "copy_row_share", "buffer_mb"):
            name = f"core.eval.{net}.{key}"
            out[name] = extras.get(name, 0)
    out[f"{ev}.small.busy_s"] = busy(ev, small)
    out[f"{ev}.small.calls"] = len(small)

    for net in EVAL_NETS + ITEM_NETS:
        builds = [s.duration for s in spans if s.name == f"constructors.{net}.build"]
        out[f"constructors.{net}.build_s"] = statistics.median(builds) if builds else 0.0

    selfs = self_times(spans)
    out["analysis.error_report.busy_s"] = busy("analysis.error_report") * per
    out["analysis.error_report.self_s"] = (
        sum(selfs[s.id] for s in pick("analysis.error_report")) * per
    )
    out["analysis.exact_pwl.busy_s"] = busy("analysis.exact_pwl") * per
    out["analysis.exact_pwl.breakpoints"] = total("analysis.exact_pwl", "breakpoints") * per
    out["analysis.reference.busy_s"] = busy("analysis.reference") * per
    out["analysis.reference.calls"] = calls("analysis.reference") * per
    for net in ITEM_NETS:
        out[f"verify.{net}.s"] = busy(f"verify_codec.verify.{net}") * per

    out["calculus.prune.busy_s"] = busy("calculus.prune") * per
    out["calculus.prune.rows_removed"] = total("calculus.prune", "rows_removed") * per
    q = "quantcode.quantize_network"
    out[f"{q}.busy_s"] = busy(q) * per
    out[f"{q}.weights"] = total(q, "weights") * per
    out[f"{q}.m"] = total(q, "m") * per
    for op in ("encode", "decode"):
        out[f"quantcode.{op}.busy_s"] = busy(f"quantcode.{op}") * per
        out[f"quantcode.{op}.mbits_per_s"] = rate(
            total(f"quantcode.{op}", "bits"), busy(f"quantcode.{op}")
        )
    out["quantcode.encode.bits"] = total("quantcode.encode", "bits") * per
    out["quantcode.bytes.busy_s"] = busy("quantcode.bytes") * per
    out["core.write_network.busy_s"] = busy("core.write_network") * per
    out["core.write_network.bytes"] = total("core.write_network", "bytes") * per
    out["core.read_network.busy_s"] = busy("core.read_network") * per
    out["core.metrics.calls"] = calls("core.metrics") * per
    out["core.metrics.busy_s"] = busy("core.metrics") * per

    out["trace.passes"] = passes
    out["trace.spans"] = len(spans)
    for name in ("proc.cpu_s", "proc.wall_s", "trace.overhead_s", "trace.small_overhead_us"):
        out[name] = extras[name]
    return out
