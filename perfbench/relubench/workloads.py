"""The two workloads.

Each one builds its inputs from the seed in `setup` (verify_codec draws a
fresh grid for each pass), lists the timed items of one pass in `items`,
and checks each item's result in `check`, which the runner calls outside
the timed intervals.  A workload with a `small_net` (eval_deep) also has
the runner make 64-point `evaluate_batch` calls through it between items,
checked bitwise against the oracle.
"""

from __future__ import annotations

import contextlib
import math
import statistics
from pathlib import Path

import numpy as np

from relucalc import analysis, calculus, core, quantcode
from relucalc.constructors import (
    bspline_network,
    cardinal_bspline,
    cosine_network,
    gaussian_network,
    multiply_network,
    splines,
    weierstrass_network,
)

from .layers import EVAL_NETS, ITEM_NETS
from .oracle import bitwise_equal, reference_eval

BUILDS = {
    "weier": (weierstrass_network, (0.4, 3, 1, 1e-1)),
    "gauss2": (gaussian_network, (2, 1e-1)),
    "cos100": (cosine_network, (100, 1, 1e-2)),
    "cos30": (cosine_network, (30, 1, 1e-2)),
    "bspline3": (bspline_network, (3, 1e-3)),
    "mult": (multiply_network, (1, 1e-4)),
}

SMALL_POINTS = 64
SMALL_CHUNKS = 16
ORACLE_POINTS = 1024


def uniform_points(rng, boxes, n: int) -> np.ndarray:
    return np.column_stack([rng.uniform(lo, hi, n) for lo, hi in boxes])


def nets_bitwise_equal(a, b) -> bool:
    return a.depth == b.depth and all(
        bitwise_equal(x.matrix, y.matrix) and bitwise_equal(x.bias, y.bias)
        for x, y in zip(a.layers, b.layers)
    )


class Workload:
    name = ""
    small_key = None

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # set by the runner around traced setups and passes

    def span(self, name: str, **attrs):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, **attrs)

    def build(self, key: str):
        fn, args = BUILDS[key]
        with self.span(f"constructors.{key}.build"):
            return fn(*args)

    def setup(self) -> None:
        """Builds, input generation and one warm-up call per network."""
        rng = np.random.default_rng(self.seed)
        self.nets = {key: self.build(key) for key in self.keys}
        self.prepare(rng)
        self.small_net = self.nets.get(self.small_key)
        self.small_chunks = [
            uniform_points(rng, [(-1.0, 1.0)], SMALL_POINTS)
            for _ in range(SMALL_CHUNKS if self.small_net else 0)
        ]
        for net in self.nets.values():
            core.evaluate_batch(net, np.zeros((SMALL_POINTS, net.in_dim)))

    def prepare(self, rng) -> None:
        pass

    def item_attrs(self, key: str) -> dict:
        return {}

    def structure(self) -> dict:
        """Computed structural counts reported with the per-layer metrics."""
        return {}

    def aliases(self, pass_s: float, item_times: list[dict]) -> dict:
        """The workload's own names for its pass figures, from the median
        pass time and each untraced pass's item times: name -> (value, unit)."""
        return {}


class EvalDeep(Workload):
    """2^15-point calls through three deep, narrow networks: every
    per-layer buffer (width x 2^15 x 8 B, 2.4 to 4.7 MB) exceeds a 2 MiB
    per-core L2."""

    name = "eval_deep"
    keys = EVAL_NETS
    small_key = "cos100"
    BULK = 1 << 15
    BOXES = {"weier": [(-1.0, 1.0)], "gauss2": [(-6.0, 6.0)] * 2, "cos100": [(-1.0, 1.0)]}

    def prepare(self, rng) -> None:
        self.inputs = {k: uniform_points(rng, self.BOXES[k], self.BULK) for k in self.keys}
        self.sample = {k: rng.choice(self.BULK, ORACLE_POINTS, replace=False) for k in self.keys}
        self.connectivity = {k: core.metrics(n).connectivity for k, n in self.nets.items()}
        self.expected = {}

    def items(self):
        return [
            (k, lambda k=k: core.evaluate_batch(self.nets[k], self.inputs[k]))
            for k in self.keys
        ]

    def item_attrs(self, key: str) -> dict:
        return {"connectivity": self.connectivity[key]}

    def check(self, key: str, out):
        if key not in self.expected:
            self.expected[key] = reference_eval(
                self.nets[key], self.inputs[key][self.sample[key]]
            )
        yield f"oracle.{key}", bitwise_equal(out[self.sample[key]], self.expected[key])

    def structure(self) -> dict:
        out = {}
        for key, net in self.nets.items():
            dense = sum(layer.matrix.size for layer in net.layers)
            rows = sum(layer.out_dim for layer in net.layers)
            copies = 0
            for layer in net.layers:
                nonzero = layer.matrix != 0.0
                single = nonzero.sum(axis=1) == 1
                copies += int(np.sum(single & (layer.matrix.sum(axis=1) == 1.0) & (layer.bias == 0.0)))
            out[f"core.eval.{key}.dense_macs"] = self.BULK * dense
            out[f"core.eval.{key}.nnz_share"] = self.connectivity[key] / dense
            out[f"core.eval.{key}.copy_row_share"] = copies / rows
            out[f"core.eval.{key}.buffer_mb"] = max(net.dims) * self.BULK * 8 / 1e6
        return out

    def aliases(self, pass_s: float, item_times: list[dict]) -> dict:
        work = sum(self.BULK * c for c in self.connectivity.values())
        return {"bulk_nnz_per_s": (work / pass_s / 1e6, "1e6/s")}


class VerifyCodec(Workload):
    """For each of three networks, check its error contract with
    error_report, then prune, quantize, encode and decode it and write and
    read it in both serialisations."""

    name = "verify_codec"
    keys = ITEM_NETS
    # reference, domain, grid points per axis, contract eps
    ITEMS = {
        "cos30": (lambda x: math.cos(30.0 * x), [(-1.0, 1.0)], 100_001, 1e-2),
        "bspline3": (lambda x: cardinal_bspline(3, x), [(-2.0, 5.0)], 100_001, 1e-3),
        "mult": (lambda x, y: x * y, [(-1.0, 1.0)] * 2, 301, 1e-4),
    }
    JITTER = 2.0 ** -10
    EPS_Q = 0.25
    D = 1.0
    DEVIATION_POINTS = 257

    def prepare(self, rng) -> None:
        self.rng = rng
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.deviation_points = {
            k: uniform_points(rng, [(-self.D, self.D)] * n.in_dim, self.DEVIATION_POINTS)
            for k, n in self.nets.items()
        }

    def items(self):
        # each pass shrinks every domain edge by a fresh seeded amount, so the
        # grid points move while grid sizes, and so the work, stay fixed
        domains = {
            key: [(lo + self.rng.uniform(0, self.JITTER), hi - self.rng.uniform(0, self.JITTER))
                  for lo, hi in boxes]
            for key, (_, boxes, _, _) in self.ITEMS.items()
        }
        # the unbounded memo behind cardinal_bspline keeps every point of
        # every earlier grid; each pass starts from an empty one, as a fresh
        # `relucalc sweep` does, so that neither its time nor the peak memory
        # depends on how many passes fit in the run; a version without the
        # memo has nothing to clear
        memo = getattr(splines, "_bspline_exact", None)
        if memo is not None:
            memo.cache_clear()
        return (
            [(f"verify.{k}", lambda k=k: self.verify(k, domains[k])) for k in self.keys]
            + [(f"codec.{k}", lambda k=k: self.round_trip(k)) for k in self.keys]
        )

    def verify(self, key: str, domain):
        reference, _, grid_n, _ = self.ITEMS[key]
        if self.tracer is not None:
            reference = self.tracer.wrap_aggregate("analysis.reference", reference)
        net = self.build(key)
        return analysis.error_report(net, reference, domain, grid_n)

    def round_trip(self, key: str) -> dict:
        pruned = calculus.prune(self.nets[key])
        k = quantcode.minimal_quantization_k(pruned, self.EPS_Q)
        quant, m = quantcode.quantize_network(pruned, k, self.D, self.EPS_Q)
        bits = quantcode.encode(quant, m, self.EPS_Q)
        back = quantcode.BitString.from_bytes(bits.to_bytes())
        decoded = quantcode.decode(back, m, self.EPS_Q)
        read = {}
        for label, net in (("pruned", pruned), ("quant", quant)):
            path = self.workdir / f"{key}.{label}.relunet"
            core.write_network(net, path)
            read[label] = core.read_network(path)
        return dict(pruned=pruned, quant=quant, m=m, bits=bits, back=back,
                    decoded=decoded, read=read)

    def check(self, item: str, result):
        stage, key = item.split(".")
        if stage == "verify":
            eps = self.ITEMS[key][3]
            yield f"sup_error.{key}", (math.isfinite(result.sup_error)
                                       and result.sup_error <= eps)
            return
        quant, pruned = result["quant"], result["pruned"]
        connectivity = core.metrics(quant).connectivity
        yield f"decode.{key}", (result["decoded"] is not None
                                and nets_bitwise_equal(result["decoded"], quant))
        yield f"bytes.{key}", result["back"] == result["bits"]
        yield f"length.{key}", len(result["bits"]) <= quantcode.code_length_bound(
            connectivity, result["m"], self.EPS_Q
        )
        yield f"relunet.pruned.{key}", nets_bitwise_equal(result["read"]["pruned"], pruned)
        yield f"relunet.quant.{key}", nets_bitwise_equal(result["read"]["quant"], quant)
        pts = self.deviation_points[key]
        deviation = np.max(np.abs(core.evaluate_batch(quant, pts) - core.evaluate_batch(pruned, pts)))
        yield f"deviation.{key}", bool(deviation <= self.EPS_Q)

    def aliases(self, pass_s: float, item_times: list[dict]) -> dict:
        return {
            f"{stage}_pass_s": (statistics.median(
                sum(t for item, t in times.items() if item.startswith(stage + "."))
                for times in item_times
            ), "s")
            for stage in ("verify", "codec")
        }


WORKLOADS = {w.name: w for w in (EvalDeep, VerifyCodec)}
