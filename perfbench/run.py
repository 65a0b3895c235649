"""relucalc benchmark: one seeded workload per run, in one process.

    python3 perfbench/run.py --workload eval_deep --seed 1 --seconds 55 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  eval_deep     2^15-point evaluate_batch calls through three deep networks,
                and 64-point calls through one of them
  verify_codec  build a network and run error_report on the CLI's default
                grid; prune, quantize, encode, decode and the relunet text
                round trip

A run sets up (builds, seeded inputs, one warm-up call per network) and
then runs passes over the workload's items, closed loop with one client,
for about --seconds: the next pass runs if it would end less than half a
pass after --seconds, and at least one pass runs.
Between items the client repeats the set-up on fresh workload objects, at
least five times and for about a second in all, and in eval_deep it also
makes 1024 64-point calls through cos100; both keep pace with the elapsed
share of the run, so that one slow spell of the host does not set their
medians.  setup_s is the median set-up time.  Every output is checked
outside the timed intervals: bulk and small evaluations bitwise against a
column-sequential oracle, error contracts, and codec and file round trips.

With --trace 0 the last line reports the end-to-end metrics.  With --trace 1
odd passes and odd blocks of small calls run with the layers' public
functions wrapped by span recorders, even ones without; the last line
reports the per-layer metrics from the traced ones and the overhead against
the untraced ones.  The spans and an environment record are written under
perfbench/out/.

BLAS threads are pinned to 1.  The relucalc sources are taken from src/ of
the checkout; the run exits with status 2 and no result if they are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# at least SETUPS set-ups, and as many as the first one fits SETUP_SECONDS,
# so that a cheap set-up still has a steady median
SETUPS = 5
SETUP_SECONDS = 1.0
SMALL_CALLS = 1024
SMALL_BLOCK = 32  # traced runs alternate blocks of small calls, patched once a block


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["eval_deep", "verify_codec"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "relucalc" / "__init__.py").is_file():
        print(f"relucalc sources not found under {src}", file=sys.stderr)
        return 2
    from relubench.env import BLAS_VARS

    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    from relucalc import core
    from relubench.env import environment
    from relubench.layers import UNITS, END_TO_END, PER_LAYER, layer_metrics, layer_targets
    from relubench.oracle import bitwise_equal, reference_eval
    from relubench.stats import nearest_rank, tail_percentile
    from relubench.tracing import Tracer
    from relubench.workloads import WORKLOADS

    import numpy as np

    if not Path(core.__file__).resolve().is_relative_to(src):
        print(f"relucalc imported from {core.__file__}, not {src}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    wl = WORKLOADS[args.workload](args.seed, workdir)
    tracer = Tracer() if args.trace else None
    targets = layer_targets(tracer) if tracer else []
    counts = {"attempted": 0, "failed": 0}

    def traced_block(on: bool):
        """Patch the layers and hand the tracer to the workload while on."""
        wl.tracer = tracer if on else None
        return tracer.patched(targets) if on else contextlib.nullcontext()

    def record(label: str, ok: bool) -> None:
        counts["attempted"] += 1
        if not ok:
            counts["failed"] += 1
            print(f"check failed: {label}", file=sys.stderr)

    try:
        setup_times = []

        def set_up(instance) -> None:
            t0 = time.perf_counter()
            with traced_block(tracer is not None and instance is wl), instance.span("setup"):
                instance.setup()
            wl.tracer = None
            setup_times.append(time.perf_counter() - t0)

        set_up(wl)
        n_setups = max(SETUPS, math.ceil(SETUP_SECONDS / setup_times[0]))

        net, chunks = wl.small_net, wl.small_chunks
        n_small = SMALL_CALLS if chunks else 0
        probe = []
        for x in chunks[:5]:
            t0 = time.perf_counter()
            core.evaluate_batch(net, x)
            probe.append(time.perf_counter() - t0)
        small_est = statistics.median(probe) if probe else 0.0
        latency = {False: [], True: []}
        outputs = []

        def small_calls(upto: int) -> None:
            while len(outputs) < upto:
                c = len(outputs)
                traced = tracer is not None and c // SMALL_BLOCK % 2 == 1
                with traced_block(traced), wl.span("small"):
                    t0 = time.perf_counter()
                    outputs.append(core.evaluate_batch(net, chunks[c % len(chunks)]))
                    latency[traced].append(time.perf_counter() - t0)
            wl.tracer = None

        def keep_pace(share: float) -> None:
            """Bring the small calls and the repeated set-ups, each made on a
            fresh workload whose state is thrown away, up to `share` of their
            totals, so that both sample the whole run."""
            small_calls(min(n_small, int(n_small * share)))
            while len(setup_times) < min(n_setups, 1 + int((n_setups - 1) * share)):
                set_up(WORKLOADS[args.workload](args.seed, workdir))

        start = time.perf_counter()
        pass_times = {False: [], True: []}
        item_times = []  # per untraced pass: item -> seconds
        cpu, wall = [], []
        i = 0
        while True:
            traced = tracer is not None and i % 2 == 1
            results, times = {}, {}
            cpu_s = wall_s = 0.0
            for key, fn in wl.items():
                c0, w0 = time.process_time(), time.perf_counter()
                with traced_block(traced), wl.span("pass", index=i), \
                        wl.span(f"{wl.name}.{key}", **wl.item_attrs(key)):
                    t0 = time.perf_counter()
                    try:
                        results[key] = fn()
                    except Exception:
                        traceback.print_exc()
                        record(f"item.{key}", False)
                    else:
                        record(f"item.{key}", True)
                    times[key] = time.perf_counter() - t0
                wl.tracer = None
                cpu_s += time.process_time() - c0
                wall_s += time.perf_counter() - w0
                keep_pace(min(1.0, (time.perf_counter() - start) / args.seconds))
            pass_times[traced].append(sum(times.values()))
            if traced:
                cpu.append(cpu_s)
                wall.append(wall_s)
            else:
                item_times.append(times)
            for key, result in results.items():
                for label, ok in wl.check(key, result):
                    record(label, bool(ok))
            i += 1
            elapsed = time.perf_counter() - start
            left = (args.seconds - (n_small - len(outputs)) * small_est
                    - (n_setups - len(setup_times)) * statistics.median(setup_times))
            # the pass count is --seconds over the pass time, rounded: the
            # next pass runs if it would end less than half a pass late
            if i >= (2 if tracer else 1) and elapsed + elapsed / i / 2 > left:
                break
        keep_pace(1.0)

        if outputs:
            expected = reference_eval(net, np.concatenate(chunks))
            expected = expected.reshape(len(chunks), len(chunks[0]), -1)
            for c, y in enumerate(outputs):
                record(f"oracle.small.{c}", bitwise_equal(y, expected[c % len(chunks)]))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    untraced_lat = latency[False]
    also = {}
    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": rss_mb,
            "pass_s": statistics.median(pass_times[False]),
        }
        names = [n for n, _, _ in END_TO_END]
        # small-call latencies are reported but not gated: on a shared host
        # their run-to-run spread exceeds any bound BENCHMARK.json may set
        if untraced_lat:
            tail = tail_percentile(len(untraced_lat))
            for p in (50, tail):
                also[f"small_p{p:g}_ms"] = (nearest_rank(untraced_lat, p) * 1e3, "ms")
        also.update(wl.aliases(metrics["pass_s"], item_times))
    else:
        extras = wl.structure()
        extras.update({
            "proc.cpu_s": statistics.mean(cpu),
            "proc.wall_s": statistics.mean(wall),
            "trace.overhead_s": statistics.median(pass_times[True])
            - statistics.median(pass_times[False]),
            "trace.small_overhead_us": (statistics.median(latency[True])
                                        - statistics.median(untraced_lat)) * 1e6
            if untraced_lat else 0.0,
        })
        metrics = layer_metrics(tracer, len(pass_times[True]), extras)
        names = [n for n, _, _ in PER_LAYER]

    env = environment(ROOT, args.seed)
    counts_line = {
        "passes": {"untraced": len(pass_times[False]), "traced": len(pass_times[True])},
        "small_calls": {"untraced": len(untraced_lat), "traced": len(latency[True])},
        "failed_ratio": counts["failed"] / counts["attempted"],
    }
    print(f"relucalc benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(counts_line, sort_keys=True))
    for name in names:
        print(f"  {name:44s} {metrics[name]:.6g} {UNITS[name]}")
    for name, (value, unit) in also.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    print(f"  {'failed_ratio':44s} {counts_line['failed_ratio']:.6g} "
          f"({counts['failed']} of {counts['attempted']})")

    OUT.mkdir(exist_ok=True)
    record_out = {"args": vars(args), "environment": env, "samples": counts_line,
                  "counts": counts, "metrics": metrics, "setup_times": setup_times,
                  "pass_times": {"untraced": pass_times[False], "traced": pass_times[True]},
                  "also": {k: v[0] for k, v in also.items()}}
    if tracer is not None:
        record_out["spans"] = tracer.to_json()
    (OUT / f"result-{tag}.json").write_text(json.dumps(record_out))

    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
