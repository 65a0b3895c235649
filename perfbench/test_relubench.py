"""Tests of the benchmark's own code: the oracle, the self-time arithmetic,
the percentile rule, and the agreement of BENCHMARK.json with the metrics
the runner reports."""

import json
from pathlib import Path

import numpy as np
import pytest

from relucalc import core
from relucalc.constructors import cosine_network
from relubench.layers import END_TO_END, PER_LAYER
from relubench.oracle import bitwise_equal, reference_eval
from relubench.stats import nearest_rank, tail_percentile
from relubench.tracing import Span, Tracer, self_times
from relubench.workloads import WORKLOADS


def random_net(rng):
    depth = int(rng.integers(1, 6))
    dims = [int(rng.integers(1, 8)) for _ in range(depth + 1)]
    layers = []
    for ell in range(depth):
        mat = rng.uniform(-2.0, 2.0, size=(dims[ell + 1], dims[ell]))
        # exact zeros and ones, as the constructions produce
        mat[rng.random(mat.shape) < 0.3] = 0.0
        mat[rng.random(mat.shape) < 0.1] = 1.0
        layers.append((mat, rng.uniform(-2.0, 2.0, size=dims[ell + 1])))
    return core.network(layers)


@pytest.mark.parametrize("seed", range(25))
def test_oracle_matches_evaluate_batch_bitwise(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    xs = rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 200)), net.in_dim))
    assert bitwise_equal(reference_eval(net, xs), core.evaluate_batch(net, xs))


def test_oracle_is_independent_of_batch_size():
    net = cosine_network(30, 1, 1e-2)
    xs = np.random.default_rng(0).uniform(-1.0, 1.0, size=(256, 1))
    whole = core.evaluate_batch(net, xs)
    assert bitwise_equal(reference_eval(net, xs), whole)
    for lo in range(0, 256, 64):
        assert bitwise_equal(reference_eval(net, xs[lo : lo + 64]), whole[lo : lo + 64])


def test_bitwise_equal_sees_the_last_bit():
    a = np.array([1.0, 2.0])
    b = a.copy()
    b[1] = np.nextafter(2.0, 3.0)
    assert bitwise_equal(a, a.copy())
    assert not bitwise_equal(a, b)
    assert not bitwise_equal(a, a[:1])


def span(id, parent, start, end, count=1, busy=None):
    return Span(id, f"s{id}", parent, "root", start, end, count, busy)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 0, 3.0, 6.0),  # overlaps child 1: union 1..6
        span(3, 1, 2.0, 3.0),  # grandchild: counts against 1 only
        span(4, 0, 9.0, 12.0),  # runs past the parent: clipped to 9..10
        span(5, 0, 6.5, 8.0, count=20, busy=0.5),  # aggregate: its busy time
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[5] == pytest.approx(0.5)


def test_tracer_records_nesting_and_restores_patched_attributes():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def work(x):
            return x + 1

    original = vars(Owner)["work"]
    targets = [(Owner, "work", tracer.wrap("owner.work", Owner.work, lambda a, r: {"x": a[0]}))]
    with tracer.patched(targets), tracer.span("pass"):
        assert Owner.work(1) == 2
        ref = tracer.wrap_aggregate("ref", lambda v: v)
        ref(1), ref(2)
    assert vars(Owner)["work"] is original
    names = {s.name: s for s in tracer.spans}
    assert names["owner.work"].parent == names["pass"].id
    assert names["owner.work"].root == "pass"
    assert names["owner.work"].attrs == {"x": 1}
    assert names["ref"].count == 2 and names["ref"].busy == 2.0


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(1024) == 99.0
    assert tail_percentile(999) == 95.0
    assert tail_percentile(10000) == 99.9
    assert tail_percentile(20) == 50.0
    assert tail_percentile(19) is None


def test_nearest_rank():
    values = list(range(1, 1001))
    assert nearest_rank(values, 50) == 500
    assert nearest_rank(values, 99) == 990
    assert sum(v > nearest_rank(values, 99) for v in values) == 10
    assert nearest_rank([3.0], 99) == 3.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    e2e = {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]}
    layer = {(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]}
    assert e2e == set(END_TO_END)
    assert layer == set(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
