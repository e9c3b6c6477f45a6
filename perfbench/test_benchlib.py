"""Tests of the benchmark's own helpers: the tail-percentile rule, self time
from nested spans, and the BFS oracle."""

import itertools
import random

from benchlib import (Tracer, bfs_reachable, layer_of, layer_self_times,
                      self_times, sim_bound, tail_percentile)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tail_percentile(range(1, 10)) is None
    assert tail_percentile(range(1, 41)) == (75.0, 30, 40)
    assert tail_percentile(range(1, 101)) == (90.0, 90, 100)
    assert tail_percentile(range(1, 200)) == (90.0, 180, 199)
    assert tail_percentile(range(1, 1001)) == (99.0, 990, 1000)
    # the rank is found after sorting
    values = list(range(1, 101))
    random.Random(0).shuffle(values)
    assert tail_percentile(values) == (90.0, 90, 100)


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_nested_children():
    # decide [0, 10] > encode.merge [1, 4] > engines.seminaive.x [2, 3]
    #                > tm.tm_run [5, 9]
    tr = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    with tr.span("decide", decision=7):
        with tr.span("encode.merge"):
            with tr.span("engines.seminaive.x"):
                pass
        with tr.span("tm.tm_run"):
            pass
    assert [s[1] for s in tr.spans] == ["decide", "encode.merge",
                                        "engines.seminaive.x", "tm.tm_run"]
    assert [s[2] for s in tr.spans] == [None, 0, 1, 0]
    assert all(s[3] == 7 for s in tr.spans)
    assert self_times(tr.spans) == {0: 3, 1: 2, 2: 1, 3: 4}
    layers = layer_self_times(tr.spans)
    assert layers[None] == 3 and layers["encode"] == 2
    assert layers["engines.seminaive"] == 1 and layers["tm"] == 4
    assert sum(layers.values()) == 10  # self times partition the root span


def test_self_time_counts_overlapping_children_once():
    spans = [(0, "decide", None, 0, 0.0, 10.0),
             (1, "a", 0, 0, 1.0, 5.0),
             (2, "b", 0, 0, 3.0, 6.0),
             (3, "c", 0, 0, 8.0, 12.0)]  # clipped to the parent's end
    assert self_times(spans)[0] == 10.0 - 5.0 - 2.0


def test_layer_of_matches_dotted_prefixes():
    assert layer_of("engines.demand.solve") == "engines.demand"
    assert layer_of("engines.seminaive") == "engines.seminaive"
    assert layer_of("typecheck.analyze") == "typecheck"
    assert layer_of("engines") is None
    assert layer_of("encoder") is None
    assert layer_of("decide") is None


def _closure(nodes, edges):
    reach = {(a, b) for a, b in edges}
    for k, i, j in itertools.product(nodes, repeat=3):
        if (i, k) in reach and (k, j) in reach:
            reach.add((i, j))
    return reach


def test_bfs_oracle():
    chain = [("a", "b"), ("b", "c")]
    assert bfs_reachable(chain, "a") == {"b", "c"}
    assert bfs_reachable(chain, "c") == set()
    assert "a" not in bfs_reachable(chain, "a")
    assert bfs_reachable([("a", "b"), ("b", "a")], "a") == {"a", "b"}
    rng = random.Random(1)
    for _ in range(30):
        nodes = list(range(6))
        edges = [(rng.choice(nodes), rng.choice(nodes)) for _ in range(7)]
        reach = _closure(nodes, edges)
        for x, y in itertools.product(nodes, repeat=2):
            assert (y in bfs_reachable(edges, x)) == ((x, y) in reach)


def test_sim_bound_matches_program_horizon():
    assert sim_bound(1, 2, 3) == 8
    assert sim_bound(1, 3, 4) == 63
    assert sim_bound(2, 1, 3) == 7
    assert sim_bound(3, 1, 2) == 15
    assert sim_bound(2, 1, 1) == 10 ** 6
