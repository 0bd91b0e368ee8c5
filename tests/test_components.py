"""Distributed min-label-propagation connected components vs union-find."""

import random

import pytest


def naive_components(edges):
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in parent}


def _run(ray, edges):
    import ray.data as rd

    from document_parser_private_ray.pipelines.components import connected_components

    ds = rd.from_items([{"doc_a": a, "doc_b": b} for a, b in edges])
    rows = connected_components(ds).take_all()
    return {r["node"]: r["label"] for r in rows}


def test_simple_chain(ray_session):
    # chain 1-2-3-4 plus isolated pair 10-11
    edges = [(1, 2), (2, 3), (3, 4), (10, 11)]
    got = _run(ray_session, edges)
    assert got == {1: 1, 2: 1, 3: 1, 4: 1, 10: 10, 11: 10}


def test_random_graphs_match_union_find(ray_session):
    rng = random.Random(5)
    nodes = list(range(60))
    edges = [
        (rng.choice(nodes), rng.choice(nodes))
        for _ in range(50)
    ]
    edges = [(a, b) for a, b in edges if a != b]
    got = _run(ray_session, edges)
    exp = naive_components(edges)
    assert got == exp


def test_long_path_converges(ray_session):
    # path of 20 nodes: diameter forces multiple propagation rounds
    edges = [(i, i + 1) for i in range(20)]
    got = _run(ray_session, edges)
    assert all(label == 0 for label in got.values())


@pytest.mark.slow
def test_large_graph_100k_edges(ray_session):
    # >=1e5 edges (path + dense random bulk over 40k nodes): the
    # join-based propagation must match union-find with no driver dict.
    # The random part's mean degree ~5 keeps the giant component's
    # diameter (and so the round count) small enough for a unit test;
    # rounds scale O(log diameter), not with edge count.
    rng = random.Random(11)
    n = 40_000
    edges = [(i, i + 1) for i in range(128)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(100_000)]
    edges = [(a, b) for a, b in edges if a != b]
    assert len(edges) >= 100_000
    got = _run(ray_session, edges)
    exp = naive_components(edges)
    assert got == exp


@pytest.mark.stress
def test_stress_500k_edges_43_components(ray_session):
    """The COVERAGE.md stress claim, committed: 509,884 edges over
    200k nodes in 43 engineered components (43 node-range blocks, each
    with a connecting path + ~7k random intra-block edges). ~6.5 min at
    4 CPUs — deselected by default (pytest -m stress runs it)."""
    rng = random.Random(11)
    n, blocks = 200_000, 43
    size = n // blocks
    edges = []
    for b in range(blocks):
        lo = b * size
        hi = lo + size if b < blocks - 1 else n
        edges += [(i, i + 1) for i in range(lo, hi - 1)]
    for _ in range(310_000):
        b = rng.randrange(blocks)
        lo = b * size
        hi = lo + size if b < blocks - 1 else n
        a, c = rng.randrange(lo, hi), rng.randrange(lo, hi)
        if a != c:
            edges.append((a, c))
    assert len(edges) >= 500_000
    got = _run(ray_session, edges)
    exp = naive_components(edges)
    assert got == exp
    assert len(set(got.values())) == 43
