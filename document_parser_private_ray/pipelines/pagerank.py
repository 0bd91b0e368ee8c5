"""Distributed PageRank (Brin-Page'98 — public method) in exact
integer fixed-point arithmetic, over the customer-supplier bipartite
graph derived from orders ⋈ lineitem.

Why integer fixed-point: float PageRank accumulates in whatever order
the shuffle delivers contributions, so cross-engine (and cross-run)
sums differ in the last ulps. This variant does every step in int64
micro-units with floor division — contribution of node u to each
neighbor is ``score_u * 85 // (100 * deg_u)`` and the damping base is
a flat ``150_000`` — so addition order is irrelevant and a DuckDB
oracle replays the scores bit-for-bit with the same unrolled
iterations.

Scale shape (the iterative-algorithm pattern, same skeleton as
connected components):

* edge build: ONE bucketed hash join orders ⋈ lineitem, distinct
  (cust, supp) via groupby, bidirectional edges with disjoint node ids
  (cust -> 2k, supp -> 2k+1);
* degrees: one groupby(src) count, attached to the edge relation by a
  co-partition bucketed join ONCE — iterations reuse the joined
  relation;
* per iteration: ONE co-partition bucketed join (edges+deg) ⋈ scores
  on src, a vectorized contribution map, ONE groupby(dst) sum, a
  constant teleport add. Lineage is cut per iteration so the logical
  plan stays O(1) deep;
* driver state: none (scores live as a Dataset).

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
iterative-graph family the engine adds.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..stages import width
from .exchange import co_partition, co_partition_pairs, sorted_runs

DAMP_NUM = 85          # 0.85 damping as a rational
DAMP_DEN = 100
TELEPORT_MICRO = 150_000   # (1 - 0.85) in micro-units
INIT_MICRO = 1_000_000


def _cut(ds):
    import ray.data as rd

    return rd.from_arrow_refs(ds.materialize().to_arrow_refs())


def distinct_cust_supp_pairs(sf_dir: str):
    """Distinct (cust, supp) relation from orders ⋈ lineitem.

    The dedup runs at pair-hash-bucket grain: per-batch local distinct
    (each order's ~4 lines collapse before the exchange), then ONE
    vectorized Arrow ``group_by`` per pair bucket.
    Ray's ``groupby(keys).aggregate()`` pays its cross-block merge cost
    per distinct key when keys repeat across blocks — measured 13.0 s
    for the ~590k sf0.1 pairs vs 0.25 s for this shape, same exchange."""
    from .joins import bucketed_join
    from .relational import _read

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_suppkey"])
    joined = bucketed_join(orders, lineitem, "o_orderkey", "l_orderkey")

    def local_pairs(t: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "c": pc.cast(t["o_custkey"], pa.int64()),
                "s": pc.cast(t["l_suppkey"], pa.int64()),
            }
        ).group_by(["c", "s"]).aggregate([])

    def distinct_bucket(group: pa.Table) -> pa.Table:
        return group.group_by(["c", "s"]).aggregate([])

    local = joined.map_batches(local_pairs, batch_format="pyarrow", zero_copy_batch=True)
    return co_partition_pairs(local, distinct_bucket, "c", "s")


def build_bipartite_edges(sf_dir: str):
    """Bidirectional (src, dst) edges between customer nodes (2k) and
    supplier nodes (2k+1) for every distinct (cust, supp) order-line
    relationship."""
    pairs = distinct_cust_supp_pairs(sf_dir)

    def to_edges(t: pa.Table) -> pa.Table:
        c = pc.multiply(t["c"], pa.scalar(2, type=pa.int64()))
        s = pc.add(
            pc.multiply(t["s"], pa.scalar(2, type=pa.int64())),
            pa.scalar(1, type=pa.int64()),
        )
        c = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        s = s.combine_chunks() if isinstance(s, pa.ChunkedArray) else s
        return pa.Table.from_pydict(
            {
                "src": pa.concat_arrays([c, s]),
                "dst": pa.concat_arrays([s, c]),
            }
        )

    return pairs.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)


def _sum_by_int64(keys, vals):
    """Exact int64 group-sum: (unique_keys, sums) via sort + reduceat.
    Addition order is irrelevant for integers, so this matches any
    other grouping of the same terms bit-for-bit."""
    import numpy as np

    if len(keys) == 0:
        return keys, vals
    order = np.argsort(keys, kind="stable")
    ks = keys[order]
    vs = vals[order]
    starts = np.concatenate(
        ([0], np.flatnonzero(ks[1:] != ks[:-1]) + 1)
    )
    return ks[starts], np.add.reduceat(vs, starts)


def supplier_pagerank(sf_dir: str, n_iters: int = 3, k: int = 20):
    """Top-k supplier nodes by integer PageRank after ``n_iters``
    synchronous iterations: (s_suppkey, score_micro), ordered by
    (score desc, suppkey).

    Fused-exchange shape: every iteration is ONE co-partition of the
    edges (by src) with the contributions (by dst). Inside a bucket the
    nodes receiving contributions ARE the nodes whose out-edges live
    here (the bucket is a pure function of the node id), so one kernel
    call sums the incoming mass, adds the teleport term, recomputes the
    local degrees, and immediately emits the NEXT round's contributions
    — degree join and score groupby collapse into the same exchange.
    The arithmetic is int64 fixed-point throughout, so the fused
    grouping reproduces the unrolled DuckDB oracle bit-for-bit."""
    import numpy as np

    def _contrib_table(dst, c):
        return pa.Table.from_pydict(
            {"node": pa.array(dst, type=pa.int64()), "v": pa.array(c, type=pa.int64())}
        )

    def scores_of(contribs: pa.Table):
        nodes, sums = _sum_by_int64(
            contribs["node"].to_numpy(zero_copy_only=False),
            contribs["v"].to_numpy(zero_copy_only=False),
        )
        return nodes, sums + TELEPORT_MICRO

    # edges ship as (node=src, dst): sharing the key column with the
    # contributions keeps the padded exchange rows narrow. Every cut
    # input is repartitioned to ``stages.width()`` blocks: each
    # exchange maps and sorts per incoming block, so the block count
    # sets the per-round task count (the components.py block-count note)
    edges = _cut(
        build_bipartite_edges(sf_dir).map_batches(
            lambda t: t.rename_columns(["node", "dst"]),
            batch_format="pyarrow", zero_copy_batch=True,
        ).repartition(width())
    )

    def first_round(group: pa.Table) -> pa.Table:
        # initial score is a constant, so the first contributions need
        # only the in-group degrees
        src = group["node"].to_numpy(zero_copy_only=False)
        dst = group["dst"].to_numpy(zero_copy_only=False)
        nodes, inv = np.unique(src, return_inverse=True)
        deg = np.bincount(inv).astype(np.int64)
        c = (INIT_MICRO * DAMP_NUM) // (DAMP_DEN * deg[inv])
        return _contrib_table(dst, c)

    def next_round(t: dict) -> pa.Table:
        nodes, score = scores_of(t["C"])
        src = t["E"]["node"].to_numpy(zero_copy_only=False)
        dst = t["E"]["dst"].to_numpy(zero_copy_only=False)
        su, inv = np.unique(src, return_inverse=True)
        deg = np.bincount(inv).astype(np.int64)
        # every src in this bucket received mass (edges are
        # bidirectional), so the lookup is total; validate anyway
        # rather than misattribute on a malformed graph
        idx = np.searchsorted(nodes, su)
        ok = (idx < len(nodes)) & (
            nodes[np.minimum(idx, len(nodes) - 1)] == su
        )
        if not ok.all():
            keep = ok[inv]
            src, dst, inv = src[keep], dst[keep], inv[keep]
            su_ok = np.flatnonzero(ok)
            remap = np.full(len(su), -1, dtype=np.int64)
            remap[su_ok] = np.arange(len(su_ok))
            inv = remap[inv]
            idx = idx[ok]
            deg = deg[ok]
        s_src = score[idx][inv]
        c = (s_src * DAMP_NUM) // (DAMP_DEN * deg[inv])
        return _contrib_table(dst, c)

    def final_scores(group: pa.Table) -> pa.Table:
        nodes, score = scores_of(group)
        return pa.Table.from_pydict(
            {
                "node": pa.array(nodes, type=pa.int64()),
                "score": pa.array(score, type=pa.int64()),
            }
        )

    edge_schema = pa.schema([("node", pa.int64()), ("dst", pa.int64())])
    contrib_schema = pa.schema([("node", pa.int64()), ("v", pa.int64())])
    # iteration 1's join half: contributions from the constant initial
    # scores — one exchange over the edges alone
    contribs = _cut(
        co_partition({"E": (edges, None)}, "node", first_round)
        .repartition(width())
    )
    # per-iteration cuts: measured 1.8x faster than one deep lazy plan
    for _ in range(n_iters - 1):
        contribs = _cut(
            co_partition(
                {"E": (edges, edge_schema), "C": (contribs, contrib_schema)},
                "node",
                next_round,
            ).repartition(width())
        )
    scores = co_partition({"C": (contribs, None)}, "node", final_scores)

    def suppliers_only(t: pa.Table) -> pa.Table:
        node = pc.cast(t["node"], pa.int64())
        mask = pc.equal(pc.bit_wise_and(node, pa.scalar(1, type=pa.int64())),
                        pa.scalar(1, type=pa.int64()))
        sub = t.filter(mask)
        skey = pc.divide(
            pc.subtract(pc.cast(sub["node"], pa.int64()),
                        pa.scalar(1, type=pa.int64())),
            pa.scalar(2, type=pa.int64()),
        )
        return pa.Table.from_pydict(
            {
                "s_suppkey": skey,
                "score_micro": pc.cast(sub["score"], pa.int64()),
            }
        )

    return (
        scores.map_batches(suppliers_only, batch_format="pyarrow",
                           zero_copy_batch=True)
        .sort(["score_micro", "s_suppkey"], descending=[True, False])
        .limit(k)
    )


def cosupplier_pairs(sf_dir: str, k: int = 15, max_deg: int = 32):
    """Two-hop graph co-occurrence: supplier pairs ranked by how many
    customers they share — the collaborative-filtering join over the
    same distinct (cust, supp) relation PageRank builds. Hot customers
    are DEGREE-CAPPED deterministically (each customer contributes
    pairs only among its ``max_deg`` smallest suppliers — the
    collocation-style candidate bound, so no group explodes
    quadratically); pair counts pre-aggregate per group before the tiny
    final groupby."""
    import numpy as np

    pairs = distinct_cust_supp_pairs(sf_dir)

    # group at BUCKET grain, not per customer: a kernel call emits one
    # block, and 100k one-customer blocks would drown the downstream
    # operators in per-block overhead; a customer bucket holds many
    # customers and the explosion loops them inside one call, emitting
    # one pre-counted block per bucket
    def explode_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # each customer's run holds its suppliers ascending
        sup = g["s"].to_numpy()
        starts = np.flatnonzero(pos == 0)
        out_a, out_b = [], []
        for lo, hi in zip(starts, np.append(starts[1:], len(pos))):
            s_list = sup[lo : min(hi, lo + max_deg)]
            if len(s_list) < 2:
                continue
            ia, ib = np.triu_indices(len(s_list), k=1)
            out_a.append(s_list[ia])
            out_b.append(s_list[ib])
        if not out_a:
            return pa.Table.from_pydict(
                {
                    "s_a": pa.array([], type=pa.int64()),
                    "s_b": pa.array([], type=pa.int64()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        t = pa.Table.from_pydict(
            {
                "s_a": pa.array(np.concatenate(out_a), type=pa.int64()),
                "s_b": pa.array(np.concatenate(out_b), type=pa.int64()),
                "n": pa.array(
                    np.ones(sum(len(x) for x in out_a), dtype=np.int64)
                ),
            }
        )
        g = t.group_by(["s_a", "s_b"]).aggregate([("n", "sum")])
        return g.rename_columns(["s_a", "s_b", "n"])

    exploded = sorted_runs(pairs, "c", ["s"], explode_bucket)

    # final reduce at BUCKET grain again: Ray's groupby().aggregate()
    # pays per-distinct-group overhead (~0.1 ms/group — 500k pair keys
    # would cost ~45 s); a pair-hash bucket co-partition plus ONE
    # vectorized Arrow group_by per bucket does the same exchange in
    # 64 calls
    def reduce_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by(["s_a", "s_b"]).aggregate([("n", "sum")])
        return g.rename_columns(["s_a", "s_b", "n_shared_customers"])

    return (
        co_partition_pairs(exploded, reduce_bucket, "s_a", "s_b")
        .sort(
            ["n_shared_customers", "s_a", "s_b"], descending=[True, False, False]
        )
        .limit(k)
    )
