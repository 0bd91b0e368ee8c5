"""Connected components for near-dup clustering.

The final stage of dedup: verified similar-pairs form a graph; every
document keeps the minimum doc_id of its component as survivor label.

``connected_components`` is fully distributed: labels live in a
DATASET (node, label) — never a driver dict — and each round is ONE
``joins.bucketed_join`` co-partition shuffle:

    relation  = edges ∪ links(labels)      # links fold keep-current,
                                           # pointer doubling and root
                                           # update into plain edges
    labels'   = (relation ⋈ labels on src).groupby(dst).min(label)

Labels only decrease, so ``sum(label)`` is a monotone convergence
witness: the loop stops the first round the sum is unchanged. With
pointer doubling the round count is O(log diameter). Driver state per
round: one scalar — independent of graph size, which is what the
100-TB contract requires.

[Engineering notes, ray 2.49:
 1. a union of several SHUFFLE branches feeding another shuffle in one
    DAG deadlocks the local streaming executor — hence the single-join
    round shape (the only union is of map-only branches);
 2. ``materialize()`` stores blocks but KEEPS the logical plan — after
    N rounds plan-optimization walks a DAG that doubled N times and
    driver planning time grows 2^N. ``_cut`` rebuilds the dataset from
    its stored block refs (``from_arrow_refs``; zero-copy, blocks stay
    in the object store) so every round starts from a depth-0 plan;
 3. the per-round groupby mirrors its input block count into its
    output, so labels are ``repartition``-ed to ``stages.width()``
    blocks or tiny blocks proliferate exponentially.]

``union_find``: the exact driver-side fallback for small edge lists
(used by tests and as the oracle for the distributed path).
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from ..stages import width
from .exchange import co_partition


def union_find(edges: Iterable[Tuple[int, int]]) -> Dict[int, int]:
    """Exact min-root labels for every node appearing in ``edges``."""
    parent: Dict[int, int] = {}

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


def _cut(ds):
    """Execute ``ds`` and rebuild a Dataset from its stored block refs —
    a lineage cut: blocks stay distributed in the object store, but the
    logical plan restarts at depth 0 (see engineering note 2)."""
    import ray.data as rd

    return rd.from_arrow_refs(ds.materialize().to_arrow_refs())


def _label_links(labels):
    """Fold keep-current + pointer doubling into the edge relation:
    for every (node, label) row emit the directed links

        (node -> node)     keep the current label
        (label -> node)    doubling: label(label) flows to node
        (node -> label)    root update: label(node) flows to label

    so ONE join (edges ∪ links) ⋈ labels per round carries every
    message kind — no multi-branch shuffle union (the ray-2.49
    streaming-executor deadlock shape this module works around)."""

    def fn(t: pa.Table) -> pa.Table:
        node = t["node"].combine_chunks()
        label = t["label"].combine_chunks()
        return pa.Table.from_pydict(
            {
                "src": pa.concat_arrays([node, label, node]),
                "dst": pa.concat_arrays([node, node, label]),
            }
        )

    return labels.map_batches(fn, batch_format="pyarrow", zero_copy_batch=True)


def connected_components(pairs, node_cols=("doc_a", "doc_b"), max_rounds: int = 32):
    """``pairs``: Dataset of undirected edges. Returns a Dataset of
    (node, label) with label = min node id of the component."""
    from ray.data.aggregate import Sum

    a, b = node_cols

    def to_directed(batch: pa.Table) -> pa.Table:
        src = pc.cast(batch[a], pa.int64())
        dst = pc.cast(batch[b], pa.int64())
        return pa.Table.from_pydict(
            {
                "src": pa.concat_arrays([src.combine_chunks(), dst.combine_chunks()]),
                "dst": pa.concat_arrays([dst.combine_chunks(), src.combine_chunks()]),
            }
        )

    edges = _cut(
        pairs.map_batches(
            to_directed, batch_format="pyarrow", zero_copy_batch=True
        ).repartition(width())
    )
    if edges.count() == 0:
        import ray.data as rd

        return rd.from_arrow(
            pa.Table.from_pydict(
                {"node": pa.array([], type=pa.int64()), "label": pa.array([], type=pa.int64())}
            )
        )

    def _min_label_bucketed(rows):
        """groupby(node).min(label) via node-hash co-partition + one
        vectorized group_by per bucket — node keys are graph-scale and
        repeat across blocks every round, the per-distinct-key merge
        path Ray-native aggregates pay (the PageRank/cosupplier
        lesson)."""

        def min_bucket(group: pa.Table) -> pa.Table:
            g = group.group_by("node").aggregate([("label", "min")])
            return g.rename_columns(["node", "label"])

        return co_partition({"labels": (rows, None)}, "node", min_bucket)

    # initial labels: every node labels itself (distinct src covers all
    # nodes because edges are directed both ways)
    labels = _cut(
        _min_label_bucketed(
            edges.map_batches(
                lambda t: pa.Table.from_pydict({"node": t["src"], "label": t["src"]}),
                batch_format="pyarrow", zero_copy_batch=True,
            )
        ).repartition(width())
    )

    from .joins import bucketed_join

    prev_sum = None
    for _ in range(max_rounds):
        relation = edges.union(_label_links(labels))
        joined = bucketed_join(relation, labels, "src", "node")
        labels = _cut(
            _min_label_bucketed(
                joined.map_batches(
                    lambda t: pa.Table.from_pydict(
                        {
                            "node": pc.cast(t["dst"], pa.int64()),
                            "label": pc.cast(t["label"], pa.int64()),
                        }
                    ),
                    batch_format="pyarrow", zero_copy_batch=True,
                )
            ).repartition(width())
        )
        # labels only decrease -> sum(label) is a monotone convergence
        # witness; two scalars of driver state per round
        cur = labels.aggregate(Sum("label", alias_name="s"))["s"]
        if prev_sum is not None and cur == prev_sum:
            break
        prev_sum = cur

    return labels.sort("node")


def component_drops(pairs, n_edges: int, driver_threshold: int = 200_000) -> list:
    """Drop list (every node that is not its component's min) for a
    verified-pair graph whose edge count is already known.

    The RESULT is a driver-side list either way, so when the edge list
    itself fits comfortably on the driver (``n_edges`` within
    ``driver_threshold``) the exact ``union_find`` runs directly on the
    collected edges — one round, no shuffles. Above the gate, the
    distributed label propagation runs and only the (node, label) table
    is collected. The gate bounds driver memory explicitly instead of
    assuming the graph is small."""
    if n_edges <= driver_threshold:
        edges = [
            (r["doc_a"], r["doc_b"]) for r in pairs.select_columns(["doc_a", "doc_b"]).take_all()
        ]
        roots = union_find(edges)
        return sorted(n for n, r in roots.items() if r != n)
    labels = connected_components(pairs)
    return sorted(r["node"] for r in labels.take_all() if r["node"] != r["label"])
