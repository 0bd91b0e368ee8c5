"""SemDeDup-style semantic deduplication (Abbas et al. 2023,
arXiv:2303.09540 — public method): k-means-cluster the embedding space
with a small deterministic coarse quantizer, then compare vectors ONLY
within their cluster and mark as semantic duplicates those with a
lower-id cluster-mate above the cosine threshold.

Scale shape — the paper's core trick is confining the quadratic cosine
comparison to one cluster at a time, so the corpus-wide cost is
``sum(|cluster|^2)`` instead of ``n^2``, controlled by ``n_centroids``:

* the centroid matrix is trained once on a tiny driver-side sample
  (``similarity.train_ivf_centroids`` — the same deterministic
  quantizer the IVF ANN index uses, so the two operators share one
  partitioning of the embedding space) and broadcast in the closure of
  the assignment scan;
* cluster assignment is one streaming ``map_batches`` scan (per-batch
  argmin over squared L2 against the broadcast matrix);
* the ONE all-to-all exchange is the ``groupby("cluster")``; each
  ``map_groups`` call sees a single cluster and runs one normalized
  float64 matmul. Partitioning assumption: one cluster fits a worker —
  at 100 TB raise ``n_centroids`` (the paper uses 50k clusters for
  LAION) so it does.

Dup semantics are deterministic so a DuckDB oracle can replay them
bit-exactly: a vector is a duplicate iff some LOWER-id vector in the
same cluster has cosine similarity > threshold; ``dup_of`` is the
minimum such id (the cluster's surviving representative chain), else
-1. Only integer columns are emitted, so the hash compare never sees
floats.

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
LLM-training-data family the engine adds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .similarity import (
    _norm_rows,
    _read_embeddings,
    embedding_matrix,
    train_ivf_centroids,
)


def semdedup(
    sf_dir: str,
    threshold: float = 0.45,
    n_centroids: int = 16,
):
    """Per-vector semantic-dup verdicts: ``vec_id``, ``cluster``,
    ``is_dup``, ``dup_of`` (min lower-id cluster-mate above the cosine
    threshold, -1 if none), one row per vector."""
    C = train_ivf_centroids(sf_dir, n_centroids)

    def assign(t: pa.Table) -> pa.Table:
        M = embedding_matrix(t["embedding"], np.float64)
        d = ((M[:, None, :] - C[None, :, :]) ** 2).sum(-1)
        cid = d.argmin(1)  # ties -> lowest cid, same as the oracle's (d, cid) order
        return pa.Table.from_pydict(
            {
                "vec_id": pa.compute.cast(t["vec_id"], pa.int64()),
                "cluster": pa.array(cid.astype(np.int64), type=pa.int64()),
                "embedding": t["embedding"],
            }
        )

    def dedup_cluster(group: pa.Table) -> pa.Table:
        ids = group["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.argsort(ids)
        ids = ids[order]
        M = _norm_rows(
            embedding_matrix(group["embedding"].take(pa.array(order)), np.float64)
        )
        sims = M @ M.T
        hit = np.triu(sims > threshold, k=1)  # [i, j]: i < j and above threshold
        any_dup = hit.any(axis=0)
        first_i = hit.argmax(axis=0)  # ids sorted asc -> first hit row == min id
        dup_of = np.where(any_dup, ids[first_i], np.int64(-1))
        cluster = group["cluster"][0].as_py()
        n = len(ids)
        return pa.Table.from_pydict(
            {
                "vec_id": pa.array(ids, type=pa.int64()),
                "cluster": pa.array(np.full(n, cluster, dtype=np.int64)),
                "is_dup": pa.array(any_dup.astype(np.int64), type=pa.int64()),
                "dup_of": pa.array(dup_of, type=pa.int64()),
            }
        )

    ds = _read_embeddings(sf_dir).map_batches(
        assign, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )
    return (
        ds.groupby("cluster")
        .map_groups(dedup_cluster, batch_format="pyarrow")
    )
