"""Deterministic dataset splitting for training pipelines.

``dataset_split`` assigns every document to train/val/test by a stable
content-independent hash of its id (md5, first 8 digest bytes
little-endian — bit-identical to DuckDB's ``md5_number_upper`` so the
driver oracle can recompute the assignment). The split is a pure
per-row map: no shuffle, no state, reproducible across runs, machines
and engines — the property a 100 TB corpus split actually needs (a
random_sample split changes membership every run; a mod-on-row-index
split changes when the corpus is re-partitioned).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .exchange import grouped_agg, sorted_runs


def _read_ids(sf_dir: str):
    from ..sources.readers import read_documents

    return read_documents(sf_dir, ["doc_id"])


def split_of(key: str, train_buckets: int = 8, val_buckets: int = 1) -> str:
    """train/val/test by md5 bucket in [0, 10): [0,8) train, 8 val, 9 test
    (defaults). == DuckDB md5_number_upper(key) % 10."""
    b = int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "little") % 10
    if b < train_buckets:
        return "train"
    if b < train_buckets + val_buckets:
        return "val"
    return "test"


def dataset_split(sf_dir: str):
    """(doc_id, split) assignment table over the documents corpus."""

    def assign(batch: pa.Table) -> pa.Table:
        splits = [split_of(str(i)) for i in batch["doc_id"].to_pylist()]
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(splits, type=pa.string())],
            names=["doc_id", "split"],
        )

    return (
        _read_ids(sf_dir)
        .map_batches(assign, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
    )


def split_counts(sf_dir: str):
    """Rollup: documents per split (sanity check of the 80/10/10 shape)."""
    from ray.data.aggregate import Count

    return (
        dataset_split(sf_dir)
        .groupby("split")
        .aggregate(Count(alias_name="n_docs"))
        .sort("split")
    )


def sample_stratified(sf_dir: str, n_per_source: int = 10):
    """Deterministic stratified sample: the ``n_per_source`` documents
    per source with the smallest content-stable hash
    (md5_number_upper(doc_id) order, doc_id tiebreak) — the grouped
    top-k shape: one hash shuffle on the group key, rank computed
    vectorized inside each group. Unlike ``random_sample`` the
    membership is stable across runs, machines and re-partitioning,
    and per-stratum counts are exact. Partitioning assumption: one
    source's (doc_id, hkey) rows fit in one group — the payload is two
    ints per doc, so a billion-doc stratum is ~16 GB worst case; salt
    the source key before the shuffle if a single stratum outgrows
    that."""
    import hashlib as _hl

    from ..sources.readers import read_documents

    ds = read_documents(sf_dir, ["doc_id", "source"])

    def keyed(batch: pa.Table) -> pa.Table:
        hkeys = [
            int.from_bytes(_hl.md5(str(i).encode()).digest()[:8], "little")
            for i in batch["doc_id"].to_pylist()
        ]
        return batch.append_column("hkey", pa.array(hkeys, type=pa.uint64()))

    def topn(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # every source in the bucket at once: rank = run position + 1
        keep = pa.array(pos < n_per_source)
        return pa.Table.from_arrays(
            [g["source"].filter(keep), g["doc_id"].filter(keep),
             pa.array(pos + 1).filter(keep)],
            names=["source", "doc_id", "rk"],
        )

    keyed_ds = ds.map_batches(keyed, batch_format="pyarrow", zero_copy_batch=True)
    return sorted_runs(keyed_ds, "source", ["hkey", "doc_id"], topn).sort(
        ["source", "rk"]
    )


def corpus_shuffle(sf_dir: str, seed: int = 42, n_ranges: int = 1024):
    """Deterministic global training shuffle WITH exact positions —
    every document gets its global 0-based rank in the shuffled order
    (ORDER BY md5(doc_id:seed), doc_id), without a global sort carrying
    payloads: the keyed hash is range-bucketed on its top bits
    (order-preserving), a tiny groupby counts each range, the driver
    turns the <= ``n_ranges`` counts into exclusive prefix offsets and
    broadcasts them, and ONE shuffle on the range id ranks each bucket
    locally (range offset + position in the range's (h, doc_id)-sorted
    run, ``exchange.sorted_runs``). Only (doc_id, hash) ever moves."""
    import ray
    from ray.data.aggregate import Count

    salt = f":s{seed}"

    def hash_batch(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        hs = [
            int.from_bytes(
                hashlib.md5((str(i) + salt).encode()).digest()[:8], "little"
            )
            for i in ids
        ]
        h = np.array(hs, dtype=np.uint64)
        return pa.Table.from_pydict(
            {
                "doc_id": batch["doc_id"],
                "h": pa.array(h, type=pa.uint64()),
                "rng": pa.array(
                    (h >> np.uint64(64 - n_ranges.bit_length() + 1)).astype(
                        np.int64
                    ),
                    type=pa.int64(),
                ),
            }
        )

    hashed = _read_ids(sf_dir).map_batches(
        hash_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    counts = hashed.groupby("rng").aggregate(Count(alias_name="n")).take_all()
    counts.sort(key=lambda r: r["rng"])
    offsets, acc = {}, 0
    for r in counts:
        offsets[r["rng"]] = acc
        acc += r["n"]
    offsets_ref = ray.put(offsets)

    def rank_range(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # rank = the range's offset + position in its (h, doc_id) run
        offs = ray.get(offsets_ref)
        rng = g["rng"].to_numpy()
        base = np.array([offs[int(r)] for r in rng[pos == 0]], dtype=np.int64)
        return pa.table(
            {"doc_id": g["doc_id"], "pos": pa.array(base[np.cumsum(pos == 0) - 1] + pos)}
        )

    return sorted_runs(hashed, "rng", ["h", "doc_id"], rank_range).sort("doc_id")


def label_balance_by_split(sf_dir: str):
    """Dataset-validation check: class-label counts per train/val/test
    split of the embeddings table — the 'did the split preserve label
    balance' gate before training. The split is the same md5 assignment
    as ``dataset_split`` (content-stable, engine-replayable); counts
    pre-aggregate per batch before ONE tiny groupby over
    splits x labels."""
    from ..sources.readers import read_table

    def split_label(batch: pa.Table) -> pa.Table:
        splits = [split_of(str(i)) for i in batch["vec_id"].to_pylist()]
        return pa.Table.from_pydict(
            {
                "split": pa.array(splits, type=pa.string()),
                "label": batch["label"].to_numpy(zero_copy_only=False).astype("int64"),
            }
        )

    return grouped_agg(
        read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "label"]),
        ["split", "label"],
        {"n_vectors": (None, "count")},
        rows=split_label,
    ).sort(["split", "label"])
