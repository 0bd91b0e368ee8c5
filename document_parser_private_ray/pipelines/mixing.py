"""Training-data mixing and sequence packing.

``data_mix`` is the source-weighted up/down-sampling step every LLM
pretraining pipeline runs before tokenization (e.g. "books x2.0, web
x0.5"): each document is repeated ``floor(weight)`` times plus one
extra copy with probability ``frac(weight)``, decided by a stable
content-independent md5 hash (the ``dataset_split`` idiom, bit-identical
to DuckDB ``md5_number_upper`` so the driver oracle recomputes the exact
copy set). Pure per-row flat map: no shuffle, reproducible across runs,
machines and engines, and the fractional part never drifts with
partitioning.

``pack_sequences`` assigns documents to fixed-token-capacity training
bins by a distributed exclusive prefix sum over token counts in doc_id
order — the "sample packing" step that turns a ragged corpus into
uniform training sequences. Two-pass shape that holds at 100 TB:
per-bucket partial sums via one small groupby (bucket = doc_id //
bucket_size, so the driver-side prefix table has n_docs/bucket_size
rows — size bucket_size so this stays ~1e5 rows at full scale), bucket
offsets broadcast in the kernel's closure, then intra-bucket
cumulative sums computed vectorized inside one ``sorted_runs`` pass on
the bucket. No global sort, no full materialization; the only exchange
is the bucket co-partition shuffle of the slim (doc_id, n_tokens)
projection.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..sources.readers import read_documents
from .exchange import grouped_agg, sorted_runs


WEIGHT_EIGHTHS_BASE = 4  # weight = (4 + md5(source) % 16) / 8 in [0.5, 2.375]
WEIGHT_EIGHTHS_MOD = 16
PACK_CAPACITY = 512
PACK_BUCKET = 4096


def _md5_int(key: str) -> int:
    """First 8 md5 digest bytes little-endian == DuckDB md5_number_upper."""
    return int.from_bytes(hashlib.md5(key.encode()).digest()[:8], "little")


def source_weight_eighths(source: str) -> int:
    """Deterministic demo mixing weight in integer eighths (4..19 ->
    0.5x..2.375x). Integer eighths keep the copy-count arithmetic exact
    across engines."""
    return WEIGHT_EIGHTHS_BASE + _md5_int(source) % WEIGHT_EIGHTHS_MOD


def data_mix(sf_dir: str):
    """(doc_id, source, copy) — one output row per training copy of each
    document under the ``source_weight_eighths`` mixing weights.
    copy = 0..n_copies-1 where
    n_copies = w8 // 8 plus one more iff
    md5(doc_id || ':' || source) % 8 < w8 % 8."""

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        w8_memo: dict[str, int] = {}
        out_id, out_src, out_copy = [], [], []
        for i, s in zip(ids, srcs):
            w8 = w8_memo.get(s)
            if w8 is None:
                w8 = w8_memo[s] = source_weight_eighths(s)
            n = w8 // 8 + (1 if _md5_int(f"{i}:{s}") % 8 < w8 % 8 else 0)
            out_id.extend([i] * n)
            out_src.extend([s] * n)
            out_copy.extend(range(n))
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(out_src, type=pa.string()),
                pa.array(out_copy, type=pa.int64()),
            ],
            names=["doc_id", "source", "copy"],
        )

    return (
        read_documents(sf_dir, ["doc_id", "source"])
        .map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    )


def mix_counts(sf_dir: str):
    """Rollup: training copies per source (the realized mixing ratio)."""
    return grouped_agg(data_mix(sf_dir), "source", {"n_copies": (None, "count")})


def pack_sequences(
    sf_dir: str, capacity: int = PACK_CAPACITY, bucket_size: int = PACK_BUCKET
):
    """(doc_id, n_tokens, bin) — bin = exclusive-prefix-sum(n_tokens in
    doc_id order) // capacity: documents streamed in id order fill
    fixed-capacity token bins (a doc whose tokens straddle a boundary
    starts in the bin its first token lands in)."""
    from .text_analysis import _ws_token_count_vec

    ds = read_documents(sf_dir)

    def tokens(batch: pa.Table) -> pa.Table:
        n = _ws_token_count_vec(batch["text"])
        ids = batch["doc_id"]
        bucket = pa.array(
            (ids.to_numpy(zero_copy_only=False) // bucket_size).astype("int64")
        )
        return pa.Table.from_arrays(
            [ids, pa.compute.cast(n, pa.int64()), bucket],
            names=["doc_id", "n_tokens", "bucket"],
        )

    slim = ds.map_batches(tokens, batch_format="pyarrow", zero_copy_batch=True)

    # pass 1: per-bucket totals (one row per range bucket — tiny
    # relative to corpus)
    totals = grouped_agg(
        slim, "bucket", {"bucket_tokens": ("n_tokens", "sum")}
    ).take_all()
    totals.sort(key=lambda r: r["bucket"])
    offsets: dict[int, int] = {}
    acc = 0
    for r in totals:
        offsets[r["bucket"]] = acc
        acc += r["bucket_tokens"]

    # pass 2: broadcast offset + exclusive cumsum within each range
    # bucket's doc_id-sorted run; a group may hold several range buckets
    def assign(g: pa.Table, pos: np.ndarray) -> pa.Table:
        starts = pos == 0
        base = np.array([offsets[x] for x in g["bucket"].to_numpy()[starts]], dtype=np.int64)
        n = g["n_tokens"].to_numpy()
        cs = np.cumsum(n) - n
        before = base[np.cumsum(starts) - 1] + cs - cs[np.arange(len(pos)) - pos]
        return pa.Table.from_arrays(
            [g["doc_id"], g["n_tokens"], pa.array(before // capacity)],
            names=["doc_id", "n_tokens", "bin"],
        )

    return sorted_runs(
        slim, "bucket", ["doc_id"], assign
    )
