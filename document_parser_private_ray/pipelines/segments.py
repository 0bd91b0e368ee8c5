"""Segment-level corpus curation: boilerplate removal and exact
segment dedup (the CCNet / RefinedWeb line-level steps, expressed over
fixed word-window segments because this corpus is single-line text).

Both operators share ONE vectorized segmentation kernel: tokens come
straight from the Arrow string buffer (``utf8_split_whitespace``),
segment boundaries are computed as numpy offset arithmetic over the
list offsets, and segment text is materialized with a single
``pc.binary_join`` — no per-row Python in the explode.

Reference scope: the reference engine is single-document
(`/root/reference/main.py`); corpus-level curation has no counterpart
there and follows the published CCNet (Wenzek et al. 2019) and
deduplication (Lee et al. 2021) shapes.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.readers import read_documents
from .exchange import co_partition, sorted_runs


def _as_array(col) -> pa.Array:
    """Plain (non-chunked) Arrow array for offsets/values access."""
    if isinstance(col, pa.ChunkedArray):
        return (
            col.chunk(0) if col.num_chunks == 1 else pa.concat_arrays(col.chunks)
        )
    return col


def _segment_batch(batch: pa.Table, seg_words: int) -> pa.Table:
    """Explode a documents batch into (doc_id, pos, seg) rows — one row
    per non-overlapping ``seg_words``-token window, text rejoined with
    single spaces (whitespace-normalizing, so SQL replays byte-exactly).
    Empty documents contribute no rows (both engines agree)."""
    toks = _as_array(pc.utf8_split_whitespace(_as_array(batch["text"])))
    raw_off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # drop empty tokens (split keeps ''-elements for empty/edge
    # whitespace; the SQL oracle's list_filter drops them)
    start, end = int(raw_off[0]), int(raw_off[-1])
    window_vals = toks.values.slice(start, end - start)
    keep_flat = (
        pc.utf8_length(window_vals).to_numpy(zero_copy_only=False) > 0
    )
    n_raw = np.diff(raw_off)
    docidx_flat = np.repeat(np.arange(len(n_raw)), n_raw)
    vals = window_vals.filter(pa.array(keep_flat))
    n_tok = np.bincount(docidx_flat[keep_flat], minlength=len(n_raw)).astype(
        np.int64
    )
    offsets = np.concatenate(([0], np.cumsum(n_tok)))
    m = (n_tok + seg_words - 1) // seg_words  # segments per doc
    total_m = int(m.sum())
    if total_m == 0:
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "seg": pa.array([], type=pa.string()),
            }
        )
    # intra-doc segment index 0..m_i-1, then global token start offsets
    intra = np.arange(total_m, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(m)[:-1])), m
    )
    seg_starts = np.repeat(offsets[:-1], m) + seg_words * intra
    # doc token ranges are contiguous, so segment boundaries are all
    # starts plus the final end — one offsets array for the list build
    seg_offsets = np.append(seg_starts, offsets[-1]).astype(np.int32)
    seg_list = pa.ListArray.from_arrays(
        pa.array(seg_offsets, type=pa.int32()), vals
    )
    seg_text = pc.binary_join(seg_list, " ")
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)
    return pa.Table.from_pydict(
        {
            "doc_id": pa.array(np.repeat(doc_ids, m), type=pa.int64()),
            "pos": pa.array(intra, type=pa.int64()),
            "seg": seg_text,
        }
    )


def remove_boilerplate(sf_dir: str, seg_words: int = 4, min_df: int = 5):
    """Boilerplate removal, CCNet shape: segments appearing in >=
    ``min_df`` distinct documents are stripped from every document.
    Two corpus scans: (1) per-batch DISTINCT (seg, doc) partials ->
    ONE groupby(seg) document-frequency sum — the shuffle moves
    per-batch partial counts, never raw rows; the surviving boilerplate
    set (only ultra-frequent segments, bounded like a stop-shingle set)
    is collected and broadcast via ``ray.put``; (2) a second scan strips
    flagged segments with one ``pc.is_in`` per batch and rejoins the
    kept segments per document. Output: one row per non-empty document
    with exact removal counts and the cleaned text."""
    import ray
    from ray.data.aggregate import Sum

    docs = read_documents(sf_dir)

    def df_partials(batch: pa.Table) -> pa.Table:
        segs = _segment_batch(batch, seg_words)
        # distinct (seg, doc) within the batch, then per-seg doc counts
        per_doc = segs.select(["seg", "doc_id"]).group_by(
            ["seg", "doc_id"]
        ).aggregate([])
        g = per_doc.group_by("seg").aggregate([("doc_id", "count")])
        return g.rename_columns(["seg", "df"])

    df = (
        docs.map_batches(df_partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("seg")
        .aggregate(Sum("df", alias_name="df"))
    )
    boiler = df.map_batches(
        lambda b: b.filter(pc.greater_equal(b["df"], min_df)).select(["seg"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )  # ultra-frequent segments only: a small set by construction
    boiler_set = pa.concat_arrays(
        [
            _as_array(b["seg"]).cast(pa.string())
            for b in boiler.iter_batches(batch_format="pyarrow", batch_size=None)
        ]
        or [pa.array([], type=pa.string())]
    )
    boiler_ref = ray.put(boiler_set)

    def strip(batch: pa.Table) -> pa.Table:
        bset = ray.get(boiler_ref)
        segs = _segment_batch(batch, seg_words)
        if segs.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "n_segs": pa.array([], type=pa.int64()),
                    "n_removed": pa.array([], type=pa.int64()),
                    "clean_text": pa.array([], type=pa.string()),
                }
            )
        is_boiler = (
            pc.is_in(segs["seg"], value_set=bset)
            .to_numpy(zero_copy_only=False)
            .astype(bool)
            if len(bset)
            else np.zeros(segs.num_rows, dtype=bool)
        )
        doc_ids_seg = segs["doc_id"].to_numpy(zero_copy_only=False)
        uniq, doc_idx = np.unique(doc_ids_seg, return_inverse=True)
        n_segs = np.bincount(doc_idx, minlength=len(uniq)).astype(np.int64)
        n_removed = np.bincount(
            doc_idx[is_boiler], minlength=len(uniq)
        ).astype(np.int64)
        kept = segs.filter(pa.array(~is_boiler))
        kept_counts = np.bincount(
            doc_idx[~is_boiler], minlength=len(uniq)
        ).astype(np.int64)
        kept_offsets = np.concatenate(([0], np.cumsum(kept_counts))).astype(
            np.int32
        )
        seg_arr = _as_array(kept["seg"])
        clean = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(kept_offsets, type=pa.int32()), seg_arr),
            " ",
        )
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(uniq, type=pa.int64()),
                "n_segs": pa.array(n_segs, type=pa.int64()),
                "n_removed": pa.array(n_removed, type=pa.int64()),
                "clean_text": clean,
            }
        )

    return docs.map_batches(
        strip, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


def dedup_segments(sf_dir: str, seg_words: int = 4):
    """Corpus-wide exact segment dedup (Lee et al. 2021 ExactSubstr at
    fixed-window granularity): only the FIRST occurrence of each
    segment — min (doc_id, pos) over the whole corpus — survives; later
    copies are dropped from their documents. No group ever materializes
    a whole posting: the owner is a streaming ``Min`` AGGREGATE over a
    composite ckey = doc_id * 2^21 + pos, keyed by a 128-bit md5 of the
    segment (pre-combined per block, so a segment duplicated millions of
    times costs one partial row per block); winners are attached back by
    ONE co-partition exchange (bucket on h1, in-bucket vectorized Acero
    join on (h1, h2)), and keep = (ckey == winner). groupby(doc_id)
    reassembles kept segments in position order."""
    import hashlib

    docs = read_documents(sf_dir)
    POS_BITS = 21

    def explode(batch: pa.Table) -> pa.Table:
        t = _segment_batch(batch, seg_words)
        segs = t["seg"].to_pylist()
        h1 = np.empty(len(segs), dtype=np.int64)
        h2 = np.empty(len(segs), dtype=np.int64)
        for i, g in enumerate(segs):
            d = hashlib.md5(g.encode()).digest()
            h1[i] = int.from_bytes(d[:8], "little", signed=True)
            h2[i] = int.from_bytes(d[8:], "little", signed=True)
        pos = t["pos"].to_numpy(zero_copy_only=False)
        doc = t["doc_id"].to_numpy(zero_copy_only=False)
        if pos.size and int(pos.max()) >= (1 << POS_BITS):
            raise ValueError("document too long for the ckey encoding")
        ckey = (doc << POS_BITS) + pos
        return (
            t.append_column("h1", pa.array(h1, type=pa.int64()))
            .append_column("h2", pa.array(h2, type=pa.int64()))
            .append_column("ckey", pa.array(ckey, type=pa.int64()))
        )

    segs = docs.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def min_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by(["h1", "h2"]).aggregate([("ckey", "min")])
        return g.rename_columns(["h1", "h2", "wkey"])

    # winners via a BUCKETED vectorized reduce (one Arrow group_by per
    # hash bucket): the key count equals distinct segments — unbounded
    # at corpus scale — and Ray-native aggregates pay per-distinct-group
    # overhead on exactly that axis
    winners = co_partition(
        {"segs": (segs.select_columns(["h1", "h2", "ckey"]), None)},
        "h1",
        min_bucket,
    )

    def attach_and_flag(t: dict) -> pa.Table:
        out = t["L"].join(t["R"], keys=["h1", "h2"], join_type="inner")
        keep = pc.equal(out["ckey"], out["wkey"])
        return pa.Table.from_arrays(
            [out["doc_id"], out["pos"], out["seg"], keep],
            names=["doc_id", "pos", "seg", "keep"],
        )

    i64 = pa.int64()
    flagged = co_partition(
        {
            "L": (segs, pa.schema([
                ("doc_id", i64), ("pos", i64), ("seg", pa.string()),
                ("h1", i64), ("h2", i64), ("ckey", i64),
            ])),
            "R": (winners, pa.schema([("h1", i64), ("h2", i64), ("wkey", i64)])),
        },
        "h1",
        attach_and_flag,
    )

    def reassemble_bucket(g: pa.Table, run_pos: np.ndarray) -> pa.Table:
        # every doc in the bucket reassembles from its (doc_id,
        # pos)-sorted run + a single ListArray binary_join (r5; was one
        # Python group call per document)
        keep = g["keep"].to_numpy(zero_copy_only=False).astype(bool)
        starts = np.flatnonzero(run_pos == 0)
        run_lens = np.diff(np.append(starts, len(run_pos)))
        kept_counts = np.add.reduceat(keep.astype(np.int64), starts)
        seg_kept = _as_array(g["seg"]).filter(pa.array(keep))
        offsets = np.concatenate(([0], np.cumsum(kept_counts)))
        clean = pc.binary_join(
            pa.ListArray.from_arrays(
                pa.array(offsets, type=pa.int32()), seg_kept
            ),
            " ",
        )
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(g["doc_id"], pa.int64()).take(starts),
                "n_segs": pa.array(run_lens.astype(np.int64), type=pa.int64()),
                "n_kept": pa.array(kept_counts, type=pa.int64()),
                "clean_text": clean,
            }
        )

    return sorted_runs(flagged, "doc_id", ["pos"], reassemble_bucket).sort("doc_id")
