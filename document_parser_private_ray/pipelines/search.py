"""Distributed full-text search scoring (BM25 top-k).

The inverted-retrieval shape that holds at corpus scale: the corpus is
never ranked whole — one map_batches pass emits (doc_id, term, tf,
len_d) rows ONLY for documents containing a query term (the posting
slice for this query), per-term document frequencies reduce to a
k-terms-sized table (driver dict, broadcast by closure), scoring is one
vectorized map over the posting rows plus a groupby(doc_id) integer
sum, and only the top-k survive a distributed sort+limit.

Scores are integer micros with the floor applied PER TERM before the
sum (floor(contrib * 1e6 + 0.5), then exact int64 addition), so the
total is independent of summation order — float sums are not
associative and a cross-engine/cross-partition float total would never
hash-compare; the DuckDB oracle recomputes the identical integers.
Float literals (2.2, 1.2, 0.25, 0.75) are written identically on both
sides so each engine parses the same IEEE doubles.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..sources.readers import read_documents
from .exchange import co_partition, run_positions, run_starts

DEFAULT_QUERY = "hash join merge"
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TF_W = 2.2  # k1 + 1, as its own literal (1.2 + 1.0 != parse("2.2"))


def bm25_search(sf_dir: str, query: str = DEFAULT_QUERY, k: int = 10):
    """(doc_id, score_micro) — top-k documents for the query under BM25
    (Robertson/Sparck Jones idf: ln((N - df + 0.5)/(df + 0.5) + 1))."""
    terms = sorted(set(query.lower().split()))
    term_set = set(terms)

    ds = read_documents(sf_dir)

    from .text_analysis import _ws_token_count_vec

    def postings(batch: pa.Table) -> pa.Table:
        lens = pc.cast(_ws_token_count_vec(batch["text"]), pa.int64()).to_pylist()
        out_id, out_t, out_tf, out_len = [], [], [], []
        for i, t, ld in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist(), lens
        ):
            c = Counter(w for w in (t or "").lower().split() if w in term_set)
            for term, tf in c.items():
                out_id.append(i)
                out_t.append(term)
                out_tf.append(tf)
                out_len.append(ld)
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(out_t, type=pa.string()),
                pa.array(out_tf, type=pa.int64()),
                pa.array(out_len, type=pa.int64()),
            ],
            names=["doc_id", "term", "tf", "len_d"],
        )

    cand = ds.map_batches(
        postings, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused 2x below (df reduce + scoring); posting
    # slice only — size bounded by docs matching the query, not corpus

    # corpus scalars (metadata count + one slim aggregate)
    lens_ds = ds.map_batches(
        lambda b: pa.Table.from_arrays(
            [pc.cast(_ws_token_count_vec(b["text"]), pa.int64())], names=["n"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    n_docs = float(ds.count())
    total_tokens = float(lens_ds.sum("n"))
    avg_len = total_tokens / n_docs

    from ray.data.aggregate import Count

    df_rows = cand.groupby("term").aggregate(Count(alias_name="df")).take_all()
    df_map = {r["term"]: float(r["df"]) for r in df_rows}
    idf = {
        t: float(np.log((n_docs - d + 0.5) / (d + 0.5) + 1.0))
        for t, d in df_map.items()
    }

    def score(batch: pa.Table) -> pa.Table:
        tf = batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        ld = batch["len_d"].to_numpy(zero_copy_only=False).astype(np.float64)
        idf_v = np.array(
            [idf[t] for t in batch["term"].to_pylist()], dtype=np.float64
        )
        contrib = idf_v * (tf * BM25_TF_W) / (
            tf + BM25_K1 * ((1.0 - BM25_B) + BM25_B * (ld / avg_len))
        )
        micro = np.floor(contrib * 1_000_000 + 0.5).astype(np.int64)
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(micro)], names=["doc_id", "c"]
        )

    from ray.data.aggregate import Sum

    scored = (
        cand.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("doc_id")
        .aggregate(Sum("c", alias_name="score_micro"))
    )
    return scored.sort(
        ["score_micro", "doc_id"], descending=[True, False]
    ).limit(k)


def build_postings(
    sf_dir: str, max_df: int = 1000, n_salts: int = 8
):
    """Inverted-index CONSTRUCTION as a dataset product: (word, df,
    doc_ids) posting lists over the corpus vocabulary, doc_ids sorted
    and comma-joined; stop-word-scale lists are truncated to the
    ``max_df`` smallest doc_ids with an explicit ``truncated`` flag and
    the TRUE df kept. Hot keys are salted: the first exchange
    co-partitions by WORD-HASH BUCKET and dedupes at (word, doc_id % n_salts) grain —
    each salt sees a DISJOINT doc partition, so per-salt distinct
    counts sum to the exact global df and per-salt smallest ids are
    correct partials of the global smallest. Every kernel handles ALL
    its bucket's words at once (dictionary-encode + lexsort + run
    offsets + one ListArray binary_join; r5 — was one Python group call
    per (word, salt) and per word), and the second exchange merges
    <= n_salts list-typed partial rows per word, still bucket-grain.
    No group ever materializes an unbounded posting."""
    ds = read_documents(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        cleaned = pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
        )
        toks = pc.split_pattern(cleaned, " ")
        toks = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
        off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        start, end = int(off[0]), int(off[-1])
        vals = toks.values.slice(start, end - start)
        n_raw = np.diff(off)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        doc_flat = np.repeat(ids, n_raw)
        lens = pc.utf8_length(vals).to_numpy(zero_copy_only=False)
        keep = lens > 0
        kept_docs = doc_flat[keep]
        pairs = pa.Table.from_pydict(
            {
                "word": vals.filter(pa.array(keep)),
                "doc_id": pa.array(kept_docs, type=pa.int64()),
                # hot-key salt: doc_id % n_salts partitions each word's
                # DOCS disjointly, so distinct counts and smallest-ids
                # DECOMPOSE EXACTLY across salts
                "salt": pa.array(
                    (kept_docs % n_salts).astype("int64"), type=pa.int64()
                ),
            }
        )
        return pairs.group_by(["word", "salt", "doc_id"]).aggregate([])

    def partial_bucket(group: pa.Table) -> pa.Table:
        # all (word, salt) partials of the bucket in one pass: encode
        # words to codes, lexsort (code, salt, doc), dedupe runs, df =
        # run length, ids = each run's max_df smallest as a list column
        g = group.combine_chunks()
        word_arr = g["word"]
        if isinstance(word_arr, pa.ChunkedArray):
            word_arr = word_arr.combine_chunks()
        enc = pc.dictionary_encode(word_arr)
        code = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        salt = g["salt"].to_numpy(zero_copy_only=False)
        doc = g["doc_id"].to_numpy(zero_copy_only=False)
        order = np.lexsort((doc, salt, code))
        c_s, s_s, d_s = code[order], salt[order], doc[order]
        first = run_starts(c_s, s_s, d_s)
        c_s, s_s, d_s = c_s[first], s_s[first], d_s[first]
        m = len(c_s)
        new_run = run_starts(c_s, s_s)
        sel = run_positions(new_run) < max_df
        starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.append(starts, m))
        kept_lens = np.minimum(run_lens, max_df)
        offsets = np.concatenate(([0], np.cumsum(kept_lens)))
        id_lists = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()),
            pa.array(d_s[sel], type=pa.int64()),
        )
        words = enc.dictionary.take(pa.array(c_s[starts], type=pa.int32()))
        return pa.Table.from_pydict(
            {
                "word": words,
                "df": pa.array(run_lens.astype(np.int64), type=pa.int64()),
                "ids": id_lists,
            }
        )

    def merge_bucket(group: pa.Table) -> pa.Table:
        # <= n_salts list partials per word; salts partition docs, so
        # the merge is a disjoint union: flatten, lexsort (code, id),
        # keep each word's max_df smallest, one binary_join per run
        g = group.combine_chunks()
        word_arr = g["word"]
        if isinstance(word_arr, pa.ChunkedArray):
            word_arr = word_arr.combine_chunks()
        enc = pc.dictionary_encode(word_arr)
        code = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ids_col = g["ids"]
        if isinstance(ids_col, pa.ChunkedArray):
            ids_col = ids_col.combine_chunks()
        lens = pc.list_value_length(ids_col).to_numpy(zero_copy_only=False)
        flat_ids = pc.list_flatten(ids_col).to_numpy(zero_copy_only=False)
        code_flat = np.repeat(code, lens)
        order = np.lexsort((flat_ids, code_flat))
        c_s, d_s = code_flat[order], flat_ids[order]
        m = len(c_s)
        # per-word df sum (exact: salts partition docs)
        df = g["df"].to_numpy(zero_copy_only=False)
        order_w = np.argsort(code, kind="stable")
        cw = code[order_w]
        new_w = run_starts(cw)
        w_starts = np.flatnonzero(new_w)
        df_sum = np.add.reduceat(df[order_w], w_starts)
        word_codes = cw[w_starts]
        # per-word max_df smallest ids out of the unioned lists
        new_run = run_starts(c_s)
        sel = run_positions(new_run) < max_df
        starts = np.flatnonzero(new_run)
        run_lens = np.diff(np.append(starts, m))
        kept_lens = np.minimum(run_lens, max_df)
        offsets = np.concatenate(([0], np.cumsum(kept_lens)))
        id_strs = pc.cast(pa.array(d_s[sel], type=pa.int64()), pa.string())
        joined = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), id_strs),
            ",",
        )
        # words with ids and words in the df rollup are identical sets
        # and both sorted by code, so the rows align 1:1
        words = enc.dictionary.take(pa.array(word_codes, type=pa.int32()))
        return pa.Table.from_pydict(
            {
                "word": words,
                "df": pa.array(df_sum, type=pa.int64()),
                "truncated": pa.array(df_sum > max_df),
                "doc_ids": joined,
            }
        )

    postings = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
    partials = co_partition(
        {"postings": (postings, None)}, "word", partial_bucket
    )
    return co_partition(
        {"partials": (partials, None)}, "word", merge_bucket
    ).sort("word")
