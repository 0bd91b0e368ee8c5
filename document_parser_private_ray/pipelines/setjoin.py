"""Exact set-similarity self-join via prefix filtering (the
AllPairs/PPJoin family: Bayardo et al. WWW'07, Xiao et al. WWW'08).

Complements the probabilistic MinHash-LSH near-dup family with an
EXACT one: every pair of documents whose 3-gram shingle sets have
Jaccard >= t is returned, with no banding recall loss and no
stop-shingle df cap (unlike ``ngram_jaccard_pairs``, which trades
exactness above ``max_df`` for bounded buckets).

Why it scales: candidate generation explodes only each document's
PREFIX — the first ``n - ceil(t*n) + 1`` shingles under one global
total order (ascending document frequency, rarest first). The prefix
theorem (Xiao'08 Lemma 1, restated over per-side overlap bounds):
if J(A,B) >= t then |A∩B| >= ceil(t*|A|) and >= ceil(t*|B|); the
smallest common shingle c in the global order has at most
|A| - ceil(t*|A|) elements of A before it (all other intersection
members sort after c), so c lies in BOTH prefixes — sharing a prefix
posting is therefore a complete candidate generator. Ordering by
ascending df makes prefixes maximally rare, so posting-list groups in
the pair exchange stay small; the subsequent length filter
(T_DEN*min(|A|,|B|) >= T_NUM*max) prunes before any text ships, and
the exact verify runs only on surviving pairs via the gated
broadcast-vs-shuffle ``pairs.attach_pair_values``.

Reference parity: the reference engine has no set-similarity join —
this is part of the added large-scale-curation surface (SURVEY §6).
"""
from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sketches import SHINGLE_K, shingles
from .exchange import as_array, co_partition, grouped_agg, run_starts, sorted_runs
from .joins import bucketed_join
from .pairs import attach_pair_values, self_pairs
from .segments import _split_words


def _explode_shingles(batch: pa.Table, k: int) -> pa.Table:
    """One posting row per DISTINCT (shingle, doc); each posting carries
    the doc's set size so no separate size table is ever joined.

    Vectorized (VERDICT r4 #8): tokenization, k-gram window
    construction (k shifted slices of the flat token stream +
    ``binary_join_element_wise``) and the per-doc distinct are Arrow /
    numpy kernels; the only per-element Python left is the md5 over the
    flat shingle strings — pinned by the SQL oracles
    (``_stable_hash64``), so it cannot be swapped for a numpy hash.
    Lowercasing stays ``str.lower`` (one C call per doc) to remain
    bit-identical to ``functions.sketches.shingles``, which the exact
    verify stage re-runs on candidate pairs."""
    import hashlib

    empty = pa.Table.from_pydict(
        {
            "tok": pa.array([], type=pa.int64()),
            "doc_id": pa.array([], type=pa.int64()),
            "n": pa.array([], type=pa.int64()),
        }
    )
    if batch.num_rows == 0:
        return empty
    doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    lowered = pa.array(
        [(t or "").lower() for t in batch["text"].to_pylist()], type=pa.string()
    )
    toks = _split_words(lowered)
    raw_off = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    window_vals = toks.values.slice(int(raw_off[0]), int(raw_off[-1] - raw_off[0]))
    # drop the empty token the split gives an empty (trimmed) text
    keep_flat = pc.utf8_length(window_vals).to_numpy(zero_copy_only=False) > 0
    n_raw = np.diff(raw_off)
    vals = window_vals.filter(pa.array(keep_flat))
    n_tok = np.bincount(
        np.repeat(np.arange(len(n_raw)), n_raw)[keep_flat], minlength=len(n_raw)
    ).astype(np.int64)
    offsets = np.concatenate(([0], np.cumsum(n_tok)))
    total = int(offsets[-1])
    docidx_flat = np.repeat(np.arange(len(n_tok)), n_tok)

    parts_str: list = []
    parts_doc: list = []
    if total >= k:
        # full k-gram windows: k shifted views of the flat token stream
        # joined element-wise; valid where the window stays in one doc
        shifted = [vals.slice(j, total - k + 1) for j in range(k)]
        joined = pc.binary_join_element_wise(*shifted, " ")
        in_doc = docidx_flat[: total - k + 1] == docidx_flat[k - 1 :]
        parts_str.append(joined.filter(pa.array(in_doc)))
        parts_doc.append(docidx_flat[: total - k + 1][in_doc])
    short = (n_tok > 0) & (n_tok < k)
    if short.any():
        # 1..k-1 token docs get ONE shingle of all their tokens; rare,
        # so a small Python join per short doc is fine
        sh_docs = np.flatnonzero(short)
        strs = [
            " ".join(vals.slice(int(offsets[d]), int(n_tok[d])).to_pylist())
            for d in sh_docs
        ]
        parts_str.append(pa.array(strs, type=pa.string()))
        parts_doc.append(sh_docs.astype(np.int64))
    if not parts_str:
        return empty
    flat_str = (
        parts_str[0]
        if len(parts_str) == 1
        else pa.concat_arrays([as_array(p) for p in parts_str])
    )
    flat_doc = np.concatenate(parts_doc)
    md5 = hashlib.md5
    hashes = np.fromiter(
        (
            int.from_bytes(md5(s.encode("utf-8")).digest()[:8], "big")
            for s in flat_str.to_pylist()
        ),
        dtype=np.uint64,
        count=len(flat_doc),
    )
    # per-doc DISTINCT: lexsort (doc, hash), keep run firsts
    order = np.lexsort((hashes, flat_doc))
    d_s, h_s = flat_doc[order], hashes[order]
    first = run_starts(d_s, h_s)
    d_u, h_u = d_s[first], h_s[first]
    n_per_doc = np.bincount(d_u, minlength=len(n_tok)).astype(np.int64)
    return pa.Table.from_pydict(
        {
            "tok": pa.array(h_u.astype(np.int64), type=pa.int64()),
            "doc_id": pa.array(doc_ids[d_u], type=pa.int64()),
            "n": pa.array(n_per_doc[d_u], type=pa.int64()),
        }
    )


# ppjoin_pairs: Jaccard threshold T_NUM / T_DEN over shingle sets
T_NUM = 7
T_DEN = 10


def ppjoin_pairs(sf_dir: str):
    """All document pairs with shingle-set Jaccard >= T_NUM/T_DEN = 7/10,
    EXACT. Returns (doc_a, doc_b, n_common, n_union) — integer
    counts, so the SQL oracle compares with no float hashing channel.

    Stages (each a bounded exchange):
      1. shingle explode -> postings (tok, doc_id, n);
      2. global df per tok: per-batch partial counts -> one small
         groupby (vocab-scale, not corpus-scale);
      3. df rides back onto postings via one hash-bucketed
         co-partition join (``bucketed_join``);
      4. prefix selection: ``exchange.sorted_runs`` on doc_id orders
         every doc's postings by (df, tok), and the run position (the
         posting's rank in its doc) keeps rank < n - ceil(t*n) + 1;
      5. candidate pairs: prefix postings co-partition by tok bucket,
         ``pairs.self_pairs`` per bucket + the length and positional
         filters, partial pair-dedup in-bucket, global dedup in one
         groupby;
      6. exact verify over ``pairs.attach_pair_values`` (broadcast
         id-filter when the candidate set is small, one co-partition
         per side at scale) — never an all-pairs or driver-side text
         fetch.

    Empty-shingle docs never enter the index: Jaccard over an empty
    set is undefined here (the near-dup families own the empty-doc
    star; see ``ngram_jaccard_pairs``).
    """
    from .relational import _read

    docs = _read(sf_dir, "documents", ("doc_id", "text"))
    postings = docs.map_batches(
        lambda b: _explode_shingles(b, SHINGLE_K),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
    )

    # -- global document frequency per shingle (one posting per doc)
    dftab = grouped_agg(postings, "tok", {"df": (None, "count")})

    with_df = bucketed_join(postings, dftab, "tok", "tok")

    # -- prefix selection: each doc's postings in (df, tok) order; the
    # run position is the posting's rank in its doc
    def prefix_select(g: pa.Table, pos: np.ndarray) -> pa.Table:
        n = g["n"].to_numpy()
        # prefix length p = n - ceil(t*n) + 1 (integer ceil)
        keep = pa.array(pos < n - (T_NUM * n + T_DEN - 1) // T_DEN + 1)
        return pa.table(
            {
                "tok": pc.cast(g["tok"], pa.int64()).filter(keep),
                "doc_id": pc.cast(g["doc_id"], pa.int64()).filter(keep),
                "n": pc.cast(g["n"], pa.int64()).filter(keep),
                # position of the posting in its doc's global (df, tok)
                # order — feeds the PPJoin positional filter downstream
                "pos": pa.array(pos).filter(keep),
            }
        )

    prefixes = sorted_runs(with_df, "doc_id", ["df", "tok"], prefix_select)

    # -- candidate pairs: one self_pairs per tok bucket
    def bucket_pairs(group: pa.Table) -> pa.Table:
        import logging

        g = group.combine_chunks()
        # hot-posting diagnostic: the in-bucket self-join is quadratic
        # per tok's posting group; the df-ascending prefix order keeps
        # groups small, but a pathological corpus (one shingle shared by
        # everything) would still blow up here — surface it, never
        # silently truncate (the join is exact)
        tok_counts = g.group_by("tok").aggregate([("doc_id", "count")])
        max_posting = pc.max(tok_counts["doc_id_count"]).as_py() or 0
        if max_posting > 4096:
            logging.getLogger(__name__).warning(
                "ppjoin: prefix-token posting group of %d docs in one bucket "
                "(quadratic candidate join); consider a lower threshold or "
                "coarser shingles for this corpus",
                max_posting,
            )
        joined = self_pairs(g, "tok", "doc_id", carry=["n", "pos"])
        # length filter: t*max <= min is necessary for J >= t
        mask = pc.greater_equal(
            pc.multiply(
                pc.min_element_wise(joined["n_a"], joined["n_b"]),
                pa.scalar(T_DEN, type=pa.int64()),
            ),
            pc.multiply(
                pc.max_element_wise(joined["n_a"], joined["n_b"]),
                pa.scalar(T_NUM, type=pa.int64()),
            ),
        )
        # positional filter (Xiao'08 §3.2): with c the smallest common
        # shingle in the global (df, tok) order at positions (i, j) of
        # the two sorted sets, overlap <= 1 + min(n_a-i-1, n_b-j-1);
        # J >= t needs overlap >= ceil(t*(n_a+n_b)/(1+t)). The bound is
        # only valid at the minimal common token, but every true pair's
        # minimal-token row passes it, so keeping pairs where ANY
        # generating row passes stays exact while pruning the rest.
        ub = pc.add(
            pa.scalar(1, type=pa.int64()),
            pc.min_element_wise(
                pc.subtract(pc.subtract(joined["n_a"], joined["pos_a"]),
                            pa.scalar(1, type=pa.int64())),
                pc.subtract(pc.subtract(joined["n_b"], joined["pos_b"]),
                            pa.scalar(1, type=pa.int64())),
            ),
        )
        mask = pc.and_(
            mask,
            pc.greater_equal(
                pc.multiply(ub, pa.scalar(T_NUM + T_DEN, type=pa.int64())),
                pc.multiply(
                    pc.add(joined["n_a"], joined["n_b"]),
                    pa.scalar(T_NUM, type=pa.int64()),
                ),
            ),
        )
        return joined.filter(mask).select(["doc_a", "doc_b", "n_a", "n_b"])

    cand = grouped_agg(
        co_partition({"prefixes": (prefixes, None)}, "tok", bucket_pairs),
        ["doc_a", "doc_b"],
        {"n_a": ("n_a", "max"), "n_b": ("n_b", "max")},
    ).materialize()
    n_cand = cand.count()

    schema_out = pa.schema(
        [
            ("doc_a", pa.int64()),
            ("doc_b", pa.int64()),
            ("n_common", pa.int64()),
            ("n_union", pa.int64()),
        ]
    )
    if n_cand == 0:
        import ray.data as rd

        return rd.from_arrow(pa.Table.from_pydict({f.name: [] for f in schema_out},
                                                   schema=schema_out))

    with_texts = attach_pair_values(
        cand.select_columns(["doc_a", "doc_b"]), docs, "doc_id", "text", n_cand
    )

    def verify(batch: pa.Table) -> pa.Table:
        memo: dict = {}

        def sh(doc, text):
            s = memo.get(doc)
            if s is None:
                s = shingles(text)
                memo[doc] = s
            return s

        da, db, ni, nu = [], [], [], []
        for a, b, ta, tb_ in zip(
            batch["doc_a"].to_pylist(),
            batch["doc_b"].to_pylist(),
            batch["text_a"].to_pylist(),
            batch["text_b"].to_pylist(),
        ):
            sa, sb = sh(a, ta), sh(b, tb_)
            i = len(sa & sb)
            u = len(sa) + len(sb) - i
            if i * T_DEN >= T_NUM * u and u > 0:
                da.append(a)
                db.append(b)
                ni.append(i)
                nu.append(u)
        return pa.Table.from_pydict(
            {"doc_a": da, "doc_b": db, "n_common": ni, "n_union": nu},
            schema=schema_out,
        )

    return with_texts.map_batches(verify, batch_format="pyarrow", zero_copy_batch=True)
