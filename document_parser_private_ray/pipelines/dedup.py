"""Deduplication operators over a documents table (doc_id, text) — the
training-data-pipeline family: exact, MinHash-LSH, SimHash, n-gram
Jaccard, embedding-cosine near-dup.

Scale shapes:
  * exact: vectorized content hash -> groupby(hash) -> keep min doc_id
    (hash-partitioned shuffle moves only (hash, doc_id) pairs after a
    projection, never the text);
  * MinHash-LSH: per-batch signatures (a task map over one hasher that
    ships with its permutation coefficients) -> explode to (band, key,
    doc_id) rows -> co-partition on (band, key) -> candidate pairs ->
    Jaccard verify -> min-label dedup;
  * SimHash: 64-bit signature per doc; bucket by the 4x16-bit bands
    (Hamming<=3 within-band collision guarantee via pigeonhole) ->
    verify Hamming distance;
  * embedding cosine: normalized vectors, candidate buckets via sign-LSH
    or brute-force per-batch matmul against a broadcast matrix (small
    collections) — both paths return identical pairs on the testdata.

Every near-dup query here builds and attaches its candidate pairs with
the shared pair layer (``pairs.py``): ``self_pairs`` per exchange
bucket, the size-gated ``attach_pair_values`` before a verify.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.sketches import SHINGLE_K, MinHasher, jaccard, shingles, simhash64
from ..sources.readers import read_documents
from .exchange import co_partition, grouped_agg, run_starts, sorted_runs
from .pairs import attach_pair_values, fits_broadcast, lookup, scan_ids, self_pairs

# MinHash-LSH: permutations and bands (rows per band = N_PERM //
# N_BANDS); the dedup_minhash SQL oracle replays them
N_PERM, N_BANDS = 128, 16
# SimHash: 4 bands of 16 bits guarantee a shared band at Hamming <= 3
MAX_HAMMING = 3
# inverted-index stop list: shingles / fingerprints in more documents go
MAX_DF = 100_000
# document cap of the exact, full-matrix embedding_neardup_pairs
MAX_EXACT_VECTORS = 200_000


# -- exact dedup ---------------------------------------------------------

def add_content_hash(batch: pa.Table) -> pa.Table:
    import hashlib

    h = [
        hashlib.sha256((t or "").encode("utf-8")).hexdigest()
        for t in batch["text"].to_pylist()
    ]
    return batch.append_column("content_hash", pa.array(h, type=pa.string()))


def dedup_exact(sf_dir: str):
    """Survivors of exact-text dedup: keep the min doc_id per distinct
    text. Projection to (hash, doc_id) BEFORE the shuffle; the reduce is
    co-partitioned by a hash bucket and closed with ONE vectorized
    Arrow group_by per bucket — Ray-native aggregates pay per-distinct-
    group overhead, and this reduce has one group per unique document
    (unbounded at corpus scale)."""
    ds = read_documents(sf_dir)
    hashed = ds.map_batches(add_content_hash, batch_format="pyarrow", zero_copy_batch=True).select_columns(
        ["content_hash", "doc_id"]
    )

    def reduce_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by("content_hash").aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        return g.rename_columns(["content_hash", "keep_doc_id", "n_copies"])

    return co_partition(
        {"hashes": (hashed, None)}, "content_hash", reduce_bucket
    )


# -- MinHash-LSH near-dup ------------------------------------------------

class MinHashSignatures:
    """Task stage: text -> (doc_id, band, key) rows. The permutation
    coefficients are built once on the driver and ship with the
    instance."""

    def __init__(self):
        self.hasher = MinHasher(n_perm=N_PERM)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids, bands, keys = [], [], []
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            sig = self.hasher.signature(shingles(text))
            for band, key in enumerate(self.hasher.band_keys(sig, N_BANDS)):
                doc_ids.append(doc_id)
                bands.append(band)
                keys.append(key)
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids),
                pa.array(bands, type=pa.int32()),
                pa.array(keys, type=pa.uint64()),
            ],
            names=["doc_id", "band", "key"],
        )


def minhash_candidate_pairs(sf_dir: str, max_bucket: int = 4096):
    """(doc_a, doc_b, count()) candidate pairs from shared LSH buckets:
    the (band, key) rows co-partition on those two columns and every
    bucket runs ``pairs.self_pairs`` (the star over the min id for an
    LSH bucket over ``max_bucket`` members, logged)."""
    ds = read_documents(sf_dir)
    sigs = ds.map_batches(
        MinHashSignatures(),
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=512,
    )

    def class_pairs(group: pa.Table) -> pa.Table:
        out = self_pairs(group, ["band", "key"], "doc_id", max_bucket=max_bucket)
        # local distinct before the shuffle (a pair may repeat across
        # bands within the bucket): fewer rows move
        return out.group_by(["doc_a", "doc_b"]).aggregate([])

    pairs = co_partition({"sigs": (sigs, None)}, ["key", "band"], class_pairs)
    # distinct pairs (same pair can collide in several exchange buckets)
    return grouped_agg(pairs, ["doc_a", "doc_b"], {"count()": (None, "count")})


def minhash_verified_pairs(sf_dir: str, threshold: float = 0.8, pair_filter=None):
    """Shared front half of the MinHash near-dup family: LSH candidate
    pairs -> exact Jaccard verify. Returns (verified_pairs_dataset,
    n_candidates, n_verified); the dataset is None when no candidates
    survive either stage. Candidate texts co-locate with their pairs
    via ``pairs.attach_pair_values`` (size-gated: broadcast id-filter
    for small candidate sets, one co-partition per side at scale — never
    an unbounded driver text fetch or a broadcast shingle map), and the
    Jaccard verify runs per batch with a batch-local shingle memo.

    ``pair_filter`` (optional): a per-batch pa.Table -> pa.Table
    predicate applied to the candidate pairs BEFORE text attach +
    verify — e.g. keep only cross-side (incoming x state) pairs so the
    expensive verify never touches pairs the caller will discard."""
    pairs_ds = minhash_candidate_pairs(sf_dir)
    if pair_filter is not None:
        pairs_ds = pairs_ds.map_batches(
            pair_filter, batch_format="pyarrow", zero_copy_batch=True
        )
    pairs_ds = pairs_ds.materialize()
    n_candidates = pairs_ds.count()
    if n_candidates == 0:
        return None, 0, 0

    with_texts = attach_pair_values(pairs_ds, read_documents(sf_dir), "doc_id", "text", n_candidates)

    def verify(batch: pa.Table) -> pa.Table:
        memo = {}

        def sh(doc, text):
            s = memo.get(doc)
            if s is None:
                s = shingles(text)
                memo[doc] = s
            return s

        keep_a, keep_b = [], []
        for a, b, ta, tb in zip(
            batch["doc_a"].to_pylist(),
            batch["doc_b"].to_pylist(),
            batch["text_a"].to_pylist(),
            batch["text_b"].to_pylist(),
        ):
            if jaccard(sh(a, ta), sh(b, tb)) >= threshold:
                keep_a.append(a)
                keep_b.append(b)
        return pa.Table.from_pydict(
            {
                "doc_a": pa.array(keep_a, type=pa.int64()),
                "doc_b": pa.array(keep_b, type=pa.int64()),
            }
        )

    verified = with_texts.map_batches(
        verify, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    ).materialize()
    n_verified = verified.count()
    if n_verified == 0:
        return None, n_candidates, 0
    return verified, n_candidates, n_verified


def dedup_minhash(sf_dir: str, threshold: float = 0.8):
    """Near-dup clusters: LSH candidates -> exact Jaccard verify ->
    survivor = min doc_id per connected component
    (``minhash_verified_pairs`` for the shared front half). Survivor
    labels come from the join-based ``connected_components``; the
    driver holds only the final counts and the drop list (which IS the
    query's result)."""
    verified, n_candidates, n_verified = minhash_verified_pairs(sf_dir, threshold)
    if verified is None:
        return {
            "n_candidate_pairs": n_candidates,
            "n_verified_pairs": n_verified,
            "dropped_doc_ids": [],
        }

    from .components import component_drops

    drops = component_drops(verified, n_verified)
    return {
        "n_candidate_pairs": n_candidates,
        "n_verified_pairs": n_verified,
        "dropped_doc_ids": drops,
    }


def dedup_minhash_counts(sf_dir: str):
    """``dedup_minhash`` as one row: (n_candidate_pairs, n_verified_pairs,
    n_dropped)."""
    res = dedup_minhash(sf_dir)
    return pa.table(
        {
            "n_candidate_pairs": [res["n_candidate_pairs"]],
            "n_verified_pairs": [res["n_verified_pairs"]],
            "n_dropped": [len(res["dropped_doc_ids"])],
        }
    )


def _elect_keepers(group: pa.Table) -> pa.Table:
    """One row per label of (label, node, n_bytes) rows: the keeper is
    the first of each label run under (label asc, bytes desc, doc asc)
    — lexsort keys are last-significant-first."""
    lab = group["label"].to_numpy(zero_copy_only=False).astype(np.int64)
    node = group["node"].to_numpy(zero_copy_only=False).astype(np.int64)
    nb = group["n_bytes"].to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((node, -nb, lab))
    lab_s, node_s, nb_s = lab[order], node[order], nb[order]
    starts = np.flatnonzero(run_starts(lab_s))
    sizes = np.diff(np.append(starts, len(lab_s)))
    return pa.Table.from_pydict(
        {
            "cluster": pa.array(lab_s[starts], type=pa.int64()),
            "keep_doc_id": pa.array(node_s[starts], type=pa.int64()),
            "keep_bytes": pa.array(nb_s[starts], type=pa.int64()),
            "n_members": pa.array(sizes.astype(np.int64)),
        }
    )


def neardup_keep_best(sf_dir: str, threshold: float = 0.8):
    """Quality-canonical near-dup resolution: one row per MinHash
    near-dup cluster with the keeper chosen by CONTENT QUALITY (max
    text bytes, tie -> min doc_id) instead of min doc_id — the curation
    policy that keeps the longest/most complete copy of a duplicated
    page rather than whichever crawled first. Returns
    (cluster, keep_doc_id, keep_bytes, n_members), one row per cluster.

    Scale shape (the ``pairs`` broadcast-vs-shuffle gate, applied to
    the LABELLED-NODE count — bounded by verified near-dup pairs, never
    the corpus):

    * **broadcast path**: the (node -> label) map is already
      driver-sized (it IS part of the result); ``pairs.scan_ids``
      returns just the members' byte lengths in ONE shuffle-free docs
      scan, and the keepers are elected on the driver. Zero exchanges
      beyond connected_components itself.
    * **shuffle path** (larger label sets): ONE co-partition join
      attaches byte lengths, then the keepers are elected per label
      bucket — one vectorized lexsort + first-of-run per bucket, zero
      per-cluster Python calls."""
    import ray.data as rd

    from .components import connected_components
    from .joins import bucketed_join

    verified, _, _ = minhash_verified_pairs(sf_dir, threshold)
    if verified is None:
        return rd.from_arrow(_elect_keepers(pa.table({
            "label": pa.array([], pa.int64()),
            "node": pa.array([], pa.int64()),
            "n_bytes": pa.array([], pa.int64()),
        })))

    labels = connected_components(verified).materialize()
    n_nodes = labels.count()

    def doc_bytes(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "n_bytes": pc.cast(pc.binary_length(batch["text"]), pa.int64()),
            }
        )

    lens = read_documents(sf_dir).map_batches(
        doc_bytes, batch_format="pyarrow", zero_copy_batch=True
    )
    if fits_broadcast(n_nodes):
        lab = pa.concat_tables(labels.iter_batches(batch_format="pyarrow", batch_size=None))
        node = pc.cast(lab["node"], pa.int64()).to_numpy(zero_copy_only=False)
        mem = scan_ids(lens, "doc_id", node, ["doc_id", "n_bytes"])
        found, row = lookup(
            mem["doc_id"].to_numpy(zero_copy_only=False), node
        )
        if not found.all():
            raise ValueError("labelled node missing from documents table")
        return rd.from_arrow(_elect_keepers(pa.table({
            "label": lab["label"],
            "node": node,
            "n_bytes": mem["n_bytes"].combine_chunks().take(pa.array(row)),
        })))

    joined = bucketed_join(labels, lens, "node", "doc_id")
    return co_partition(
        {"members": (joined, None)}, "label", _elect_keepers
    )


# -- SimHash near-dup ----------------------------------------------------

def simhash_table(sf_dir: str):
    """(doc_id, simhash, band0..band3) — 16-bit bands for Hamming<=3
    bucketing (pigeonhole: <=3 differing bits leave >=1 band intact)."""
    ds = read_documents(sf_dir)

    def sig(batch: pa.Table) -> pa.Table:
        hs = [simhash64(t) for t in batch["text"].to_pylist()]
        cols = [batch["doc_id"], pa.array(hs, type=pa.uint64())]
        names = ["doc_id", "simhash"]
        for b in range(4):
            cols.append(pa.array([(h >> (16 * b)) & 0xFFFF for h in hs], type=pa.int32()))
            names.append(f"band{b}")
        return pa.Table.from_arrays(cols, names=names)

    return ds.map_batches(sig, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024)


def dedup_simhash(sf_dir: str, max_bucket: int = 4096):
    """Near-dup pairs by SimHash banding + Hamming verify — fully
    distributed: signatures explode to (band, value, doc_id, simhash)
    rows co-partitioned on (band, value), and each bucket generates its
    pairs with ``pairs.self_pairs`` plus a numpy popcount Hamming
    verify (no Python call per band bucket); a final groupby dedupes pairs
    that collide in several bands. Only the tiny banded table shuffles.
    A bucket over ``max_bucket`` members verifies only the star over its
    min id (O(n) instead of the O(n²) straggler bomb; cluster
    connectivity preserved, redundant intra-clique pairs dropped —
    logged)."""
    sigs = simhash_table(sf_dir)

    def explode_bands(batch: pa.Table) -> pa.Table:
        doc_ids = batch["doc_id"].to_pylist()
        sims = batch["simhash"].to_pylist()
        rows = {"band": [], "value": [], "doc_id": [], "simhash": []}
        for doc_id, h in zip(doc_ids, sims):
            for b in range(4):
                rows["band"].append(b)
                rows["value"].append((h >> (16 * b)) & 0xFFFF)
                rows["doc_id"].append(doc_id)
                rows["simhash"].append(h)
        return pa.Table.from_pydict(
            {
                "band": pa.array(rows["band"], type=pa.int32()),
                "value": pa.array(rows["value"], type=pa.int32()),
                "doc_id": pa.array(rows["doc_id"], type=pa.int64()),
                "simhash": pa.array(rows["simhash"], type=pa.uint64()),
            }
        )

    # Hamming verify as a numpy popcount over xor-ed signatures
    # (16-bit table lookups)
    _POP16 = np.array([bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8)

    def _popcount64(x: np.ndarray) -> np.ndarray:
        x = x.astype(np.uint64)
        return (
            _POP16[(x & np.uint64(0xFFFF)).astype(np.int64)]
            + _POP16[((x >> np.uint64(16)) & np.uint64(0xFFFF)).astype(np.int64)]
            + _POP16[((x >> np.uint64(32)) & np.uint64(0xFFFF)).astype(np.int64)]
            + _POP16[((x >> np.uint64(48)) & np.uint64(0xFFFF)).astype(np.int64)]
        ).astype(np.int64)

    def class_pairs(group: pa.Table) -> pa.Table:
        cand = self_pairs(
            group, ["band", "value"], "doc_id", carry=["simhash"], max_bucket=max_bucket
        )
        ham = _popcount64(
            np.bitwise_xor(
                cand["simhash_a"].to_numpy(zero_copy_only=False).astype(np.uint64),
                cand["simhash_b"].to_numpy(zero_copy_only=False).astype(np.uint64),
            )
        )
        cand = pa.Table.from_arrays(
            [cand["doc_a"], cand["doc_b"], pa.array(ham, type=pa.int64())],
            names=["doc_a", "doc_b", "hamming"],
        )
        cand = cand.filter(pc.less_equal(cand["hamming"], MAX_HAMMING))
        # local distinct (a pair may collide in several bands in-bucket)
        return cand.group_by(["doc_a", "doc_b"]).aggregate([("hamming", "min")]).rename_columns(
            ["doc_a", "doc_b", "hamming"]
        )

    banded = sigs.map_batches(explode_bands, batch_format="pyarrow", zero_copy_batch=True)
    pairs = co_partition({"bands": (banded, None)}, ["value", "band"], class_pairs)
    # a pair can collide in several exchange buckets -> global dedupe
    return grouped_agg(
        pairs, ["doc_a", "doc_b"], {"hamming": ("hamming", "min")}
    )


# -- n-gram Jaccard (exact, fully distributed) ---------------------------

def ngram_jaccard_pairs(sf_dir: str, threshold: float = 0.5):
    """All pairs with shingle-Jaccard >= threshold — EXACT, with the
    inverted-index shuffle shape (no take_all, no broadcast corpus map):

      1. ONE shingling pass -> exploded (shingle, doc_id, n) rows
         (each posting carries its document's set size, so no separate
         size table and no size joins);
      2. postings hash-bucket by shingle (all postings of a shingle land
         in one bucket, so document frequency stays globally exact) and
         each bucket runs ``pairs.self_pairs``: per-pair partial
         intersection counts plus both set sizes, stop-shingles with
         df > ``MAX_DF`` dropped (logged);
      3. one global groupby(doc_a, doc_b) sums the partials;
         jaccard = i / (|A| + |B| - i), filter >= threshold.

    A pair of two EMPTY-shingle documents has jaccard 1.0 by
    definition; empty docs never reach the inverted index, so they are
    detected with a vectorized no-words check and emitted as the STAR
    over the min empty doc_id — (root, x, 1.0) per other empty doc.
    All-pairs among empty docs is informationally redundant (they form
    ONE duplicate group) and O(n²): a web crawl has millions of
    whitespace-only docs, so the star keeps the output O(n), preserves
    group connectivity for clustering, and stays fully streaming (the
    driver holds only the root id)."""
    def explode(batch: pa.Table) -> pa.Table:
        # the vectorized char-stream shingle kernel (setjoin r5):
        # identical distinct (shingle, doc, set-size) postings, no
        # per-doc Python loop
        from .setjoin import _explode_shingles

        t = _explode_shingles(batch, SHINGLE_K)
        return t.rename_columns(["sh", "doc_id", "n"])

    postings = read_documents(sf_dir).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )

    # ALL postings of a shingle land in one bucket, so document
    # frequency and the per-shingle pair sets stay globally correct
    def bucket_self_join(group: pa.Table) -> pa.Table:
        import logging

        g = group.select(["sh", "doc_id", "n"]).combine_chunks()
        # global df per shingle (complete posting lists are in-group)
        df = pc.value_counts(g["sh"])
        heavy = df.filter(pc.greater(pc.struct_field(df, "counts"), MAX_DF))
        if len(heavy) > 0:
            logging.getLogger(__name__).warning(
                "%d stop-shingles with df > %d dropped", len(heavy), MAX_DF
            )
            keep = pc.invert(
                pc.is_in(g["sh"], value_set=pc.struct_field(heavy, "values"))
            )
            g = g.filter(keep)
        pairs = self_pairs(g, "sh", "doc_id", carry=["n"])
        # length filter (r5): J <= min/max, so min < t*max can never
        # reach the threshold — applied identically in every bucket,
        # the pair vanishes everywhere, exactly as if post-filtered
        pairs = pairs.filter(
            pc.greater_equal(
                pc.cast(pc.min_element_wise(pairs["n_a"], pairs["n_b"]), pa.float64()),
                pc.multiply(
                    pa.scalar(threshold, type=pa.float64()),
                    pc.cast(pc.max_element_wise(pairs["n_a"], pairs["n_b"]), pa.float64()),
                ),
            )
        )
        # partial |A ∩ B| per pair within the bucket (summed globally
        # by ``grouped_agg``); sizes ride along (equal per doc)
        agg = pairs.group_by(["doc_a", "doc_b"]).aggregate(
            [("sh", "count"), ("n_a", "max"), ("n_b", "max")]
        )
        return pa.Table.from_arrays(
            [
                agg["doc_a"],
                agg["doc_b"],
                pc.cast(agg["sh_count"], pa.int64()),
                agg["n_a_max"],
                agg["n_b_max"],
            ],
            names=["doc_a", "doc_b", "n_inter", "n_a", "n_b"],
        )

    inter = grouped_agg(
        co_partition({"postings": (postings, None)}, "sh", bucket_self_join),
        ["doc_a", "doc_b"],
        {"n_inter": ("n_inter", "sum"), "n_a": ("n_a", "max"), "n_b": ("n_b", "max")},
    )

    def score(t: pa.Table) -> pa.Table:
        union = pc.subtract(pc.add(t["n_a"], t["n_b"]), t["n_inter"])
        j = pc.divide(
            pc.cast(t["n_inter"], pa.float64()), pc.cast(union, pa.float64())
        )
        out = pa.Table.from_pydict(
            {"doc_a": t["doc_a"], "doc_b": t["doc_b"], "jaccard_sim": j}
        )
        return out.filter(pc.greater_equal(j, threshold))

    scored = inter.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)

    # empty-shingle docs: jaccard(∅, ∅) = 1.0 by definition — detect
    # with a vectorized no-words check (a doc shingles to ∅ iff it has
    # no whitespace tokens) and emit the STAR over the min empty id.
    # Never all-pairs (O(n²) driver bomb at crawl scale): the star is
    # O(n) rows, built by a distributed map over the empty-id Dataset;
    # the driver holds ONE scalar (the root id).
    def empty_ids(batch: pa.Table) -> pa.Table:
        text = pc.fill_null(batch["text"], "")  # null text == no words
        trimmed = pc.utf8_trim_whitespace(text)
        mask = pc.equal(pc.utf8_length(trimmed), 0)
        return pa.Table.from_pydict(
            {"doc_id": pc.cast(batch["doc_id"], pa.int64()).filter(mask)}
        )

    empties = read_documents(sf_dir).map_batches(
        empty_ids, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if empties.count() > 1:
        root = empties.min("doc_id")

        def star(t: pa.Table) -> pa.Table:
            others = t["doc_id"].filter(pc.not_equal(t["doc_id"], root))
            n = len(others)
            return pa.Table.from_pydict(
                {
                    "doc_a": pa.array([root] * n, type=pa.int64()),
                    "doc_b": others,
                    "jaccard_sim": pa.array([1.0] * n, type=pa.float64()),
                }
            )

        scored = scored.union(
            empties.map_batches(star, batch_format="pyarrow", zero_copy_batch=True)
        )
    return scored


def ngram_jaccard_micro(sf_dir: str):
    """``ngram_jaccard_pairs`` at threshold 0.5, ``jaccard_sim`` as
    integer micro-units ``jaccard_micro`` = floor(j * 1e6 + 0.5): the
    form a SQL oracle compares bit-exactly (cross-engine ROUND() differs
    in the last place)."""

    def to_micro(t: pa.Table) -> pa.Table:
        micro = pc.cast(
            pc.floor(pc.add(pc.multiply(t["jaccard_sim"], 1e6), 0.5)), pa.int64()
        )
        return t.set_column(t.schema.get_field_index("jaccard_sim"), "jaccard_micro", micro)

    return ngram_jaccard_pairs(sf_dir, threshold=0.5).map_batches(
        to_micro, batch_format="pyarrow"
    )


# -- embedding cosine near-dup ------------------------------------------

def embedding_neardup_pairs(sf_dir: str, threshold: float = 0.95):
    """Pairs of embeddings with cosine similarity > threshold. The
    batch kernel closes over the normalized matrix; each batch does one
    numpy matmul against it (vectorized brute force — the exact
    baseline). This path is HARD-GATED to ``MAX_EXACT_VECTORS``: it is the
    test-scale exact baseline only; the LSH-bucketed scale path is
    ``similarity.embedding_neardup_lsh`` (no full-matrix broadcast)."""
    from ..sources.readers import read_table

    ds = read_table(f"{sf_dir}/embeddings.parquet", ["vec_id", "embedding"])
    n_total = ds.count()
    if n_total > MAX_EXACT_VECTORS:
        raise ValueError(
            f"embedding_neardup_pairs is the exact small-scale baseline "
            f"(n={n_total} > cap {MAX_EXACT_VECTORS}); use embedding_neardup_lsh"
        )
    all_rows = ds.take_all()
    ids = np.array([r["vec_id"] for r in all_rows], dtype=np.int64)
    mat = np.stack([np.asarray(r["embedding"], dtype=np.float64) for r in all_rows])
    norms = np.linalg.norm(mat, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    mat = mat / norms

    def batch_pairs(batch: pa.Table) -> pa.Table:
        from .similarity import embedding_matrix

        bids = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        bmat = embedding_matrix(batch["embedding"], np.float64)
        bn = np.linalg.norm(bmat, axis=1, keepdims=True)
        bn[bn == 0] = 1.0
        bmat = bmat / bn
        sims = bmat @ mat.T  # (batch, n)
        # upper triangle only (id_a < id_b), fully vectorized
        hit_i, hit_j = np.nonzero((sims > threshold) & (bids[:, None] < ids[None, :]))
        return pa.Table.from_arrays(
            [
                pa.array(bids[hit_i], type=pa.int64()),
                pa.array(ids[hit_j], type=pa.int64()),
                pa.array(sims[hit_i, hit_j], type=pa.float64()),
            ],
            names=["id_a", "id_b", "cosine_sim"],
        )

    return ds.map_batches(batch_pairs, batch_format="pyarrow", zero_copy_batch=True, batch_size=256)


# -- winnowing fingerprint overlap (substring-dup candidates) ------------

def winnow_overlap_pairs(sf_dir: str, min_shared: int = 5):
    """Document pairs sharing >= ``min_shared`` winnowing fingerprints
    (Schleimer'03 local fingerprints -> shared-substring candidates, the
    MOSS shape). Same scale pattern as the n-gram inverted index: one
    fingerprinting pass explodes to (fp, doc_id) rows, fingerprints
    hash into buckets, each bucket emits per-pair partial counts via
    ``pairs.self_pairs`` (stop-fingerprints with df > ``MAX_DF``
    dropped, logged), and a global groupby sums the partials."""
    from ..functions.textstats import winnow_fingerprints

    def explode(batch: pa.Table) -> pa.Table:
        ids_out, fp_out = [], []
        for d, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for h in set(winnow_fingerprints(t)):
                ids_out.append(d)
                fp_out.append(h)
        fp_arr = np.array(fp_out, dtype=np.uint64).astype(np.int64)  # wrap to int64 key
        return pa.Table.from_pydict(
            {
                "fp": pa.array(fp_arr, type=pa.int64()),
                "doc_id": pa.array(ids_out, type=pa.int64()),
            }
        )

    postings = read_documents(sf_dir).map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )

    def class_pairs(group: pa.Table) -> pa.Table:
        import logging

        g = group.select(["fp", "doc_id"]).combine_chunks()
        df = pc.value_counts(g["fp"])
        heavy = df.filter(pc.greater(pc.struct_field(df, "counts"), MAX_DF))
        if len(heavy) > 0:
            logging.getLogger(__name__).warning(
                "%d stop-fingerprints with df > %d dropped", len(heavy), MAX_DF
            )
            g = g.filter(
                pc.invert(pc.is_in(g["fp"], value_set=pc.struct_field(heavy, "values")))
            )
        agg = self_pairs(g, "fp", "doc_id").group_by(["doc_a", "doc_b"]).aggregate(
            [("fp", "count")]
        )
        return pa.Table.from_arrays(
            [agg["doc_a"], agg["doc_b"], pc.cast(agg["fp_count"], pa.int64())],
            names=["doc_a", "doc_b", "n_shared"],
        )

    out = grouped_agg(
        co_partition({"postings": (postings, None)}, "fp", class_pairs),
        ["doc_a", "doc_b"],
        {"n_shared": ("n_shared", "sum")},
    )

    def threshold(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t["n_shared"], min_shared))

    return out.map_batches(
        threshold, batch_format="pyarrow", zero_copy_batch=True
    )


# -- incremental dedup against a persisted ingest state -------------------

def dedup_against_state(sf_dir: str):
    """Incremental ingestion dedup — the production shape for a corpus
    that grows batch by batch: classify every INCOMING document against
    a persisted STATE of already-ingested content hashes, without
    re-deduping the whole corpus. Here the state is simulated
    scale-free as the even doc_ids (already ingested) and the odd
    doc_ids are the incoming increment.

    Statuses: ``new`` (hash unseen), ``dup_state`` (hash already in the
    ingest state), ``dup_incoming`` (hash first seen earlier — lower
    doc_id — within this same increment).

    Scale shape: both sides project to (id, hash) BEFORE the one
    co-partition exchange on the hash; inside each bucket the state /
    increment split is the doc_id parity, the membership test is on the
    FULL hash string, and the increment also resolves first-seen — rows
    with equal hashes share a bucket by construction. The state never
    broadcasts: at 100 TB the ingest index is billions of hashes and
    must shuffle, not ship."""
    ds = read_documents(sf_dir)
    hashed = ds.map_batches(
        add_content_hash, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "content_hash"])

    def classify(group: pa.Table) -> pa.Table:
        ids = pc.cast(group["doc_id"], pa.int64())
        in_inc = pc.equal(pc.bit_wise_and(ids, pa.scalar(1, type=pa.int64())),
                          pa.scalar(1, type=pa.int64()))
        state_h = pc.unique(group.filter(pc.invert(in_inc))["content_hash"])
        inc = group.filter(in_inc)
        if inc.num_rows == 0:
            return pa.Table.from_pydict(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "status": pa.array([], type=pa.string()),
                }
            )
        # first-seen within the increment: min doc_id per hash
        firsts = inc.select(["content_hash", "doc_id"]).group_by("content_hash").aggregate(
            [("doc_id", "min")]
        )
        first_by_h = dict(
            zip(firsts["content_hash"].to_pylist(), firsts["doc_id_min"].to_pylist())
        )
        in_state = pc.is_in(inc["content_hash"], value_set=state_h).to_pylist()
        ids = inc["doc_id"].to_pylist()
        hs = inc["content_hash"].to_pylist()
        status = [
            "dup_state" if s
            else ("dup_incoming" if first_by_h[h] < i else "new")
            for s, h, i in zip(in_state, hs, ids)
        ]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "status": pa.array(status, type=pa.string()),
            }
        )

    return co_partition(
        {"hashes": (hashed, None)}, "content_hash", classify
    )


def dup_cluster_histogram(sf_dir: str):
    """Dedup diagnostics: the distribution of exact-duplicate cluster
    sizes — (cluster_size, n_clusters, n_docs) — the number a curation
    run reports before deciding thresholds. Same projection-first scan
    as ``dedup_exact`` (only (hash, doc) ever shuffles), then the
    cluster-size aggregate collapses to a histogram via
    ``grouped_agg``."""
    ds = read_documents(sf_dir)
    hashed = ds.map_batches(
        add_content_hash, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["content_hash", "doc_id"])
    clusters = grouped_agg(hashed, "content_hash", {"cluster_size": (None, "count")})
    return (
        grouped_agg(clusters, "cluster_size", {"n_clusters": ("cluster_size", "count")})
        .map_batches(
            lambda b: b.append_column(
                "n_docs",
                pc.multiply(
                    pc.cast(b["cluster_size"], pa.int64()),
                    pc.cast(b["n_clusters"], pa.int64()),
                ),
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )


def dup_rate_by_source(sf_dir: str):
    """Curation report: exact-duplicate rate per source — for each
    source, how many documents are non-keeper copies of some duplicate
    cluster. The keeper is min doc_id per content hash (dedup_exact
    semantics): the (hash, doc, source) projection shuffles once on a
    hash bucket, each bucket's rows come sorted by (hash, doc)
    (``exchange.sorted_runs``) so every row past its hash run's first
    is a non-keeper, and a tiny groupby(source) folds the counts."""
    ds = read_documents(sf_dir, columns=("doc_id", "text", "source"))
    hashed = ds.map_batches(
        add_content_hash, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["content_hash", "doc_id", "source"])

    def mark_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        return pa.table({"source": g["source"], "is_dup": pa.array(pos > 0).cast(pa.int64())})

    marked = sorted_runs(hashed, "content_hash", ["doc_id"], mark_bucket)
    return grouped_agg(
        marked,
        "source",
        {"n_docs": (None, "count"), "n_duplicates": ("is_dup", "sum")},
    )


def minhash_against_state(sf_dir: str):
    """Incremental NEAR-dup ingestion — ``dedup_against_state``'s
    production shape upgraded from exact hashes to MinHash similarity:
    classify every INCOMING document (odd doc_ids, the scale-free
    increment simulation shared with dedup_against_state) against the
    persisted STATE (even doc_ids) without re-deduping the whole
    corpus. Returns one row per incoming doc:
    (doc_id, status 'neardup_state'|'new', match_doc_id = min verified
    state match or -1, n_matches).

    Scale shape: band buckets co-locate state and incoming signatures
    in the SAME banded exchange the batch dedup uses (the state never
    broadcasts — at 100 TB it is billions of signatures and must
    shuffle); ``pair_filter`` drops same-side pairs BEFORE the
    pair-text verify so Jaccard runs only on incoming-vs-state
    candidates; the per-incoming match rollup is bounded by verified
    near-dup pairs and attaches by the pair layer's broadcast-vs-shuffle
    gate (``pairs.fits_broadcast``)."""
    import numpy as np

    def cross_side(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return batch.filter(pa.array((a % 2) != (b % 2)))

    verified, _, _ = minhash_verified_pairs(sf_dir, pair_filter=cross_side)

    incoming = read_documents(sf_dir, columns=("doc_id",)).map_batches(
        lambda t: t.filter(
            pc.equal(
                pc.bit_wise_and(pc.cast(t["doc_id"], pa.int64()), 1),
                pa.scalar(1, type=pa.int64()),
            )
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def finalize(batch: pa.Table, match_ids, match_min, match_n) -> pa.Table:
        ids = pc.cast(batch["doc_id"], pa.int64()).to_numpy(zero_copy_only=False)
        hit, row = lookup(match_ids, ids)
        match_doc_id = np.full(len(ids), -1, dtype=np.int64)
        match_doc_id[hit] = match_min[row[hit]]
        n_matches = np.zeros(len(ids), dtype=np.int64)
        n_matches[hit] = match_n[row[hit]]
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "status": pa.array(
                    np.where(hit, "neardup_state", "new").tolist(),
                    type=pa.string(),
                ),
                "match_doc_id": pa.array(match_doc_id, type=pa.int64()),
                "n_matches": pa.array(n_matches, type=pa.int64()),
            }
        )

    if verified is None:
        empty = (np.array([], dtype=np.int64),) * 3
        return incoming.map_batches(
            lambda t: finalize(t, *empty),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    def to_inc(batch: pa.Table) -> pa.Table:
        a = batch["doc_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = batch["doc_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        a_is_inc = (a % 2) == 1
        return pa.Table.from_pydict(
            {
                "inc_id": pa.array(np.where(a_is_inc, a, b), type=pa.int64()),
                "st_id": pa.array(np.where(a_is_inc, b, a), type=pa.int64()),
            }
        )

    matches = grouped_agg(
        verified, "inc_id",
        {"n_matches": (None, "count"), "match_doc_id": ("st_id", "min")},
        rows=to_inc,
    ).materialize()
    if fits_broadcast(matches.count()):
        tbl = pa.concat_tables(
            matches.iter_batches(batch_format="pyarrow", batch_size=None)
        )
        consts = tuple(
            tbl[c].to_numpy(zero_copy_only=False).astype(np.int64)
            for c in ("inc_id", "match_doc_id", "n_matches")
        )
        return incoming.map_batches(
            lambda t: finalize(t, *consts),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )

    from .joins import bucketed_join

    joined = bucketed_join(
        incoming, matches, "doc_id", "inc_id", join_type="left outer"
    )

    def fill(batch: pa.Table) -> pa.Table:
        hit = pc.is_valid(batch["match_doc_id"])
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "status": pc.if_else(
                    hit, pa.scalar("neardup_state"), pa.scalar("new")
                ),
                "match_doc_id": pc.cast(
                    pc.fill_null(batch["match_doc_id"], -1), pa.int64()
                ),
                "n_matches": pc.cast(pc.fill_null(batch["n_matches"], 0), pa.int64()),
            }
        )

    return joined.map_batches(
        fill, batch_format="pyarrow", zero_copy_batch=True
    )
