"""Benchmark decontamination: flag corpus documents whose word-k-gram
shingles overlap an evaluation ("benchmark") set.

The eval side of a decontamination pass is tiny next to the training
corpus (an eval suite is KBs-MBs against TBs of crawl), so the
scalable shape is broadcast-not-shuffle: shingle the benchmark once,
close the scan over the distinct hash set, and stream the corpus
through ONE ``map_batches`` scan — per batch all shingle hashes are
checked with a single ``np.isin`` against the broadcast set and
per-document overlap counts are recovered from the flat hit vector
with cumsum differences over the list offsets. No shuffle, no join, nothing materialized.

The benchmark stand-in is deterministic (``doc_id % 37 == 0``) so the
SQL oracle can replay the exact same split. Shingle semantics (k-word
grams, lowercase, whitespace tokens, <k-word docs collapse to one
shingle) are shared with ``dedup.ngram_jaccard_pairs`` via
``functions.sketches.shingles``; the oracle replays them on the
shingle STRINGS, so hash-collision-free SQL counts gate the hashed
pipeline counts exactly as the ``ngram_jaccard`` oracle does.

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
LLM-training-data family the engine adds (GPT-3-style n-gram
decontamination of training data against eval benchmarks).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.sketches import SHINGLE_K, shingles
from ..sources.readers import read_documents

BENCH_MOD = 37  # deterministic eval-set stand-in: doc_id % 37 == 0
THRESHOLD_MICRO = 200_000  # contaminated iff >=20% of a doc's shingles hit


def benchmark_shingles(sf_dir: str) -> np.ndarray:
    """Distinct shingle hashes of the benchmark docs as sorted int64.

    Small by construction (it is the eval set), so per-batch partial
    sets union driver-side — the one place a driver-side collect is the
    right call at any corpus scale, because its size is bounded by the
    benchmark, not the corpus."""

    def part(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        mask = (ids % BENCH_MOD) == 0
        out: set = set()
        for txt in t.filter(pa.array(mask))["text"].to_pylist():
            out |= shingles(txt)
        arr = np.fromiter(out, dtype=np.uint64, count=len(out)).astype(np.int64)
        return pa.Table.from_pydict({"sh": pa.array(arr, type=pa.int64())})

    parts = read_documents(sf_dir).map_batches(
        part, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )
    tbl = pa.concat_tables(
        b for b in parts.iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return np.unique(tbl["sh"].to_numpy(zero_copy_only=False))


def decontaminate(sf_dir: str):
    """Per-document benchmark-overlap stats over the whole corpus.

    Output columns (all deterministic): ``doc_id``, ``n_sh`` (distinct
    shingles), ``n_overlap`` (distinct shingles also in the benchmark),
    ``contam_micro`` (overlap fraction in micro-units), ``is_benchmark``
    and ``contaminated`` (non-benchmark doc at or above the threshold).
    """
    bench = benchmark_shingles(sf_dir)

    def scan(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        n = len(texts)
        counts = np.empty(n, dtype=np.int64)
        hash_parts = []
        for i, txt in enumerate(texts):
            s = shingles(txt)
            counts[i] = len(s)
            hash_parts.append(np.fromiter(s, dtype=np.uint64, count=len(s)))
        flat = (
            np.concatenate(hash_parts)
            if hash_parts
            else np.empty(0, dtype=np.uint64)
        ).astype(np.int64)
        hits = np.isin(flat, bench)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        cs = np.zeros(len(flat) + 1, dtype=np.int64)
        np.cumsum(hits, out=cs[1:])
        n_ov = cs[offsets[1:]] - cs[offsets[:-1]]
        safe = np.maximum(counts, 1)
        micro = np.floor(n_ov / safe * 1_000_000 + 0.5).astype(np.int64)
        micro[counts == 0] = 0
        is_bench = ((ids % BENCH_MOD) == 0).astype(np.int64)
        contaminated = (
            (micro >= THRESHOLD_MICRO) & (is_bench == 0) & (counts > 0)
        ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_sh": pa.array(counts, type=pa.int64()),
                "n_overlap": pa.array(n_ov, type=pa.int64()),
                "contam_micro": pa.array(micro, type=pa.int64()),
                "is_benchmark": pa.array(is_bench, type=pa.int64()),
                "contaminated": pa.array(contaminated, type=pa.int64()),
            }
        )

    return read_documents(sf_dir).map_batches(
        scan, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )


def decontaminate_clean(sf_dir: str):
    """Removal variant (the GPT-3 appendix-style span cut): every token
    of a non-benchmark document covered by a benchmark-hit shingle
    window is removed; the cleaned text is re-emitted. Benchmark docs
    pass through untouched (real pipelines exclude them upstream).

    Same broadcast-not-shuffle shape as ``decontaminate``: the scan
    closes over the bench hash set, the corpus streams through ONE
    scan, and per batch the POSITIONAL shingle hashes are checked with
    a single ``np.isin``; window coverage comes from a +1/-1 difference
    array cumsum — no per-token Python. Output: (doc_id, clean_text,
    n_tokens, n_removed)."""
    from ..functions.sketches import _stable_hash64

    bench = benchmark_shingles(sf_dir)

    def clean_batch(t: pa.Table) -> pa.Table:
        ids = t["doc_id"].to_numpy(zero_copy_only=False)
        texts = t["text"].to_pylist()
        # positional shingle hashes, concatenated across the batch
        originals, lowers, counts, hash_parts = [], [], [], []
        for txt in texts:
            wo = (txt or "").split()
            wl = (txt or "").lower().split()
            originals.append(wo)
            lowers.append(wl)
            if not wl:
                counts.append(0)
            elif len(wl) < SHINGLE_K:
                counts.append(1)
                hash_parts.append(
                    np.array([_stable_hash64(" ".join(wl))], dtype=np.uint64)
                )
            else:
                m = len(wl) - SHINGLE_K + 1
                counts.append(m)
                hash_parts.append(
                    np.fromiter(
                        (
                            _stable_hash64(" ".join(wl[i : i + SHINGLE_K]))
                            for i in range(m)
                        ),
                        dtype=np.uint64,
                        count=m,
                    )
                )
        flat = (
            np.concatenate(hash_parts)
            if hash_parts
            else np.empty(0, dtype=np.uint64)
        ).astype(np.int64)
        hits = np.isin(flat, bench)
        clean, n_tok, n_rm = [], [], []
        pos = 0
        for row, (wo, wl, m) in enumerate(zip(originals, lowers, counts)):
            row_hits = hits[pos : pos + m]
            pos += m
            n = len(wo)
            n_tok.append(n)
            if ids[row] % BENCH_MOD == 0 or n == 0 or not row_hits.any():
                clean.append(" ".join(wo))
                n_rm.append(0)
                continue
            if len(wl) < SHINGLE_K:
                # the single whole-doc shingle hit: everything goes
                clean.append("")
                n_rm.append(n)
                continue
            hs = np.flatnonzero(row_hits)
            diff = np.zeros(n + SHINGLE_K, dtype=np.int64)
            np.add.at(diff, hs, 1)
            np.add.at(diff, hs + SHINGLE_K, -1)
            covered = np.cumsum(diff[:n]) > 0
            kept = [w for w, c in zip(wo, covered) if not c]
            clean.append(" ".join(kept))
            n_rm.append(int(covered.sum()))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "clean_text": pa.array(clean, type=pa.string()),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "n_removed": pa.array(n_rm, type=pa.int64()),
            }
        )

    return read_documents(sf_dir).map_batches(
        clean_batch, batch_format="pyarrow", zero_copy_batch=True, batch_size=1024
    )
