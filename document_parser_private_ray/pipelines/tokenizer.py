"""Distributed tokenizer-training statistics: corpus-wide adjacent
character-pair counts inside words — the quantity BPE training
(Sennrich'16, arXiv:1508.07909 — public method) maximizes to pick each
merge; the global argmax pair IS the first BPE merge.

Scale shape: the count is a classic partial-aggregate reduce —

* per batch, the text column collapses to (pair_code, n) PARTIAL
  counts with zero per-row Python: lowercase + non-alpha->space via
  Arrow kernels, then the batch's whole character stream is read
  straight out of the Arrow string buffer as one numpy uint8 array
  (rows are space-terminated so no false cross-row pairs), pairs are
  the shifted-by-one overlay, and ``np.unique`` counts them;
* the ONE exchange is a ``grouped_agg`` over pair codes — at most 26x26=676
  distinct keys regardless of corpus size, so the shuffle is bounded
  by batches x alphabet^2, not by characters;
* top-k is a sort+limit on the tiny aggregated table.

Deterministic top-k order (count desc, pair asc) so the DuckDB oracle
replays the exact rows.

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
LLM-training-data family the engine adds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import as_array

SPACE = 0x20


def _pair_partials(t: pa.Table) -> pa.Table:
    """Per-batch partial (pair_code, n) counts over in-word adjacent
    character pairs (lowercase a-z only)."""
    text = t["text"]
    text = as_array(text)
    cleaned = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
    )
    # one trailing space per row: word runs never straddle row bounds
    # join_element_wise uses its LAST arg as the separator: row + "" with
    # separator " " == row + trailing space
    arr = pc.binary_join_element_wise(cleaned, pa.scalar(""), pa.scalar(" "))
    arr = as_array(arr)
    off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
    offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
        arr.offset : arr.offset + len(arr) + 1
    ]
    chars = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]]
    if chars.size < 2:
        return pa.Table.from_pydict(
            {
                "pair_code": pa.array([], type=pa.int64()),
                "n": pa.array([], type=pa.int64()),
            }
        )
    a = chars[:-1].astype(np.int64)
    b = chars[1:].astype(np.int64)
    mask = (a != SPACE) & (b != SPACE)
    codes = a[mask] * 256 + b[mask]
    uniq, cnt = np.unique(codes, return_counts=True)
    return pa.Table.from_pydict(
        {
            "pair_code": pa.array(uniq, type=pa.int64()),
            "n": pa.array(cnt.astype(np.int64), type=pa.int64()),
        }
    )


def bpe_pair_counts(sf_dir: str, top_k: int = 50):
    """Top-k in-word adjacent character pairs: ``pair`` (2-char
    string), ``n`` — ordered by count desc, pair asc."""
    from ..sources.readers import read_documents
    from .exchange import grouped_agg

    agg = grouped_agg(
        read_documents(sf_dir).map_batches(
            _pair_partials, batch_format="pyarrow", zero_copy_batch=True
        ),
        "pair_code",
        {"n": ("n", "sum")},
    )

    def decode(t: pa.Table) -> pa.Table:
        codes = t["pair_code"].to_numpy(zero_copy_only=False).astype(np.int64)
        pairs = [chr(c >> 8) + chr(c & 0xFF) for c in codes]  # <=676 rows total
        return pa.Table.from_pydict(
            {
                "pair": pa.array(pairs, type=pa.string()),
                "n": pc.cast(t["n"], pa.int64()),
            }
        )

    return (
        agg.map_batches(decode, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["n", "pair"], descending=[True, False])
        .limit(top_k)
    )


def doc_oov_rate(sf_dir: str, top_k: int = 20):
    """Per-document out-of-vocabulary bigram rate — a deterministic
    stand-in for CCNet-style LM-perplexity quality filtering (Wenzek'19,
    arXiv:1911.00359 — public method): docs whose character bigrams
    fall outside the corpus' most frequent ``top_k`` bigrams read as
    lower-quality / out-of-domain. Two streaming passes: (1) the
    bounded bpe_pair_counts aggregate (<= 676 keys) yields the top-k
    bigram vocabulary, a few dozen ints captured by closure (broadcast
    with the task, not per batch); (2) one scan scores every doc
    vectorized — bigrams are the shifted-by-one overlay of the batch's
    raw char stream, attributed to rows by searchsorted against the
    string offsets, OOV flagged with one np.isin. Integer micro-rate so
    the SQL oracle replays it exactly."""
    import numpy as np

    from ..sources.readers import read_documents

    top = bpe_pair_counts(sf_dir, top_k=top_k).take_all()  # <= top_k rows
    vocab_codes = np.array(
        sorted((ord(r["pair"][0]) << 8) + ord(r["pair"][1]) for r in top),
        dtype=np.int64,
    )

    def score(t: pa.Table) -> pa.Table:
        text = t["text"]
        text = as_array(text)
        cleaned = pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
        )
        arr = pc.binary_join_element_wise(cleaned, pa.scalar(""), pa.scalar(" "))
        arr = as_array(arr)
        nrows = len(arr)
        off_dtype = np.int64 if pa.types.is_large_string(arr.type) else np.int32
        offs = np.frombuffer(arr.buffers()[1], dtype=off_dtype)[
            arr.offset : arr.offset + nrows + 1
        ]
        chars = np.frombuffer(arr.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]]
        n_big = np.zeros(nrows, dtype=np.int64)
        n_oov = np.zeros(nrows, dtype=np.int64)
        if chars.size >= 2:
            a = chars[:-1].astype(np.int64)
            b = chars[1:].astype(np.int64)
            mask = (a != SPACE) & (b != SPACE)
            pos = np.nonzero(mask)[0]
            codes = a[pos] * 256 + b[pos]
            ends = (offs[1:] - offs[0]).astype(np.int64)
            row = np.searchsorted(ends, pos, side="right")
            oov = ~np.isin(codes, vocab_codes)
            n_big = np.bincount(row, minlength=nrows).astype(np.int64)
            n_oov = np.bincount(row[oov], minlength=nrows).astype(np.int64)
        micro = 1_000_000 * n_oov // np.maximum(n_big, 1)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_bigrams": pa.array(n_big, type=pa.int64()),
                "n_oov": pa.array(n_oov, type=pa.int64()),
                "oov_micro": pa.array(micro, type=pa.int64()),
            }
        )

    return (
        read_documents(sf_dir)
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    )
