"""The composed training-data curation pipeline — the canonical LLM
data-prep chain, each stage a streaming Ray Data transform:

    read (pruned)
      -> quality filter   (vectorized Arrow kernels: token count, digit ratio)
      -> language filter  (stopword-argmax lang ID, per-batch)
      -> exact dedup      (projection to (hash, doc_id) before the shuffle;
                           min doc_id per content group survives)
      -> split assignment (content-stable md5 bucket -> train/val/test)
      -> rollup           (documents per split)

Every stage streams; the only all-to-all moves (hash, doc_id) pairs.
The whole chain is SQL-expressible, so the driver verifies the composed
result against DuckDB bit-for-bit (``__ray_entry__.oracle_sql()``).
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import lang_id
from ..sources.readers import read_documents
from .exchange import grouped_agg


MIN_WORDS = 5
MAX_DIGIT_RATIO = 0.3
LANG = "en"


def quality_filter(batch: pa.Table) -> pa.Table:
    """Vectorized quality mask over a (.., text) batch: at least
    ``MIN_WORDS`` words and at most ``MAX_DIGIT_RATIO`` digits (Arrow
    kernels only)."""
    from .text_analysis import _ws_token_count_vec

    text = batch["text"]
    n_chars = pc.utf8_length(text)
    n_words = _ws_token_count_vec(text)
    digit = pc.utf8_length(pc.replace_substring_regex(text, "[^0-9]", ""))
    denom = pc.cast(
        pc.max_element_wise(n_chars, pa.scalar(1, type=pa.int32())), pa.float64()
    )
    ratio = pc.divide(pc.cast(digit, pa.float64()), denom)
    mask = pc.and_(
        pc.greater_equal(n_words, MIN_WORDS),
        pc.less_equal(ratio, MAX_DIGIT_RATIO),
    )
    return batch.filter(mask)


def language_filter(batch: pa.Table) -> pa.Table:
    """Stopword-argmax language-ID filter over a (.., text) batch: keeps
    the ``LANG`` documents."""
    keep = [lang_id(t) == LANG for t in batch["text"].to_pylist()]
    return batch.filter(pa.array(keep, type=pa.bool_()))


def content_hash(batch: pa.Table) -> pa.Table:
    """(content_hash, doc_id) keys-only projection for exact dedup."""
    import hashlib

    h = [
        hashlib.sha256((t or "").encode("utf-8")).hexdigest()
        for t in batch["text"].to_pylist()
    ]
    return pa.Table.from_arrays(
        [pa.array(h, type=pa.string()), batch["doc_id"]],
        names=["content_hash", "doc_id"],
    )


def curated_survivors(sf_dir: str):
    """(doc_id) Dataset of documents surviving quality + language +
    exact-dedup filtering (min doc_id per duplicate group)."""
    hashed = (
        read_documents(sf_dir).map_batches(quality_filter, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096)
        .map_batches(language_filter, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096)
        .map_batches(content_hash, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096)
    )
    return grouped_agg(
        hashed, "content_hash", {"doc_id": ("doc_id", "min")}
    ).select_columns(["doc_id"])


def split_rollup(survivors):
    """(split, n_docs) rollup of a (doc_id) survivor Dataset via the
    content-stable md5 split assignment."""
    from .splits import split_of

    def assign(batch: pa.Table) -> pa.Table:
        splits = [split_of(str(i)) for i in batch["doc_id"].to_pylist()]
        return pa.Table.from_arrays(
            [batch["doc_id"], pa.array(splits, type=pa.string())],
            names=["doc_id", "split"],
        )

    return grouped_agg(survivors, "split", {"n_docs": (None, "count")}, rows=assign)


def curate_corpus(sf_dir: str):
    """(split, n_docs) rollup of the curated corpus."""
    return split_rollup(curated_survivors(sf_dir))
