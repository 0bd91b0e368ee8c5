"""Text-analysis pipelines over a documents table (doc_id, text):
language ID, quality scoring, token counting, fingerprinting, and the
PII pass — each a single vectorized map_batches task stage.

Quality and token metrics are defined to be exactly SQL-expressible so
the driver's DuckDB oracle verifies values bit-for-bit (see
__ray_entry__.oracle_sql)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.textstats import (
    bpe_token_count,
    lang_id,
    md5_fingerprint,
    winnow_fingerprints,
)
from ..sources.readers import read_documents
from .exchange import co_partition, grouped_agg, sorted_runs


def _ws_token_count_vec(text: pa.ChunkedArray | pa.Array):
    """Vectorized whitespace-token count (== len(text.split()) for ASCII
    whitespace): trim, regex-split, count; empty/blank -> 0. The single
    definition shared by doc_quality and doc_tokens (and mirrored by the
    DuckDB oracle's TRIM(text, ' \\t\\n\\r\\f\\v') + regexp_split)."""
    trimmed = pc.utf8_trim_whitespace(text)
    n_words = pc.list_value_length(pc.split_pattern_regex(trimmed, r"\s+"))
    return pc.if_else(
        pc.equal(pc.utf8_length(trimmed), 0),
        pa.scalar(0, type=pa.int32()),
        n_words,
    )


def doc_quality(sf_dir: str):
    """(doc_id, n_chars, n_words, upper_ratio, digit_ratio) — vectorized
    pyarrow kernels, zero Python per-row work."""
    ds = read_documents(sf_dir)

    def metrics(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.utf8_length(text)
        n_words = _ws_token_count_vec(text)
        upper = pc.utf8_length(pc.replace_substring_regex(text, "[^A-Z]", ""))
        digit = pc.utf8_length(pc.replace_substring_regex(text, "[^0-9]", ""))
        denom = pc.max_element_wise(n_chars, pa.scalar(1, type=pa.int32()))
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pc.cast(n_chars, pa.int64()),
                pc.cast(n_words, pa.int64()),
                pc.divide(pc.cast(upper, pa.float64()), pc.cast(denom, pa.float64())),
                pc.divide(pc.cast(digit, pa.float64()), pc.cast(denom, pa.float64())),
            ],
            names=["doc_id", "n_chars", "n_words", "upper_ratio", "digit_ratio"],
        )

    return ds.map_batches(metrics, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096).sort("doc_id")


def doc_quality_extended(sf_dir: str):
    """(doc_id, punct_ratio, alpha_chars, space_chars) — additional
    SQL-parity quality features, all single-regex-pass vectorized."""
    ds = read_documents(sf_dir)

    def metrics(batch: pa.Table) -> pa.Table:
        text = batch["text"]
        n_chars = pc.utf8_length(text)
        alpha = pc.utf8_length(pc.replace_substring_regex(text, "[^a-zA-Z]", ""))
        space = pc.utf8_length(pc.replace_substring_regex(text, "[^ ]", ""))
        punct = pc.utf8_length(
            pc.replace_substring_regex(text, "[a-zA-Z0-9 ]", "")
        )
        denom = pc.cast(pc.max_element_wise(n_chars, pa.scalar(1, type=pa.int32())), pa.float64())
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pc.divide(pc.cast(punct, pa.float64()), denom),
                pc.cast(alpha, pa.int64()),
                pc.cast(space, pa.int64()),
            ],
            names=["doc_id", "punct_ratio", "alpha_chars", "space_chars"],
        )

    return ds.map_batches(metrics, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096).sort("doc_id")


def doc_tokens(sf_dir: str):
    """(doc_id, ws_tokens, bpe_tokens) token counts."""
    ds = read_documents(sf_dir)

    def counts(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pc.cast(_ws_token_count_vec(batch["text"]), pa.int64()),
                pa.array([bpe_token_count(t) for t in texts], type=pa.int64()),
            ],
            names=["doc_id", "ws_tokens", "bpe_tokens"],
        )

    return ds.map_batches(counts, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096).sort("doc_id")


def doc_language(sf_dir: str):
    """(doc_id, lang) n-gram/stopword language ID."""
    ds = read_documents(sf_dir)

    def langs(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pa.array([lang_id(t) for t in batch["text"].to_pylist()]),
            ],
            names=["doc_id", "lang"],
        )

    return ds.map_batches(langs, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096).sort("doc_id")


def doc_fingerprints(sf_dir: str):
    """(doc_id, md5, n_winnow) md5 exact fingerprint (SQL-verifiable) +
    winnowing local fingerprint count."""
    ds = read_documents(sf_dir)

    def fp(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pa.array([md5_fingerprint(t) for t in texts]),
                pa.array([len(winnow_fingerprints(t)) for t in texts], type=pa.int64()),
            ],
            names=["doc_id", "md5", "n_winnow"],
        )

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096).sort("doc_id")


def doc_repetition(sf_dir: str):
    """(doc_id, repetition counters) — Gopher-style repetition filters
    (Rae et al. '21 §A1.1: duplicate-line fraction, top-n-gram
    fraction) as INTEGER counters so the DuckDB oracle hash-compares
    exactly (cross-engine float division is hash poison; consumers
    derive the fractions):

      n_lines / n_dup_lines      stripped non-empty lines, repeats
      n_words / n_dup_words      lowercased ws-tokens, repeats
      n_bigrams / top_bigram_n   adjacent word pairs, top frequency
      rep_flag                   1 iff dup lines >30% or top bigram >18%
                                 (integer cross-multiplication)"""
    from collections import Counter

    ds = read_documents(sf_dir)

    def rep(batch: pa.Table) -> pa.Table:
        texts = batch["text"].to_pylist()
        cols = {k: [] for k in (
            "n_lines", "n_dup_lines", "n_words", "n_dup_words",
            "n_bigrams", "top_bigram_n", "rep_flag",
        )}
        for t in texts:
            lines = [ln.strip() for ln in (t or "").split("\n")]
            lines = [ln for ln in lines if ln]
            words = (t or "").lower().split()
            bigrams = Counter(zip(words, words[1:]))
            n_lines = len(lines)
            n_dup_lines = n_lines - len(set(lines))
            n_words = len(words)
            n_dup_words = n_words - len(set(words))
            n_bigrams = max(len(words) - 1, 0)
            top_bigram_n = max(bigrams.values()) if bigrams else 0
            flag = int(
                n_dup_lines * 100 > n_lines * 30
                or top_bigram_n * 100 > n_bigrams * 18
            )
            for k, v in (
                ("n_lines", n_lines), ("n_dup_lines", n_dup_lines),
                ("n_words", n_words), ("n_dup_words", n_dup_words),
                ("n_bigrams", n_bigrams), ("top_bigram_n", top_bigram_n),
                ("rep_flag", flag),
            ):
                cols[k].append(v)
        arrays = [batch["doc_id"]] + [
            pa.array(cols[k], type=pa.int64()) for k in cols
        ]
        return pa.Table.from_arrays(arrays, names=["doc_id", *cols])

    return ds.map_batches(
        rep, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096
    ).sort("doc_id")


def doc_tfidf(sf_dir: str, k: int = 5):
    """(doc_id, word, tf, df, tfidf_micro, rank) — top-k TF-IDF terms
    per document. Scale shape: explode to (doc_id, word, tf) inside
    map_batches (per-doc Counter, one row per distinct term), then ONE
    word co-partition computes df = per-word row count AND attaches it
    to every row in the same pass (no second shuffle, no broadcast
    vocabulary — a join-free df attach that holds at any vocabulary
    size), then one doc_id ``sorted_runs`` ranks vectorized. Scores are integer micros
    (floor(tf * ln(N/df) * 1e6 + 0.5)) so the DuckDB oracle
    hash-compares exactly; ties break by word ascending."""
    from collections import Counter

    ds = read_documents(sf_dir)
    n_docs = ds.count()

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_w, out_tf = [], [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            for w, c in Counter((t or "").lower().split()).items():
                out_id.append(i)
                out_w.append(w)
                out_tf.append(c)
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(out_w, type=pa.string()),
                pa.array(out_tf, type=pa.int64()),
            ],
            names=["doc_id", "word", "tf"],
        )

    tf = ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)

    def attach_df_bucket(group: pa.Table) -> pa.Table:
        # one row per (doc, word), so each word's row count IS its df —
        # computed for EVERY word in the bucket by one vectorized Arrow
        # group_by + hash join (r5; was one Python group call per word,
        # vocabulary-scale)
        g = group.combine_chunks()
        dfs = (
            g.select(["word"])
            .group_by("word")
            .aggregate([([], "count_all")])
            .rename_columns(["word", "df"])
        )
        out = g.join(dfs, keys=["word"], join_type="inner")
        tfv = out["tf"].to_numpy(zero_copy_only=False).astype("float64")
        dfv = out["df"].to_numpy(zero_copy_only=False).astype("float64")
        micro = np.floor(
            tfv * np.log(n_docs / dfv) * 1_000_000 + 0.5
        ).astype("int64")
        return pa.Table.from_arrays(
            [
                out["doc_id"],
                out["word"],
                out["tf"],
                pc.cast(out["df"], pa.int64()),
                pa.array(micro),
            ],
            names=["doc_id", "word", "tf", "df", "tfidf_micro"],
        )

    scored = co_partition({"terms": (tf, None)}, "word", attach_df_bucket)

    def topk_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # every doc of the bucket ranked at once from its run positions
        sel = pa.array(pos < k)
        return g.filter(sel).append_column("rank", pa.array(pos + 1).filter(sel))

    return sorted_runs(
        scored, "doc_id", [("tfidf_micro", "descending"), "word"], topk_bucket
    ).sort(["doc_id", "rank"])


def doc_chunks(sf_dir: str, window: int = 64, stride: int = 48):
    """(doc_id, chunk_id, n_tokens, chunk_text) — overlapping
    fixed-token training windows (the pre-tokenization chunking step for
    long documents). Tokens are whitespace splits; chunk k covers tokens
    [k*stride, k*stride+window); chunk_text rejoins with single spaces
    (whitespace-normalizing, so the DuckDB oracle reproduces it
    byte-exactly). Pure per-row flat map — no shuffle, no state."""

    ds = read_documents(sf_dir)

    def explode(batch: pa.Table) -> pa.Table:
        out_id, out_k, out_n, out_t = [], [], [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            toks = (t or "").split()
            if not toks:
                continue
            for kk in range((len(toks) - 1) // stride + 1):
                sl = toks[kk * stride : kk * stride + window]
                out_id.append(i)
                out_k.append(kk)
                out_n.append(len(sl))
                out_t.append(" ".join(sl))
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(out_k, type=pa.int64()),
                pa.array(out_n, type=pa.int64()),
                pa.array(out_t, type=pa.string()),
            ],
            names=["doc_id", "chunk_id", "n_tokens", "chunk_text"],
        )

    return ds.map_batches(
        explode, batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    ).sort(["doc_id", "chunk_id"])


STOPWORDS = ("a", "the", "of", "and", "in", "to", "is")


def doc_stopwords(sf_dir: str):
    """(doc_id, n_words, n_stop) — stopword incidence, a standard
    quality-filter signal (low stopword share flags non-prose). Fully
    vectorized: regex split to a list array, one `is_in` over the
    flattened tokens, per-row sums via reduceat on the list offsets —
    no Python per-row work."""
    import numpy as np

    ds = read_documents(sf_dir)
    stop_set = pa.array(STOPWORDS, type=pa.string())

    def count(batch: pa.Table) -> pa.Table:
        text = batch["text"].combine_chunks() if isinstance(
            batch["text"], pa.ChunkedArray
        ) else batch["text"]
        trimmed = pc.utf8_trim_whitespace(pc.utf8_lower(pc.fill_null(text, "")))
        lists = pc.split_pattern_regex(trimmed, r"\s+")
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        hits = pc.is_in(flat, value_set=stop_set)
        hv = hits.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        starts, ends = offs[:-1], offs[1:]
        n_stop = np.zeros(len(starts), dtype=np.int64)
        nonempty = ends > starts
        if hv.size and nonempty.any():
            sums = np.add.reduceat(hv, starts[nonempty])
            n_stop[nonempty] = sums
        n_words = pc.cast(_ws_token_count_vec(text), pa.int64())
        return pa.Table.from_arrays(
            [batch["doc_id"], n_words, pa.array(n_stop)],
            names=["doc_id", "n_words", "n_stop"],
        )

    return ds.map_batches(
        count, batch_format="pyarrow", zero_copy_batch=True
    ).sort("doc_id")


def lang_histogram(sf_dir: str):
    """Corpus language histogram (groupby over the lang-ID output)."""
    from ray.data.aggregate import Count

    return doc_language(sf_dir).groupby("lang").aggregate(Count(alias_name="n_docs")).sort("lang")


class PIICounts:
    """Task stage: per-document accepted-PII counts per entity type
    (after the engine's overlap-priority resolution). Defined to be
    exactly SQL-expressible: the DuckDB oracle recomputes match
    positions via string_split_regex and replays the greedy
    (start, -len, rule-order) acceptance with a recursive CTE."""

    TYPES = ("EMAIL", "PHONE", "SSN", "ADDRESS")

    def __init__(self, config=None):
        from ..functions.pii import PIIAnonymizer

        self.engine = PIIAnonymizer(config)

    def __call__(self, batch: pa.Table) -> pa.Table:
        from collections import Counter

        texts = batch["text"].to_pylist()
        cols = {t: [] for t in self.TYPES}
        total = []
        for t in texts:
            accepted = self.engine.analyze(t or "")
            c = Counter(et for _, _, et in accepted)
            for ty in self.TYPES:
                cols[ty].append(c.get(ty, 0))
            total.append(len(accepted))
        arrays = [batch["doc_id"]]
        names = ["doc_id"]
        for ty in self.TYPES:
            arrays.append(pa.array(cols[ty], type=pa.int64()))
            names.append(f"n_{ty.lower()}")
        arrays.append(pa.array(total, type=pa.int64()))
        names.append("n_pii")
        return pa.Table.from_arrays(arrays, names=names)


def _reconstruct_text_batch(batch: pa.Table) -> pa.Table:
    """(doc_id, spans) -> (doc_id, text): newline-join of text/heading
    span texts in offset order (functions.sections.reconstruct_raw_text
    semantics), fully vectorized — flatten the list<struct>, mask by
    kind, rebuild per-row offsets with numpy, pc.binary_join."""
    import numpy as np

    spans = batch["spans"].combine_chunks()
    flat = pc.list_flatten(spans)
    kind = pc.struct_field(flat, "kind")
    text = pc.struct_field(flat, "text")
    mask = pc.is_in(kind, value_set=pa.array(["text", "heading"]))
    kept = pc.filter(text, mask)
    if isinstance(kept, pa.ChunkedArray):
        kept = kept.combine_chunks()
    lens = pc.list_value_length(spans).fill_null(0).to_numpy(zero_copy_only=False)
    row_ids = np.repeat(np.arange(len(lens)), lens)
    mask_np = mask.to_numpy(zero_copy_only=False)
    counts = np.bincount(row_ids[mask_np.astype(bool)], minlength=len(lens))
    offsets = np.zeros(len(lens) + 1, dtype=np.int32)
    np.cumsum(counts, out=offsets[1:])
    joined = pc.binary_join(
        pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), kept),
        "\n",
    )
    return pa.Table.from_arrays([batch["doc_id"], joined], names=["doc_id", "text"])


def doc_pii_counts(spans, config=None):
    """Per-document PII counts over the ``spans`` Dataset — the
    oracle-checked face of the PII engine (anonymized text itself is
    verified by the pytest span-equality suite; hash replacements are
    not SQL-recomputable without sha256-of-arbitrary-bytes). Raw text
    reconstructs distributed (vectorized map_batches), never on the
    driver."""
    return (
        spans.map_batches(_reconstruct_text_batch, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(
            PIICounts(config),
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=1024,
        )
        .sort("doc_id")
    )


def top_words(sf_dir: str, k: int = 50):
    """Corpus vocabulary top-k: tokenize (lowercase [a-z0-9]+ runs),
    count per batch with Arrow value_counts (partial aggregation BEFORE
    the shuffle — the combiner pattern: only (word, partial_n) rows move,
    never tokens), groupby-sum, deterministic (n desc, word) top-k."""
    from ray.data.aggregate import Sum

    ds = read_documents(sf_dir)

    def partial_counts(batch: pa.Table) -> pa.Table:
        toks = pc.list_flatten(
            pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"[^a-z0-9]+")
        )
        toks = toks.filter(pc.greater(pc.utf8_length(toks), 0))
        vc = pc.value_counts(toks)
        return pa.Table.from_arrays(
            [
                pc.struct_field(vc, "values"),
                pc.cast(pc.struct_field(vc, "counts"), pa.int64()),
            ],
            names=["word", "n"],
        )

    return (
        ds.map_batches(partial_counts, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096)
        .groupby("word")
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "word"], descending=[True, False])
        .limit(k)
    )


def doc_length_percentiles(sf_dir: str, percentiles=(0.5, 0.9, 0.99)):
    """Exact PERCENTILE_DISC of document length (n_chars) without a
    global sort: lengths have bounded cardinality, so a groupby(n_chars)
    count produces a small histogram; the driver takes the exact
    discrete percentile from cumulative counts. At 100 TB the histogram
    is still tiny (distinct lengths), while a sort would shuffle every
    row."""
    from ray.data.aggregate import Count

    ds = read_documents(sf_dir, columns=("doc_id", "text"))

    def lengths(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pc.cast(pc.utf8_length(batch["text"]), pa.int64())], names=["n_chars"]
        )

    hist = (
        ds.map_batches(lengths, batch_format="pyarrow", zero_copy_batch=True, batch_size=4096)
        .groupby("n_chars")
        .aggregate(Count(alias_name="cnt"))
        .sort("n_chars")
        .take_all()
    )
    total = sum(r["cnt"] for r in hist)
    out_p, out_v = [], []
    for p in percentiles:
        import math

        need = max(1, math.ceil(p * total))
        cum = 0
        val = hist[-1]["n_chars"] if hist else 0
        for r in hist:
            cum += r["cnt"]
            if cum >= need:
                val = r["n_chars"]
                break
        out_p.append(p)
        out_v.append(int(val))
    return pa.Table.from_pydict(
        {
            "p": pa.array(out_p, type=pa.float64()),
            "n_chars": pa.array(out_v, type=pa.int64()),
        }
    )


class ModelScore:
    """Task stage: deterministic linear quality model over integer
    fixed-point features — the batched-model-inference pattern (weights
    loaded once in ``__init__`` and shipped with the instance,
    vectorized scoring per batch). The model is a stand-in for a
    fasttext/logreg quality classifier: integer micro-unit shares and
    integer weights keep the arithmetic bit-exact across engines so the
    DuckDB oracle verifies scores value-for-value (transcendental links
    would not survive cross-engine doubles).

    Reference seed: none (single-doc CLI); LLM-training-data family
    (model-based quality filtering a la CCNet/fasttext)."""

    #: (bias_micro, w_stop, w_alpha, w_punct) — what a real deployment
    #: would read from a model artifact in __init__.
    WEIGHTS = (-500_000, 3, 2, -5)
    KEEP_MICRO = 1_500_000

    def __init__(self, weights=None, keep_micro=None):
        self.bias, self.w_stop, self.w_alpha, self.w_punct = (
            weights or self.WEIGHTS
        )
        self.keep_micro = self.KEEP_MICRO if keep_micro is None else keep_micro
        self.stop_set = pa.array(STOPWORDS, type=pa.string())

    def __call__(self, batch: pa.Table) -> pa.Table:
        text = batch["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        text = pc.fill_null(text, "")
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = (
            pc.utf8_length(pc.replace_substring_regex(text, "[^a-zA-Z]", ""))
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        punct = (
            pc.utf8_length(pc.replace_substring_regex(text, "[a-zA-Z0-9 ]", ""))
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        n_words = (
            pc.cast(_ws_token_count_vec(text), pa.int64())
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        lists = pc.split_pattern_regex(
            pc.utf8_trim_whitespace(pc.utf8_lower(text)), r"\s+"
        )
        if isinstance(lists, pa.ChunkedArray):
            lists = lists.combine_chunks()
        flat = pc.list_flatten(lists)
        hv = (
            pc.is_in(flat, value_set=self.stop_set)
            .to_numpy(zero_copy_only=False).astype(np.int64)
        )
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        starts, ends = offs[:-1], offs[1:]
        n_stop = np.zeros(len(starts), dtype=np.int64)
        nonempty = ends > starts
        if hv.size and nonempty.any():
            n_stop[nonempty] = np.add.reduceat(hv, starts[nonempty])
        wsafe = np.maximum(n_words, 1)
        csafe = np.maximum(n_chars, 1)
        stop_share = np.where(n_words > 0, (n_stop * 1_000_000) // wsafe, 0)
        alpha_share = np.where(n_chars > 0, (alpha * 1_000_000) // csafe, 0)
        punct_share = np.where(n_chars > 0, (punct * 1_000_000) // csafe, 0)
        score = (
            self.bias
            + self.w_stop * stop_share
            + self.w_alpha * alpha_share
            + self.w_punct * punct_share
        )
        keep = (score >= self.keep_micro).astype(np.int64)
        return pa.Table.from_arrays(
            [
                batch["doc_id"],
                pa.array(stop_share), pa.array(alpha_share),
                pa.array(punct_share), pa.array(score), pa.array(keep),
            ],
            names=[
                "doc_id", "stop_share_micro", "alpha_share_micro",
                "punct_share_micro", "score_micro", "keep",
            ],
        )


def doc_model_score(sf_dir: str):
    """(doc_id, feature shares, score_micro, keep) — linear quality
    model over the corpus, weights shipped with the mapped instance."""
    return read_documents(sf_dir).map_batches(
        ModelScore(), batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    ).sort("doc_id")


def top_words_by_source(sf_dir: str, k: int = 5):
    """Per-source vocabulary top-k — the grouped heavy-hitter shape:
    per-batch partial (source, word, n) counts (the combiner pattern —
    the shuffle moves counts bounded by batches x sources x vocab,
    never tokens), ONE groupby-sum on the composite key, then a
    per-source vectorized rank. Deterministic (n desc, word) order so
    the SQL window oracle replays the exact rows."""
    ds = read_documents(sf_dir, columns=("source", "text"))

    def source_words(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(pc.utf8_lower(batch["text"]), r"[^a-z0-9]+")
        flat = pc.list_flatten(toks)
        # repeat each row's source once per token via the list offsets
        sizes = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        src = batch["source"].take(
            pa.array(np.repeat(np.arange(len(batch)), sizes))
        )
        t = pa.Table.from_arrays([src, flat], names=["source", "word"])
        return t.filter(pc.greater(pc.utf8_length(t["word"]), 0))

    agg = grouped_agg(
        ds, ["source", "word"], {"n": ("word", "count")}, rows=source_words, batch_size=4096
    )

    def topk(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # every source in the bucket at once: rank = run position + 1
        keep = pa.array(pos < k)
        return pa.Table.from_arrays(
            [
                g["source"].filter(keep),
                g["word"].filter(keep),
                pc.cast(g["n"], pa.int64()).filter(keep),
                pa.array(pos + 1).filter(keep),
            ],
            names=["source", "word", "n", "rk"],
        )

    return sorted_runs(agg, "source", [("n", "descending"), "word"], topk).sort(
        ["source", "rk"]
    )


def doc_length_percentiles_by_lang(sf_dir: str, percentiles=(0.5, 0.9, 0.99)):
    """Exact grouped PERCENTILE_DISC without a global sort: ONE
    groupby (lang, n_chars) count builds a per-stratum histogram
    (bounded by strata x distinct lengths regardless of corpus rows);
    the driver walks each stratum's cumulative counts for the exact
    discrete percentile."""
    import math

    from ray.data.aggregate import Count

    ds = read_documents(sf_dir, columns=("lang", "text"))

    def lengths(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                batch["lang"],
                pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            ],
            names=["lang", "n_chars"],
        )

    hist = (
        ds.map_batches(lengths, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=4096)
        .groupby(["lang", "n_chars"])
        .aggregate(Count(alias_name="cnt"))
        .sort(["lang", "n_chars"])
        .take_all()
    )  # <= strata x distinct lengths rows by construction
    by_lang: dict = {}
    for r in hist:
        by_lang.setdefault(r["lang"], []).append((r["n_chars"], r["cnt"]))
    out_l, out_p, out_v = [], [], []
    for lang in sorted(by_lang):
        rows = by_lang[lang]
        total = sum(c for _, c in rows)
        for p in percentiles:
            need = max(1, math.ceil(p * total))
            cum, val = 0, rows[-1][0]
            for v, c in rows:
                cum += c
                if cum >= need:
                    val = v
                    break
            out_l.append(lang)
            out_p.append(p)
            out_v.append(int(val))
    return pa.Table.from_pydict(
        {
            "lang": pa.array(out_l, type=pa.string()),
            "p": pa.array(out_p, type=pa.float64()),
            "n_chars": pa.array(out_v, type=pa.int64()),
        }
    )


def doc_letter_concentration(sf_dir: str):
    """Per-document letter-distribution concentration (Herfindahl index
    over a-z, integer micro-units): sum(c_i^2) / total^2 — ~1e6/26 for
    uniform prose, ~1e6 for single-letter spam. A deterministic
    character-level quality signal (entropy-family heuristics in Gopher
    / FineWeb-style filters; this integer form is bit-exact across
    engines). One vectorized pass: non-letters stripped by an Arrow
    kernel, per-row per-letter counts via ONE np.bincount over
    (row * 26 + letter) read straight from the string buffer."""
    import numpy as np

    ds = read_documents(sf_dir)

    def conc(t: pa.Table) -> pa.Table:
        text = t["text"]
        if isinstance(text, pa.ChunkedArray):
            text = text.combine_chunks()
        letters = pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", ""
        )
        if isinstance(letters, pa.ChunkedArray):
            letters = letters.combine_chunks()
        nrows = len(letters)
        off_dtype = np.int64 if pa.types.is_large_string(letters.type) else np.int32
        offs = np.frombuffer(letters.buffers()[1], dtype=off_dtype)[
            letters.offset : letters.offset + nrows + 1
        ].astype(np.int64)
        chars = np.frombuffer(letters.buffers()[2], dtype=np.uint8)[
            offs[0] : offs[-1]
        ]
        rel = offs - offs[0]
        row = np.searchsorted(rel[1:], np.arange(chars.size), side="right")
        counts = np.bincount(
            row * 26 + (chars.astype(np.int64) - 0x61), minlength=nrows * 26
        ).reshape(nrows, 26)
        tot = counts.sum(axis=1)
        ss = (counts.astype(np.int64) ** 2).sum(axis=1)
        micro = 1_000_000 * ss // np.maximum(tot * tot, 1)
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_letters": pa.array(tot, type=pa.int64()),
                "conc_micro": pa.array(micro, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(conc, batch_format="pyarrow", zero_copy_batch=True)
        .sort("doc_id")
    )


def length_mad_by_lang(sf_dir: str):
    """Robust statistics: per-language median and median absolute
    deviation (MAD) of document lengths — BOTH exact, from ONE corpus
    scan: the (lang, n_chars) count histogram (bounded by strata x
    distinct lengths, never corpus rows) is walked twice on the driver —
    once for the discrete median, once for the weighted median of
    |n_chars - median| derived from the same counts. Discrete-percentile
    rule: smallest value with cumulative count >= ceil(0.5 * total)
    (== SQL PERCENTILE_DISC)."""
    import math

    from ray.data.aggregate import Count

    ds = read_documents(sf_dir, columns=("lang", "text"))

    def lengths(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [batch["lang"], pc.cast(pc.utf8_length(batch["text"]), pa.int64())],
            names=["lang", "n_chars"],
        )

    hist = (
        ds.map_batches(lengths, batch_format="pyarrow", zero_copy_batch=True,
                       batch_size=4096)
        .groupby(["lang", "n_chars"])
        .aggregate(Count(alias_name="cnt"))
        .take_all()
    )  # <= strata x distinct lengths rows by construction
    by_lang: dict = {}
    for r in hist:
        by_lang.setdefault(r["lang"], []).append((int(r["n_chars"]), int(r["cnt"])))

    def disc_median(pairs):
        pairs = sorted(pairs)
        total = sum(c for _, c in pairs)
        need = max(1, math.ceil(0.5 * total))
        cum = 0
        for v, c in pairs:
            cum += c
            if cum >= need:
                return v
        return pairs[-1][0]

    out_l, out_m, out_d = [], [], []
    for lang in sorted(by_lang):
        pairs = by_lang[lang]
        med = disc_median(pairs)
        dev_pairs: dict = {}
        for v, c in pairs:
            d = abs(v - med)
            dev_pairs[d] = dev_pairs.get(d, 0) + c
        mad = disc_median(list(dev_pairs.items()))
        out_l.append(lang)
        out_m.append(med)
        out_d.append(mad)
    return pa.Table.from_pydict(
        {
            "lang": pa.array(out_l, type=pa.string()),
            "median_n_chars": pa.array(out_m, type=pa.int64()),
            "mad_n_chars": pa.array(out_d, type=pa.int64()),
        }
    )


def source_token_gini(sf_dir: str):
    """Source-imbalance report: the Gini coefficient of per-source
    token mass, in exact integer micro — Gini = sum_ij |x_i - x_j| /
    (2 n sum) over the <= #sources totals, closed on the driver with
    Python ints (the aggregate is source-bounded; the corpus scan ships
    per-batch partial token counts only)."""
    def tokens(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {"source": batch["source"], "n": _ws_token_count_vec(batch["text"])}
        )

    rows = grouped_agg(
        read_documents(sf_dir, columns=("source", "text")),
        "source",
        {"n_tokens": ("n", "sum")},
        rows=tokens,
    ).take_all()  # <= #sources rows by construction
    xs = sorted(int(r["n_tokens"]) for r in rows)
    n, total = len(xs), sum(xs)
    num = sum(
        (2 * (i + 1) - n - 1) * x for i, x in enumerate(xs)
    )  # == sum_ij |xi - xj| / 2 for sorted xs
    gini_micro = (2 * num * 1_000_000) // (2 * n * total) if total else 0
    return pa.Table.from_pydict(
        {
            "n_sources": pa.array([n], type=pa.int64()),
            "total_tokens": pa.array([total], type=pa.int64()),
            "gini_micro": pa.array([gini_micro], type=pa.int64()),
        }
    )


def split_length_ks(sf_dir: str):
    """Two-sample drift test between the train and test splits' length
    distributions — the discrete Kolmogorov-Smirnov statistic in exact
    integer cross-multiplied form: KS = max_v |cdf_train(v) -
    cdf_test(v)| = max |c1*n2 - c2*n1| / (n1*n2). One (split, n_chars)
    count histogram (bounded by splits x distinct lengths); the driver
    walks merged cumulative counts. Output: n_train, n_test, the
    integer numerator max and ks_micro."""
    from ray.data.aggregate import Count

    from .splits import split_of

    ds = read_documents(sf_dir, columns=("doc_id", "text"))

    def lengths(batch: pa.Table) -> pa.Table:
        splits = [split_of(str(i)) for i in batch["doc_id"].to_pylist()]
        return pa.Table.from_pydict(
            {
                "split": pa.array(splits, type=pa.string()),
                "n_chars": pc.cast(pc.utf8_length(batch["text"]), pa.int64()),
            }
        )

    hist = (
        ds.map_batches(lengths, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["split", "n_chars"])
        .aggregate(Count(alias_name="cnt"))
        .take_all()
    )  # <= splits x distinct lengths rows by construction
    tr: dict = {}
    te: dict = {}
    for r in hist:
        if r["split"] == "train":
            tr[int(r["n_chars"])] = int(r["cnt"])
        elif r["split"] == "test":
            te[int(r["n_chars"])] = int(r["cnt"])
    n1, n2 = sum(tr.values()), sum(te.values())
    c1 = c2 = 0
    best = 0
    for v in sorted(set(tr) | set(te)):
        c1 += tr.get(v, 0)
        c2 += te.get(v, 0)
        best = max(best, abs(c1 * n2 - c2 * n1))
    ks_micro = (best * 1_000_000) // (n1 * n2) if n1 and n2 else 0
    return pa.Table.from_pydict(
        {
            "n_train": pa.array([n1], type=pa.int64()),
            "n_test": pa.array([n2], type=pa.int64()),
            "ks_numerator": pa.array([best], type=pa.int64()),
            "ks_micro": pa.array([ks_micro], type=pa.int64()),
        }
    )


def doc_normalize(sf_dir: str):
    """Unicode/whitespace canonicalization — the preprocessing pass a
    crawl corpus gets before any hashing or tokenization (NFC so
    composed/decomposed accents hash identically; control chars
    stripped; whitespace runs collapsed). Entirely Arrow kernels
    (``utf8_normalize`` + two regex replaces), zero per-row Python,
    no shuffle. Output: doc_id, norm_text, n_before, n_after, changed.
    """
    ds = read_documents(sf_dir)

    def norm(batch: pa.Table) -> pa.Table:
        import unicodedata

        text = batch["text"]
        n_before = pc.cast(pc.utf8_length(text), pa.int64())
        # NFC composition: pyarrow 16.1's utf8_normalize(form='NFC')
        # DEcomposes (observed: composed é -> e + U+0301), so composition
        # runs through unicodedata — but only when the batch contains
        # non-ASCII at all (byte-length == char-length prefilter keeps
        # the common crawl-ASCII path fully vectorized)
        if not pc.all(
            pc.equal(pc.binary_length(text), pc.utf8_length(text))
        ).as_py():
            x = pa.array(
                [unicodedata.normalize("NFC", s or "") for s in text.to_pylist()],
                type=pa.string(),
            )
        else:
            x = text
        x = pc.replace_substring_regex(x, r"[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]", "")
        x = pc.replace_substring_regex(x, r"\s+", " ")
        x = pc.utf8_trim_whitespace(x)
        n_after = pc.cast(pc.utf8_length(x), pa.int64())
        changed = pc.cast(pc.invert(pc.equal(x, text)), pa.int64())
        return pa.Table.from_arrays(
            [batch["doc_id"], x, n_before, n_after, changed],
            names=["doc_id", "norm_text", "n_before", "n_after", "changed"],
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)
