"""Driver contract (Ray Data target).

``entry()`` — flagship parse chain over the deterministic synthetic
interleaved-span corpus (sized from sf0.001).
``queries()`` — name -> callable(sf_dir) for every contract query, built
from ``QUERY_TABLE`` in driver order. A row names one package function,
its input (the sf dir, a synthetic spans corpus, or none), its constant
kwargs (oracle export paths among them), the float columns to turn into
integer cents and the columns to keep. A new query is one new row,
placed where it should sit in the driver window.
``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible
query (same column names; float aggregates as integer cents/micros on
both sides — cross-engine ROUND() is hash poison). Sketch/LSH/IVF
pipelines are oracled too (md5-based hashes, inlined plane/centroid
literals); only the regex-state-machine parse chain, PII overlap
resolution and candidate-dependent MinHash counts are rows-only (those
carry the pytest span-equality / planted-dup gates instead).

Ray is initialised by the driver BEFORE this module is imported: nothing
here calls ray.init()/ray.shutdown(), and importing it imports no
package module (each query imports its pipeline when it runs).
"""

from __future__ import annotations

import functools
import importlib
import os
from collections.abc import Callable
from typing import Any, NamedTuple

SEED = 42
_CORPUS_CACHE = "/tmp/dppr_corpus"


def _corpus_for(sf_dir: str, n_docs: int | None = None) -> str:
    """Deterministic synthetic spans corpus sized from the sf's documents
    table (cached under /tmp per size)."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.sources.corpus import write_corpus_local

    if n_docs is None:
        n_docs = pq.ParquetFile(f"{sf_dir}/documents.parquet").metadata.num_rows
    path = os.path.join(_CORPUS_CACHE, f"n{n_docs}-s{SEED}")
    marker = os.path.join(path, "_COMPLETE")
    if not os.path.exists(marker):
        write_corpus_local(path, n_docs, seed=SEED)
        with open(marker, "w") as f:
            f.write("ok")
    return path


def _spans(corpus: str):
    """A synthetic spans corpus as a Dataset."""
    from document_parser_private_ray.pipelines.resume import read_corpus

    return read_corpus(corpus)


def entry() -> Any:
    """Flagship: read sf0.001-sized synthetic spans corpus -> full parse
    chain -> parsed table (doc_id, out_spans, resume, error)."""
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    corpus = _corpus_for("/root/testdata/sf0.001")
    return parse_resumes(read_corpus(corpus), batch_size=32)


# Oracle exports: a query writes its intermediate here (atomically, see
# ``state.atomic_export``) and its oracle SQL reads the same parquet.
# A row reading a synthetic corpus names its export after that corpus
# (``<corpus>-<export>``, see ``_run``), so runs over different corpora
# never share one.
_ROLLUP_EXPORT = "rollup-export"
_EVAL_EXPORT = "accuracy-eval-export"
_EVAL_DOCS = 200
_CKPT_SRC = f"{_CORPUS_CACHE}/ckpt-src"
_CKPT_EXPORT = f"{_CORPUS_CACHE}/ckpt-out"
_MEDIA_FULL_EXPORT = f"{_CORPUS_CACHE}/media-full-export-n192-s42"
_MEDIA_EXPORT = f"{_CORPUS_CACHE}/media-export-n256-s42"
_MEDIA_DEDUP_EXPORT = f"{_CORPUS_CACHE}/media-dedup-export-n256-m200-s42"
_MEDIA_COLS = ["media_ref", "kind", "n_bytes", "checksum", "decode_error"]


def _round_cols(ds, cols):
    """Money/value aggregates -> integer cents: floor(x*100 + 0.5) as
    int64 on BOTH engine sides. Cross-engine ROUND() produces different
    nearest-doubles (hash poison); integers compare bit-exactly."""
    import pyarrow.compute as pc

    def rounder(t):
        for c in cols:
            if c in t.column_names:
                cents = pc.cast(
                    pc.floor(pc.add(pc.multiply(t[c], 100.0), 0.5)), "int64"
                )
                t = t.set_column(t.schema.get_field_index(c), c + "_cents", cents)
        return t

    return ds.map_batches(rounder, batch_format="pyarrow")


class Q(NamedTuple):
    """One contract query: ``target`` names a package function
    (``"<module>.<func>"`` under the package) and the query calls it on
    its ``input`` with ``kwargs``, turns each ``cents`` column into
    integer ``<col>_cents`` (``_round_cols``) and keeps only ``cols``
    when given. ``input`` is ``"sf_dir"`` (the sf directory),
    ``"spans"`` (the sf-sized synthetic spans corpus as a Dataset), an
    int n (an n-document one) or None (no input: the function makes
    its own). A corpus row's ``export`` kwarg is prefixed with its
    corpus path."""

    name: str
    target: str
    kwargs: dict[str, Any] = {}
    cents: list[str] = []
    cols: list[str] = []
    input: str | int | None = "sf_dir"


def _run(row: Q, sf_dir: str):
    module, _, func = row.target.rpartition(".")
    fn = getattr(importlib.import_module(f"document_parser_private_ray.{module}"), func)
    if row.input is None:
        ds = fn(**row.kwargs)
    elif row.input == "sf_dir":
        ds = fn(sf_dir, **row.kwargs)
    else:
        corpus = _corpus_for(sf_dir, None if row.input == "spans" else row.input)
        kwargs = {k: f"{corpus}-{v}" if k == "export" else v for k, v in row.kwargs.items()}
        ds = fn(_spans(corpus), **kwargs)
    if row.cents:
        ds = _round_cols(ds, row.cents)
    if row.cols:
        ds = ds.select_columns(row.cols)
    return ds


# Rows are in driver order. The driver's CORRECTNESS window records the
# first 50 queries, so the order decides which queries get an external
# green row; tools/check_contract.py sweeps all of them regardless.
QUERY_TABLE = (
    # -- rows 1-39: in the window, never recorded by an earlier window ---------
    Q("event_value_trends", "pipelines.relational.event_value_trends"),
    Q("fk_violations", "pipelines.joins.fk_violations"),
    Q("embedding_norms", "pipelines.similarity.embedding_norms"),
    Q("event_transitions", "pipelines.relational.event_transitions"),
    Q("revenue_by_parttype", "pipelines.relational.revenue_by_parttype"),
    Q("revenue_by_region", "pipelines.relational.revenue_by_region"),
    Q("props_field_stats", "pipelines.relational.props_field_stats"),
    Q("orders_by_weekday", "pipelines.relational.orders_by_weekday"),
    Q("priority_segment_chi2", "pipelines.relational.priority_segment_chi2"),
    Q("length_mad_by_lang", "pipelines.text_analysis.length_mad_by_lang"),
    Q("building_not_big_spenders", "pipelines.joins.building_not_big_spenders"),
    Q("daily_revenue_ma7", "pipelines.relational.daily_revenue_ma7"),
    Q("orders_above_customer_avg", "pipelines.joins.orders_above_customer_avg"),
    Q("user_first_last_purchase", "pipelines.relational.user_first_last_purchase"),
    Q("nation_share_of_region", "pipelines.relational.nation_share_of_region"),
    Q("dup_cluster_histogram", "pipelines.dedup.dup_cluster_histogram"),
    Q("cosupplier_pairs", "pipelines.pagerank.cosupplier_pairs"),
    Q("order_price_quartiles", "pipelines.relational.order_price_quartiles"),
    Q("value_outliers", "pipelines.relational.value_outliers"),
    Q("label_balance_by_split", "pipelines.splits.label_balance_by_split"),
    Q("dup_rate_by_source", "pipelines.dedup.dup_rate_by_source"),
    Q("signup_conversion_24h", "pipelines.relational.signup_conversion_24h"),
    Q("weekly_revenue_wow", "pipelines.relational.weekly_revenue_wow"),
    Q("source_token_gini", "pipelines.text_analysis.source_token_gini"),
    Q("split_length_ks", "pipelines.text_analysis.split_length_ks"),
    Q("transition_majority_accuracy", "pipelines.relational.transition_majority_accuracy"),
    Q("time_to_convert_percentiles", "pipelines.relational.time_to_convert_percentiles"),
    Q("span_transitions", "pipelines.layout.span_kind_transitions", input="spans"),
    Q("span_bytes_by_kind", "pipelines.layout.span_bytes_by_kind", input="spans"),
    Q("funnel_counts", "pipelines.relational.funnel_counts"),
    Q("retention_cohorts", "pipelines.relational.retention_cohorts"),
    Q("doc_oov_rate", "pipelines.tokenizer.doc_oov_rate", {"top_k": 20}),
    Q("doc_letter_concentration", "pipelines.text_analysis.doc_letter_concentration"),
    Q("top_words_by_source", "pipelines.text_analysis.top_words_by_source", {"k": 5}),
    Q("length_percentiles_by_lang", "pipelines.text_analysis.doc_length_percentiles_by_lang"),
    Q("word_collocations", "pipelines.collocations.word_collocations", {"top_k": 25}),
    Q("data_mix", "pipelines.mixing.data_mix"),
    Q("mix_counts", "pipelines.mixing.mix_counts"),
    Q(
        "media_full",
        "pipelines.media.media_full_pipeline",
        {"n_items": 192, "export": _MEDIA_FULL_EXPORT},
        cols=_MEDIA_COLS,
        input=None,
    ),
    # -- rows 40-89: the earlier window (rows 40-50 stay in the window) --------
    Q("top_customers", "pipelines.relational.top_customers_by_order_value", cents=["total_value"]),
    Q("customers_big_spenders", "pipelines.joins.customers_big_spenders"),
    Q("events_sliding", "pipelines.relational.events_sliding_window", cents=["sum_value"]),
    Q("curate_corpus", "pipelines.curate.curate_corpus"),
    Q("winnow_overlap", "pipelines.dedup.winnow_overlap_pairs", {"min_shared": 5}),
    Q("top_words", "pipelines.text_analysis.top_words", {"k": 50}),
    Q("doc_length_percentiles", "pipelines.text_analysis.doc_length_percentiles"),
    Q("user_top_events", "pipelines.relational.user_top_events", {"k": 3}),
    Q("split_counts", "pipelines.splits.split_counts"),
    Q("ngram_jaccard", "pipelines.dedup.ngram_jaccard_micro"),
    # synthetic embeddings top out near cosine 0.5 — 0.45 keeps the
    # near-dup output non-trivial at every sf
    Q(
        "embedding_neardup",
        "pipelines.dedup.embedding_neardup_pairs",
        {"threshold": 0.45},
        cols=["id_a", "id_b"],
    ),
    Q("embedding_neardup_lsh", "pipelines.similarity.embedding_neardup_lsh", {"threshold": 0.45}),
    Q("html_main_content", "pipelines.html.html_main_content"),
    Q("html_outlinks", "pipelines.html.html_outlinks"),
    Q("html_metadata", "pipelines.html.html_metadata"),
    Q("url_dedup", "pipelines.html.url_dedup"),
    Q("customer_balance_quartiles", "pipelines.relational.customer_balance_quartiles"),
    Q("link_indegree", "pipelines.html.link_indegree"),
    Q("crawl_frontier", "pipelines.html.crawl_frontier"),
    Q("decontaminate_clean", "pipelines.decontam.decontaminate_clean"),
    Q("doc_normalize", "pipelines.text_analysis.doc_normalize"),
    Q("anchor_texts", "pipelines.html.anchor_texts"),
    Q(
        "ann_lsh",
        "pipelines.similarity.ann_lsh_topk",
        {"k": 5, "n_queries": 8},
        cols=["query_id", "vec_id", "rank"],
    ),
    Q("ann_ivfpq", "pipelines.similarity.ann_ivfpq_topk", {"k": 5, "n_queries": 8}),
    Q("neardup_keep_best", "pipelines.dedup.neardup_keep_best"),
    Q("doc_perplexity", "pipelines.lm.doc_perplexity"),
    Q("embedding_pca", "pipelines.similarity.embedding_pca"),
    Q("snapshot_diff", "pipelines.joins.snapshot_diff"),
    Q("minhash_against_state", "pipelines.dedup.minhash_against_state"),
    Q("ppjoin_pairs", "pipelines.setjoin.ppjoin_pairs"),
    Q("doc_quality_extended", "pipelines.text_analysis.doc_quality_extended"),
    Q("doc_tokens_bpe", "pipelines.text_analysis.doc_tokens"),
    Q("doc_winnow", "pipelines.text_analysis.doc_fingerprints", cols=["doc_id", "n_winnow"]),
    Q("doc_repetition", "pipelines.text_analysis.doc_repetition"),
    Q("doc_chunks", "pipelines.text_analysis.doc_chunks"),
    Q("doc_stopwords", "pipelines.text_analysis.doc_stopwords"),
    Q("source_filter", "pipelines.domains.source_filter"),
    Q("source_stats", "pipelines.domains.source_stats"),
    Q("bpe_pair_counts", "pipelines.tokenizer.bpe_pair_counts", {"top_k": 50}),
    Q("vocab_kmv", "pipelines.cardinality.vocab_kmv", {"k": 16}),
    Q("vocab_kmv_by_source", "pipelines.cardinality.vocab_kmv_by_source", {"k": 16}),
    Q("word_cms_estimates", "pipelines.cardinality.word_cms_estimates"),
    Q("orders_price_bands", "pipelines.relational.orders_price_bands"),
    Q("priority_segment_pivot", "pipelines.relational.priority_segment_pivot"),
    Q("event_gaps", "pipelines.relational.event_gaps"),
    Q("orders_rollup", "pipelines.relational.orders_rollup"),
    Q("remove_boilerplate", "pipelines.segments.remove_boilerplate"),
    Q("table_checksum", "pipelines.integrity.table_checksum"),
    Q("events_hourly_users", "pipelines.relational.events_hourly_users"),
    Q("user_event_paths", "pipelines.relational.user_event_paths"),
    # -- rows 90-139: the rounds 1-4 window, rows already recorded ------------
    Q("parse_resumes", "pipelines.resume.parse_resumes", input="spans"),
    Q(
        "parse_resumes_pii",
        "pipelines.resume.parse_resumes",
        {"with_pii": True},
        cols=["doc_id", "anonymized_text", "error"],
        input=200,
    ),
    Q("detect_sections", "stages.parse.detect_sections", input="spans"),
    Q("span_rollup", "pipelines.resume.span_rollup", {"export": _ROLLUP_EXPORT}, input="spans"),
    Q("layout_blocks", "pipelines.layout.layout_blocks", {"n_docs": 500}, input=None),
    Q(
        "checkpoint_lineage",
        "job.checkpoint_lineage",
        {"src": _CKPT_SRC, "export": _CKPT_EXPORT},
        input=None,
    ),
    Q("doc_pii", "pipelines.text_analysis.doc_pii_counts", input="spans"),
    Q(
        "accuracy_eval",
        "pipelines.evaluate.accuracy_eval",
        {"export": _EVAL_EXPORT, "n_docs": _EVAL_DOCS},
        input=_EVAL_DOCS,
    ),
    Q(
        "q1_pricing_summary",
        "pipelines.relational.q1_pricing_summary",
        cents=["sum_base_price", "sum_disc_price"],
    ),
    Q("revenue_by_nation", "pipelines.relational.revenue_by_nation", cents=["revenue"]),
    Q("largest_docs", "stages.parse.largest_docs", input="spans"),
    Q("order_lineitem_join", "pipelines.joins.order_lineitem_revenue", cents=["revenue"]),
    Q("customers_no_urgent_orders", "pipelines.joins.customers_no_urgent_orders"),
    Q("profile_columns", "pipelines.profile.profile_columns"),
    Q("order_bigline_histogram", "pipelines.joins.order_bigline_histogram"),
    Q("q3_shipping_priority", "pipelines.joins.q3_shipping_priority"),
    Q("events_hourly", "pipelines.relational.events_hourly_window", cents=["sum_value"]),
    Q("events_sessionize", "pipelines.relational.events_sessionize", cents=["sum_value"]),
    Q(
        "asof_purchases_views",
        "pipelines.relational.purchases_asof_views",
        cents=["purchase_value", "view_value"],
    ),
    Q("session_purchase_counts", "pipelines.relational.session_purchase_counts"),
    Q("user_cumulative_spend", "pipelines.relational.user_cumulative_spend"),
    Q("web_curate", "pipelines.html.web_curate"),
    Q("corpus_shuffle", "pipelines.splits.corpus_shuffle"),
    Q(
        "distinct_segments",
        "pipelines.joins.distinct_values",
        {"table": "customer", "column": "c_mktsegment"},
    ),
    Q("sample_stratified", "pipelines.splits.sample_stratified", {"n_per_source": 10}),
    Q("dataset_split", "pipelines.splits.dataset_split"),
    Q("dedup_exact", "pipelines.dedup.dedup_exact"),
    Q("dedup_against_state", "pipelines.dedup.dedup_against_state"),
    Q("dedup_minhash", "pipelines.dedup.dedup_minhash_counts"),
    Q("dedup_simhash", "pipelines.dedup.dedup_simhash"),
    Q("html_spans", "pipelines.html.html_spans"),
    Q("semdedup", "pipelines.semdedup.semdedup", {"threshold": 0.45}),
    Q(
        "ann_bruteforce",
        "pipelines.similarity.ann_bruteforce_topk",
        {"k": 5, "n_queries": 8},
        cols=["query_id", "vec_id", "rank"],
    ),
    Q(
        "ann_ivf",
        "pipelines.similarity.ann_ivf_topk",
        {"k": 5, "n_queries": 8},
        cols=["query_id", "vec_id", "rank"],
    ),
    Q("embedding_kmeans", "pipelines.similarity.embedding_kmeans_sizes"),
    Q("doc_quality", "pipelines.text_analysis.doc_quality"),
    Q("doc_tokens", "pipelines.text_analysis.doc_tokens", cols=["doc_id", "ws_tokens"]),
    Q("doc_language", "pipelines.text_analysis.lang_histogram"),
    Q("doc_fingerprints", "pipelines.text_analysis.doc_fingerprints", cols=["doc_id", "md5"]),
    Q("doc_tfidf", "pipelines.text_analysis.doc_tfidf"),
    Q("doc_model_score", "pipelines.text_analysis.doc_model_score"),
    Q("decontaminate", "pipelines.decontam.decontaminate"),
    Q("bm25_search", "pipelines.search.bm25_search"),
    Q("build_postings", "pipelines.search.build_postings", {"max_df": 300}),
    Q("supplier_pagerank", "pipelines.pagerank.supplier_pagerank", {"n_iters": 3, "k": 20}),
    Q("dedup_segments", "pipelines.segments.dedup_segments"),
    Q(
        "media_features",
        "pipelines.media.media_pipeline",
        {"n_items": 256, "export": _MEDIA_EXPORT},
        cols=_MEDIA_COLS,
        input=None,
    ),
    Q("media_dedup", "pipelines.media.media_dedup", {"export": _MEDIA_DEDUP_EXPORT}, input=None),
    Q("pack_sequences", "pipelines.mixing.pack_sequences"),
    Q("vocab_hll", "pipelines.cardinality.vocab_hll"),
)


def queries() -> dict[str, Callable[[str], Any]]:
    return {q.name: functools.partial(_run, q) for q in QUERY_TABLE}


def _sql_word_list(words) -> str:
    return ", ".join("'" + w.replace("'", "''") + "'" for w in sorted(words))


def _sql_plane_rows(planes, with_table: int | None = None) -> str:
    """Render a sign-LSH plane matrix as DuckDB VALUES rows — the SAME
    float32 coefficients the pipeline's SignLSH draws (repr round-trips
    float32 exactly through the SQL parser), so the oracle recomputes
    the bucket assignment bit-for-bit."""
    rows = []
    for b in range(planes.shape[0]):
        vals = ", ".join(repr(float(v)) for v in planes[b])
        if with_table is None:
            rows.append(f"({b}, [{vals}]::DOUBLE[])")
        else:
            rows.append(f"({with_table}, {b}, [{vals}]::DOUBLE[])")
    return ", ".join(rows)


def _lang_oracle_sql() -> str:
    from document_parser_private_ray.functions.textstats import _LANG_STOPWORDS

    langs = list(_LANG_STOPWORDS)  # dict order = the kernel's tie-break order
    hits = ", ".join(
        f"len(list_filter(words, w -> w IN ({_sql_word_list(_LANG_STOPWORDS[lang])}))) AS h_{lang}"
        for lang in langs
    )
    greatest = ", ".join(f"h_{lang}" for lang in langs)
    case = (
        "CASE WHEN m = 0 THEN 'und' "
        + " ".join(f"WHEN h_{lang} = m THEN '{lang}'" for lang in langs)
        + " END"
    )
    return f"""
        WITH w AS (
          SELECT doc_id,
                 list_transform(regexp_extract_all(text, '[a-zA-Z'']+'), x -> lower(x)) AS words
          FROM documents
        ), h AS (SELECT doc_id, {hits} FROM w),
        m AS (SELECT *, GREATEST({greatest}) AS m FROM h),
        lang_of AS (SELECT doc_id, {case} AS lang FROM m)
        SELECT lang, COUNT(*) AS n_docs FROM lang_of GROUP BY lang ORDER BY lang
    """


_WINNOW_CTE = r"""
            WITH w AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS words
              FROM documents
            ), g AS (
              SELECT doc_id,
                     CASE
                       WHEN len(words) = 0 THEN []::VARCHAR[]
                       WHEN len(words) < 5 THEN [array_to_string(words, ' ')]
                       ELSE list_transform(generate_series(1, len(words) - 4),
                            i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2] || ' ' || words[i+3] || ' ' || words[i+4])
                     END AS grams
              FROM w
            ), gh AS (
              SELECT doc_id, idx, ('0x' || substr(md5(gram), 1, 16))::UBIGINT AS hg
              FROM (SELECT doc_id, unnest(grams) AS gram, generate_subscripts(grams, 1) AS idx FROM g)
            ), counts AS (SELECT doc_id, len(grams) AS ng FROM g),
            wm AS (
              SELECT a.doc_id, a.idx AS wi, MIN(b.hg) AS mn
              FROM gh a
              JOIN counts c ON c.doc_id = a.doc_id AND c.ng > 4 AND a.idx <= c.ng - 3
              JOIN gh b ON b.doc_id = a.doc_id AND b.idx BETWEEN a.idx AND a.idx + 3
              GROUP BY 1, 2
            ), sel AS (
              SELECT w.doc_id, w.wi, MIN(g2.idx) AS j
              FROM wm w JOIN gh g2 ON g2.doc_id = w.doc_id
                   AND g2.idx BETWEEN w.wi AND w.wi + 3 AND g2.hg = w.mn
              GROUP BY 1, 2
            )
"""


def _winnow_overlap_oracle_sql(min_shared: int = 5) -> str:
    """Pairs sharing >= min_shared winnowing fingerprints: the doc_winnow
    CTE chain extended with per-doc fingerprint SETS and a self-join."""
    return _WINNOW_CTE + f""",
            fp_small AS (
              SELECT gh.doc_id, MIN(gh.hg) AS hg
              FROM gh JOIN counts c ON c.doc_id = gh.doc_id AND c.ng BETWEEN 1 AND 4
              GROUP BY gh.doc_id
            ),
            fp_big AS (
              SELECT DISTINCT s.doc_id, g3.hg
              FROM (SELECT DISTINCT doc_id, j FROM sel) s
              JOIN gh g3 ON g3.doc_id = s.doc_id AND g3.idx = s.j
            ),
            fp AS (SELECT * FROM fp_small UNION ALL SELECT * FROM fp_big),
            p AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS n_shared
              FROM fp a JOIN fp b ON a.hg = b.hg AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT doc_a, doc_b, CAST(n_shared AS BIGINT) AS n_shared
            FROM p WHERE n_shared >= {min_shared}
            ORDER BY doc_a, doc_b
    """


def _ivf_oracle_sql(
    k: int = 5, n_queries: int = 8, n_centroids: int = 16, n_probe: int = 4,
    train_sample: int = 512,
) -> str:
    """IVF oracle: the SAME float64 centroid matrix the pipeline trains
    (repr round-trips float64 exactly), assignment/probing recomputed in
    SQL (list_distance is monotonic with the squared-L2 argmin)."""
    from document_parser_private_ray.pipelines.similarity import train_ivf_centroids

    C = train_ivf_centroids(_verify_sf(), n_centroids, train_sample)
    rows = ", ".join(
        f"({cid}, [{', '.join(repr(float(x)) for x in C[cid])}]::DOUBLE[])"
        for cid in range(C.shape[0])
    )
    return f"""
        WITH v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
        cents(cid, c) AS (VALUES {rows}),
        a AS (SELECT v.vec_id, c.cid, list_distance(v.e, c.c) AS d
              FROM v CROSS JOIN cents c),
        best AS (
            SELECT vec_id, cid FROM (
                SELECT *, ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn
                FROM a
            ) WHERE rn = 1
        ),
        q AS (SELECT vec_id AS query_id, e AS qe FROM v ORDER BY vec_id LIMIT {n_queries}),
        qp AS (
            SELECT query_id, cid FROM (
                SELECT q.query_id, c.cid,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_distance(q.qe, c.c), c.cid) AS rn
                FROM q CROSS JOIN cents c
            ) WHERE rn <= {n_probe}
        ),
        cand AS (SELECT qp.query_id, b.vec_id FROM qp JOIN best b ON b.cid = qp.cid),
        scored AS (
            SELECT cand.query_id, cand.vec_id,
                   list_cosine_similarity(q.qe, v.e) AS sim
            FROM cand
            JOIN q ON q.query_id = cand.query_id
            JOIN v ON v.vec_id = cand.vec_id
        ),
        ranked AS (
            SELECT query_id, vec_id,
                   ROW_NUMBER() OVER (
                       PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rank
            FROM scored
        )
        SELECT query_id, vec_id, rank FROM ranked WHERE rank <= {k}
        ORDER BY query_id, rank
    """


def _ivfpq_oracle_sql(
    k: int = 5, n_queries: int = 8, n_centroids: int = 16, n_probe: int = 4,
    m_sub: int = 8, n_codes: int = 16, train_sample: int = 512,
) -> str:
    """IVF-PQ oracle: the SAME float64 coarse centroids + PQ codebooks
    the pipeline trains (repr round-trips float64 exactly), cell
    assignment / probing / per-subspace code assignment recomputed in
    SQL (list_distance is monotonic with the squared-L2 argmin), and
    the ADC lookup tables inlined as INTEGER micro literals — the score
    is a SUM of int64 terms on both sides, so every adc value and rank
    reproduces bit-for-bit."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.similarity import (
        pq_adc_lut_micro,
        train_ivf_centroids,
        train_pq_codebooks,
    )

    sf = _verify_sf()
    C = train_ivf_centroids(sf, n_centroids, train_sample)
    books = train_pq_codebooks(sf, m_sub, n_codes, train_sample)
    dsub = books.shape[2]

    t = pq.read_table(f"{sf}/embeddings.parquet", columns=["vec_id", "embedding"])
    order = pc.sort_indices(t["vec_id"])[:n_queries]
    qids = np.asarray(pc.take(t["vec_id"], order).to_pylist(), dtype=np.int64)
    qraw = np.array(pc.take(t["embedding"], order).to_pylist(), dtype=np.float64)
    lut = pq_adc_lut_micro(qraw, books)

    cent_rows = ", ".join(
        f"({cid}, [{', '.join(repr(float(x)) for x in C[cid])}]::DOUBLE[])"
        for cid in range(C.shape[0])
    )
    book_rows = ", ".join(
        f"({m}, {c}, [{', '.join(repr(float(x)) for x in books[m][c])}]::DOUBLE[])"
        for m in range(m_sub)
        for c in range(n_codes)
    )
    lut_rows = ", ".join(
        f"({int(qids[qi])}, {m}, {c}, {int(lut[qi, m, c])})"
        for qi in range(n_queries)
        for m in range(m_sub)
        for c in range(n_codes)
    )
    return f"""
        WITH v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
        cents(cid, c) AS (VALUES {cent_rows}),
        books(m, code, b) AS (VALUES {book_rows}),
        lut(query_id, m, code, di) AS (VALUES {lut_rows}),
        a AS (SELECT v.vec_id, c.cid, list_distance(v.e, c.c) AS d
              FROM v CROSS JOIN cents c),
        best AS (
            SELECT vec_id, cid FROM (
                SELECT *, ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn
                FROM a
            ) WHERE rn = 1
        ),
        q AS (SELECT vec_id AS query_id, e AS qe FROM v ORDER BY vec_id LIMIT {n_queries}),
        qp AS (
            SELECT query_id, cid FROM (
                SELECT q.query_id, c.cid,
                       ROW_NUMBER() OVER (
                           PARTITION BY q.query_id
                           ORDER BY list_distance(q.qe, c.c), c.cid) AS rn
                FROM q CROSS JOIN cents c
            ) WHERE rn <= {n_probe}
        ),
        sub AS (
            SELECT v.vec_id, bk.m, bk.code,
                   list_distance(
                       CAST(list_slice(v.e, bk.m*{dsub}+1, bk.m*{dsub}+{dsub})
                            AS DOUBLE[]), bk.b) AS d
            FROM v CROSS JOIN books bk),
        codes AS (
            SELECT vec_id, m, code FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY vec_id, m ORDER BY d, code) AS rn
                FROM sub
            ) WHERE rn = 1
        ),
        cand AS (SELECT qp.query_id, b.vec_id FROM qp JOIN best b ON b.cid = qp.cid),
        scored AS (
            SELECT cand.query_id, cand.vec_id, CAST(SUM(l.di) AS BIGINT) AS adc
            FROM cand
            JOIN codes co ON co.vec_id = cand.vec_id
            JOIN lut l ON l.query_id = cand.query_id
                      AND l.m = co.m AND l.code = co.code
            GROUP BY 1, 2
        ),
        ranked AS (
            SELECT query_id, vec_id, adc,
                   CAST(ROW_NUMBER() OVER (
                       PARTITION BY query_id ORDER BY adc, vec_id) AS BIGINT) AS rank
            FROM scored
        )
        SELECT query_id, vec_id, adc, rank FROM ranked WHERE rank <= {k}
        ORDER BY query_id, rank
    """


def _semdedup_oracle_sql(
    threshold: float = 0.45, n_centroids: int = 16, train_sample: int = 512
) -> str:
    """semdedup oracle: the SAME float64 centroid matrix the pipeline
    trains, cluster assignment recomputed in SQL (list_distance argmin,
    ties to lowest cid), within-cluster self-join for the dup verdict —
    dup_of is the MIN lower-id cluster-mate above the cosine threshold."""
    from document_parser_private_ray.pipelines.similarity import train_ivf_centroids

    C = train_ivf_centroids(_verify_sf(), n_centroids, train_sample)
    rows = ", ".join(
        f"({cid}, [{', '.join(repr(float(x)) for x in C[cid])}]::DOUBLE[])"
        for cid in range(C.shape[0])
    )
    return f"""
        WITH v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
        cents(cid, c) AS (VALUES {rows}),
        a AS (SELECT v.vec_id, c.cid, list_distance(v.e, c.c) AS d
              FROM v CROSS JOIN cents c),
        best AS (
            SELECT vec_id, cid FROM (
                SELECT *, ROW_NUMBER() OVER (PARTITION BY vec_id ORDER BY d, cid) AS rn
                FROM a
            ) WHERE rn = 1
        ),
        dup AS (
            SELECT b2.vec_id AS vid, MIN(b1.vec_id) AS dup_of
            FROM best b1
            JOIN best b2 ON b1.cid = b2.cid AND b1.vec_id < b2.vec_id
            JOIN v v1 ON v1.vec_id = b1.vec_id
            JOIN v v2 ON v2.vec_id = b2.vec_id
            WHERE list_cosine_similarity(v1.e, v2.e) > {threshold}
            GROUP BY b2.vec_id
        )
        SELECT b.vec_id AS vec_id,
               CAST(b.cid AS BIGINT) AS cluster,
               CAST(d.dup_of IS NOT NULL AS BIGINT) AS is_dup,
               COALESCE(d.dup_of, -1) AS dup_of
        FROM best b LEFT JOIN dup d ON d.vid = b.vec_id
        ORDER BY vec_id
    """


def _minhash_prefix_cte(n_perm: int, n_bands: int, k: int) -> str:
    """Shared CTE block for every MinHash oracle: shingles, md5 32-bit
    shingle hashes, the SAME permutation coefficients the pipeline's
    MinHasher draws (inlined as VALUES rows), per-band signature keys
    and the empty-shingle doc set. Returns the WITH-body text from
    ``w`` through ``empty_docs``."""
    from document_parser_private_ray.functions.sketches import MinHasher

    h = MinHasher(n_perm=n_perm)
    rows_per_band = n_perm // n_bands
    perm_rows = ", ".join(
        f"({p}, {int(h.a[p])}::UBIGINT, {int(h.b[p])}::UBIGINT)" for p in range(n_perm)
    )
    return rf"""w AS (
          SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS words
          FROM documents
        ), sh AS (
          SELECT doc_id, CASE
              WHEN len(words) = 0 THEN []::VARCHAR[]
              WHEN len(words) < {k} THEN [array_to_string(words, ' ')]
              ELSE list_distinct(list_transform(generate_series(1, len(words) - {k - 1}),
                   i -> {" || ' ' || ".join(f"words[i+{j}]" for j in range(k)).replace("words[i+0]", "words[i]")}))
            END AS sset
          FROM w
        ),
        e AS (SELECT doc_id, unnest(sset) AS g FROM sh),
        x AS (SELECT doc_id, ('0x' || substr(md5(g), 9, 8))::UBIGINT AS x32 FROM e),
        perms(p, a, b) AS (VALUES {perm_rows}),
        sig AS (
          SELECT x.doc_id, pm.p,
                 MIN((pm.a * x.x32 + pm.b) % 4294967311::UBIGINT) AS s
          FROM x, perms pm GROUP BY 1, 2
        ),
        bands AS (
          SELECT doc_id, p // {rows_per_band} AS band,
                 STRING_AGG(s::VARCHAR, ',' ORDER BY p) AS key
          FROM sig GROUP BY 1, 2
        ),
        empty_docs AS (SELECT doc_id FROM sh WHERE len(sset) = 0)"""


def _minhash_oracle_sql(
    threshold: float = 0.8, n_perm: int = 128, n_bands: int = 16, k: int = 3,
    final: str = "counts",
) -> str:
    """dedup_minhash oracle: the SAME permutation coefficients the
    pipeline's MinHasher draws, inlined as VALUES rows (the LSH-planes
    trick). Shingle hashes are md5-based (sketches._stable_hash64), so
    DuckDB recomputes the 32-bit shingle universe, every signature slot
    (min over (a*x+b) mod 4294967311), the per-band signature tuples, the
    candidate pairs (band-tuple equality == the pipeline's band-key
    equality), the exact-Jaccard verify, and the survivor drop count
    via recursive min-label reachability — all from the raw table.
    Empty-shingle docs (all-max signatures in the pipeline) collide in
    every band, so they pair all-to-all; handled as an explicit cross
    join here since they never share a band tuple with non-empty docs
    (non-empty slots are < 2^32, empty slots are 2^64-1)."""
    return rf"""
        WITH RECURSIVE {_minhash_prefix_cte(n_perm, n_bands, k)},
        cand AS (
          SELECT DISTINCT a.doc_id AS doc_a, b.doc_id AS doc_b
          FROM bands a JOIN bands b
            ON a.band = b.band AND a.key = b.key AND a.doc_id < b.doc_id
          UNION
          SELECT a.doc_id, b.doc_id
          FROM empty_docs a JOIN empty_docs b ON a.doc_id < b.doc_id
        ),
        sizes AS (SELECT doc_id, len(sset) AS n FROM sh),
        inter AS (
          SELECT c.doc_a, c.doc_b, COUNT(*) AS i
          FROM cand c
          JOIN e ea ON ea.doc_id = c.doc_a
          JOIN e eb ON eb.doc_id = c.doc_b AND ea.g = eb.g
          GROUP BY 1, 2
        ),
        verified AS (
          SELECT c.doc_a, c.doc_b
          FROM cand c
          LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
          JOIN sizes sa ON sa.doc_id = c.doc_a
          JOIN sizes sb ON sb.doc_id = c.doc_b
          WHERE CASE WHEN sa.n = 0 AND sb.n = 0 THEN 1.0
                     WHEN sa.n = 0 OR sb.n = 0 THEN 0.0
                     ELSE COALESCE(i.i, 0)::DOUBLE / (sa.n + sb.n - COALESCE(i.i, 0))
                END >= {threshold}
        ),
        edges AS (
          SELECT doc_a AS a, doc_b AS b FROM verified
          UNION ALL SELECT doc_b, doc_a FROM verified
        ),
        nodes AS (SELECT DISTINCT a AS node FROM edges),
        r(node, x) AS (
          SELECT node, node FROM nodes
          UNION
          SELECT r.node, e2.b FROM r JOIN edges e2 ON e2.a = r.x
        ),
        labels AS (SELECT node, MIN(x) AS label FROM r GROUP BY node)
        {{final_select}}
    """.replace(
        "{final_select}",
        """SELECT
          (SELECT COUNT(*) FROM cand) AS n_candidate_pairs,
          (SELECT COUNT(*) FROM verified) AS n_verified_pairs,
          (SELECT COUNT(*) FROM labels WHERE label <> node) AS n_dropped"""
        if final == "counts"
        else """, lens AS (
          SELECT l.label, l.node, strlen(d.text) AS n_bytes
          FROM labels l JOIN documents d ON d.doc_id = l.node
        ),
        ranked AS (
          SELECT label, node, n_bytes,
                 ROW_NUMBER() OVER (
                     PARTITION BY label ORDER BY n_bytes DESC, node) AS rn,
                 COUNT(*) OVER (PARTITION BY label) AS n_members
          FROM lens
        )
        SELECT CAST(label AS BIGINT) AS cluster,
               CAST(node AS BIGINT) AS keep_doc_id,
               CAST(n_bytes AS BIGINT) AS keep_bytes,
               CAST(n_members AS BIGINT) AS n_members
        FROM ranked WHERE rn = 1 ORDER BY cluster""",
    )


def _minhash_state_oracle_sql(
    threshold: float = 0.8, n_perm: int = 128, n_bands: int = 16, k: int = 3
) -> str:
    """minhash_against_state oracle: the shared MinHash CTE prefix,
    candidates restricted to cross-side (incoming odd x state even)
    band-key collisions (plus the empty-shingle cross pairs), exact
    Jaccard verify, then one row per incoming doc with the min verified
    state match."""
    return rf"""
        WITH {_minhash_prefix_cte(n_perm, n_bands, k)},
        cand AS (
          SELECT DISTINCT a.doc_id AS inc_id, b.doc_id AS st_id
          FROM bands a JOIN bands b
            ON a.band = b.band AND a.key = b.key
          WHERE a.doc_id % 2 = 1 AND b.doc_id % 2 = 0
          UNION
          SELECT a.doc_id, b.doc_id
          FROM empty_docs a JOIN empty_docs b
            ON a.doc_id % 2 = 1 AND b.doc_id % 2 = 0
        ),
        sizes AS (SELECT doc_id, len(sset) AS n FROM sh),
        inter AS (
          SELECT c.inc_id, c.st_id, COUNT(*) AS i
          FROM cand c
          JOIN e ea ON ea.doc_id = c.inc_id
          JOIN e eb ON eb.doc_id = c.st_id AND ea.g = eb.g
          GROUP BY 1, 2
        ),
        verified AS (
          SELECT c.inc_id, c.st_id
          FROM cand c
          LEFT JOIN inter i ON i.inc_id = c.inc_id AND i.st_id = c.st_id
          JOIN sizes sa ON sa.doc_id = c.inc_id
          JOIN sizes sb ON sb.doc_id = c.st_id
          WHERE CASE WHEN sa.n = 0 AND sb.n = 0 THEN 1.0
                     WHEN sa.n = 0 OR sb.n = 0 THEN 0.0
                     ELSE COALESCE(i.i, 0)::DOUBLE / (sa.n + sb.n - COALESCE(i.i, 0))
                END >= {threshold}
        ),
        agg AS (
          SELECT inc_id, CAST(COUNT(*) AS BIGINT) AS n_matches,
                 CAST(MIN(st_id) AS BIGINT) AS match_doc_id
          FROM verified GROUP BY inc_id
        )
        SELECT d.doc_id AS doc_id,
               CASE WHEN a.inc_id IS NULL THEN 'new'
                    ELSE 'neardup_state' END AS status,
               COALESCE(a.match_doc_id, -1) AS match_doc_id,
               COALESCE(a.n_matches, 0) AS n_matches
        FROM documents d LEFT JOIN agg a ON a.inc_id = d.doc_id
        WHERE d.doc_id % 2 = 1
        ORDER BY doc_id
    """


def _curate_oracle_sql(url_keep: bool = False) -> str:
    """Oracle for the composed curation chain: quality filter ->
    stopword-argmax language filter (same CASE as doc_language) ->
    exact dedup (min doc_id per text) -> md5 split -> counts. With
    ``url_keep`` the canonical-URL dedup condition is added (web_curate:
    the doc_id % 7 == 3 pages declare their predecessor's URL as
    canonical, so only URL keepers survive)."""
    from document_parser_private_ray.functions.textstats import _LANG_STOPWORDS

    langs = list(_LANG_STOPWORDS)
    hits = ", ".join(
        f"len(list_filter(words, w -> w IN ({_sql_word_list(_LANG_STOPWORDS[lang])}))) AS h_{lang}"
        for lang in langs
    )
    greatest = ", ".join(f"h_{lang}" for lang in langs)
    case = (
        "CASE WHEN m = 0 THEN 'und' "
        + " ".join(f"WHEN h_{lang} = m THEN '{lang}'" for lang in langs)
        + " END"
    )
    return f"""
        WITH base AS (
          SELECT doc_id, text,
                 CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                      ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\s+'))
                 END AS n_words,
                 LENGTH(regexp_replace(text, '[^0-9]', '', 'g')) * 1.0
                   / GREATEST(LENGTH(text), 1) AS digit_ratio
          FROM documents
        ),
        q AS (SELECT doc_id, text FROM base WHERE n_words >= 5 AND digit_ratio <= 0.3),
        w AS (SELECT doc_id, text,
                     list_transform(regexp_extract_all(text, '[a-zA-Z'']+'), x -> lower(x)) AS words
              FROM q),
        h AS (SELECT doc_id, text, {hits} FROM w),
        m AS (SELECT *, GREATEST({greatest}) AS m FROM h),
        l AS (SELECT doc_id, text FROM m WHERE ({case}) IN ('en')),
        d AS (SELECT MIN(doc_id) AS doc_id FROM l GROUP BY text),
        k AS (SELECT doc_id FROM d{" WHERE doc_id % 7 <> 3" if url_keep else ""}),
        s AS (SELECT CASE WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 < 8 THEN 'train'
                          WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 = 8 THEN 'val'
                          ELSE 'test' END AS split
              FROM k)
        SELECT split, COUNT(*) AS n_docs FROM s GROUP BY split ORDER BY split
    """


def _ann_lsh_oracle_sql(k: int = 5, n_queries: int = 8, n_bits: int = 6, dim: int = 64) -> str:
    from document_parser_private_ray.pipelines.similarity import SignLSH

    pv = _sql_plane_rows(SignLSH(dim, n_bits).planes)
    return f"""
        WITH v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
        planes(bit, p) AS (VALUES {pv}),
        b AS (
          SELECT v.vec_id,
                 CAST(SUM(CASE WHEN list_dot_product(v.e, pl.p) > 0
                               THEN (1 << pl.bit) ELSE 0 END) AS BIGINT) AS bucket
          FROM v, planes pl GROUP BY 1
        ),
        q AS (
          SELECT v.vec_id AS query_id, v.e AS qe, b.bucket AS qb
          FROM v JOIN b ON b.vec_id = v.vec_id ORDER BY v.vec_id LIMIT {n_queries}
        ),
        cand AS (
          SELECT q.query_id, v.vec_id, list_cosine_similarity(q.qe, v.e) AS sim
          FROM q JOIN b ON b.bucket = q.qb JOIN v ON v.vec_id = b.vec_id
        ),
        ranked AS (
          SELECT query_id, vec_id,
                 ROW_NUMBER() OVER (PARTITION BY query_id ORDER BY sim DESC, vec_id) AS rank
          FROM cand
        )
        SELECT query_id, vec_id, CAST(rank AS BIGINT) AS rank
        FROM ranked WHERE rank <= {k} ORDER BY query_id, rank
    """


def _neardup_lsh_oracle_sql(
    threshold: float = 0.45, n_bits: int = 4, n_tables: int = 8, dim: int = 64
) -> str:
    from document_parser_private_ray.pipelines.similarity import SignLSH

    pv = ", ".join(
        _sql_plane_rows(SignLSH(dim, n_bits, seed=100 + t).planes, with_table=t)
        for t in range(n_tables)
    )
    return f"""
        WITH v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
        planes(t, bit, p) AS (VALUES {pv}),
        b AS (
          SELECT v.vec_id, pl.t,
                 CAST(SUM(CASE WHEN list_dot_product(v.e, pl.p) > 0
                               THEN (1 << pl.bit) ELSE 0 END) AS BIGINT) AS bucket
          FROM v, planes pl GROUP BY 1, 2
        ),
        p AS (
          SELECT ba.t, ba.vec_id AS id_a, bb.vec_id AS id_b
          FROM b ba JOIN b bb ON ba.t = bb.t AND ba.bucket = bb.bucket AND ba.vec_id < bb.vec_id
          JOIN v va ON va.vec_id = ba.vec_id JOIN v vb ON vb.vec_id = bb.vec_id
          WHERE list_cosine_similarity(va.e, vb.e) > {threshold}
        )
        SELECT id_a, id_b, COUNT(*) AS n_collisions FROM p GROUP BY 1, 2 ORDER BY 1, 2
    """


def _perplexity_oracle_sql(threshold_micro: int | None = None) -> str:
    """Char-bigram LM oracle: the 729-entry NLL lookup table is
    recomputed by the module's DRIVER-SIDE trainer (pinned equal to the
    distributed trainer by pytest) and inlined as integer literals; the
    SQL re-derives every document's transition codes from the same
    normalization and sums the inlined micro-nat terms — order-free
    int64 sums on both sides, so nll and keep replay bit-for-bit."""
    from document_parser_private_ray.pipelines.lm import (
        DEFAULT_THRESHOLD_MICRO,
        bigram_nll_lut_micro,
        train_char_bigram_counts_local,
    )

    if threshold_micro is None:
        threshold_micro = DEFAULT_THRESHOLD_MICRO
    lut = bigram_nll_lut_micro(train_char_bigram_counts_local(_verify_sf()))
    vals = ", ".join(f"({i}, {int(v)})" for i, v in enumerate(lut))
    return f"""
        WITH d AS (
            SELECT doc_id,
                   trim(regexp_replace(lower(text), '[^a-z]+', ' ', 'g'), ' ') AS s
            FROM documents
        ), t AS (
            SELECT doc_id, s, UNNEST(range(len(s) - 1)) AS i
            FROM d WHERE len(s) >= 2
        ), codes AS (
            SELECT doc_id,
                   (CASE WHEN s[i+1] = ' ' THEN 0 ELSE ascii(s[i+1]) - 96 END) * 27
                   + (CASE WHEN s[i+2] = ' ' THEN 0 ELSE ascii(s[i+2]) - 96 END) AS code
            FROM t
        ), agg AS (
            SELECT doc_id, CAST(COUNT(*) AS BIGINT) AS n_trans,
                   CAST(SUM(l.nll) AS BIGINT) AS nll
            FROM codes JOIN (VALUES {vals}) AS l(code, nll)
                 ON codes.code = l.code
            GROUP BY doc_id
        )
        SELECT d2.doc_id AS doc_id,
               COALESCE(a.n_trans, 0) AS n_trans,
               COALESCE(a.nll, 0) AS nll_micro,
               CAST(CASE WHEN COALESCE(a.n_trans, 0) = 0 THEN 1
                         WHEN a.nll <= {threshold_micro} * a.n_trans THEN 1
                         ELSE 0 END AS BIGINT) AS keep
        FROM documents d2 LEFT JOIN agg a ON d2.doc_id = a.doc_id
        ORDER BY doc_id
    """


def _pca_oracle_sql(n_components: int = 4, train_sample: int = 512) -> str:
    """PCA oracle: the SAME integer-micro mean/component constants the
    pipeline trains are inlined as list literals; the SQL re-quantizes
    each embedding (floor(x * 1e6) on the float64 promotion of the
    stored float32 — identical on both engines) and replays the int64
    dot products term-for-term."""
    from document_parser_private_ray.pipelines.similarity import train_pca_components

    mean_q, comps_q = train_pca_components(_verify_sf(), n_components, train_sample)
    dim = int(mean_q.size)
    mean_lit = "[" + ", ".join(str(int(v)) for v in mean_q) + "]"
    comp_cols = ", ".join(
        "[" + ", ".join(str(int(v)) for v in comps_q[k]) + f"] AS c{k + 1}"
        for k in range(n_components)
    )
    pc_sums = ",\n               ".join(
        f"CAST(SUM((q[i+1] - consts.m[i+1]) * consts.c{k + 1}[i+1]) AS BIGINT)"
        f" AS pc{k + 1}"
        for k in range(n_components)
    )
    return f"""
        WITH consts AS (
            SELECT {mean_lit} AS m, {comp_cols}
        ), e AS (
            SELECT vec_id,
                   list_transform(
                       embedding,
                       x -> CAST(floor(CAST(x AS DOUBLE) * 1000000) AS BIGINT)
                   ) AS q
            FROM embeddings
        ), t AS (
            SELECT vec_id, q, UNNEST(range({dim})) AS i FROM e
        )
        SELECT vec_id,
               {pc_sums}
        FROM t CROSS JOIN consts
        GROUP BY vec_id
        ORDER BY vec_id
    """


def _kmeans_oracle_sql(n_centroids: int = 16, train_sample: int = 512) -> str:
    """Cluster-profile oracle: the SAME float64 centroid matrix the
    pipeline trains, inlined as literals; assignment recomputed in SQL
    (list_distance argmin, lowest-cid tie-break — the ann_ivf trick)."""
    from document_parser_private_ray.pipelines.similarity import train_ivf_centroids

    C = train_ivf_centroids(_verify_sf(), n_centroids, train_sample)
    rows = ", ".join(
        f"({cid}, [{', '.join(repr(float(x)) for x in C[cid])}]::DOUBLE[])"
        for cid in range(C.shape[0])
    )
    return f"""
        WITH v AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS e FROM embeddings),
        cents(cid, c) AS (VALUES {rows}),
        a AS (SELECT v.vec_id, c.cid, list_distance(v.e, c.c) AS d
              FROM v CROSS JOIN cents c),
        best AS (
            SELECT vec_id, cid FROM (
                SELECT *, ROW_NUMBER() OVER (
                    PARTITION BY vec_id ORDER BY d, cid) AS rn
                FROM a) WHERE rn = 1)
        SELECT CAST(cid AS BIGINT) AS cid,
               CAST(COUNT(*) AS BIGINT) AS n_vecs,
               CAST(MIN(vec_id) AS BIGINT) AS min_vec_id
        FROM best GROUP BY cid ORDER BY cid
    """


def _largest_docs_oracle(corpus: str) -> str:
    """Oracle for the skew diagnostic: recompute est_cost (total span-text
    BYTES per document — strlen(), matching pc.binary_length) directly
    from the synthetic corpus parquet the Ray query reads. The driver
    verifies at sf0.01; the path is derived the same way _corpus_for
    does, so both engines see the identical input."""
    return f"""
        SELECT doc_id,
               CAST(SUM(strlen(s.text)) AS BIGINT) AS est_cost
        FROM (
            SELECT doc_id, UNNEST(spans) AS s
            FROM read_parquet('{corpus}/*.parquet')
        )
        GROUP BY doc_id
        ORDER BY est_cost DESC, doc_id
        LIMIT 20
    """


def _pii_oracle_sql(corpus: str) -> str:
    """doc_pii oracle: DuckDB recomputes the PII engine end-to-end —
    raw text rebuilt from the spans corpus (newline-join of
    text/heading spans), per-rule match POSITIONS recovered by aligning
    ``string_split_regex`` with ``regexp_extract_all`` (both share
    finditer's non-overlapping leftmost scan; start_i = len of segs
    1..i plus matches 1..i-1), and the engine's greedy overlap
    resolution (sort by (start, -len, rule order), accept iff start >=
    last accepted end) replayed as a recursive walk per document.
    Patterns carry (?ism) — the presidio-mirrored IGNORECASE | DOTALL |
    MULTILINE compile flags (functions/pii.py)."""
    return rf"""
        WITH RECURSIVE ex AS (
          SELECT doc_id, UNNEST(spans) AS s, UNNEST(generate_series(1, len(spans))) AS idx
          FROM read_parquet('{corpus}/*.parquet')
        ),
        docs AS (
          SELECT p.doc_id, COALESCE(t.text, '') AS text
          FROM (SELECT DISTINCT doc_id FROM read_parquet('{corpus}/*.parquet')) p
          LEFT JOIN (
            SELECT doc_id, string_agg(s.text, chr(10) ORDER BY idx) AS text
            FROM ex WHERE s.kind IN ('text', 'heading') GROUP BY doc_id
          ) t USING (doc_id)
        ),
        rules(rule_idx, typ, pat) AS (VALUES
          (0, 'EMAIL',   '(?ism)\b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{{2,}}\b'),
          (1, 'PHONE',   '(?ism)\b(?:\+\d{{1,2}}\s?)?(?:\(\d{{3}}\)|\d{{3}})[-.\s]?\d{{3}}[-.\s]?\d{{4}}\b'),
          (2, 'SSN',     '(?ism)\b\d{{3}}[-]?\d{{2}}[-]?\d{{4}}\b'),
          (3, 'ADDRESS', '(?ism)\b\d{{1,5}}\s[\w\s]{{1,20}}(?:street|st|avenue|ave|road|rd|lane|ln|drive|dr|boulevard|blvd)\b')
        ),
        m AS (
          SELECT d.doc_id, r.rule_idx, r.typ,
                 regexp_extract_all(d.text, r.pat) AS ms,
                 string_split_regex(d.text, r.pat) AS segs
          FROM docs d CROSS JOIN rules r
        ),
        cand0 AS (
          SELECT doc_id, rule_idx, typ,
                 length(ms[i]) AS mlen,
                 (COALESCE(list_sum(list_transform(segs[1:i], x -> length(x))), 0)
                  + COALESCE(list_sum(list_transform(ms[1:i-1], x -> length(x))), 0))::BIGINT AS s
          FROM m, UNNEST(generate_series(1, len(ms))) AS u(i)
        ),
        cand AS (
          SELECT doc_id, typ, s, s + mlen AS e,
                 row_number() OVER (PARTITION BY doc_id ORDER BY s, mlen DESC, rule_idx) AS rn
          FROM cand0
        ),
        walk(doc_id, rn, last_end, typ, acc) AS (
          SELECT doc_id, 0::BIGINT, -1::BIGINT, NULL::VARCHAR, FALSE
          FROM (SELECT DISTINCT doc_id FROM cand)
          UNION ALL
          SELECT c.doc_id, c.rn,
                 CASE WHEN c.s >= w.last_end THEN c.e ELSE w.last_end END,
                 c.typ, c.s >= w.last_end
          FROM walk w JOIN cand c ON c.doc_id = w.doc_id AND c.rn = w.rn + 1
        ),
        counts AS (
          SELECT doc_id,
                 COUNT(*) FILTER (acc AND typ = 'EMAIL')   AS n_email,
                 COUNT(*) FILTER (acc AND typ = 'PHONE')   AS n_phone,
                 COUNT(*) FILTER (acc AND typ = 'SSN')     AS n_ssn,
                 COUNT(*) FILTER (acc AND typ = 'ADDRESS') AS n_address,
                 COUNT(*) FILTER (acc)                     AS n_pii
          FROM walk GROUP BY doc_id
        )
        SELECT d.doc_id,
               COALESCE(n_email, 0) AS n_email, COALESCE(n_phone, 0) AS n_phone,
               COALESCE(n_ssn, 0) AS n_ssn, COALESCE(n_address, 0) AS n_address,
               COALESCE(n_pii, 0) AS n_pii
        FROM docs d LEFT JOIN counts USING (doc_id)
        ORDER BY d.doc_id
    """


def _layout_flat_for(n_docs: int = 500, seed: int = SEED) -> str:
    """Flat (span/image row) export of the synthetic layout corpus the
    layout_blocks query analyzes — cached like _corpus_for so the SQL
    oracle reads the identical deterministic input."""
    path = os.path.join("/tmp/dppr_layout", f"n{n_docs}-s{seed}")
    marker = os.path.join(path, "_COMPLETE")
    if not os.path.exists(marker):
        from document_parser_private_ray.pipelines.layout import write_layout_flat

        write_layout_flat(path, n_docs, seed)
        with open(marker, "w") as f:
            f.write("ok")
    return path


def _layout_oracle_sql(flat: str) -> str:
    """layout_blocks oracle: M2/M3 recomputed in SQL from the flat
    layout export — per-block font histograms (char counts over
    stripped span text), block dominant variant (argmax by count, ties
    to dict-insertion order = MIN(ord)), count-weighted average size
    over the dominant font's variants, the heading heuristic
    (size >= 12 | CMBX prefix | any ALL-CAPS word), and the
    document-level dominant font key over the aggregated histogram
    (functions/layout.py semantics)."""
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)"
    return rf"""
        WITH t AS (SELECT * FROM read_parquet('{flat}/*.parquet')),
        spans AS (
          SELECT *, TRIM(text, {ws}) AS st FROM t WHERE btype = 0
        ),
        counted AS (SELECT * FROM spans WHERE st <> ''),
        bf AS (
          SELECT doc_id, page, block_idx, font, size,
                 font || '_' || CAST(size AS VARCHAR) AS fkey,
                 SUM(length(st)) AS cnt, MIN(ord) AS first_ord
          FROM counted GROUP BY 1,2,3,4,5
        ),
        bdom AS (
          SELECT doc_id, page, block_idx, font AS dom_name
          FROM (
            SELECT *, row_number() OVER (
              PARTITION BY doc_id, page, block_idx ORDER BY cnt DESC, first_ord) AS rk
            FROM bf
          ) WHERE rk = 1
        ),
        bavg AS (
          SELECT b.doc_id, b.page, b.block_idx, d.dom_name,
                 SUM(b.size * b.cnt)::DOUBLE / SUM(b.cnt) AS dom_size
          FROM bf b JOIN bdom d
            ON d.doc_id = b.doc_id AND d.page = b.page AND d.block_idx = b.block_idx
           AND b.font = d.dom_name
          GROUP BY 1,2,3,4
        ),
        bup AS (
          SELECT doc_id, page, block_idx,
                 BOOL_OR(regexp_matches(w, '[A-Z]') AND NOT regexp_matches(w, '[a-z]')) AS has_upper
          FROM (
            SELECT doc_id, page, block_idx, UNNEST(string_split_regex(st, '\s+')) AS w
            FROM counted
          ) WHERE w <> '' GROUP BY 1,2,3
        ),
        nonempty AS (SELECT DISTINCT doc_id, page, block_idx FROM counted),
        headings AS (
          SELECT n.doc_id, COUNT(*) AS n_headings
          FROM nonempty n
          JOIN bavg a ON a.doc_id = n.doc_id AND a.page = n.page AND a.block_idx = n.block_idx
          LEFT JOIN bup u ON u.doc_id = n.doc_id AND u.page = n.page AND u.block_idx = n.block_idx
          WHERE a.dom_size >= 12 OR a.dom_name LIKE 'CMBX%' OR COALESCE(u.has_upper, FALSE)
          GROUP BY 1
        ),
        docfonts AS (
          SELECT doc_id, fkey, SUM(cnt) AS cnt, MIN(first_ord) AS first_ord
          FROM bf GROUP BY 1, 2
        ),
        docdom AS (
          SELECT doc_id, fkey AS dominant_font
          FROM (
            SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY cnt DESC, first_ord) AS rk
            FROM docfonts
          ) WHERE rk = 1
        ),
        base AS (
          SELECT doc_id,
                 CAST(COUNT(DISTINCT page) AS INT) AS n_pages,
                 CAST(COUNT(DISTINCT CASE WHEN btype = 0 THEN page * 1000 + block_idx END) AS INT) AS n_blocks,
                 CAST(COUNT(CASE WHEN btype = 1 THEN 1 END) AS INT) AS n_images
          FROM t GROUP BY 1
        )
        SELECT b.doc_id, b.n_pages, b.n_blocks,
               CAST(COALESCE(h.n_headings, 0) AS INT) AS n_headings,
               b.n_images,
               CAST(COALESCE((SELECT COUNT(*) FROM docfonts f WHERE f.doc_id = b.doc_id), 0) AS INT) AS n_font_variants,
               COALESCE(d.dominant_font, '') AS dominant_font,
               CAST(COALESCE((SELECT COUNT(*) FROM nonempty n WHERE n.doc_id = b.doc_id), 0) + b.n_images AS INT) AS n_spans
        FROM base b
        LEFT JOIN headings h USING (doc_id)
        LEFT JOIN docdom d USING (doc_id)
        ORDER BY b.doc_id
    """


def _sections_oracle_sql(corpus: str) -> str:
    """detect_sections oracle: the M4 line-state machine replayed in
    SQL. Raw text reconstructs from the spans corpus; each stripped
    non-empty line classifies exactly as SectionDetector._classify
    (first section bank in vocabulary order whose (?i) alternation
    matches; colon-strip/ALL-CAPS retry; date-hint fallback). The
    stateful fold is window-expressible: segments between heading
    lines share the heading's section (``base``); a segment whose base
    is not experience/education flips to experience from its first
    non-heading date line (``dmin``) onward — exactly the engine's
    "date line sets current=experience unless already in
    experience/education" rule, which is sticky because experience is
    in that set. Patterns come from the same SECTION_PATTERNS config
    the detector compiles."""
    from document_parser_private_ray.config import SECTION_PATTERNS

    def bank_sql(pats):
        return "(?i)" + "|".join(f"(?:{p})" for p in pats)

    names = list(SECTION_PATTERNS)
    case_raw = " ".join(
        f"WHEN regexp_matches(l, '{bank_sql(SECTION_PATTERNS[n])}') THEN '{n}'"
        for n in names
    )
    case_clean = " ".join(
        f"WHEN regexp_matches(rtrim(l, ':'), '{bank_sql(SECTION_PATTERNS[n])}') THEN '{n}'"
        for n in names
    )
    date_pat = (
        r"(?i)(?:\b(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{4}\s*[-–]\s*"
        r"(?:(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{4}|Present|Current)\b)"
        r"|(?:\b\d{4}\s*[-–]\s*(?:\d{4}|Present|Current)\b)"
        r"|(?:\b(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{4}\b)"
    )
    rank_case = " ".join(
        f"WHEN name = '{n}' THEN {i}" for i, n in enumerate(names + ["content"])
    )
    ws = "' ' || chr(9) || chr(10) || chr(13) || chr(12) || chr(11)"
    return rf"""
        WITH ex AS (
          SELECT doc_id, UNNEST(spans) AS s, UNNEST(generate_series(1, len(spans))) AS idx
          FROM read_parquet('{corpus}/*.parquet')
        ),
        docs AS (
          SELECT p.doc_id, COALESCE(t.text, '') AS text
          FROM (SELECT DISTINCT doc_id FROM read_parquet('{corpus}/*.parquet')) p
          LEFT JOIN (
            SELECT doc_id, string_agg(s.text, chr(10) ORDER BY idx) AS text
            FROM ex WHERE s.kind IN ('text', 'heading') GROUP BY doc_id
          ) t USING (doc_id)
        ),
        parts AS (SELECT doc_id, string_split(text, chr(10)) AS ps FROM docs),
        lines0 AS (
          SELECT doc_id, TRIM(ps[i], {ws}) AS l, i
          FROM parts, UNNEST(generate_series(1, len(ps))) AS u(i)
        ),
        lines AS (
          SELECT doc_id, l, row_number() OVER (PARTITION BY doc_id ORDER BY i) AS rn
          FROM lines0 WHERE l <> ''
        ),
        cls AS (
          SELECT doc_id, l, rn,
            COALESCE(CASE {case_raw} END,
              CASE WHEN (l LIKE '%:' OR (regexp_matches(l, '[A-Z]') AND NOT regexp_matches(l, '[a-z]')))
                   THEN (CASE {case_clean} END) END) AS hit,
            regexp_matches(l, '{date_pat}') AS is_date
          FROM lines
        ),
        segd AS (SELECT *, COUNT(hit) OVER (PARTITION BY doc_id ORDER BY rn) AS seg FROM cls),
        segs AS (
          SELECT *,
            MAX(hit) OVER (PARTITION BY doc_id, seg) AS base,
            MIN(CASE WHEN is_date AND hit IS NULL THEN rn END)
              OVER (PARTITION BY doc_id, seg) AS dmin
          FROM segd
        ),
        assigned AS (
          SELECT doc_id, rn, l,
            CASE
              WHEN hit IS NOT NULL THEN hit
              WHEN base IN ('experience', 'education') THEN base
              WHEN is_date THEN 'experience'
              WHEN dmin IS NOT NULL AND rn > dmin THEN 'experience'
              ELSE base
            END AS name
          FROM segs
        ),
        secs AS (
          SELECT doc_id, name, string_agg(l, chr(10) ORDER BY rn) || chr(10) AS content
          FROM assigned WHERE name IS NOT NULL
          GROUP BY doc_id, name
        ),
        fallback AS (
          SELECT d.doc_id, 'content' AS name, d.text AS content
          FROM docs d
          WHERE d.doc_id NOT IN (SELECT DISTINCT doc_id FROM secs)
            AND TRIM(d.text, {ws}) <> ''
        ),
        allsecs AS (SELECT * FROM secs UNION ALL SELECT * FROM fallback)
        SELECT doc_id,
               (row_number() OVER (PARTITION BY doc_id ORDER BY CASE {rank_case} END) - 1)::INT AS sec_idx,
               name, content
        FROM allsecs
        ORDER BY doc_id, sec_idx
    """


# The driver runs the oracle comparison at sf0.01; data-dependent
# oracles (corpus paths, trained centroids) derive from the scale under
# verification, overridable so a sweep at any other sf_dir (e.g.
# tools/check_contract.py /root/testdata/sf0.001) stays self-consistent.
def _verify_sf() -> str:
    return os.environ.get("GRAFT_VERIFY_SF", "/root/testdata/sf0.01")


def oracle_sql() -> dict[str, str]:
    return {
        **_data_dependent_oracles(),
        "snapshot_diff": """
            WITH cur AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 11 = 5 THEN md5(text || '~edit')
                            ELSE md5(text) END AS fp
                FROM documents WHERE doc_id % 7 <> 3
                UNION ALL
                SELECT doc_id + 10000000 AS doc_id, md5(text || '~new') AS fp
                FROM documents WHERE doc_id % 13 = 1
            ), snap AS (
                SELECT doc_id, md5(text) AS fp FROM documents
            )
            SELECT COALESCE(c.doc_id, s.doc_id) AS doc_id,
                   CASE WHEN s.doc_id IS NULL THEN 'added'
                        WHEN c.doc_id IS NULL THEN 'removed'
                        ELSE 'changed' END AS status
            FROM cur c FULL OUTER JOIN snap s ON c.doc_id = s.doc_id
            WHERE s.doc_id IS NULL OR c.doc_id IS NULL OR c.fp <> s.fp
            ORDER BY doc_id
        """,
        "q1_pricing_summary": """
            SELECT l_returnflag, l_linestatus,
                   SUM(l_quantity) AS sum_qty,
                   CAST(FLOOR(SUM(l_extendedprice) * 100 + 0.5) AS BIGINT) AS sum_base_price_cents,
                   CAST(FLOOR(SUM(l_extendedprice * (1 - l_discount)) * 100 + 0.5) AS BIGINT) AS sum_disc_price_cents,
                   COUNT(*) AS count_order
            FROM lineitem
            GROUP BY l_returnflag, l_linestatus
            ORDER BY l_returnflag, l_linestatus
        """,
        "revenue_by_nation": """
            SELECT n_name,
                   CAST(FLOOR(SUM(l_extendedprice * (1 - l_discount)) * 100 + 0.5) AS BIGINT) AS revenue_cents
            FROM lineitem
            JOIN supplier ON l_suppkey = s_suppkey
            JOIN nation ON s_nationkey = n_nationkey
            GROUP BY n_name
            ORDER BY revenue_cents DESC
        """,
        "top_customers": """
            SELECT o_custkey,
                   CAST(FLOOR(SUM(o_totalprice) * 100 + 0.5) AS BIGINT) AS total_value_cents,
                   COUNT(*) AS n_orders,
                   MIN(c_name) AS c_name
            FROM orders
            JOIN customer ON o_custkey = c_custkey
            WHERE c_mktsegment = 'BUILDING'
            GROUP BY o_custkey
            ORDER BY total_value_cents DESC
            LIMIT 10
        """,
        "events_hourly": """
            SELECT event_type,
                   date_trunc('hour', ts) AS window_start,
                   COUNT(*) AS n_events,
                   CAST(FLOOR(SUM(value) * 100 + 0.5) AS BIGINT) AS sum_value_cents
            FROM events
            GROUP BY event_type, date_trunc('hour', ts)
            ORDER BY event_type, window_start
        """,
        "events_sessionize": """
            WITH flagged AS (
                SELECT user_id, ts, value,
                       CASE WHEN ts - LAG(ts) OVER (PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events
            ), numbered AS (
                SELECT *, SUM(new_session) OVER (
                    PARTITION BY user_id ORDER BY ts
                    ROWS UNBOUNDED PRECEDING) AS sid
                FROM flagged
            )
            SELECT user_id,
                   MIN(ts) AS session_start,
                   MAX(ts) AS session_end,
                   COUNT(*) AS n_events,
                   CAST(FLOOR(SUM(value) * 100 + 0.5) AS BIGINT) AS sum_value_cents
            FROM numbered
            GROUP BY user_id, sid
        """,
        "asof_purchases_views": """
            WITH p AS (
                SELECT user_id, ts, value FROM events WHERE event_type = 'purchase'
            ), v AS (
                SELECT user_id, ts AS view_ts, value AS vval FROM events
                WHERE event_type = 'view'
            )
            SELECT p.user_id, p.ts, v.view_ts,
                   CAST(FLOOR(p.value * 100 + 0.5) AS BIGINT) AS purchase_value_cents,
                   CAST(FLOOR(v.vval * 100 + 0.5) AS BIGINT) AS view_value_cents
            FROM p ASOF JOIN v
              ON p.user_id = v.user_id AND p.ts >= v.view_ts
        """,
        "order_lineitem_join": """
            SELECT o_orderkey,
                   CAST(FLOOR(SUM(l_extendedprice * (1 - l_discount)) * 100 + 0.5) AS BIGINT)
                       AS revenue_cents,
                   COUNT(*) AS n_lines,
                   MAX(o_orderdate) AS o_orderdate,
                   MAX(o_orderpriority) AS o_orderpriority
            FROM orders JOIN lineitem ON o_orderkey = l_orderkey
            GROUP BY o_orderkey
            ORDER BY SUM(l_extendedprice * (1 - l_discount)) DESC, o_orderkey
            LIMIT 15
        """,
        "curate_corpus": _curate_oracle_sql(),
        "web_curate": _curate_oracle_sql(url_keep=True),
        "winnow_overlap": _winnow_overlap_oracle_sql(),
        "top_words": """
            SELECT word, COUNT(*) AS n FROM (
                SELECT UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                FROM documents
            )
            GROUP BY word
            ORDER BY n DESC, word
            LIMIT 50
        """,
        "doc_length_percentiles": """
            WITH lens AS (SELECT LENGTH(text) AS n_chars FROM documents),
                 t AS (SELECT COUNT(*) AS total FROM lens)
            SELECT p, CAST(v AS BIGINT) AS n_chars FROM (
                SELECT 0.5 AS p, PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY n_chars) AS v FROM lens
                UNION ALL
                SELECT 0.9, PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY n_chars) FROM lens
                UNION ALL
                SELECT 0.99, PERCENTILE_DISC(0.99) WITHIN GROUP (ORDER BY n_chars) FROM lens
            )
            ORDER BY p
        """,
        "events_sliding": """
            SELECT event_type,
                   date_trunc('hour', ts) - to_hours(i) AS window_start,
                   COUNT(*) AS n_events,
                   CAST(FLOOR(SUM(value) * 100 + 0.5) AS BIGINT) AS sum_value_cents
            FROM events CROSS JOIN range(3) t(i)
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start
        """,
        "user_top_events": """
            SELECT user_id, event_id,
                   CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents,
                   rank
            FROM (
                SELECT user_id, event_id, value,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY value DESC, ts, event_id
                       ) AS rank
                FROM events
            )
            WHERE rank <= 3
            ORDER BY user_id, rank
        """,
        "dataset_split": """
            SELECT doc_id,
                   CASE WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 < 8
                            THEN 'train'
                        WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 = 8
                            THEN 'val'
                        ELSE 'test' END AS split
            FROM documents
            ORDER BY doc_id
        """,
        "split_counts": """
            SELECT split, COUNT(*) AS n_docs FROM (
                SELECT CASE WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 < 8
                                THEN 'train'
                            WHEN md5_number_upper(CAST(doc_id AS VARCHAR)) % 10 = 8
                                THEN 'val'
                            ELSE 'test' END AS split
                FROM documents
            ) GROUP BY split ORDER BY split
        """,
        "distinct_segments": """
            SELECT DISTINCT c_mktsegment FROM customer ORDER BY c_mktsegment
        """,
        "dedup_exact": """
            SELECT sha256(text) AS content_hash,
                   MIN(doc_id) AS keep_doc_id,
                   COUNT(*) AS n_copies
            FROM documents
            GROUP BY sha256(text)
            ORDER BY keep_doc_id
        """,
        "dedup_against_state": """
            WITH state AS (
              SELECT sha256(text) AS h FROM documents WHERE doc_id % 2 = 0),
            inc AS (
              SELECT doc_id, sha256(text) AS h FROM documents
              WHERE doc_id % 2 = 1)
            SELECT i.doc_id,
                   CASE WHEN i.h IN (SELECT h FROM state) THEN 'dup_state'
                        WHEN i.doc_id > (SELECT MIN(i2.doc_id) FROM inc i2
                                         WHERE i2.h = i.h) THEN 'dup_incoming'
                        ELSE 'new' END AS status
            FROM inc i ORDER BY i.doc_id
        """,
        "embedding_neardup": """
            SELECT a.vec_id AS id_a, b.vec_id AS id_b
            FROM embeddings a
            JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(
                      CAST(a.embedding AS DOUBLE[]),
                      CAST(b.embedding AS DOUBLE[])) > 0.45
            ORDER BY id_a, id_b
        """,
        "ann_bruteforce": """
            WITH queries AS (
                SELECT vec_id AS query_id, embedding AS qvec
                FROM embeddings ORDER BY vec_id LIMIT 8
            ), scored AS (
                SELECT q.query_id, e.vec_id,
                       list_cosine_similarity(
                           CAST(q.qvec AS DOUBLE[]),
                           CAST(e.embedding AS DOUBLE[])) AS sim
                FROM queries q CROSS JOIN embeddings e
            ), ranked AS (
                SELECT query_id, vec_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY query_id
                           ORDER BY sim DESC, vec_id) AS rank
                FROM scored
            )
            SELECT query_id, vec_id, rank
            FROM ranked WHERE rank <= 5
            ORDER BY query_id, rank
        """,
        "doc_quality": """
            SELECT doc_id,
                   LENGTH(text) AS n_chars,
                   CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                        ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\\s+'))
                   END AS n_words,
                   LENGTH(regexp_replace(text, '[^A-Z]', '', 'g'))
                       / GREATEST(LENGTH(text), 1)::DOUBLE AS upper_ratio,
                   LENGTH(regexp_replace(text, '[^0-9]', '', 'g'))
                       / GREATEST(LENGTH(text), 1)::DOUBLE AS digit_ratio
            FROM documents
            ORDER BY doc_id
        """,
        "doc_quality_extended": """
            SELECT doc_id,
                   LENGTH(regexp_replace(text, '[a-zA-Z0-9 ]', '', 'g'))
                       / GREATEST(LENGTH(text), 1)::DOUBLE AS punct_ratio,
                   LENGTH(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS alpha_chars,
                   LENGTH(regexp_replace(text, '[^ ]', '', 'g')) AS space_chars
            FROM documents
            ORDER BY doc_id
        """,
        "doc_tokens": """
            SELECT doc_id,
                   CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                        ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\\s+'))
                   END AS ws_tokens
            FROM documents
            ORDER BY doc_id
        """,
        "doc_fingerprints": """
            SELECT doc_id, md5(text) AS md5
            FROM documents
            ORDER BY doc_id
        """,
        "dedup_simhash": r"""
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '')) AS word
              FROM documents
            ), h AS (
              -- the kernel's word hash IS the first 8 bytes of md5
              SELECT doc_id, ('0x' || substr(md5(word), 1, 16))::UBIGINT AS hw FROM w
            ), bits AS (
              SELECT doc_id, p, SUM(CASE WHEN ((hw >> p) & 1) = 1 THEN 1 ELSE -1 END) AS s
              FROM h, (SELECT unnest(generate_series(0, 63)) AS p) pp
              GROUP BY doc_id, p
            ), pr AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                     CAST(SUM(CASE WHEN (a.s > 0) <> (b.s > 0) THEN 1 ELSE 0 END) AS BIGINT) AS hamming
              FROM bits a JOIN bits b ON a.p = b.p AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            -- hamming<=3 over 4x16-bit bands: pigeonhole guarantees at
            -- least one shared band, so banding loses no pair vs this
            -- all-pairs oracle
            SELECT doc_a, doc_b, hamming FROM pr WHERE hamming <= 3
            ORDER BY doc_a, doc_b
        """,
        "ngram_jaccard": r"""
            WITH w AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS words
              FROM documents
            ), sh AS (
              SELECT doc_id, CASE
                  WHEN len(words) = 0 THEN []::VARCHAR[]
                  WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
                  ELSE list_distinct(list_transform(generate_series(1, len(words) - 2),
                       i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                END AS sset
              FROM w
            ), e AS (SELECT doc_id, unnest(sset) AS s FROM sh),
            sizes AS (SELECT doc_id, len(sset) AS n FROM sh),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
              FROM e a JOIN e b ON a.s = b.s AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            ),
            -- empty-shingle docs (no whitespace tokens): jaccard 1.0 by
            -- definition, emitted as the STAR over the min empty id
            -- (matching the pipeline's O(n) empty-group encoding)
            empty AS (
              SELECT doc_id FROM documents
              WHERE LENGTH(TRIM(COALESCE(text, ''), ' \t\n\r\f\v')) = 0
            ),
            eroot AS (SELECT MIN(doc_id) AS r FROM empty)
            SELECT doc_a, doc_b, jaccard_micro FROM (
              SELECT doc_a, doc_b,
                     CAST(FLOOR(i::DOUBLE / (sa.n + sb.n - i) * 1000000 + 0.5) AS BIGINT) AS jaccard_micro
              FROM inter
              JOIN sizes sa ON doc_a = sa.doc_id
              JOIN sizes sb ON doc_b = sb.doc_id
              WHERE i::DOUBLE / (sa.n + sb.n - i) >= 0.5
              UNION ALL
              SELECT er.r AS doc_a, e.doc_id AS doc_b, 1000000 AS jaccard_micro
              FROM empty e, eroot er WHERE e.doc_id <> er.r
            )
            ORDER BY doc_a, doc_b
        """,
        "doc_tokens_bpe": r"""
            SELECT doc_id,
                   CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                        ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\s+'))
                   END AS ws_tokens,
                   len(regexp_extract_all(text,
                       '''s|''t|''re|''ve|''m|''ll|''d| ?[A-Za-z]+| ?\d+| ?[^\sA-Za-z\d]+|\s+')) AS bpe_tokens
            FROM documents
            ORDER BY doc_id
        """,
        "doc_language": _lang_oracle_sql(),
        "doc_winnow": _WINNOW_CTE + """,
            small AS (
              SELECT doc_id, CASE WHEN ng = 0 THEN 0 ELSE 1 END AS n_winnow
              FROM counts WHERE ng <= 4
            ),
            big AS (
              SELECT s.doc_id, CAST(COUNT(DISTINCT g3.hg) AS BIGINT) AS n_winnow
              FROM (SELECT DISTINCT doc_id, j FROM sel) s
              JOIN gh g3 ON g3.doc_id = s.doc_id AND g3.idx = s.j
              GROUP BY 1
            )
            SELECT doc_id, CAST(n_winnow AS BIGINT) AS n_winnow FROM small
            UNION ALL
            SELECT doc_id, n_winnow FROM big
            ORDER BY doc_id
        """,
        "doc_repetition": r"""
            WITH base AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\s+'),
                                 w -> w <> '') AS words,
                     list_filter(
                       list_transform(string_split(text, chr(10)),
                         l -> trim(l, ' ' || chr(9) || chr(13) || chr(12) || chr(11))),
                       l -> l <> '') AS lines
              FROM documents
            ), w2 AS (
              SELECT doc_id, words, lines,
                     list_transform(range(1, greatest(len(words), 1)),
                       i -> words[i] || ' ' || words[i+1]) AS bigs
              FROM base
            ), topb AS (
              SELECT doc_id, MAX(c) AS top_bigram_n FROM (
                SELECT doc_id, bg, COUNT(*) AS c
                FROM (SELECT doc_id, unnest(bigs) AS bg FROM w2)
                GROUP BY doc_id, bg
              ) GROUP BY doc_id
            )
            SELECT w2.doc_id,
                   CAST(len(lines) AS BIGINT) AS n_lines,
                   CAST(len(lines) - len(list_distinct(lines)) AS BIGINT) AS n_dup_lines,
                   CAST(len(words) AS BIGINT) AS n_words,
                   CAST(len(words) - len(list_distinct(words)) AS BIGINT) AS n_dup_words,
                   CAST(greatest(len(words) - 1, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(topb.top_bigram_n, 0) AS BIGINT) AS top_bigram_n,
                   CAST(CASE WHEN (len(lines) - len(list_distinct(lines))) * 100 > len(lines) * 30
                          OR COALESCE(topb.top_bigram_n, 0) * 100 > greatest(len(words) - 1, 0) * 18
                        THEN 1 ELSE 0 END AS BIGINT) AS rep_flag
            FROM w2 LEFT JOIN topb ON w2.doc_id = topb.doc_id
            ORDER BY w2.doc_id
        """,
        "doc_tfidf": r"""
            WITH w AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(lower(text), '\s+'),
                                        x -> x <> '')) AS word
              FROM documents
            ), tf AS (
              SELECT doc_id, word, COUNT(*) AS tf FROM w GROUP BY 1, 2
            ), df AS (
              SELECT word, COUNT(*) AS df FROM tf GROUP BY 1
            ), n AS (SELECT COUNT(*) AS n_docs FROM documents),
            scored AS (
              SELECT doc_id, word, tf, df.df,
                     CAST(FLOOR(tf * LN(n_docs::DOUBLE / df.df) * 1000000 + 0.5)
                          AS BIGINT) AS tfidf_micro
              FROM tf JOIN df USING (word), n
            ), ranked AS (
              SELECT *, ROW_NUMBER() OVER (
                  PARTITION BY doc_id
                  ORDER BY tfidf_micro DESC, word) AS rank
              FROM scored
            )
            SELECT doc_id, word, CAST(tf AS BIGINT) AS tf,
                   CAST(df AS BIGINT) AS df, tfidf_micro,
                   CAST(rank AS BIGINT) AS rank
            FROM ranked WHERE rank <= 5
            ORDER BY doc_id, rank
        """,
        # HTML extraction closed-form oracles: the page generator's chrome
        # is boilerplate by construction, so the expected span sequence is
        # derivable from documents.text alone — heading at offset 0, 40-word
        # paragraphs, media span at offset 2 for doc_id % 5 == 0 (shifting
        # later paragraphs by one). Any boilerplate leak / lost content /
        # broken entity or inline-markup handling is a hash mismatch.
        "html_spans": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            ), s AS (
              SELECT doc_id, w, len(w) AS n, (doc_id % 5 = 0) AS med
              FROM t WHERE len(w) > 0
            ), p AS (
              SELECT doc_id, w, med,
                     unnest(generate_series(0, (n - 1) // 40)) AS k
              FROM s
            )
            SELECT doc_id, CAST(0 AS BIGINT) AS span_offset,
                   'heading' AS kind, 'Document ' || doc_id AS text,
                   '' AS media_ref
            FROM s
            UNION ALL
            SELECT doc_id, CAST(2 AS BIGINT), 'media', 'fig-' || doc_id,
                   'media://' || doc_id || '/0'
            FROM s WHERE med
            UNION ALL
            SELECT doc_id,
                   CAST(1 + k + CASE WHEN med AND k >= 1 THEN 1 ELSE 0 END
                        AS BIGINT),
                   'text',
                   array_to_string(list_slice(w, k*40 + 1, k*40 + 40), ' '),
                   ''
            FROM p
            ORDER BY doc_id, span_offset
        """,
        "html_main_content": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS w
              FROM documents
            )
            SELECT doc_id,
                   array_to_string(w, ' ') AS main_text,
                   CAST(1 + ((len(w) - 1) // 40 + 1)
                        + CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS n_spans,
                   CAST(CASE WHEN doc_id % 5 = 0 THEN 1 ELSE 0 END
                        AS BIGINT) AS n_media
            FROM t WHERE len(w) > 0
            ORDER BY doc_id
        """,
        # outlink edges are closed-form: 12 chrome links (nav/aside/footer,
        # fragment-only anchors drop as self-links) + 3 recirculation links
        # /doc/{id+1..3}, all normalized (tracking params stripped, host
        # lowercased, default port and trailing slash removed)
        "html_outlinks": r"""
            SELECT doc_id, 'https://example.com' || p AS url
            FROM documents,
                 (VALUES ('/home'),('/world'),('/business'),('/technology'),
                         ('/science'),('/top/0'),('/top/1'),('/top/2'),
                         ('/legal/about'),('/legal/privacy'),('/legal/terms'),
                         ('/legal/contact')) t(p)
            UNION ALL
            SELECT doc_id, 'https://example.com/doc/' || (doc_id + k)
            FROM documents, (VALUES (1),(2),(3)) s(k)
            ORDER BY doc_id, url
        """,
        "html_metadata": r"""
            SELECT doc_id,
                   'Document ' || doc_id || ' — ' || source AS title,
                   'Summary of document ' || doc_id || ' from ' || source
                       || '.' AS description,
                   'https://example.com/doc/' ||
                       (doc_id - CASE WHEN doc_id % 7 = 3 THEN 1 ELSE 0 END)
                       AS canonical_url
            FROM documents ORDER BY doc_id
        """,
        # in-degree over the closed-form edge list: 12 chrome URLs receive
        # one edge per page (hot keys, pre-aggregated per batch before the
        # shuffle); /doc/K receives from {K-3,K-2,K-1} ∩ corpus. Ties at
        # the top-k boundary break on (in_degree DESC, url ASC) both sides.
        "link_indegree": r"""
            WITH e AS (
              SELECT doc_id, 'https://example.com' || p AS url
              FROM documents,
                   (VALUES ('/home'),('/world'),('/business'),('/technology'),
                           ('/science'),('/top/0'),('/top/1'),('/top/2'),
                           ('/legal/about'),('/legal/privacy'),('/legal/terms'),
                           ('/legal/contact')) t(p)
              UNION ALL
              SELECT doc_id, 'https://example.com/doc/' || (doc_id + k)
              FROM documents, (VALUES (1),(2),(3)) s(k)
            )
            SELECT url, COUNT(*) AS in_degree
            FROM e GROUP BY url
            ORDER BY in_degree DESC, url LIMIT 30
        """,
        # anchor-text aggregation: chrome anchors carry one fixed text per
        # target; /doc/K receives 'Read also k' from its k-back neighbors
        # (ties at the top-k boundary break on n_anchors DESC, url ASC, and
        # the dominant text on count DESC, text ASC — both sides)
        "anchor_texts": r"""
            WITH e AS (
              SELECT doc_id, 'https://example.com' || p AS url, t AS atext
              FROM documents,
                   (VALUES ('/home','Home & more'),('/world','World & more'),
                           ('/business','Business & more'),
                           ('/technology','Technology & more'),
                           ('/science','Science & more'),
                           ('/top/0','Most read this week'),
                           ('/top/1','Editor picks today'),
                           ('/top/2','From the archive'),
                           ('/legal/about','About'),('/legal/privacy','Privacy'),
                           ('/legal/terms','Terms'),('/legal/contact','Contact')
                   ) v(p, t)
              UNION ALL
              SELECT doc_id, 'https://example.com/doc/' || (doc_id + k),
                     'Read also ' || k
              FROM documents, (VALUES (1),(2),(3)) s(k)
            ), c AS (
              SELECT url, atext, COUNT(*) AS n FROM e GROUP BY url, atext
            ), r AS (
              SELECT url, atext, n,
                     ROW_NUMBER() OVER (PARTITION BY url
                                        ORDER BY n DESC, atext) AS rk,
                     SUM(n) OVER (PARTITION BY url) AS n_anchors,
                     COUNT(*) OVER (PARTITION BY url) AS n_unique_texts
              FROM c
            )
            SELECT url, CAST(n_anchors AS BIGINT) AS n_anchors,
                   CAST(n_unique_texts AS BIGINT) AS n_unique_texts,
                   atext AS top_text
            FROM r WHERE rk = 1
            ORDER BY n_anchors DESC, url LIMIT 30
        """,
        # frontier = distinct outlinks EXCEPT crawled canonical URLs.
        # Chrome URLs are never canonicals; /doc/K stays in the frontier
        # when K % 7 == 3 (page K canonicalizes to K-1, so its own URL is
        # never a crawled canonical) or when K points past the corpus.
        "crawl_frontier": r"""
            WITH discovered AS (
              SELECT 'https://example.com' || p AS url
              FROM (VALUES ('/home'),('/world'),('/business'),('/technology'),
                           ('/science'),('/top/0'),('/top/1'),('/top/2'),
                           ('/legal/about'),('/legal/privacy'),('/legal/terms'),
                           ('/legal/contact')) t(p)
              UNION
              SELECT DISTINCT 'https://example.com/doc/' || (doc_id + k)
              FROM documents, (VALUES (1),(2),(3)) s(k)
            ), crawled AS (
              SELECT DISTINCT 'https://example.com/doc/' ||
                     (doc_id - CASE WHEN doc_id % 7 = 3 THEN 1 ELSE 0 END)
                     AS url
              FROM documents
            )
            SELECT url FROM discovered
            EXCEPT SELECT url FROM crawled
            ORDER BY url
        """,
        # every doc_id % 7 == 3 page declares its predecessor's URL as
        # canonical, so URL-level dedup must fold those pairs
        "url_dedup": r"""
            WITH c AS (
              SELECT doc_id,
                     'https://example.com/doc/' ||
                         (doc_id - CASE WHEN doc_id % 7 = 3 THEN 1 ELSE 0 END)
                         AS canonical_url
              FROM documents
            )
            SELECT canonical_url, MIN(doc_id) AS keep_doc_id,
                   COUNT(*) AS n_copies
            FROM c GROUP BY canonical_url ORDER BY keep_doc_id
        """,
        "doc_chunks": r"""
            WITH t AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS toks
              FROM documents
            ), s AS (
              SELECT doc_id, toks, len(toks) AS n FROM t WHERE len(toks) > 0
            ), c AS (
              SELECT doc_id, toks, n,
                     unnest(generate_series(0, (n - 1) // 48)) AS k
              FROM s
            )
            SELECT doc_id, CAST(k AS BIGINT) AS chunk_id,
                   CAST(len(list_slice(toks, k*48 + 1, k*48 + 64)) AS BIGINT) AS n_tokens,
                   array_to_string(list_slice(toks, k*48 + 1, k*48 + 64), ' ') AS chunk_text
            FROM c ORDER BY doc_id, chunk_id
        """,
        # lineage-vs-committed-data invariant: recompute every counter
        # of the lineage table from the partition parquet the runner
        # actually committed (doc/span/error counts per part-NNNNN dir).
        "checkpoint_lineage": f"""
            SELECT CAST(regexp_extract(filename, 'part-(\\d+)', 1) AS BIGINT)
                       AS partition_id,
                   CAST(COUNT(*) AS BIGINT) AS doc_count,
                   CAST(SUM(len(out_spans)) AS BIGINT) AS span_count,
                   CAST(COUNT(*) FILTER (error <> '') AS BIGINT) AS error_count,
                   'committed' AS status,
                   'r1' AS run_id
            FROM read_parquet('{_CKPT_EXPORT}/parts/part-*/*.parquet',
                              filename=true)
            GROUP BY 1
            ORDER BY 1
        """,
        "media_features": f"""
            SELECT media_ref, kind,
                   CAST(octet_length(payload) AS BIGINT) AS n_bytes,
                   sha256(hex(payload)) AS checksum,
                   '' AS decode_error
            FROM read_parquet('{_MEDIA_EXPORT}/*.parquet')
            ORDER BY media_ref
        """,
        "media_full": f"""
            SELECT media_ref, kind,
                   CAST(octet_length(payload) AS BIGINT) AS n_bytes,
                   sha256(hex(payload)) AS checksum,
                   '' AS decode_error
            FROM read_parquet('{_MEDIA_FULL_EXPORT}/*.parquet')
            ORDER BY media_ref
        """,
        "accuracy_eval": f"""
            WITH p AS (
              SELECT * FROM read_parquet('{_corpus_for(_verify_sf(), _EVAL_DOCS)}-{_EVAL_EXPORT}-preds/*.parquet')),
            g AS (
              SELECT * FROM read_parquet('{_corpus_for(_verify_sf(), _EVAL_DOCS)}-{_EVAL_EXPORT}-golden/*.parquet')),
            j AS (
              SELECT p.doc_id,
                     list_distinct(g.skills) AS gsk, list_distinct(p.skills) AS psk,
                     list_distinct(g.companies) AS gco, list_distinct(p.companies) AS pco,
                     list_distinct(g.education) AS ged, list_distinct(p.education) AS ped
              FROM p JOIN g USING (doc_id)),
            c AS (
              SELECT 'skills' AS entity_type,
                     len(list_intersect(gsk, psk)) AS tp,
                     len(psk) - len(list_intersect(gsk, psk)) AS fp,
                     len(gsk) - len(list_intersect(gsk, psk)) AS fn
              FROM j
              UNION ALL
              SELECT 'companies',
                     len(list_intersect(gco, pco)),
                     len(pco) - len(list_intersect(gco, pco)),
                     len(gco) - len(list_intersect(gco, pco))
              FROM j
              UNION ALL
              SELECT 'education',
                     len(list_intersect(ged, ped)),
                     len(ped) - len(list_intersect(ged, ped)),
                     len(ged) - len(list_intersect(ged, ped))
              FROM j),
            a AS (
              SELECT entity_type,
                     CAST(SUM(tp) AS BIGINT) AS tp,
                     CAST(SUM(fp) AS BIGINT) AS fp,
                     CAST(SUM(fn) AS BIGINT) AS fn
              FROM c GROUP BY 1),
            m AS (
              SELECT entity_type, tp, fp, fn,
                     CASE WHEN tp + fp > 0
                          THEN (tp * 1000000) // (tp + fp) ELSE 0 END AS precision_micro,
                     CASE WHEN tp + fn > 0
                          THEN (tp * 1000000) // (tp + fn) ELSE 0 END AS recall_micro
              FROM a)
            SELECT entity_type, tp, fp, fn, precision_micro, recall_micro,
                   CAST(CASE WHEN precision_micro + recall_micro > 0
                        THEN (2 * precision_micro * recall_micro)
                             // (precision_micro + recall_micro)
                        ELSE 0 END AS BIGINT) AS f1_micro
            FROM m ORDER BY entity_type
        """,
        "media_dedup": f"""
            SELECT md5(hex(payload)) AS payload_md5,
                   MIN(media_ref) AS keep_ref,
                   CAST(COUNT(*) AS BIGINT) AS n_copies
            FROM read_parquet('{_MEDIA_DEDUP_EXPORT}/*.parquet')
            GROUP BY 1
            ORDER BY keep_ref
        """,
        "doc_model_score": r"""
            WITH f AS (
              SELECT doc_id,
                     LENGTH(text) AS n_chars,
                     LENGTH(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS n_alpha,
                     LENGTH(regexp_replace(text, '[a-zA-Z0-9 ]', '', 'g')) AS n_punct,
                     CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                          ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\s+'))
                     END AS n_words,
                     len(list_filter(
                         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> ''),
                         w -> list_contains(['a','the','of','and','in','to','is'], w)))
                       AS n_stop
              FROM documents
            ), s AS (
              SELECT doc_id,
                     CASE WHEN n_words > 0 THEN (n_stop * 1000000) // n_words ELSE 0 END AS stop_share_micro,
                     CASE WHEN n_chars > 0 THEN (n_alpha * 1000000) // n_chars ELSE 0 END AS alpha_share_micro,
                     CASE WHEN n_chars > 0 THEN (n_punct * 1000000) // n_chars ELSE 0 END AS punct_share_micro
              FROM f
            )
            SELECT doc_id, stop_share_micro, alpha_share_micro, punct_share_micro,
                   -500000 + 3 * stop_share_micro + 2 * alpha_share_micro
                           - 5 * punct_share_micro AS score_micro,
                   CAST(CASE WHEN -500000 + 3 * stop_share_micro + 2 * alpha_share_micro
                                  - 5 * punct_share_micro >= 1500000
                        THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM s ORDER BY doc_id
        """,
        "customers_no_urgent_orders": """
            SELECT c_custkey, c_name, c_mktsegment
            FROM customer
            WHERE c_custkey NOT IN (
                SELECT o_custkey FROM orders WHERE o_orderpriority LIKE '1%')
            ORDER BY c_custkey
        """,
        "order_bigline_histogram": """
            WITH j AS (
              SELECT o.o_orderkey, l.l_quantity
              FROM orders o
              LEFT JOIN (SELECT * FROM lineitem WHERE l_quantity > 45) l
                ON o.o_orderkey = l.l_orderkey),
            c AS (
              SELECT o_orderkey, COUNT(l_quantity) AS n_big
              FROM j GROUP BY o_orderkey)
            SELECT CAST(n_big AS BIGINT) AS n_big,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM c GROUP BY n_big ORDER BY n_big
        """,
        "customers_big_spenders": """
            SELECT c_custkey, c_name, c_mktsegment
            FROM customer
            WHERE c_custkey IN (
                SELECT o_custkey FROM orders
                WHERE o_orderstatus = 'F' AND o_totalprice > 150000)
            ORDER BY c_custkey
        """,
        "word_collocations": r"""
            WITH toks AS (
              SELECT regexp_extract_all(lower(text), '[a-z]+') AS ws FROM documents
            ),
            uni AS (SELECT unnest(ws) AS w FROM toks),
            ucount AS (SELECT w, COUNT(*) AS c FROM uni GROUP BY w),
            tot AS (SELECT COUNT(*) AS n FROM uni),
            bigs AS (
              SELECT unnest(list_transform(
                         range(1, len(ws)), i -> ws[i] || ' ' || ws[i+1])) AS bg
              FROM toks
            ),
            bcount AS (
              SELECT bg, COUNT(*) AS n_xy FROM bigs GROUP BY bg
              HAVING COUNT(*) >= 5
            ),
            cand AS (SELECT bg, n_xy FROM bcount ORDER BY n_xy DESC, bg LIMIT 200),
            sp AS (
              SELECT string_split(bg, ' ')[1] AS w1,
                     string_split(bg, ' ')[2] AS w2, n_xy
              FROM cand
            ),
            j AS (
              SELECT sp.w1, sp.w2, sp.n_xy,
                     CAST((1000000::HUGEINT * tot.n * sp.n_xy)
                          // (u1.c::HUGEINT * u2.c) AS BIGINT) AS lift_micro
              FROM sp
              JOIN ucount u1 ON u1.w = sp.w1
              JOIN ucount u2 ON u2.w = sp.w2
              CROSS JOIN tot
            )
            SELECT w1, w2, CAST(n_xy AS BIGINT) AS n_xy, lift_micro
            FROM j ORDER BY lift_micro DESC, w1, w2 LIMIT 25
        """,
        "vocab_kmv": r"""
            WITH w AS (
              SELECT DISTINCT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
              FROM documents
            ),
            h AS (SELECT DISTINCT md5(w) AS h FROM w WHERE w <> ''),
            mins AS (SELECT h FROM h ORDER BY h LIMIT 16),
            agg AS (SELECT COUNT(*) AS n, MAX(h) AS kth FROM mins)
            SELECT CAST(16 AS BIGINT) AS k,
                   CASE WHEN n < 16 THEN '' ELSE kth END AS kth_hash,
                   CASE WHEN n < 16 THEN CAST(n AS BIGINT)
                        ELSE 15 * 281474976710656 //
                             GREATEST(('0x' || substring(kth, 1, 12))::BIGINT, 1)
                   END AS est_distinct
            FROM agg
        """,
        "profile_columns": _profile_oracle_sql(),
        "time_to_convert_percentiles": """
            WITH v AS (
                SELECT user_id, MIN(ts) AS first_view
                FROM events WHERE event_type = 'view' GROUP BY user_id
            ), d AS (
                SELECT v.user_id,
                       CAST((epoch_us(MIN(e.ts)) - epoch_us(v.first_view))
                            // 60000000 AS BIGINT) AS mins
                FROM v JOIN events e
                  ON e.user_id = v.user_id
                 AND e.event_type = 'purchase'
                 AND e.ts >= v.first_view
                GROUP BY v.user_id, v.first_view
            ), t AS (SELECT CAST(COUNT(*) AS BIGINT) AS n FROM d)
            SELECT p, CAST(m AS BIGINT) AS minutes,
                   t.n AS n_converting_users
            FROM (
                SELECT 0.5 AS p,
                       PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY mins) AS m
                FROM d
                UNION ALL
                SELECT 0.9,
                       PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY mins)
                FROM d
            ) CROSS JOIN t
            ORDER BY p
        """,
        "transition_majority_accuracy": """
            WITH seq AS (
                SELECT user_id, event_type,
                       LAG(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev_type
                FROM events
            ), t AS (
                SELECT prev_type, event_type AS next_type,
                       COUNT(*) AS n
                FROM seq WHERE prev_type IS NOT NULL
                GROUP BY prev_type, next_type
            ), ranked AS (
                SELECT prev_type, n,
                       ROW_NUMBER() OVER (
                           PARTITION BY prev_type
                           ORDER BY n DESC, next_type) AS rn
                FROM t
            )
            SELECT CAST((SELECT SUM(n) FROM t) AS BIGINT) AS n_transitions,
                   CAST(SUM(n) AS BIGINT) AS n_correct_majority,
                   CAST(SUM(n) * 1000000 // (SELECT SUM(n) FROM t)
                        AS BIGINT) AS accuracy_micro
            FROM ranked WHERE rn = 1
        """,
        "source_token_gini": r"""
            WITH s AS (
                SELECT source,
                       CAST(SUM(len(list_filter(
                           regexp_split_to_array(text, '\s+'),
                           x -> x <> ''))) AS HUGEINT) AS n
                FROM documents GROUP BY source
            ), t AS (
                SELECT CAST(COUNT(*) AS HUGEINT) AS n_src,
                       SUM(n) AS total
                FROM s
            ), d AS (
                SELECT CAST(SUM(ABS(a.n - b.n)) AS HUGEINT) AS ord_sum
                FROM s a CROSS JOIN s b
            )
            SELECT CAST(t.n_src AS BIGINT) AS n_sources,
                   CAST(t.total AS BIGINT) AS total_tokens,
                   CAST(d.ord_sum * 1000000 // (2 * t.n_src * t.total)
                        AS BIGINT) AS gini_micro
            FROM t CROSS JOIN d
        """,
        "split_length_ks": """
            WITH l AS (
                SELECT CASE WHEN md5_number_upper(CAST(doc_id AS VARCHAR))
                                 % 10 < 8 THEN 'train'
                            WHEN md5_number_upper(CAST(doc_id AS VARCHAR))
                                 % 10 = 8 THEN 'val' ELSE 'test' END AS split,
                       LENGTH(text) AS n_chars
                FROM documents
            ), h AS (
                SELECT n_chars,
                       CAST(COUNT(*) FILTER (split = 'train') AS HUGEINT)
                           AS c1p,
                       CAST(COUNT(*) FILTER (split = 'test') AS HUGEINT)
                           AS c2p
                FROM l WHERE split IN ('train', 'test')
                GROUP BY n_chars
            ), c AS (
                SELECT SUM(c1p) OVER (ORDER BY n_chars) AS c1,
                       SUM(c2p) OVER (ORDER BY n_chars) AS c2
                FROM h
            ), t AS (
                SELECT SUM(c1p) AS n1, SUM(c2p) AS n2 FROM h
            )
            SELECT CAST(t.n1 AS BIGINT) AS n_train,
                   CAST(t.n2 AS BIGINT) AS n_test,
                   CAST(MAX(ABS(c.c1 * t.n2 - c.c2 * t.n1)) AS BIGINT)
                       AS ks_numerator,
                   CAST(MAX(ABS(c.c1 * t.n2 - c.c2 * t.n1)) * 1000000
                        // (t.n1 * t.n2) AS BIGINT) AS ks_micro
            FROM c CROSS JOIN t
            GROUP BY t.n1, t.n2
        """,
        "signup_conversion_24h": """
            WITH s AS (
                SELECT user_id, MIN(ts) AS first_signup
                FROM events WHERE event_type = 'signup'
                GROUP BY user_id
            ), c AS (
                SELECT s.user_id,
                       MAX(CASE WHEN e.ts >= s.first_signup
                                 AND e.ts <= s.first_signup
                                     + INTERVAL 24 HOUR
                                THEN 1 ELSE 0 END) AS conv
                FROM s LEFT JOIN events e
                  ON e.user_id = s.user_id AND e.event_type = 'purchase'
                GROUP BY s.user_id
            )
            SELECT CAST(COUNT(*) AS BIGINT) AS n_signup_users,
                   CAST(SUM(conv) AS BIGINT) AS n_converted_24h
            FROM c
        """,
        "weekly_revenue_wow": """
            WITH w AS (
                SELECT date_trunc('week', o_orderdate) AS week_start,
                       SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                           AS cents
                FROM orders GROUP BY week_start
            )
            SELECT CAST(week_start AS TIMESTAMP) AS week_start,
                   CAST(cents AS BIGINT) AS revenue_cents,
                   CAST(COALESCE(LAG(cents) OVER (ORDER BY week_start), 0)
                        AS BIGINT) AS prev_week_cents
            FROM w
            ORDER BY week_start
        """,
        "dup_rate_by_source": """
            WITH flagged AS (
                SELECT source,
                       (ROW_NUMBER() OVER (
                            PARTITION BY sha256(text) ORDER BY doc_id
                        ) > 1) AS is_dup
                FROM documents
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(COUNT(*) FILTER (is_dup) AS BIGINT) AS n_duplicates
            FROM flagged
            GROUP BY source
            ORDER BY source
        """,
        "label_balance_by_split": """
            SELECT CASE WHEN md5_number_upper(CAST(vec_id AS VARCHAR)) % 10 < 8
                        THEN 'train'
                        WHEN md5_number_upper(CAST(vec_id AS VARCHAR)) % 10 = 8
                        THEN 'val' ELSE 'test' END AS split,
                   CAST(label AS BIGINT) AS label,
                   CAST(COUNT(*) AS BIGINT) AS n_vectors
            FROM embeddings
            GROUP BY split, label
            ORDER BY split, label
        """,
        "value_outliers": """
            WITH c AS (
                SELECT event_type,
                       CAST(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
                            AS HUGEINT) AS x
                FROM events
            ), s AS (
                SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n,
                       SUM(x) AS sx, SUM(x * x) AS sxx
                FROM c GROUP BY event_type
            )
            SELECT c.event_type,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(*) FILTER (
                       (c.x * s.n - s.sx) * (c.x * s.n - s.sx)
                       > 9 * (s.n * s.sxx - s.sx * s.sx)
                   ) AS BIGINT) AS n_outliers
            FROM c JOIN s ON c.event_type = s.event_type
            GROUP BY c.event_type
            ORDER BY c.event_type
        """,
        "order_price_quartiles": """
            WITH c AS (
                SELECT CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                           AS cents
                FROM orders
            )
            SELECT p, CAST(v AS BIGINT) AS price_cents FROM (
                SELECT 0.25 AS p,
                       PERCENTILE_DISC(0.25) WITHIN GROUP (ORDER BY cents) AS v
                FROM c
                UNION ALL
                SELECT 0.5,
                       PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY cents)
                FROM c
                UNION ALL
                SELECT 0.75,
                       PERCENTILE_DISC(0.75) WITHIN GROUP (ORDER BY cents)
                FROM c
            )
            ORDER BY p
        """,
        "cosupplier_pairs": """
            WITH rel AS (
                SELECT DISTINCT o.o_custkey AS c, l.l_suppkey AS s
                FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
            ), capped AS (
                SELECT c, s FROM (
                    SELECT c, s,
                           ROW_NUMBER() OVER (PARTITION BY c ORDER BY s) AS rn
                    FROM rel
                ) WHERE rn <= 32
            )
            SELECT a.s AS s_a, b.s AS s_b,
                   CAST(COUNT(*) AS BIGINT) AS n_shared_customers
            FROM capped a JOIN capped b ON a.c = b.c AND a.s < b.s
            GROUP BY s_a, s_b
            ORDER BY n_shared_customers DESC, s_a, s_b
            LIMIT 15
        """,
        "dup_cluster_histogram": """
            WITH clusters AS (
                SELECT sha256(text) AS h, COUNT(*) AS size
                FROM documents GROUP BY h
            )
            SELECT CAST(size AS BIGINT) AS cluster_size,
                   CAST(COUNT(*) AS BIGINT) AS n_clusters,
                   CAST(size * COUNT(*) AS BIGINT) AS n_docs
            FROM clusters
            GROUP BY size
            ORDER BY cluster_size
        """,
        "user_first_last_purchase": """
            WITH p AS (
                SELECT user_id, ts, event_id,
                       CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS cents,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS rn_a,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id ORDER BY ts DESC, event_id DESC
                       ) AS rn_d,
                       COUNT(*) OVER (PARTITION BY user_id) AS n
                FROM events WHERE event_type = 'purchase'
            )
            SELECT f.user_id,
                   CAST(f.n AS BIGINT) AS n_purchases,
                   f.ts AS first_ts, f.cents AS first_cents,
                   l.ts AS last_ts, l.cents AS last_cents
            FROM (SELECT user_id, ts, cents, n
                  FROM p WHERE rn_a = 1) f
            JOIN (SELECT user_id, ts, cents FROM p WHERE rn_d = 1) l
              USING (user_id)
            ORDER BY user_id
        """,
        "nation_share_of_region": """
            WITH rev AS (
                SELECT r.r_name, n.n_name,
                       CAST(SUM(CAST(FLOOR(
                           l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5
                       ) AS BIGINT)) AS BIGINT) AS revenue_cents
                FROM lineitem l
                JOIN supplier s ON l.l_suppkey = s.s_suppkey
                JOIN nation n ON s.s_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
                GROUP BY r.r_name, n.n_name
            )
            SELECT r_name, n_name, revenue_cents,
                   CAST(SUM(revenue_cents) OVER (PARTITION BY r_name)
                        AS BIGINT) AS region_total_cents
            FROM rev
            ORDER BY r_name, n_name
        """,
        "orders_above_customer_avg": """
            WITH o AS (
                SELECT o_custkey, o_orderpriority,
                       CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                           AS price_cents
                FROM orders
            ), agg AS (
                SELECT o_custkey, SUM(price_cents) AS sum_cents,
                       COUNT(*) AS n_orders
                FROM o GROUP BY o_custkey
            )
            SELECT o.o_orderpriority,
                   CAST(COUNT(*) FILTER (
                       o.price_cents * agg.n_orders > agg.sum_cents
                   ) AS BIGINT) AS n_above_avg,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM o JOIN agg ON o.o_custkey = agg.o_custkey
            GROUP BY o.o_orderpriority
            ORDER BY o.o_orderpriority
        """,
        "daily_revenue_ma7": """
            WITH daily AS (
                SELECT CAST(o_orderdate AS DATE) AS d,
                       SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                           AS cents
                FROM orders GROUP BY d
            )
            SELECT CAST(d AS TIMESTAMP) AS day,
                   CAST(cents AS BIGINT) AS revenue_cents,
                   CAST(SUM(cents) OVER (
                       ORDER BY d
                       RANGE BETWEEN INTERVAL 6 DAY PRECEDING
                                 AND CURRENT ROW) AS BIGINT)
                       AS trailing7_cents
            FROM daily
            ORDER BY day
        """,
        "building_not_big_spenders": """
            SELECT c_custkey,
                   CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
                       AS acctbal_cents
            FROM customer
            WHERE c_mktsegment = 'BUILDING'
              AND c_custkey NOT IN (
                  SELECT o_custkey FROM orders
                  GROUP BY o_custkey
                  HAVING SUM(o_totalprice) > 1500000.0
              )
            ORDER BY c_custkey
        """,
        "length_mad_by_lang": """
            WITH lens AS (
                SELECT lang, LENGTH(text) AS n_chars FROM documents
            ), med AS (
                SELECT lang,
                       PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY n_chars)
                           AS m
                FROM lens GROUP BY lang
            )
            SELECT l.lang AS lang,
                   CAST(MAX(med.m) AS BIGINT) AS median_n_chars,
                   CAST(PERCENTILE_DISC(0.5) WITHIN GROUP (
                       ORDER BY ABS(l.n_chars - med.m)) AS BIGINT)
                       AS mad_n_chars
            FROM lens l JOIN med ON l.lang = med.lang
            GROUP BY l.lang
            ORDER BY lang
        """,
        "priority_segment_chi2": """
            WITH cells AS (
                SELECT o_orderpriority AS prio, c_mktsegment AS seg,
                       CAST(COUNT(*) AS HUGEINT) AS o
                FROM orders JOIN customer ON o_custkey = c_custkey
                GROUP BY prio, seg
            ),
            grid AS (
                SELECT p.prio, s.seg
                FROM (SELECT DISTINCT prio FROM cells) p
                CROSS JOIN (SELECT DISTINCT seg FROM cells) s
            ),
            filled AS (
                SELECT g.prio, g.seg, COALESCE(c.o, 0::HUGEINT) AS o
                FROM grid g LEFT JOIN cells c
                  ON g.prio = c.prio AND g.seg = c.seg
            ),
            rt AS (SELECT prio, SUM(o) AS r FROM filled GROUP BY prio),
            ct AS (SELECT seg, SUM(o) AS c FROM filled GROUP BY seg),
            tot AS (SELECT SUM(o) AS n FROM filled)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_cells,
                   CAST((COUNT(DISTINCT f.prio) - 1)
                        * (COUNT(DISTINCT f.seg) - 1) AS BIGINT) AS dof,
                   CAST(SUM(
                       (f.o * tot.n - rt.r * ct.c)
                       * (f.o * tot.n - rt.r * ct.c) * 1000000
                       // (rt.r * ct.c * tot.n)
                   ) AS BIGINT) AS chi2_micro
            FROM filled f
            JOIN rt ON f.prio = rt.prio
            JOIN ct ON f.seg = ct.seg
            CROSS JOIN tot
        """,
        "orders_by_weekday": """
            SELECT CAST(dayofweek(o_orderdate) AS BIGINT) AS dow,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_price_cents
            FROM orders
            GROUP BY dow
            ORDER BY dow
        """,
        "props_field_stats": """
            WITH x AS (
                SELECT event_type,
                       CAST(json_extract_string(props, '$.k') AS BIGINT) AS v
                FROM events
            )
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(SUM(v) AS BIGINT) AS sum_v,
                   CAST(MIN(v) AS BIGINT) AS min_v,
                   CAST(MAX(v) AS BIGINT) AS max_v
            FROM x
            WHERE v IS NOT NULL
            GROUP BY event_type
            ORDER BY event_type
        """,
        "revenue_by_region": """
            SELECT r.r_name AS r_name,
                   CAST(SUM(CAST(FLOOR(
                       l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5
                   ) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_lines
            FROM lineitem l
            JOIN supplier s ON l.l_suppkey = s.s_suppkey
            JOIN nation n ON s.s_nationkey = n.n_nationkey
            JOIN region r ON n.n_regionkey = r.r_regionkey
            GROUP BY r.r_name
            ORDER BY r_name
        """,
        "event_transitions": """
            WITH seq AS (
                SELECT user_id, event_type,
                       LAG(event_type) OVER (
                           PARTITION BY user_id ORDER BY ts, event_id
                       ) AS prev_type
                FROM events
            )
            SELECT prev_type, event_type AS next_type,
                   CAST(COUNT(*) AS BIGINT) AS n_transitions
            FROM seq
            WHERE prev_type IS NOT NULL
            GROUP BY prev_type, next_type
            ORDER BY prev_type, next_type
        """,
        "revenue_by_parttype": """
            SELECT p.p_type AS p_type,
                   CAST(SUM(CAST(FLOOR(
                       l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5
                   ) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_lines
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY p.p_type
            ORDER BY p_type
        """,
        "fk_violations": """
            SELECT * FROM (
                SELECT 'orders.o_custkey->customer.c_custkey' AS relationship,
                       CAST(COUNT(*) AS BIGINT) AS n_child_rows,
                       CAST(COUNT(*) FILTER (c_custkey IS NULL) AS BIGINT)
                           AS n_orphans
                FROM orders LEFT JOIN customer ON o_custkey = c_custkey
                UNION ALL
                SELECT 'lineitem.l_orderkey->orders.o_orderkey',
                       CAST(COUNT(*) AS BIGINT),
                       CAST(COUNT(*) FILTER (o_orderkey IS NULL) AS BIGINT)
                FROM lineitem LEFT JOIN orders ON l_orderkey = o_orderkey
                UNION ALL
                SELECT 'customer.c_nationkey->nation.n_nationkey',
                       CAST(COUNT(*) AS BIGINT),
                       CAST(COUNT(*) FILTER (n_nationkey IS NULL) AS BIGINT)
                FROM customer LEFT JOIN nation ON c_nationkey = n_nationkey
            ) ORDER BY relationship
        """,
        "embedding_norms": """
            SELECT vec_id,
                   CAST(list_sum(list_transform(
                       CAST(embedding AS DOUBLE[]),
                       x -> CAST(FLOOR(x * x * 1000000 + 0.5) AS BIGINT)
                   )) AS BIGINT) AS norm2_micro
            FROM embeddings
            ORDER BY vec_id
        """,
        "event_value_trends": """
            WITH b AS (
                SELECT event_type,
                       CAST(epoch_us(ts) // 3600000000 AS HUGEINT) AS x,
                       CAST(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)
                            AS HUGEINT) AS y
                FROM events
            ), a AS (
                SELECT event_type,
                       CAST(COUNT(*) AS HUGEINT) AS n,
                       SUM(x) AS sx, SUM(y) AS sy,
                       SUM(x * y) AS sxy, SUM(x * x) AS sxx
                FROM b GROUP BY event_type
            )
            SELECT event_type,
                   CAST(n AS BIGINT) AS n_events,
                   CAST(CASE WHEN n * sxx - sx * sx = 0 THEN 0
                        ELSE (n * sxy - sx * sy) * 1000000
                             // (n * sxx - sx * sx) END AS BIGINT)
                       AS slope_micro,
                   CAST(sy * 1000000 // n AS BIGINT) AS mean_cents_micro
            FROM a
            ORDER BY event_type
        """,
        "user_event_paths": """
            WITH ranked AS (
                SELECT user_id, event_type,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id ORDER BY ts, event_id) AS rn
                FROM events
            ), p AS (
                SELECT user_id,
                       string_agg(event_type, '>' ORDER BY rn) AS path
                FROM ranked WHERE rn <= 50
                GROUP BY user_id
            )
            SELECT path, CAST(COUNT(*) AS BIGINT) AS n_users
            FROM p
            GROUP BY path
            ORDER BY n_users DESC, path
            LIMIT 20
        """,
        "events_hourly_users": """
            SELECT date_trunc('hour', ts) AS hour,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT) AS n_users
            FROM events
            GROUP BY 1
            ORDER BY hour
        """,
        "build_postings": r"""
            WITH w AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
              FROM documents
            ),
            d AS (SELECT DISTINCT word, doc_id FROM w WHERE word <> ''),
            r AS (SELECT word, doc_id,
                         ROW_NUMBER() OVER (
                             PARTITION BY word ORDER BY doc_id) AS rn
                  FROM d),
            g AS (SELECT word, COUNT(*) AS df FROM d GROUP BY word)
            SELECT g.word AS word,
                   CAST(g.df AS BIGINT) AS df,
                   (g.df > 300) AS truncated,
                   string_agg(r.doc_id, ',' ORDER BY r.doc_id) AS doc_ids
            FROM g JOIN r ON g.word = r.word AND r.rn <= 300
            GROUP BY g.word, g.df
            ORDER BY g.word
        """,
        "table_checksum": """
            WITH h AS (
                SELECT source,
                       CAST(md5_number_upper(doc_id || ':' || text)
                            AS HUGEINT) AS hv
                FROM documents
            ),
            per AS (
                SELECT source, CAST(COUNT(*) AS BIGINT) AS n_rows,
                       SUM(hv) AS s
                FROM h GROUP BY source
            ),
            uni AS (
                SELECT source, n_rows, s FROM per
                UNION ALL
                SELECT '__all__', SUM(n_rows), SUM(s) FROM per
            )
            SELECT source, CAST(n_rows AS BIGINT) AS n_rows,
                   CAST(CASE WHEN m >= 9223372036854775808::HUGEINT
                             THEN m - 18446744073709551616::HUGEINT
                             ELSE m END AS BIGINT) AS checksum
            FROM (SELECT source, n_rows,
                         s % 18446744073709551616::HUGEINT AS m
                  FROM uni)
            ORDER BY source
        """,
        "vocab_hll": _hll_oracle_sql(),
        "corpus_shuffle": """
            SELECT doc_id,
                   CAST(ROW_NUMBER() OVER (
                       ORDER BY md5_number_upper(doc_id || ':s42'), doc_id
                   ) - 1 AS BIGINT) AS pos
            FROM documents
            ORDER BY doc_id
        """,
        "remove_boilerplate": r"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ), idx AS (
                SELECT doc_id, w,
                       UNNEST(range(CAST(CEIL(len(w) / 4.0) AS BIGINT))) AS g
                FROM toks WHERE len(w) > 0
            ), segs AS (
                SELECT doc_id, g,
                       array_to_string(w[g*4+1 : g*4+4], ' ') AS seg
                FROM idx
            ), df AS (
                SELECT seg, COUNT(DISTINCT doc_id) AS df FROM segs GROUP BY seg
            ), flag AS (
                SELECT s.doc_id, s.g, s.seg, (d.df >= 5) AS boiler
                FROM segs s JOIN df d USING (seg)
            )
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_segs,
                   CAST(COUNT(*) FILTER (boiler) AS BIGINT) AS n_removed,
                   COALESCE(string_agg(seg, ' ' ORDER BY g)
                            FILTER (NOT boiler), '') AS clean_text
            FROM flag
            GROUP BY doc_id
            ORDER BY doc_id
        """,
        "dedup_segments": r"""
            WITH toks AS (
                SELECT doc_id,
                       list_filter(regexp_split_to_array(text, '\s+'),
                                   x -> x <> '') AS w
                FROM documents
            ), idx AS (
                SELECT doc_id, w,
                       UNNEST(range(CAST(CEIL(len(w) / 4.0) AS BIGINT))) AS g
                FROM toks WHERE len(w) > 0
            ), segs AS (
                SELECT doc_id, g,
                       array_to_string(w[g*4+1 : g*4+4], ' ') AS seg
                FROM idx
            ), flag AS (
                SELECT doc_id, g, seg,
                       (ROW_NUMBER() OVER (
                            PARTITION BY seg ORDER BY doc_id, g) = 1) AS keep
                FROM segs
            )
            SELECT doc_id,
                   CAST(COUNT(*) AS BIGINT) AS n_segs,
                   CAST(COUNT(*) FILTER (keep) AS BIGINT) AS n_kept,
                   COALESCE(string_agg(seg, ' ' ORDER BY g)
                            FILTER (keep), '') AS clean_text
            FROM flag
            GROUP BY doc_id
            ORDER BY doc_id
        """,
        "customer_balance_quartiles": """
            WITH tiled AS (
                SELECT c_nationkey,
                       NTILE(4) OVER (
                           PARTITION BY c_nationkey
                           ORDER BY c_acctbal, c_custkey) AS quartile,
                       CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) AS cents
                FROM customer
            )
            SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
                   CAST(quartile AS BIGINT) AS quartile,
                   CAST(COUNT(*) AS BIGINT) AS n_customers,
                   CAST(MIN(cents) AS BIGINT) AS min_bal_cents,
                   CAST(MAX(cents) AS BIGINT) AS max_bal_cents,
                   CAST(SUM(cents) AS BIGINT) AS sum_bal_cents
            FROM tiled
            GROUP BY c_nationkey, quartile
            ORDER BY c_nationkey, quartile
        """,
        "user_cumulative_spend": """
            SELECT user_id, event_id, ts,
                   CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS spend_cents,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id
                       ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_spend_cents
            FROM events
            WHERE event_type = 'purchase'
            ORDER BY user_id, ts, event_id
        """,
        "q3_shipping_priority": """
            SELECT l.l_orderkey AS o_orderkey,
                   CAST(SUM(CAST(FLOOR(
                       l.l_extendedprice * (1 - l.l_discount) * 100 + 0.5
                   ) AS BIGINT)) AS BIGINT) AS revenue_cents,
                   MAX(o.o_orderdate) AS o_orderdate,
                   MAX(o.o_orderpriority) AS o_orderpriority
            FROM customer c
            JOIN orders o ON c.c_custkey = o.o_custkey
            JOIN lineitem l ON o.o_orderkey = l.l_orderkey
            WHERE c.c_mktsegment = 'BUILDING'
              AND o.o_orderdate < TIMESTAMP '1998-01-01'
              AND l.l_shipdate > TIMESTAMP '1998-01-01'
            GROUP BY l.l_orderkey
            ORDER BY revenue_cents DESC, o_orderkey
            LIMIT 10
        """,
        "session_purchase_counts": """
            WITH flagged AS (
                SELECT user_id, ts, event_type,
                       CASE WHEN ts - LAG(ts) OVER (
                                PARTITION BY user_id ORDER BY ts)
                                 > INTERVAL 30 MINUTE
                            THEN 1 ELSE 0 END AS new_session
                FROM events
            ), numbered AS (
                SELECT *, SUM(new_session) OVER (
                    PARTITION BY user_id ORDER BY ts
                    ROWS UNBOUNDED PRECEDING) AS sid
                FROM flagged
            )
            SELECT user_id,
                   MIN(ts) AS session_start,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(*) FILTER (event_type = 'purchase') AS BIGINT)
                       AS n_purchases
            FROM numbered
            GROUP BY user_id, sid
            ORDER BY user_id, session_start
        """,
        "supplier_pagerank": """
            WITH pairs AS (
              SELECT DISTINCT o.o_custkey AS c, l.l_suppkey AS s
              FROM orders o JOIN lineitem l ON l.l_orderkey = o.o_orderkey),
            edges AS (
              SELECT c * 2 AS src, s * 2 + 1 AS dst FROM pairs
              UNION ALL
              SELECT s * 2 + 1, c * 2 FROM pairs),
            deg AS (SELECT src, COUNT(*) AS d FROM edges GROUP BY src),
            n0 AS (SELECT src AS node, CAST(1000000 AS BIGINT) AS score FROM deg),
            i1 AS (
              SELECT e.dst AS node,
                     150000 + SUM((n.score * 85) // (100 * g.d)) AS score
              FROM edges e JOIN n0 n ON n.node = e.src JOIN deg g ON g.src = e.src
              GROUP BY e.dst),
            i2 AS (
              SELECT e.dst AS node,
                     150000 + SUM((n.score * 85) // (100 * g.d)) AS score
              FROM edges e JOIN i1 n ON n.node = e.src JOIN deg g ON g.src = e.src
              GROUP BY e.dst),
            i3 AS (
              SELECT e.dst AS node,
                     150000 + SUM((n.score * 85) // (100 * g.d)) AS score
              FROM edges e JOIN i2 n ON n.node = e.src JOIN deg g ON g.src = e.src
              GROUP BY e.dst)
            SELECT CAST((node - 1) // 2 AS BIGINT) AS s_suppkey,
                   CAST(score AS BIGINT) AS score_micro
            FROM i3 WHERE node % 2 = 1
            ORDER BY score_micro DESC, s_suppkey LIMIT 20
        """,
        "funnel_counts": """
            WITH v AS (
              SELECT user_id, MIN(ts) AS t1 FROM events
              WHERE event_type = 'view' GROUP BY user_id),
            c AS (
              SELECT e.user_id, MIN(e.ts) AS t2 FROM events e
              JOIN v ON v.user_id = e.user_id AND e.ts > v.t1
              WHERE e.event_type = 'click' GROUP BY e.user_id),
            p AS (
              SELECT e.user_id, MIN(e.ts) AS t3 FROM events e
              JOIN c ON c.user_id = e.user_id AND e.ts > c.t2
              WHERE e.event_type = 'purchase' GROUP BY e.user_id)
            SELECT stage, n_users FROM (
              SELECT '1_view' AS stage,
                     CAST((SELECT COUNT(*) FROM v) AS BIGINT) AS n_users
              UNION ALL
              SELECT '2_click', CAST((SELECT COUNT(*) FROM c) AS BIGINT)
              UNION ALL
              SELECT '3_purchase', CAST((SELECT COUNT(*) FROM p) AS BIGINT)
            ) ORDER BY stage
        """,
        "retention_cohorts": """
            WITH w AS (
              SELECT user_id, date_trunc('week', ts) AS wk FROM events),
            f AS (SELECT user_id, MIN(wk) AS cohort_week FROM w GROUP BY user_id),
            a AS (SELECT DISTINCT w.user_id, f.cohort_week, w.wk AS active_week
                  FROM w JOIN f ON f.user_id = w.user_id)
            SELECT strftime(cohort_week, '%Y-%m-%d') AS cohort_week,
                   strftime(active_week, '%Y-%m-%d') AS active_week,
                   CAST(COUNT(*) AS BIGINT) AS n_users
            FROM a GROUP BY cohort_week, active_week
            ORDER BY cohort_week, active_week
        """,
        "sample_stratified": """
            WITH r AS (
              SELECT source, doc_id,
                     ROW_NUMBER() OVER (PARTITION BY source
                         ORDER BY md5_number_upper(CAST(doc_id AS VARCHAR)),
                                  doc_id) AS rk
              FROM documents)
            SELECT source, doc_id, CAST(rk AS BIGINT) AS rk
            FROM r WHERE rk <= 10 ORDER BY source, rk
        """,
        "event_gaps": """
            WITH g AS (
              SELECT user_id,
                     date_diff('microsecond',
                               lag(ts) OVER (PARTITION BY user_id
                                             ORDER BY ts, event_id),
                               ts) AS gap
              FROM events)
            SELECT user_id,
                   CAST(COUNT(*) AS BIGINT) AS n_events,
                   CAST(COUNT(gap) AS BIGINT) AS n_gaps,
                   CAST(COALESCE(MAX(gap), 0) AS BIGINT) AS max_gap_us,
                   CAST(COALESCE(SUM(gap), 0) AS BIGINT) AS sum_gap_us
            FROM g GROUP BY user_id ORDER BY user_id
        """,
        "orders_rollup": """
            WITH f AS (
              SELECT o_orderpriority AS prio,
                     EXTRACT(year FROM o_orderdate) AS yr,
                     CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
              FROM orders)
            SELECT COALESCE(prio, 'ALL') AS o_orderpriority,
                   CAST(COALESCE(yr, -1) AS BIGINT) AS o_year,
                   CAST(COUNT(*) AS BIGINT) AS n_orders,
                   CAST(SUM(cents) AS BIGINT) AS sum_price_cents
            FROM f GROUP BY ROLLUP (prio, yr)
            ORDER BY o_orderpriority, o_year
        """,
        "vocab_kmv_by_source": r"""
            WITH w AS (
              SELECT DISTINCT source,
                     unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
              FROM documents),
            h AS (SELECT DISTINCT source, md5(w) AS h FROM w WHERE w <> ''),
            r AS (SELECT source, h,
                         ROW_NUMBER() OVER (PARTITION BY source ORDER BY h) AS rk
                  FROM h),
            agg AS (SELECT source, COUNT(*) AS n, MAX(h) AS kth
                    FROM r WHERE rk <= 16 GROUP BY source)
            SELECT source, CAST(16 AS BIGINT) AS k,
                   CASE WHEN n < 16 THEN '' ELSE kth END AS kth_hash,
                   CASE WHEN n < 16 THEN CAST(n AS BIGINT)
                        ELSE 15 * 281474976710656 //
                             GREATEST(('0x' || substring(kth, 1, 12))::BIGINT, 1)
                   END AS est_distinct
            FROM agg ORDER BY source
        """,
        "doc_letter_concentration": r"""
            WITH d AS (SELECT doc_id, lower(text) AS t FROM documents),
            c AS (
              SELECT doc_id,
                     list_transform(
                         ['a','b','c','d','e','f','g','h','i','j','k','l','m',
                          'n','o','p','q','r','s','t','u','v','w','x','y','z'],
                         l -> length(t) - length(replace(t, l, ''))) AS cnts
              FROM d),
            a AS (
              SELECT doc_id,
                     list_sum(list_transform(cnts, x -> x * x)) AS ss,
                     list_sum(cnts) AS tot
              FROM c)
            SELECT doc_id,
                   CAST(COALESCE(tot, 0) AS BIGINT) AS n_letters,
                   CAST(1000000 * COALESCE(ss, 0) //
                        GREATEST(COALESCE(tot, 0) * COALESCE(tot, 0), 1)
                       AS BIGINT) AS conc_micro
            FROM a ORDER BY doc_id
        """,
        "top_words_by_source": r"""
            WITH w AS (
              SELECT source,
                     unnest(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
              FROM documents),
            c AS (SELECT source, word, COUNT(*) AS n FROM w GROUP BY source, word),
            r AS (
              SELECT source, word, n,
                     ROW_NUMBER() OVER (PARTITION BY source
                                        ORDER BY n DESC, word) AS rk
              FROM c)
            SELECT source, word, CAST(n AS BIGINT) AS n, CAST(rk AS BIGINT) AS rk
            FROM r WHERE rk <= 5 ORDER BY source, rk
        """,
        "length_percentiles_by_lang": """
            WITH lens AS (SELECT lang, LENGTH(text) AS n_chars FROM documents)
            SELECT lang, p, CAST(v AS BIGINT) AS n_chars FROM (
                SELECT lang, 0.5 AS p,
                       PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY n_chars) AS v
                FROM lens GROUP BY lang
                UNION ALL
                SELECT lang, 0.9,
                       PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY n_chars)
                FROM lens GROUP BY lang
                UNION ALL
                SELECT lang, 0.99,
                       PERCENTILE_DISC(0.99) WITHIN GROUP (ORDER BY n_chars)
                FROM lens GROUP BY lang
            )
            ORDER BY lang, p
        """,
        "priority_segment_pivot": """
            WITH j AS (
              SELECT o.o_orderpriority AS prio, c.c_mktsegment AS seg
              FROM orders o JOIN customer c ON c.c_custkey = o.o_custkey)
            SELECT prio AS o_orderpriority,
                   CAST(COUNT(*) FILTER (seg = 'AUTOMOBILE') AS BIGINT)
                       AS "n_AUTOMOBILE",
                   CAST(COUNT(*) FILTER (seg = 'BUILDING') AS BIGINT)
                       AS "n_BUILDING",
                   CAST(COUNT(*) FILTER (seg = 'FURNITURE') AS BIGINT)
                       AS "n_FURNITURE",
                   CAST(COUNT(*) FILTER (seg = 'HOUSEHOLD') AS BIGINT)
                       AS "n_HOUSEHOLD",
                   CAST(COUNT(*) FILTER (seg = 'MACHINERY') AS BIGINT)
                       AS "n_MACHINERY"
            FROM j GROUP BY prio ORDER BY prio
        """,
        "word_cms_estimates": r"""
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS word
              FROM documents),
            rws AS (SELECT unnest([0, 1, 2, 3]) AS r),
            b AS (
              SELECT r.r AS rw,
                     md5_number_upper(CONCAT(r.r, ':', w.word)) % 1024 AS bucket,
                     COUNT(*) AS n
              FROM w CROSS JOIN rws r GROUP BY 1, 2),
            probes(word) AS (
              VALUES ('data'), ('table'), ('query'), ('spark'), ('zebra')),
            p AS (
              SELECT pr.word, r.r AS rw,
                     md5_number_upper(CONCAT(r.r, ':', pr.word)) % 1024 AS bucket
              FROM probes pr CROSS JOIN rws r),
            e AS (
              SELECT p.word, MIN(COALESCE(b.n, 0)) AS est
              FROM p LEFT JOIN b ON b.rw = p.rw AND b.bucket = p.bucket
              GROUP BY p.word)
            SELECT word, CAST(est AS BIGINT) AS est_count
            FROM e ORDER BY word
        """,
        "orders_price_bands": """
            WITH f AS (
              SELECT o_totalprice,
                     CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT) AS cents
              FROM orders),
            bands(band, lo, hi) AS (VALUES
              ('00_budget', 0.0, 50000.0),
              ('01_mid', 50000.0, 150000.0),
              ('02_high', 150000.0, 300000.0),
              ('03_premium', 300000.0, 1e18)),
            j AS (
              SELECT b.band, f.cents
              FROM f JOIN bands b
                ON f.o_totalprice >= b.lo AND f.o_totalprice < b.hi)
            SELECT band,
                   CAST(SUM(cents) AS BIGINT) AS sum_price_cents,
                   CAST(COUNT(*) AS BIGINT) AS n_orders
            FROM j GROUP BY band ORDER BY band
        """,
        "doc_oov_rate": r"""
            WITH w AS (
              SELECT doc_id,
                     unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
              FROM documents),
            p AS (
              SELECT doc_id, unnest(list_transform(
                         range(1, length(w)),
                         i -> substring(w, CAST(i AS INT), 2))) AS pair
              FROM w),
            top AS (
              SELECT pair FROM (
                SELECT pair, COUNT(*) AS n FROM p GROUP BY pair
                ORDER BY n DESC, pair LIMIT 20)),
            agg AS (
              SELECT doc_id, COUNT(*) AS n_bigrams,
                     SUM(CASE WHEN pair NOT IN (SELECT pair FROM top)
                         THEN 1 ELSE 0 END) AS n_oov
              FROM p GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(COALESCE(a.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(COALESCE(a.n_oov, 0) AS BIGINT) AS n_oov,
                   CAST(1000000 * COALESCE(a.n_oov, 0) //
                        GREATEST(COALESCE(a.n_bigrams, 0), 1) AS BIGINT)
                       AS oov_micro
            FROM documents d LEFT JOIN agg a USING (doc_id)
            ORDER BY d.doc_id
        """,
        "bpe_pair_counts": r"""
            WITH w AS (
              SELECT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
              FROM documents
            ), p AS (
              SELECT unnest(list_transform(
                         range(1, length(w)),
                         i -> substring(w, CAST(i AS INT), 2))) AS pair
              FROM w
            )
            SELECT pair, CAST(COUNT(*) AS BIGINT) AS n
            FROM p GROUP BY pair
            ORDER BY n DESC, pair
            LIMIT 50
        """,
        # domain-level filter: same model CTE as doc_model_score, rolled
        # up per source; the keep rule is the pipeline's exact integer
        # multiply-compare (sum >= cutoff * n AND n >= min_docs).
        "source_filter": r"""
            WITH f AS (
              SELECT doc_id, source,
                     LENGTH(text) AS n_chars,
                     LENGTH(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS n_alpha,
                     LENGTH(regexp_replace(text, '[a-zA-Z0-9 ]', '', 'g')) AS n_punct,
                     CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                          ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\s+'))
                     END AS n_words,
                     len(list_filter(
                         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> ''),
                         w -> list_contains(['a','the','of','and','in','to','is'], w)))
                       AS n_stop
              FROM documents
            ), s AS (
              SELECT doc_id, source,
                     -500000
                     + 3 * (CASE WHEN n_words > 0 THEN (n_stop * 1000000) // n_words ELSE 0 END)
                     + 2 * (CASE WHEN n_chars > 0 THEN (n_alpha * 1000000) // n_chars ELSE 0 END)
                     - 5 * (CASE WHEN n_chars > 0 THEN (n_punct * 1000000) // n_chars ELSE 0 END)
                       AS score_micro
              FROM f
            ), g AS (
              SELECT source, COUNT(*) AS n, SUM(score_micro) AS ssum
              FROM s GROUP BY source
            )
            SELECT s.doc_id, s.source, s.score_micro,
                   CAST(g.ssum >= 1330000 * g.n AND g.n >= 2 AS BIGINT) AS src_kept
            FROM s JOIN g USING (source)
            ORDER BY s.doc_id
        """,
        "source_stats": r"""
            WITH f AS (
              SELECT source,
                     LENGTH(text) AS n_chars,
                     LENGTH(regexp_replace(text, '[^a-zA-Z]', '', 'g')) AS n_alpha,
                     LENGTH(regexp_replace(text, '[a-zA-Z0-9 ]', '', 'g')) AS n_punct,
                     CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                          ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\s+'))
                     END AS n_words,
                     len(list_filter(
                         list_filter(regexp_split_to_array(lower(text), '\s+'), x -> x <> ''),
                         w -> list_contains(['a','the','of','and','in','to','is'], w)))
                       AS n_stop
              FROM documents
            ), s AS (
              SELECT source,
                     -500000
                     + 3 * (CASE WHEN n_words > 0 THEN (n_stop * 1000000) // n_words ELSE 0 END)
                     + 2 * (CASE WHEN n_chars > 0 THEN (n_alpha * 1000000) // n_chars ELSE 0 END)
                     - 5 * (CASE WHEN n_chars > 0 THEN (n_punct * 1000000) // n_chars ELSE 0 END)
                       AS score_micro
              FROM f
            )
            SELECT source,
                   CAST(COUNT(*) AS BIGINT) AS n_docs,
                   CAST(SUM(score_micro) AS BIGINT) AS sum_score_micro,
                   CAST(SUM(score_micro) >= 1330000 * COUNT(*) AND COUNT(*) >= 2 AS BIGINT)
                       AS src_kept
            FROM s GROUP BY source
            ORDER BY source
        """,
        "decontaminate": r"""
            WITH w AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS words
              FROM documents
            ), sh AS (
              SELECT doc_id, CASE
                  WHEN len(words) = 0 THEN []::VARCHAR[]
                  WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
                  ELSE list_distinct(list_transform(generate_series(1, len(words) - 2),
                       i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                END AS sset
              FROM w
            ), b AS (
              SELECT DISTINCT unnest(sset) AS s FROM sh WHERE doc_id % 37 = 0
            ), e AS (SELECT doc_id, unnest(sset) AS s FROM sh),
            ov AS (
              SELECT e.doc_id, CAST(COUNT(*) AS BIGINT) AS n_ov
              FROM e JOIN b USING (s) GROUP BY 1
            )
            SELECT sh.doc_id AS doc_id,
                   CAST(len(sset) AS BIGINT) AS n_sh,
                   CAST(COALESCE(ov.n_ov, 0) AS BIGINT) AS n_overlap,
                   CAST(CASE WHEN len(sset) = 0 THEN 0
                        ELSE FLOOR(COALESCE(ov.n_ov, 0)::DOUBLE / len(sset)
                                   * 1000000 + 0.5) END AS BIGINT) AS contam_micro,
                   CAST(CASE WHEN sh.doc_id % 37 = 0 THEN 1 ELSE 0 END AS BIGINT)
                       AS is_benchmark,
                   CAST(CASE WHEN sh.doc_id % 37 <> 0 AND len(sset) > 0
                              AND FLOOR(COALESCE(ov.n_ov, 0)::DOUBLE / len(sset)
                                        * 1000000 + 0.5) >= 200000
                        THEN 1 ELSE 0 END AS BIGINT) AS contaminated
            FROM sh LEFT JOIN ov ON sh.doc_id = ov.doc_id
            ORDER BY doc_id
        """,
        "doc_normalize": r"""
            WITH n AS (
              SELECT doc_id, text,
                     trim(regexp_replace(regexp_replace(nfc_normalize(text),
                          '[\x00-\x08\x0b\x0c\x0e-\x1f\x7f-\x9f]', '', 'g'),
                          '\s+', ' ', 'g')) AS norm_text
              FROM documents
            )
            SELECT doc_id, norm_text,
                   CAST(LENGTH(text) AS BIGINT) AS n_before,
                   CAST(LENGTH(norm_text) AS BIGINT) AS n_after,
                   CAST(CASE WHEN norm_text <> text THEN 1 ELSE 0 END
                        AS BIGINT) AS changed
            FROM n ORDER BY doc_id
        """,
        # positional replay of the window-removal pass: hit starts from
        # the benchmark shingle-string set, coverage j in [i, i+2], kept
        # tokens reassembled in order via string_agg
        "decontaminate_clean": r"""
            WITH wo AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(text, '\s+'),
                                 x -> x <> '') AS orig,
                     list_filter(string_split_regex(lower(text), '\s+'),
                                 x -> x <> '') AS words
              FROM documents
            ), sh AS (
              SELECT doc_id, CASE
                  WHEN len(words) = 0 THEN []::VARCHAR[]
                  WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
                  ELSE list_distinct(list_transform(generate_series(1, len(words) - 2),
                       i -> words[i] || ' ' || words[i+1] || ' ' || words[i+2]))
                END AS sset
              FROM wo
            ), b AS (
              SELECT DISTINCT unnest(sset) AS s FROM sh WHERE doc_id % 37 = 0
            ), starts AS (
              SELECT doc_id, i FROM (
                SELECT doc_id, words, unnest(generate_series(1, len(words) - 2)) AS i
                FROM wo WHERE doc_id % 37 <> 0 AND len(words) >= 3
              ) WHERE (words[i] || ' ' || words[i+1] || ' ' || words[i+2])
                      IN (SELECT s FROM b)
            ), covered AS (
              SELECT DISTINCT doc_id, i + o AS j
              FROM starts, (VALUES (0),(1),(2)) t(o)
            ), tok AS (
              SELECT doc_id, unnest(generate_series(1, len(orig))) AS j
              FROM wo WHERE doc_id % 37 <> 0 AND len(words) >= 3
            ), kept AS (
              SELECT tok.doc_id, tok.j FROM tok
              ANTI JOIN covered USING (doc_id, j)
            ), joined AS (
              SELECT kept.doc_id,
                     string_agg(orig[j], ' ' ORDER BY j) AS clean
              FROM kept JOIN wo USING (doc_id) GROUP BY kept.doc_id
            ), final AS (
              SELECT wo.doc_id,
                     CASE WHEN wo.doc_id % 37 = 0 THEN array_to_string(orig, ' ')
                          WHEN len(words) = 0 THEN ''
                          WHEN len(words) < 3 THEN
                            CASE WHEN array_to_string(words, ' ')
                                      IN (SELECT s FROM b)
                                 THEN '' ELSE array_to_string(orig, ' ') END
                          ELSE COALESCE(joined.clean, '')
                     END AS clean_text,
                     CAST(len(orig) AS BIGINT) AS n_tokens
              FROM wo LEFT JOIN joined ON wo.doc_id = joined.doc_id
            )
            SELECT doc_id, clean_text, n_tokens,
                   CAST(n_tokens - len(list_filter(
                        regexp_split_to_array(clean_text, '\s+'),
                        x -> x <> '')) AS BIGINT) AS n_removed
            FROM final ORDER BY doc_id
        """,
        "doc_stopwords": """
            WITH w AS (
              SELECT doc_id,
                     list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                 x -> x <> '') AS words
              FROM documents
            )
            SELECT doc_id,
                   CAST(len(words) AS BIGINT) AS n_words,
                   CAST(len(list_filter(words,
                       w -> list_contains(['a','the','of','and','in','to','is'], w)))
                     AS BIGINT) AS n_stop
            FROM w ORDER BY doc_id
        """,
        "bm25_search": """
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                          ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\\s+'))
                     END AS len_d
              FROM documents
            ), n AS (
              SELECT COUNT(*)::DOUBLE AS n_docs, SUM(len_d)::DOUBLE AS total FROM t
            ), w AS (
              SELECT doc_id,
                     unnest(list_filter(regexp_split_to_array(lower(text), '\\s+'),
                                        x -> x <> '')) AS word
              FROM documents
            ), tf AS (
              SELECT doc_id, word AS term, COUNT(*)::DOUBLE AS tf
              FROM w WHERE word IN ('hash', 'join', 'merge')
              GROUP BY 1, 2
            ), df AS (
              SELECT term, COUNT(*)::DOUBLE AS df FROM tf GROUP BY 1
            ), sc AS (
              SELECT tf.doc_id,
                CAST(FLOOR(
                  LN((n.n_docs - df.df + 0.5) / (df.df + 0.5) + 1.0)
                  * (tf.tf * 2.2)
                  / (tf.tf + 1.2 * (0.25 + 0.75 * (t.len_d / (n.total / n.n_docs))))
                  * 1000000 + 0.5) AS BIGINT) AS c
              FROM tf
              JOIN df USING (term)
              JOIN t ON tf.doc_id = t.doc_id, n
            )
            SELECT doc_id, CAST(SUM(c) AS BIGINT) AS score_micro
            FROM sc GROUP BY doc_id
            ORDER BY score_micro DESC, doc_id
            LIMIT 10
        """,
        "data_mix": """
            WITH w AS (
              SELECT doc_id, source,
                     4 + CAST(md5_number_upper(source) % 16 AS BIGINT) AS w8,
                     CAST(md5_number_upper(CAST(doc_id AS VARCHAR) || ':' || source) % 8
                          AS BIGINT) AS h8
              FROM documents
            ), c AS (
              SELECT doc_id, source,
                     w8 // 8 + CASE WHEN h8 < w8 % 8 THEN 1 ELSE 0 END AS n_copies
              FROM w
            )
            SELECT doc_id, source,
                   CAST(unnest(generate_series(0, n_copies - 1)) AS BIGINT) AS copy
            FROM c ORDER BY doc_id, copy
        """,
        "mix_counts": """
            WITH w AS (
              SELECT doc_id, source,
                     4 + CAST(md5_number_upper(source) % 16 AS BIGINT) AS w8,
                     CAST(md5_number_upper(CAST(doc_id AS VARCHAR) || ':' || source) % 8
                          AS BIGINT) AS h8
              FROM documents
            )
            SELECT source,
                   CAST(SUM(w8 // 8 + CASE WHEN h8 < w8 % 8 THEN 1 ELSE 0 END)
                        AS BIGINT) AS n_copies
            FROM w GROUP BY source ORDER BY source
        """,
        "pack_sequences": """
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN LENGTH(TRIM(text, ' \t\n\r\f\v')) = 0 THEN 0
                          ELSE LEN(regexp_split_to_array(TRIM(text, ' \t\n\r\f\v'), '\\s+'))
                     END AS n_tokens
              FROM documents
            )
            SELECT doc_id, CAST(n_tokens AS BIGINT) AS n_tokens,
                   CAST(COALESCE(SUM(n_tokens) OVER (
                       ORDER BY doc_id
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) // 512
                     AS BIGINT) AS bin
            FROM t ORDER BY doc_id
        """,
        "dedup_minhash": _minhash_oracle_sql(),
        "neardup_keep_best": _minhash_oracle_sql(final="keep_best"),
        "minhash_against_state": _minhash_state_oracle_sql(),
        # ppjoin_pairs: exact all-pairs ground truth — DuckDB recomputes
        # the 3-gram shingle universe (same md5 hash as sketches.shingles,
        # incl. the len(words)<k whole-text rule), self-joins on shingle
        # hash, and applies the same integer cross-multiplied threshold.
        # The pipeline's prefix filter is recall-complete, so the exact
        # join IS its ground truth.
        "ppjoin_pairs": r"""
            WITH w AS (
              SELECT doc_id, list_filter(string_split_regex(lower(text), '\s+'), x -> x <> '') AS words
              FROM documents
            ), g AS (
              SELECT doc_id,
                     CASE WHEN len(words) < 3 THEN [array_to_string(words, ' ')]
                          ELSE [array_to_string(words[i:i+2], ' ') FOR i IN range(1, len(words) - 1)]
                     END AS grams
              FROM w WHERE len(words) > 0
            ), eh AS (
              SELECT DISTINCT doc_id, ('0x' || substr(md5(UNNEST(grams)), 1, 16))::UBIGINT AS h
              FROM g
            ), sizes AS (SELECT doc_id, COUNT(*) AS n FROM eh GROUP BY 1),
            inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, COUNT(*) AS i
              FROM eh a JOIN eh b ON a.h = b.h AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT CAST(inter.doc_a AS BIGINT) AS doc_a,
                   CAST(inter.doc_b AS BIGINT) AS doc_b,
                   CAST(i AS BIGINT) AS n_common,
                   CAST(sa.n + sb.n - i AS BIGINT) AS n_union
            FROM inter
            JOIN sizes sa ON sa.doc_id = inter.doc_a
            JOIN sizes sb ON sb.doc_id = inter.doc_b
            WHERE i * 10 >= 7 * (sa.n + sb.n - i)
            ORDER BY 1, 2
        """,
        "ann_lsh": _ann_lsh_oracle_sql(),
        "embedding_neardup_lsh": _neardup_lsh_oracle_sql(),
        # parse_resumes (extractor chain: fuzzy ontology matching) and
        # span_rollup stay pytest-gated; detect_sections is now fully
        # SQL-oracled (_sections_oracle_sql replays the state machine).
        # accuracy_eval / media_full / media_features / checkpoint_lineage
        # are hash-gated via the export-oracle pattern (preds+golden /
        # post-resize payloads / synth payloads / committed partitions);
        # only the fuzzy similarity channel and float feature vectors
        # stay pytest-gated.
    }


def _profile_oracle_sql() -> str:
    """Per-column profile oracle: one UNION ALL branch per orders
    column, rendering min/max with the same engine-neutral rules as
    ``profile.profile_columns`` (ints as digits, doubles as integer
    cents, timestamps as ISO seconds, strings verbatim)."""

    def branch(col: str, kind: str) -> str:
        if kind == "int":
            mn, mx = f"CAST(MIN({col}) AS VARCHAR)", f"CAST(MAX({col}) AS VARCHAR)"
        elif kind == "cents":
            mn = f"CAST(CAST(FLOOR(MIN({col}) * 100 + 0.5) AS BIGINT) AS VARCHAR)"
            mx = f"CAST(CAST(FLOOR(MAX({col}) * 100 + 0.5) AS BIGINT) AS VARCHAR)"
        elif kind == "ts":
            mn = f"strftime(MIN({col}), '%Y-%m-%d %H:%M:%S')"
            mx = f"strftime(MAX({col}), '%Y-%m-%d %H:%M:%S')"
        else:
            mn, mx = f"MIN({col})", f"MAX({col})"
        return f"""
            SELECT '{col}' AS column,
                   CAST(COUNT(*) AS BIGINT) AS n_rows,
                   CAST(COUNT(*) FILTER ({col} IS NULL) AS BIGINT) AS n_null,
                   COALESCE({mn}, '') AS min_repr,
                   COALESCE({mx}, '') AS max_repr
            FROM orders"""

    kinds = [
        ("o_custkey", "int"),
        ("o_orderdate", "ts"),
        ("o_orderkey", "int"),
        ("o_orderpriority", "str"),
        ("o_orderstatus", "str"),
        ("o_totalprice", "cents"),
    ]
    return (
        " UNION ALL ".join(branch(c, k) for c, k in kinds)
        + ' ORDER BY "column"'
    )


def _hll_oracle_sql() -> str:
    """HyperLogLog oracle: md5_number_upper hash (== first 8 md5 bytes
    little-endian), register = h % 64, rho = 1 + trailing zeros of the
    remaining bits via a generated CASE ladder (exact integer — no
    float log), raw-HLL estimate in HUGEINT arithmetic with alpha as
    the rational 709337/1e6 (matches ``cardinality.vocab_hll``)."""
    ladder = " ".join(
        f"WHEN rest % {1 << r} = {1 << (r - 1)} THEN {r}"
        for r in range(1, 59)
    )
    return f"""
        WITH w AS (
          SELECT DISTINCT unnest(regexp_extract_all(lower(text), '[a-z]+')) AS w
          FROM documents
        ),
        h AS (SELECT md5_number_upper(w) AS hv FROM w WHERE w <> ''),
        r AS (SELECT CAST(hv % 64 AS BIGINT) AS reg,
                     CAST(hv // 64 AS BIGINT) AS rest FROM h),
        rho AS (SELECT reg, CASE WHEN rest = 0 THEN 59 {ladder} END AS rho
                FROM r),
        regs AS (SELECT reg, MAX(rho) AS mrho FROM rho GROUP BY reg),
        filled AS (
            SELECT CAST(gs.range AS BIGINT) AS reg,
                   COALESCE(regs.mrho, 0) AS rho
            FROM range(0, 64) gs LEFT JOIN regs ON regs.reg = gs.range
        ),
        agg AS (SELECT SUM(1::BIGINT << (59 - rho)) AS s,
                       SUM(CASE WHEN rho = 0 THEN 1 ELSE 0 END) AS zeros,
                       SUM(rho) AS sumrho
                FROM filled)
        SELECT CAST(64 AS BIGINT) AS m,
               CAST(zeros AS BIGINT) AS n_zero_registers,
               CAST(sumrho AS BIGINT) AS sum_rho,
               CAST((709337::HUGEINT * 64 * 64 *
                     576460752303423488::HUGEINT) //
                    (1000000::HUGEINT * s) AS BIGINT) AS est_distinct
        FROM agg
    """


def _data_dependent_oracles() -> dict[str, str]:
    """Oracles whose SQL embeds data derived from the verify-scale
    tables (synthetic-corpus paths, k-means centroids trained on
    embeddings.parquet). Guarded: if the testdata tree is absent these
    fall back to rows-only checks instead of raising at
    dict-construction time and taking every other oracle down."""
    if not (
        os.path.exists(f"{_verify_sf()}/documents.parquet")
        and os.path.exists(f"{_verify_sf()}/embeddings.parquet")
    ):
        return {}
    corpus = _corpus_for(_verify_sf())
    return {
        "largest_docs": _largest_docs_oracle(corpus),
        "ann_ivf": _ivf_oracle_sql(),
        "ann_ivfpq": _ivfpq_oracle_sql(),
        "doc_perplexity": _perplexity_oracle_sql(),
        "embedding_pca": _pca_oracle_sql(),
        "embedding_kmeans": _kmeans_oracle_sql(),
        "semdedup": _semdedup_oracle_sql(),
        "doc_pii": _pii_oracle_sql(corpus),
        "detect_sections": _sections_oracle_sql(corpus),
        "layout_blocks": _layout_oracle_sql(_layout_flat_for()),
        "span_bytes_by_kind": f"""
            SELECT s.kind AS kind,
                   CAST(COUNT(*) AS BIGINT) AS n_spans,
                   CAST(SUM(COALESCE(strlen(s.text), 0)) AS BIGINT)
                       AS total_bytes
            FROM (SELECT UNNEST(spans) AS s
                  FROM read_parquet('{corpus}/*.parquet'))
            GROUP BY s.kind
            ORDER BY kind
        """,
        "span_transitions": f"""
            WITH d AS (
                SELECT doc_id, spans
                FROM read_parquet('{corpus}/*.parquet')
                WHERE len(spans) > 1
            ), e AS (
                SELECT doc_id, UNNEST(range(len(spans))) AS i, spans FROM d
            ), k AS (
                SELECT doc_id, i, spans[i + 1]['kind'] AS kind FROM e
            ), p AS (
                SELECT kind,
                       LAG(kind) OVER (PARTITION BY doc_id ORDER BY i)
                           AS prev
                FROM k
            )
            SELECT prev AS prev_kind, kind AS next_kind,
                   CAST(COUNT(*) AS BIGINT) AS n_transitions
            FROM p WHERE prev IS NOT NULL
            GROUP BY prev_kind, next_kind
            ORDER BY prev_kind, next_kind
        """,
        "span_rollup": f"""
            SELECT s.kind AS kind, CAST(COUNT(*) AS BIGINT) AS count
            FROM (SELECT UNNEST(out_spans) AS s
                  FROM read_parquet('{corpus}-{_ROLLUP_EXPORT}/*.parquet'))
            GROUP BY s.kind
            UNION ALL
            SELECT '__error__', CAST(COUNT(*) FILTER (error <> '') AS BIGINT)
            FROM read_parquet('{corpus}-{_ROLLUP_EXPORT}/*.parquet')
        """,
    }
