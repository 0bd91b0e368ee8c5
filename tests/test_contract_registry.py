"""The driver contract's query table, checked without Ray: the emitted
order is pinned, every oracle names a query, every row's target
resolves and accepts its kwargs, every ``cents=`` column is one the
oracle compares as ``<col>_cents``, and ``tools/check_contract.py
--changed`` maps each query to the modules it runs."""

import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

import __ray_entry__ as entry_mod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "document_parser_private_ray"

# The driver order (its CORRECTNESS window records the first 50).
ORDER = [
    "event_value_trends", "fk_violations", "embedding_norms", "event_transitions",
    "revenue_by_parttype", "revenue_by_region", "props_field_stats",
    "orders_by_weekday", "priority_segment_chi2", "length_mad_by_lang",
    "building_not_big_spenders", "daily_revenue_ma7", "orders_above_customer_avg",
    "user_first_last_purchase", "nation_share_of_region", "dup_cluster_histogram",
    "cosupplier_pairs", "order_price_quartiles", "value_outliers",
    "label_balance_by_split", "dup_rate_by_source", "signup_conversion_24h",
    "weekly_revenue_wow", "source_token_gini", "split_length_ks",
    "transition_majority_accuracy", "time_to_convert_percentiles", "span_transitions",
    "span_bytes_by_kind", "funnel_counts", "retention_cohorts", "doc_oov_rate",
    "doc_letter_concentration", "top_words_by_source", "length_percentiles_by_lang",
    "word_collocations", "data_mix", "mix_counts", "media_full", "top_customers",
    "customers_big_spenders", "events_sliding", "curate_corpus", "winnow_overlap",
    "top_words", "doc_length_percentiles", "user_top_events", "split_counts",
    "ngram_jaccard", "embedding_neardup", "embedding_neardup_lsh", "html_main_content",
    "html_outlinks", "html_metadata", "url_dedup", "customer_balance_quartiles",
    "link_indegree", "crawl_frontier", "decontaminate_clean", "doc_normalize",
    "anchor_texts", "ann_lsh", "ann_ivfpq", "neardup_keep_best", "doc_perplexity",
    "embedding_pca", "snapshot_diff", "minhash_against_state", "ppjoin_pairs",
    "doc_quality_extended", "doc_tokens_bpe", "doc_winnow", "doc_repetition",
    "doc_chunks", "doc_stopwords", "source_filter", "source_stats", "bpe_pair_counts",
    "vocab_kmv", "vocab_kmv_by_source", "word_cms_estimates", "orders_price_bands",
    "priority_segment_pivot", "event_gaps", "orders_rollup", "remove_boilerplate",
    "table_checksum", "events_hourly_users", "user_event_paths", "parse_resumes",
    "parse_resumes_pii", "detect_sections", "span_rollup", "layout_blocks",
    "checkpoint_lineage", "doc_pii", "accuracy_eval", "q1_pricing_summary",
    "revenue_by_nation", "largest_docs", "order_lineitem_join",
    "customers_no_urgent_orders", "profile_columns", "order_bigline_histogram",
    "q3_shipping_priority", "events_hourly", "events_sessionize",
    "asof_purchases_views", "session_purchase_counts", "user_cumulative_spend",
    "web_curate", "corpus_shuffle", "distinct_segments", "sample_stratified",
    "dataset_split", "dedup_exact", "dedup_against_state", "dedup_minhash",
    "dedup_simhash", "html_spans", "semdedup", "ann_bruteforce", "ann_ivf",
    "embedding_kmeans", "doc_quality", "doc_tokens", "doc_language", "doc_fingerprints",
    "doc_tfidf", "doc_model_score", "decontaminate", "bm25_search", "build_postings",
    "supplier_pagerank", "dedup_segments", "media_features", "media_dedup",
    "pack_sequences", "vocab_hll",
]

ROWS = entry_mod.QUERY_TABLE
# rows whose input is the synthetic spans corpus (sf-sized or n documents)
SPANS_ROWS = {q.name for q in ROWS if q.input not in ("sf_dir", None)}


@pytest.fixture(scope="module")
def oracles():
    return entry_mod.oracle_sql()


def _resolve(target: str):
    module, _, func = target.rpartition(".")
    return getattr(importlib.import_module(f"{PKG}.{module}"), func)


def test_query_order_is_pinned():
    assert len(ORDER) == 139
    assert list(entry_mod.queries()) == ORDER


def test_import_starts_nothing():
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, __ray_entry__; "
         f"print(sorted(m for m in sys.modules if m == 'ray' or m.startswith('{PKG}')))"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    assert out.strip() == "[]"


def test_every_oracle_names_a_query(oracles):
    assert set(oracles) <= set(ORDER)


def test_targets_resolve_and_take_their_kwargs():
    assert len(ROWS) == 139
    bad = []
    for row in ROWS:
        args = () if row.input is None else (row.input,)
        try:
            inspect.signature(_resolve(row.target)).bind(*args, **row.kwargs)
        except (ImportError, AttributeError, TypeError) as e:
            bad.append((row.name, repr(e)))
    assert bad == []


def test_cents_columns_are_oracle_columns(oracles):
    # _round_cols skips a column the batch lacks, so a typo here would
    # only show up as a hash mismatch in a full sweep
    missing = [(q.name, c) for q in ROWS for c in q.cents if f"{c}_cents" not in oracles[q.name]]
    assert missing == []


def _check_contract():
    spec = importlib.util.spec_from_file_location(
        "check_contract", os.path.join(ROOT, "tools", "check_contract.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_changed_maps_each_query_to_its_modules():
    cc = _check_contract()
    mods = cc.package_modules()
    deps = cc.query_modules(entry_mod, mods)
    assert list(deps) == ORDER
    spans_staging = {f"{PKG}.pipelines.resume", f"{PKG}.sources.corpus"}
    for row in ROWS:
        assert f"{PKG}.{row.target.rpartition('.')[0]}" in deps[row.name], row.name
        # the corpus staging is a dependency only of rows that read the corpus
        staged = spans_staging <= deps[row.name]
        assert staged == (row.name in SPANS_ROWS), row.name
    assert len(SPANS_ROWS) == 9
    assert {f"{PKG}.stages.parse", f"{PKG}.pipelines.resume"} <= deps["detect_sections"]
    assert deps["media_full"] == {f"{PKG}", f"{PKG}.pipelines", f"{PKG}.pipelines.media"}
    # an edit to the corpus generator reaches the corpus rows and the
    # checkpoint run that writes its own corpus, never an HTML row
    affected = cc.importers({f"{PKG}.sources.corpus"}, mods)
    reached = {q for q, d in deps.items() if d & affected}
    assert reached == SPANS_ROWS | {"checkpoint_lineage"}


def test_broken_oracle_is_an_error_row_and_the_sweep_goes_on(monkeypatch, tmp_path):
    """An oracle whose SQL DuckDB rejects makes that query an ``ERROR``
    row: the queries after it still run and the JSON is still written.
    Ray and the entry module are stubs, so nothing starts."""
    import json
    import types

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    cc = _check_contract()
    for t in cc.TABLES:
        pq.write_table(pa.table({"x": [1]}), tmp_path / f"{t}.parquet")

    def one_row(sf):
        return pd.DataFrame({"x": [1]})

    entry = types.ModuleType("__ray_entry__")
    entry.queries = lambda: {"before": one_row, "broken": one_row, "after": one_row}
    entry.oracle_sql = lambda: {
        "before": "SELECT 1 AS x",
        "broken": "SELECT x FROM no_such_table",
        "after": "SELECT x FROM orders",
    }
    ray = types.SimpleNamespace(init=lambda **kw: None, shutdown=lambda: None)
    monkeypatch.setitem(sys.modules, "ray", ray)
    monkeypatch.setitem(sys.modules, "__ray_entry__", entry)
    monkeypatch.setenv("GRAFT_VERIFY_SF", "")  # main() sets it; restored after

    out = tmp_path / "sweep.json"
    argv = ["check_contract.py", str(tmp_path), "--only", "before,broken,after",
            "--json", str(out)]
    assert cc.main(argv) == 1
    got = json.loads(out.read_text())
    assert {q: r["status"] for q, r in got["queries"].items()} == {
        "before": "OK", "broken": "ERROR", "after": "OK",
    }
    assert got["n_fails"] == 1
