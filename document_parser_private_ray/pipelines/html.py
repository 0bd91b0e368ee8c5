"""HTML main-content extraction pipelines (north-rule surface: HTML
boilerplate strip + DOM heuristics as map_batches over Arrow batches).

Chain shape: documents --render--> html pages --extract--> interleaved
(kind, text, media_ref, order) spans. Rendering is the deterministic
in-sandbox substitute for a crawled-HTML corpus (``sources.html.
render_html_page``); extraction is the general jusText/Boilerpipe-style
classifier (``sources.html.extract_html_blocks``). Both stages are
embarrassingly parallel per-document maps — no shuffle anywhere; at
100 TB the chain streams block-by-block with backpressure. Extraction
holds no per-worker state, so each stage is a stage instance (its
``extract`` callable pickled with it) mapped as Ray tasks, which fuse
with the render map into one task per 128-page batch and start on the
reusable task-worker pool instead of waiting for an actor pool.

Verification is closed-form: the page generator's chrome is boilerplate
by construction, so the DuckDB oracle reconstructs the exact expected
span sequence (heading at offset 0, 40-word paragraphs, the media span
at offset 2 for every fifth doc) from the raw ``documents.text`` alone.
Any boilerplate leak, lost paragraph, broken entity/inline-markup
handling or misordered span is a value-hash mismatch.
"""

from __future__ import annotations

from typing import Callable, Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..sources.readers import read_documents
from ..stages import lift_reservation
from .exchange import co_partition, grouped_agg, sorted_runs


def _render_batch(batch: pa.Table) -> pa.Table:
    from ..sources.html import render_html_page

    ids = batch["doc_id"].to_pylist()
    texts = batch["text"].to_pylist()
    srcs = batch["source"].to_pylist()
    pages = [
        render_html_page(i, t or "", s or "") for i, t, s in zip(ids, texts, srcs)
    ]
    return pa.Table.from_arrays(
        [pa.array(ids, type=pa.int64()), pa.array(pages, type=pa.string())],
        names=["doc_id", "html"],
    )


class HtmlMainContent:
    """Task-mapped extraction stage: html -> exploded main-content spans.

    Pass an instance to ``map_batches``: the stage runs as Ray tasks
    fused with the render map, and the operator keeps the class name
    (``MapBatches(HtmlMainContent)``). The default backend is the
    stdlib DOM-heuristic classifier; a real DOM library
    (lxml/selectolax/trafilatura — absent offline) slots in via
    ``extract=``, a picklable ``html -> blocks`` callable shipped with
    the instance, matching the PdfExtract/DocxExtract slot
    architecture."""

    def __init__(self, extract: Optional[Callable] = None):
        if extract is None:
            from ..sources.html import extract_html_blocks

            extract = extract_html_blocks
        self.extract = extract

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, off, kind, text, ref = [], [], [], [], []
        for i, page in zip(
            batch["doc_id"].to_pylist(), batch["html"].to_pylist()
        ):
            for j, b in enumerate(self.extract(page)):
                out_id.append(i)
                off.append(j)
                kind.append(b["kind"])
                text.append(b["text"])
                ref.append(b.get("media_ref", ""))
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(off, type=pa.int64()),
                pa.array(kind, type=pa.string()),
                pa.array(text, type=pa.string()),
                pa.array(ref, type=pa.string()),
            ],
            names=["doc_id", "span_offset", "kind", "text", "media_ref"],
        )


class HtmlDocSummary(HtmlMainContent):
    """Same extraction, one row per document: the recovered main text
    (text spans joined by single spaces — exactly the source text by
    generator construction) plus span/media counts. No reassembly
    shuffle is needed because extraction is already per-document."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_id, main, n_spans, n_media = [], [], [], []
        for i, page in zip(
            batch["doc_id"].to_pylist(), batch["html"].to_pylist()
        ):
            blocks = self.extract(page)
            text = " ".join(b["text"] for b in blocks if b["kind"] == "text")
            if not text.split():
                # mirror the oracle's len(w) > 0 filter: a document whose
                # extraction recovers zero words has no summary row on
                # either side (ADVICE r4: don't rely on the generator's
                # non-empty-text guarantee)
                continue
            out_id.append(i)
            main.append(text)
            n_spans.append(len(blocks))
            n_media.append(sum(1 for b in blocks if b["kind"] == "media"))
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(main, type=pa.string()),
                pa.array(n_spans, type=pa.int64()),
                pa.array(n_media, type=pa.int64()),
            ],
            names=["doc_id", "main_text", "n_spans", "n_media"],
        )


def _pages(sf_dir: str):
    ds = read_documents(sf_dir, ("doc_id", "text", "source"))
    return ds.map_batches(
        _render_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _extract_pages(sf_dir: str, stage: HtmlMainContent):
    """``stage`` over the rendered pages, 128 pages per batch: one cheap
    parquet scan feeding a CPU-bound map, so it runs under
    ``stages.lift_reservation``. On the ``html_extract`` benchmark (4
    CPUs) that took the run-to-run ``docs_per_s`` spread from 17% to
    4.5% of the median."""
    return lift_reservation(
        _pages(sf_dir).map_batches(stage, batch_format="pyarrow", batch_size=128)
    )


def html_spans(sf_dir: str, extract: Optional[Callable] = None):
    """Per-document main-content span sequence (kind, text, media_ref,
    span_offset) after boilerplate strip — the north rule's span tuple
    over HTML input. Render and extraction fuse into one Ray task per
    read block (extraction runs on 128-page batches) on the shared
    task-worker pool, so the stage scales with the cluster's CPUs
    without a pool size to tune: it is embarrassingly parallel and
    compute-bound (0.54 ms/page extraction,
    ``html.extract_html_blocks.ms_per_page`` of the ``html_extract``
    benchmark trace, seed 1, on 4 CPUs)."""
    return _extract_pages(sf_dir, HtmlMainContent(extract))


def html_main_content(sf_dir: str, extract: Optional[Callable] = None):
    """Per-document recovered main text + span/media counts. By
    construction main_text == the whitespace-normalized source text, so
    the oracle is the documents table itself."""
    return _extract_pages(sf_dir, HtmlDocSummary(extract))


# -- link graph / URL canonicalization --------------------------------------


def _outlinks_batch(batch: pa.Table) -> pa.Table:
    from ..sources.html import extract_outlinks

    out_id, url = [], []
    for i, page in zip(batch["doc_id"].to_pylist(), batch["html"].to_pylist()):
        _, links = extract_outlinks(page)
        out_id.extend([i] * len(links))
        url.extend(links)
    return pa.Table.from_arrays(
        [pa.array(out_id, type=pa.int64()), pa.array(url, type=pa.string())],
        names=["doc_id", "url"],
    )


def html_outlinks(sf_dir: str):
    """Per-document outlink edge list: every <a href> resolved against
    the page's canonical URL and RFC 3986-normalized (tracking params
    stripped, fragments/self-links dropped, distinct per doc). Pure
    per-document map — the web-graph edge extraction pass; no shuffle."""
    return _pages(sf_dir).map_batches(
        _outlinks_batch, batch_format="pyarrow", zero_copy_batch=True
    )


def _metadata_batch(batch: pa.Table) -> pa.Table:
    from ..sources.html import extract_links, normalize_url

    out_id, title, desc, canon = [], [], [], []
    for i, page in zip(batch["doc_id"].to_pylist(), batch["html"].to_pylist()):
        m = extract_links(page)
        out_id.append(i)
        title.append(m["title"])
        desc.append(m["description"])
        canon.append(normalize_url(m["canonical"]) if m["canonical"] else "")
    return pa.Table.from_arrays(
        [
            pa.array(out_id, type=pa.int64()),
            pa.array(title, type=pa.string()),
            pa.array(desc, type=pa.string()),
            pa.array(canon, type=pa.string()),
        ],
        names=["doc_id", "title", "description", "canonical_url"],
    )


def html_metadata(sf_dir: str):
    """Per-document head metadata: <title>, <meta description>, and the
    normalized <link rel=canonical> URL."""
    return _pages(sf_dir).map_batches(
        _metadata_batch, batch_format="pyarrow", zero_copy_batch=True
    )


class WebCurationFeatures(HtmlMainContent):
    """ONE parse per page emitting everything curation needs: the
    boilerplate-stripped main text AND the normalized canonical URL.
    At 100 TB this is the single pass over the crawl store — the text
    and URL dedup sides must never each re-read (or re-parse) the
    corpus."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..sources.html import extract_links, normalize_url

        out_id, main, canon = [], [], []
        for i, page in zip(
            batch["doc_id"].to_pylist(), batch["html"].to_pylist()
        ):
            blocks = self.extract(page)
            out_id.append(i)
            main.append(" ".join(b["text"] for b in blocks if b["kind"] == "text"))
            c = extract_links(page)["canonical"]
            canon.append(normalize_url(c) if c else "")
        return pa.Table.from_arrays(
            [
                pa.array(out_id, type=pa.int64()),
                pa.array(main, type=pa.string()),
                pa.array(canon, type=pa.string()),
            ],
            names=["doc_id", "text", "canonical_url"],
        )


def web_curate(
    sf_dir: str,
    min_words: int = 5,
    max_digit_ratio: float = 0.3,
    langs=("en",),
):
    """The composed WEB curation chain — what a crawl-to-training-set
    pipeline actually runs, end to end as one streaming plan:

        render/crawl -> ONE extraction pass (main text + canonical URL)
          -> quality filter -> language filter
          -> exact-text dedup AND canonical-URL dedup
          -> content-stable split assignment -> per-split rollup

    A document survives iff it is the keeper (min doc_id) of BOTH its
    text group (among quality+language passers) and its canonical-URL
    group (among ALL crawled pages). The two dedups share ONE
    co-partition exchange by unioning their key spaces with disjoint
    prefixes ('T:'sha256(text) / 'U:'url) — each key bucket closes with
    one vectorized Arrow group_by; a second keys-only exchange on
    doc_id intersects the keeper sets (a doc surviving both dedups
    contributes exactly two keeper rows). Corpus is parsed once,
    exchanges carry keys only, nothing broadcasts."""
    import hashlib

    from .curate import make_language_filter, make_quality_filter, split_rollup

    feats = _pages(sf_dir).map_batches(
        WebCurationFeatures(), batch_format="pyarrow", batch_size=128
    )
    quality_filter = make_quality_filter(min_words, max_digit_ratio)
    language_filter = make_language_filter(langs)

    def tag_union(t: pa.Table) -> pa.Table:
        # U rows for every crawled page; T rows only for quality+lang
        # passers (text keeper is elected among passers, URL keeper
        # among all pages — matching running the two dedups separately)
        passed = language_filter(quality_filter(t))
        # a page without a canonical URL is its own URL group (real
        # crawls fall back to the fetch URL) — never one giant '' group
        keys = [
            ("U:" + u) if u else f"U:#{d}"
            for u, d in zip(
                t["canonical_url"].to_pylist(), t["doc_id"].to_pylist()
            )
        ] + [
            "T:" + hashlib.sha256(x.encode("utf-8")).hexdigest()
            for x in passed["text"].to_pylist()
        ]
        ids = t["doc_id"].to_pylist() + passed["doc_id"].to_pylist()
        return pa.Table.from_arrays(
            [pa.array(keys, type=pa.string()), pa.array(ids, type=pa.int64())],
            names=["key", "doc_id"],
        )

    def keepers_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by("key").aggregate([("doc_id", "min")])
        return pa.Table.from_arrays([g["doc_id_min"]], names=["doc_id"])

    def both_keeper(group: pa.Table) -> pa.Table:
        g = group.group_by("doc_id").aggregate([([], "count_all")])
        both = g.filter(pc.equal(g["count_all"], 2))
        return pa.Table.from_arrays([both["doc_id"]], names=["doc_id"])

    keys = feats.map_batches(tag_union, batch_format="pyarrow", zero_copy_batch=True)
    keeper_rows = co_partition({"keys": (keys, None)}, "key", keepers_bucket)
    survivors = co_partition(
        {"keepers": (keeper_rows, None)}, "doc_id", both_keeper
    )
    return split_rollup(survivors)


def link_indegree(sf_dir: str, top_k: int = 30):
    """Link-graph in-degree: how many pages point at each URL — the
    first signal every crawl ranker computes. Chrome URLs (/home, the
    footer links) are HOT KEYS appearing once per page, so the edge
    list pre-aggregates per batch (url -> partial count) BEFORE the
    groupby: each batch collapses its chrome edges to one row per URL
    and the exchange carries partials, never the raw hot-key edges.
    Top-k by (in_degree desc, url) keeps the result driver-small."""
    return (
        grouped_agg(html_outlinks(sf_dir), "url", {"in_degree": ("doc_id", "count")})
        .sort(["in_degree", "url"], descending=[True, False])
        .limit(top_k)
    )


def crawl_frontier(sf_dir: str):
    """URLs discovered by the crawl but not yet fetched: DISTINCT
    outlink URLs minus the crawled pages' canonical URLs — the
    frontier a crawler feeds back into its queue. Both sides are
    corpus-scale, so neither broadcasts: outlinks pre-distinct per
    batch, both sides share ONE url-bucket co-partition
    exchange, and each bucket closes with a vectorized set difference
    (distinct(A) filtered by ``is_in`` against B). Note a page whose
    canonical points elsewhere (the doc_id % 7 == 3 twist) leaves its
    own /doc/K URL in the frontier — exactly right for canonical-URL
    bookkeeping."""

    def frontier_rows(batch: pa.Table) -> pa.Table:
        # ONE parse per page yields both sides: its outlinks (A) and
        # its own crawled canonical URL (B); per-batch distinct before
        # the exchange
        from ..sources.html import extract_outlinks

        a: set = set()
        b: set = set()
        for page in batch["html"].to_pylist():
            p, links = extract_outlinks(page)
            a.update(links)
            if p:
                b.add(p)
        urls = sorted(a) + sorted(b)
        sides = ["A"] * len(a) + ["B"] * len(b)
        return pa.Table.from_arrays(
            [
                pa.array(urls, type=pa.string()),
                pa.array(sides, type=pa.string()),
            ],
            names=["url", "side"],
        )

    both = _pages(sf_dir).map_batches(
        frontier_rows, batch_format="pyarrow", zero_copy_batch=True
    )

    def frontier_bucket(group: pa.Table) -> pa.Table:
        side = pc.equal(group["side"], "A")
        a = pc.unique(group.filter(side)["url"])
        b = group.filter(pc.invert(side))["url"]
        keep = pc.invert(pc.is_in(a, value_set=b))
        return pa.Table.from_arrays([a.filter(keep)], names=["url"])

    return co_partition(
        {"urls": (both, None)}, "url", frontier_bucket
    ).sort("url")


def url_dedup(sf_dir: str):
    """Canonical-URL-level dedup (the crawl pass that collapses the
    same page fetched under several URLs): keeper = min doc_id per
    normalized canonical URL. Same scale shape as ``dedup.dedup_exact``
    — (url, doc_id) keys-only projection BEFORE the shuffle, url-bucket
    co-partition, ONE vectorized Arrow group_by per bucket (per-group
    Python never runs; URL groups are unbounded at corpus scale)."""
    urls = _pages(sf_dir).map_batches(
        _metadata_batch, batch_format="pyarrow", zero_copy_batch=True
    ).select_columns(["doc_id", "canonical_url"])

    def reduce_bucket(group: pa.Table) -> pa.Table:
        g = group.group_by("canonical_url").aggregate(
            [("doc_id", "min"), ("doc_id", "count")]
        )
        return g.rename_columns(["canonical_url", "keep_doc_id", "n_copies"])

    return co_partition(
        {"urls": (urls, None)}, "canonical_url", reduce_bucket
    ).sort("keep_doc_id")


def web_extract_job(
    sf_dir: str,
    out_dir: str,
    n_partitions: int = 8,
    run_id: str = "web-0",
    fail_after=None,
):
    """The HTML chain as a RESUMABLE checkpointed job (north rule:
    per-partition lineage + counters, idempotent restart): doc_id hash
    buckets each stream render -> extract -> spans into an atomically
    committed partition; a failed run re-executes only uncommitted
    buckets. Returns the run summary dict."""
    from ..state.checkpoint import run_resumable_table

    def stage(ds):
        return ds.map_batches(
            _render_batch, batch_format="pyarrow", zero_copy_batch=True
        ).map_batches(HtmlMainContent(), batch_format="pyarrow", batch_size=128)

    return run_resumable_table(
        f"{sf_dir}/documents.parquet",
        out_dir,
        stage,
        run_id=run_id,
        n_partitions=n_partitions,
        columns=["doc_id", "text", "source"],
        fail_after=fail_after,
    )


def anchor_texts(sf_dir: str, top_k: int = 30):
    """Anchor-text aggregation — the classic off-page ranking signal:
    for each link target, how many anchors point at it, how many
    distinct anchor texts, and the dominant text (max count, ties by
    text). Chrome anchors are hot (url, text) keys, so per-batch
    Counter partials collapse them BEFORE the first exchange; the
    per-url argmax closes in ``exchange.sorted_runs`` on the url (one
    Arrow sort per url-hash bucket, no per-url Python)."""
    import numpy as np
    from ray.data.aggregate import Sum

    def partials(batch: pa.Table) -> pa.Table:
        from collections import Counter
        from urllib.parse import urlsplit

        from ..sources.html import extract_links, normalize_url

        cnt: Counter = Counter()
        for page in batch["html"].to_pylist():
            m = extract_links(page)
            base = m["canonical"]
            page_url = normalize_url(base) if base else ""
            for a in m["links"]:
                if not a["href"]:
                    continue
                u = normalize_url(a["href"], base=base or None)
                if u and u != page_url and urlsplit(u).scheme in ("http", "https"):
                    cnt[(u, a["text"])] += 1
        urls, texts, ns = [], [], []
        for (u, t), n in cnt.items():
            urls.append(u)
            texts.append(t)
            ns.append(n)
        return pa.Table.from_arrays(
            [
                pa.array(urls, type=pa.string()),
                pa.array(texts, type=pa.string()),
                pa.array(ns, type=pa.int64()),
            ],
            names=["url", "atext", "n"],
        )

    counts = (
        _pages(sf_dir)
        .map_batches(partials, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["url", "atext"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def reduce_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # each url run sorted by count desc, text asc: its first row
        # holds the top text
        starts = np.flatnonzero(pos == 0)
        return pa.Table.from_arrays(
            [
                g["url"].take(starts),
                pa.array(np.add.reduceat(g["n"].to_numpy(), starts), type=pa.int64()),
                pa.array(np.diff(np.append(starts, len(pos)))),
                g["atext"].take(starts),
            ],
            names=["url", "n_anchors", "n_unique_texts", "top_text"],
        )

    return (
        sorted_runs(counts, "url", [("n", "descending"), "atext"], reduce_bucket)
        .sort(["n_anchors", "url"], descending=[True, False])
        .limit(top_k)
    )
