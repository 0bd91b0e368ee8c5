"""Source/domain-level quality filtering — the CCNet/FineWeb shape:
score every document with the linear quality model, roll scores up to
per-SOURCE aggregates, and keep or drop whole sources by their mean
score (a crawl pipeline drops entire low-quality domains, not just
individual pages).

Scale shape:

* per-doc scoring is the existing ``ModelScore`` task stage (weights
  ship with the mapped instance, fully vectorized) with the ``source``
  column passed through;
* the shuffle ships only per-batch PARTIAL aggregates — each batch
  collapses to (source, sum_score, n_docs) rows in
  ``exchange.grouped_agg`` before the global groupby, so the exchange is
  bounded by batches x domains, not docs;
* the surviving-source set is bounded by the number of DOMAINS (tiny
  next to any corpus — the web has ~1e8 registrable domains vs 1e11+
  pages), so it is driver-collected and the verdict pass, one
  streaming scan, closes over the set.

``source_filter`` re-runs the cheap scoring scan for the verdict pass
instead of materializing the corpus-sized scored table between the two
passes; at 100 TB you would checkpoint the scored table to parquet and
read it back for pass 2 (``state/checkpoint.py``), trading storage for
the recompute.

The keep rule is a pure integer multiply-compare —
``sum_score >= CUTOFF_MICRO * n AND n >= MIN_DOCS`` — never a mean division,
so DuckDB replays it bit-exactly (cross-engine integer-division
flooring of negative sums never enters the picture).

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
LLM-training-data family the engine adds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .exchange import grouped_agg
from .text_analysis import ModelScore

CUTOFF_MICRO = 1_330_000  # per-source mean-score keep threshold
MIN_DOCS = 2  # sources with fewer docs lack signal -> dropped


class _ScoreWithSource(ModelScore):
    """ModelScore with the source column passed through the stage."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = super().__call__(batch)
        return out.append_column("source", batch["source"])


def _scored(sf_dir: str):
    from ..sources.readers import read_documents

    return read_documents(sf_dir, ["doc_id", "source", "text"]).map_batches(
        _ScoreWithSource(), batch_format="pyarrow", zero_copy_batch=True, batch_size=2048
    )


def source_stats(sf_dir: str):
    """Per-source rollup: ``source``, ``n_docs``, ``sum_score_micro``,
    ``src_kept`` — one row per domain."""
    agg = grouped_agg(
        _scored(sf_dir),
        "source",
        {"sum_score_micro": ("score_micro", "sum"), "n_docs": ("score_micro", "count")},
    )

    def verdict(t: pa.Table) -> pa.Table:
        s = t["sum_score_micro"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n_docs"].to_numpy(zero_copy_only=False).astype(np.int64)
        kept = ((s >= CUTOFF_MICRO * n) & (n >= MIN_DOCS)).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "source": t["source"],
                "n_docs": pa.array(n, type=pa.int64()),
                "sum_score_micro": pa.array(s, type=pa.int64()),
                "src_kept": pa.array(kept, type=pa.int64()),
            }
        )

    return agg.map_batches(
        verdict, batch_format="pyarrow", zero_copy_batch=True
    )


def source_filter(sf_dir: str):
    """Per-doc verdicts: ``doc_id``, ``source``, ``score_micro``,
    ``src_kept`` (the doc's whole source survived the mean-score gate).
    All docs are emitted — the flag IS the result, so
    downstream can either filter on it or audit what a drop removes."""
    stats = source_stats(sf_dir).to_pandas()
    kept = set(stats.loc[stats["src_kept"] == 1, "source"])  # bounded by #domains
    kept = pa.array(sorted(kept), type=pa.string())

    def attach(t: pa.Table) -> pa.Table:
        flag = pa.compute.cast(
            pa.compute.is_in(t["source"], value_set=kept), pa.int64()
        )
        return pa.Table.from_pydict(
            {
                "doc_id": pa.compute.cast(t["doc_id"], pa.int64()),
                "source": t["source"],
                "score_micro": pa.compute.cast(t["score_micro"], pa.int64()),
                "src_kept": flag,
            }
        )

    return (
        _scored(sf_dir)
        .map_batches(attach, batch_format="pyarrow", zero_copy_batch=True)
    )
