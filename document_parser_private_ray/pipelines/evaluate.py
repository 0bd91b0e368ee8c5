"""Accuracy evaluation harness (R3 eval join + SURVEY §5 metrics,
mirroring testing/accuracy_benchmark/evaluation_metrics.py:6-50).

Distributed shape: ground truth ⋈ predictions on doc_id. The per-pair
counters (tp/fp/fn, token_set similarity) are computed inside
``map_batches`` against a BROADCAST ground-truth map (``ray.put`` once),
then reduced with a tiny global aggregate — corpus-level
precision/recall/F1 per entity type without shuffling either side.
"""

from __future__ import annotations

from typing import Dict, List

import pyarrow as pa

from ..functions import fuzzy

ENTITY_TYPES = ("skills", "companies", "education")


def _pair_counters(true_list: List[str], pred_list: List[str]) -> Dict:
    t_set, p_set = set(true_list), set(pred_list)
    return {
        "tp": len(t_set & p_set),
        "fp": len(p_set - t_set),
        "fn": len(t_set - p_set),
        "similarity": fuzzy.token_set_ratio(str(true_list), str(pred_list)),
    }


def _finalize(tp: int, fp: int, fn: int, sim_sum: float, n: int) -> Dict:
    precision = tp / (tp + fp) if (tp + fp) > 0 else 0
    recall = tp / (tp + fn) if (tp + fn) > 0 else 0
    f1 = (
        2 * (precision * recall) / (precision + recall)
        if (precision + recall) > 0
        else 0
    )
    return {
        "precision": round(precision, 4),
        "recall": round(recall, 4),
        "f1": round(f1, 4),
        "similarity": round(sim_sum / n, 1) if n else 0.0,
    }


def evaluate_predictions(predictions, ground_truth_rows: List[Dict]) -> Dict:
    """``predictions``: Dataset with (doc_id, skills, companies,
    education) list columns; ``ground_truth_rows``: small golden list of
    dicts with the same fields. Returns {entity_type: metrics}."""
    import ray
    from ray.data.aggregate import Count, Sum

    gt_ref = ray.put({r["doc_id"]: r for r in ground_truth_rows})

    def counters(batch: pa.Table) -> pa.Table:
        gt = ray.get(gt_ref)
        rows = []
        for row in batch.to_pylist():
            g = gt.get(row["doc_id"])
            if g is None:  # inner-join semantics (pd.merge on document_id)
                continue
            for et in ENTITY_TYPES:
                c = _pair_counters(g.get(et, []) or [], row.get(et, []) or [])
                rows.append({"entity_type": et, **c})
        schema = pa.schema(
            [
                ("entity_type", pa.string()),
                ("tp", pa.int64()),
                ("fp", pa.int64()),
                ("fn", pa.int64()),
                ("similarity", pa.float64()),
            ]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    agg = (
        predictions.map_batches(counters, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("entity_type")
        .aggregate(
            Sum("tp", alias_name="tp"),
            Sum("fp", alias_name="fp"),
            Sum("fn", alias_name="fn"),
            Sum("similarity", alias_name="sim_sum"),
            Count(alias_name="n"),
        )
    )
    out = {}
    for row in agg.take_all():
        out[row["entity_type"]] = _finalize(
            row["tp"], row["fp"], row["fn"], row["sim_sum"], row["n"]
        )
    return out


def entity_counter_metrics(predictions, ground_truth_rows: List[Dict]):
    """SQL-replayable evaluation: Dataset of (entity_type, tp, fp, fn,
    precision_micro, recall_micro, f1_micro) — exact SET counters per
    doc against a broadcast ground truth, reduced by one tiny groupby,
    metrics in integer micro fixed-point (positive trunc-div == floor,
    so a DuckDB oracle over the exported prediction/golden parquets
    reproduces every value bit-for-bit; the fuzzy similarity channel
    stays in ``evaluate_predictions``/pytest)."""
    import ray
    from ray.data.aggregate import Sum

    gt_ref = ray.put({r["doc_id"]: r for r in ground_truth_rows})

    def counters(batch: pa.Table) -> pa.Table:
        gt = ray.get(gt_ref)
        rows = []
        for row in batch.to_pylist():
            g = gt.get(row["doc_id"])
            if g is None:
                continue
            for et in ENTITY_TYPES:
                t_set = set(g.get(et, []) or [])
                p_set = set(row.get(et, []) or [])
                rows.append(
                    {
                        "entity_type": et,
                        "tp": len(t_set & p_set),
                        "fp": len(p_set - t_set),
                        "fn": len(t_set - p_set),
                    }
                )
        schema = pa.schema(
            [
                ("entity_type", pa.string()),
                ("tp", pa.int64()),
                ("fp", pa.int64()),
                ("fn", pa.int64()),
            ]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    def finalize(t: pa.Table) -> pa.Table:
        import numpy as np

        tp = t["tp"].to_numpy(zero_copy_only=False).astype(np.int64)
        fp = t["fp"].to_numpy(zero_copy_only=False).astype(np.int64)
        fn = t["fn"].to_numpy(zero_copy_only=False).astype(np.int64)
        M = np.int64(1_000_000)
        with_p = tp + fp > 0
        with_r = tp + fn > 0
        p = np.where(with_p, (tp * M) // np.maximum(tp + fp, 1), 0)
        r = np.where(with_r, (tp * M) // np.maximum(tp + fn, 1), 0)
        f1 = np.where(p + r > 0, (2 * p * r) // np.maximum(p + r, 1), 0)
        return pa.Table.from_pydict(
            {
                "entity_type": t["entity_type"],
                "tp": pa.array(tp),
                "fp": pa.array(fp),
                "fn": pa.array(fn),
                "precision_micro": pa.array(p),
                "recall_micro": pa.array(r),
                "f1_micro": pa.array(f1),
            }
        )

    return (
        predictions.map_batches(
            counters, batch_format="pyarrow", zero_copy_batch=True
        )
        .groupby("entity_type")
        .aggregate(
            Sum("tp", alias_name="tp"),
            Sum("fp", alias_name="fp"),
            Sum("fn", alias_name="fn"),
        )
        .map_batches(finalize, batch_format="pyarrow", zero_copy_batch=True)
        .sort("entity_type")
    )


def _entities(doc_id: str, resume) -> Dict:
    """A resume's entity columns: skills, companies (from experience),
    education (degree strings)."""
    resume = resume or {}
    return {
        "doc_id": doc_id,
        "skills": resume.get("skills", []),
        "companies": [e["company"] for e in resume.get("experience", []) if e["company"]],
        "education": [e["degree"] for e in resume.get("education", []) if e["degree"]],
    }


def parsed_to_prediction_columns(parsed):
    """Project the parse-chain output to the evaluator's entity columns:
    skills, companies (from experience), education (degree strings)."""

    def project(batch: pa.Table) -> pa.Table:
        rows = [_entities(row["doc_id"], row["resume"]) for row in batch.to_pylist()]
        schema = pa.schema(
            [
                ("doc_id", pa.string()),
                ("skills", pa.list_(pa.string())),
                ("companies", pa.list_(pa.string())),
                ("education", pa.list_(pa.string())),
            ]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    return parsed.map_batches(project, batch_format="pyarrow", zero_copy_batch=True)


def accuracy_eval(spans, export: str, n_docs: int):
    """Eval join (R3) + §5 metrics: parse-chain predictions over a spans
    Dataset (the synthetic corpus of ``n_docs`` documents, default seed)
    vs the single-doc oracle's golden entities for the same documents,
    generated afresh from ``sources.corpus.generate_document`` so the
    golden side never passes through the corpus write and read. F1 ==
    1.0 (1_000_000 micro) for every entity type IS the invariant.
    Predictions and golden go through atomic parquet exports at
    ``export``-preds / ``export``-golden, so a SQL oracle replays the
    exact-set tp/fp/fn counters and integer micro metrics; the fuzzy
    similarity channel stays with ``evaluate_predictions``."""
    import ray.data as rd

    from ..oracle import DocumentOracle
    from ..sources.corpus import generate_document
    from ..state import exported
    from .resume import parse_resumes

    oracle = DocumentOracle()
    golden = []
    for i in range(n_docs):
        doc = generate_document(i)
        sp = doc["spans"]
        out = oracle.process(
            doc["doc_id"], [s["kind"] for s in sp], [s["text"] for s in sp],
            [s["media_ref"] for s in sp],
        )
        golden.append(_entities(doc["doc_id"], out["resume"]))
    exported(rd.from_arrow(pa.Table.from_pylist(golden)), f"{export}-golden")
    preds = exported(parsed_to_prediction_columns(parse_resumes(spans)), f"{export}-preds")
    return entity_counter_metrics(preds, golden)
