"""Correctness gate: sampled output rows against single-document truth.

Resume outputs are compared with ``DocumentOracle.process`` on the same
input spans: the span sequence (kind, text, media_ref, order), the
``resume`` struct and, for PII runs, ``anonymized_text`` and ``pii_map``.
Expected values go through the output's Arrow types so both sides
compare in one representation. HTML outputs are compared with a direct
``extract_html_blocks`` call on the same rendered page.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Sequence

import pyarrow as pa
import pyarrow.compute as pc

from inputs import span_columns


def sample_ids(ids: Sequence, sizes: Sequence[int], n: int = 24, n_largest: int = 2) -> List:
    """The ``n_largest`` largest inputs plus an even stride over the rest."""
    order = sorted(range(len(ids)), key=lambda i: (-sizes[i], i))
    picked = set(order[:n_largest])
    rest = [i for i in range(len(ids)) if i not in picked]
    step = max(1, len(rest) // max(1, n - n_largest))
    picked.update(rest[::step][: n - n_largest])
    return [ids[i] for i in sorted(picked)]


def expected_resumes(rows: Iterable[Dict], with_pii: bool) -> Dict[str, Dict]:
    from document_parser_private_ray.oracle.document import DocumentOracle
    from document_parser_private_ray.schemas import PII_ENTRY_TYPE, RESUME_TYPE

    oracle = DocumentOracle(with_pii=with_pii)
    out = {}
    for row in rows:
        got = oracle.process(*span_columns(row))
        exp = {
            "out_spans": [
                (s["kind"], s["text"], s["media_ref"], s["order"]) for s in got["out_spans"]
            ],
            "resume": pa.array([got["resume"]], type=RESUME_TYPE).to_pylist()[0],
        }
        if with_pii:
            exp["anonymized_text"] = got["anonymized_text"]
            exp["pii_map"] = pa.array(
                [got["pii_map"]], type=pa.list_(PII_ENTRY_TYPE)
            ).to_pylist()[0]
        out[row["doc_id"]] = exp
    return out


def output_files(out_dir: str) -> List[str]:
    """Parquet files under ``out_dir``, skipping uncommitted ``.tmp`` dirs."""
    files = []
    for base, dirs, names in os.walk(out_dir):
        dirs[:] = sorted(d for d in dirs if not d.endswith(".tmp"))
        files.extend(os.path.join(base, n) for n in sorted(names) if n.endswith(".parquet"))
    return files


def read_resume_rows(out_dir: str, ids: Sequence[str], with_pii: bool) -> List[Dict]:
    import pyarrow.dataset as pads

    cols = ["doc_id", "out_spans", "resume", "error"]
    if with_pii:
        cols += ["anonymized_text", "pii_map"]
    ds = pads.dataset(output_files(out_dir), format="parquet")
    return ds.to_table(columns=cols, filter=pc.field("doc_id").isin(list(ids))).to_pylist()


def count_rows_and_errors(out_dir: str) -> tuple:
    import pyarrow.dataset as pads

    ds = pads.dataset(output_files(out_dir), format="parquet")
    errors = ds.to_table(columns=["error"])["error"]
    n_err = pc.sum(pc.cast(pc.not_equal(errors, ""), pa.int64())).as_py() or 0
    return len(errors), n_err


def resume_mismatches(expected: Dict[str, Dict], rows: List[Dict]) -> List[str]:
    """doc ids whose output row is missing or differs from the oracle."""
    by_id = {r["doc_id"]: r for r in rows}
    bad = []
    for doc_id, exp in expected.items():
        row = by_id.get(doc_id)
        if row is None or row["error"]:
            bad.append(doc_id)
            continue
        spans = [(s["kind"], s["text"], s["media_ref"], s["order"]) for s in row["out_spans"]]
        same = spans == exp["out_spans"] and row["resume"] == exp["resume"]
        if "pii_map" in exp:
            same = same and row["anonymized_text"] == exp["anonymized_text"]
            same = same and row["pii_map"] == exp["pii_map"]
        if not same:
            bad.append(doc_id)
    return bad


def expected_html(pages: Dict[int, tuple]) -> Dict[int, List[tuple]]:
    """doc_id -> [(kind, text, media_ref)] from a direct extraction of the
    page the pipeline renders for (doc_id, text, source)."""
    from document_parser_private_ray.sources.html import (
        extract_html_blocks,
        render_html_page,
    )

    return {
        doc_id: [
            (b["kind"], b["text"], b.get("media_ref", ""))
            for b in extract_html_blocks(render_html_page(doc_id, text or "", source or ""))
        ]
        for doc_id, (text, source) in pages.items()
    }


def html_mismatches(expected: Dict[int, List[tuple]], rows: List[Dict]) -> List[int]:
    got: Dict[int, List] = {}
    for r in rows:
        got.setdefault(r["doc_id"], []).append(r)
    bad = []
    for doc_id, exp in expected.items():
        spans = sorted(got.get(doc_id, []), key=lambda r: r["span_offset"])
        offsets = [r["span_offset"] for r in spans]
        seq = [(r["kind"], r["text"], r["media_ref"]) for r in spans]
        if seq != exp or offsets != list(range(len(spans))):
            bad.append(doc_id)
    return bad
