"""Layout-analysis pipeline (M2/M3 as a corpus-scale stage).

The analyzer itself is pure logic over page dicts
(``functions.layout``); this module gives it the Ray Data shape: a
deterministic synthetic corpus of layout documents (page dicts in the
``fitz.Page.get_text("dict")`` schema — the same mocked-page approach
the reference's test_LayoutAnalyzer.py uses), a task
``map_batches`` stage running analyze -> integrate -> spans, and a
per-document stats row for the driver's ``layout_blocks`` query.
"""

from __future__ import annotations

import random
from typing import Dict, List

import pyarrow as pa

from ..functions.layout import analyze_layout, integrate_layout, layout_to_spans
from .exchange import as_array

_FONTS = [
    ("Arial", 10.0), ("Arial", 11.0), ("Arial-Bold", 14.0), ("Arial-Bold", 16.0),
    ("Times-Roman", 10.0), ("Times-Roman", 9.0), ("CMBX10", 10.0),
    ("Courier", 8.0), ("Helvetica", 12.0),
]
_HEADING_WORDS = ["SUMMARY", "EXPERIENCE", "EDUCATION", "SKILLS", "PROJECTS"]
_BODY_WORDS = [
    "built", "data", "pipelines", "with", "batch", "processing", "and",
    "streaming", "joins", "over", "arrow", "tables", "for", "reports",
]


# the synthetic layout corpus: its generator's seed and its documents
SEED = 42
N_DOCS = 500


def generate_layout_document(doc_index: int) -> Dict:
    """Pure function (SEED, doc_index) -> {doc_id, pages: [page_dict]}."""
    rng = random.Random((SEED << 21) ^ doc_index)
    pages: List[Dict] = []
    for page_num in range(rng.randint(1, 3)):
        blocks = []
        y = 0
        for _ in range(rng.randint(1, 6)):
            if rng.random() < 0.2:
                w, h = rng.randint(50, 400), rng.randint(40, 300)
                blocks.append(
                    {"type": 1, "bbox": (0, y, w, y + h), "width": w, "height": h}
                )
                y += h
                continue
            lines = []
            for _ in range(rng.randint(1, 3)):
                spans = []
                for _ in range(rng.randint(1, 3)):
                    name, size = rng.choice(_FONTS)
                    if rng.random() < 0.25:
                        text = rng.choice(_HEADING_WORDS)
                    else:
                        text = " ".join(
                            rng.choice(_BODY_WORDS) for _ in range(rng.randint(2, 6))
                        )
                    if rng.random() < 0.1:
                        text = "  "  # empty-after-strip span (skipped)
                    spans.append({"text": text, "font": name, "size": size})
                lines.append({"spans": spans})
            blocks.append({"type": 0, "bbox": (0, y, 600, y + 40), "lines": lines})
            y += 40
        pages.append({"width": 600, "height": 800, "blocks": blocks})
    return {"doc_id": f"layout-{doc_index:06d}", "pages": pages}


_STATS_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("n_pages", pa.int32()),
        ("n_blocks", pa.int32()),
        ("n_headings", pa.int32()),
        ("n_images", pa.int32()),
        ("n_font_variants", pa.int32()),
        ("dominant_font", pa.string()),
        ("n_spans", pa.int32()),
    ]
)


class LayoutAnalyzeStage:
    """Task stage: doc ids -> analyze -> integrate -> span + stats row."""

    def __call__(self, batch) -> pa.Table:
        rows = []
        for i in batch["id"]:
            doc = generate_layout_document(int(i))
            layout = analyze_layout(doc["pages"])
            integrated = integrate_layout({"raw_text": "", "tables": []}, layout)
            spans = layout_to_spans(integrated, layout)
            n_head = sum(1 for c in integrated["content"] if c["type"] == "heading")
            dominant = ""
            if layout["fonts"]:
                dominant = max(layout["fonts"].items(), key=lambda kv: kv[1])[0]
            rows.append(
                {
                    "doc_id": doc["doc_id"],
                    "n_pages": len(doc["pages"]),
                    "n_blocks": len(layout["text_blocks"]),
                    "n_headings": n_head,
                    "n_images": len(layout["images"]),
                    "n_font_variants": len(layout["fonts"]),
                    "dominant_font": dominant,
                    "n_spans": len(spans),
                }
            )
        return pa.Table.from_pylist(rows, schema=_STATS_SCHEMA)


def write_layout_flat(out_dir: str) -> None:
    """Flatten the ``N_DOCS``-document synthetic layout corpus to parquet — one row per
    text-block SPAN plus one row per image block — so a SQL oracle can
    recompute the M2/M3 stats (font histograms, dominant font,
    heading heuristic) from the exact input the layout_blocks query
    analyzes. ``ord`` is the span's global order within the document
    (pages -> blocks -> lines -> spans): the dict-insertion order that
    breaks argmax ties in summarize_fonts/analyze_layout."""
    import os

    import pyarrow.parquet as pq

    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for i in range(N_DOCS):
        doc = generate_layout_document(i)
        ordinal = 0
        for page_num, page in enumerate(doc["pages"]):
            for block_idx, block in enumerate(page["blocks"]):
                if block.get("type") == 1:
                    rows.append(
                        {
                            "doc_id": doc["doc_id"], "page": page_num,
                            "block_idx": block_idx, "btype": 1,
                            "text": None, "font": None, "size": None, "ord": None,
                        }
                    )
                    continue
                for line in block.get("lines", []):
                    for span in line.get("spans", []):
                        rows.append(
                            {
                                "doc_id": doc["doc_id"], "page": page_num,
                                "block_idx": block_idx, "btype": 0,
                                "text": span["text"], "font": span["font"],
                                "size": float(span["size"]), "ord": ordinal,
                            }
                        )
                        ordinal += 1
    schema = pa.schema(
        [
            ("doc_id", pa.string()), ("page", pa.int32()),
            ("block_idx", pa.int32()), ("btype", pa.int32()),
            ("text", pa.string()), ("font", pa.string()),
            ("size", pa.float64()), ("ord", pa.int64()),
        ]
    )
    pq.write_table(
        pa.Table.from_pylist(rows, schema=schema),
        os.path.join(out_dir, "part-00000.parquet"),
    )


def layout_blocks(n_docs: int = N_DOCS):
    """Driver query: layout-analyze a deterministic synthetic corpus,
    one stats row per document."""
    import ray.data as rd

    ds = rd.range(n_docs)
    return ds.map_batches(
        LayoutAnalyzeStage(), batch_format="numpy", batch_size=128
    )


def span_kind_transitions(spans):
    """Document-structure analytics over the interleaved-span corpus
    itself (the ``spans`` Dataset, as ``resume.read_corpus`` reads it):
    (prev_kind -> kind) adjacency counts across every document's span
    sequence — the structural signature of the corpus (how often
    text runs into images, tables into text, ...). Fully vectorized: the
    span kinds flatten off the list buffer, intra-document adjacent
    pairs select with one offsets mask (no per-row Python, no shuffle of
    span payloads — only <= kinds^2 partial counts per batch move)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from .exchange import grouped_agg

    def pairs(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        spans = as_array(spans)
        off = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        kinds = pc.struct_field(spans.values, "kind")
        k = np.asarray(kinds.to_pylist(), dtype=object)[off[0] : off[-1]]
        local = off - off[0]
        # adjacent-pair mask: position i pairs with i+1 unless i+1 is a
        # document boundary
        n = len(k)
        starts = np.zeros(n, dtype=bool)
        start_idx = local[:-1]
        starts[start_idx[start_idx < n]] = True  # first span of each doc
        # (trailing empty docs have start == n: no span, nothing to mark)
        keep = ~starts[1:]  # pair (i, i+1) valid if i+1 not a doc start
        return pa.Table.from_pydict(
            {
                "prev_kind": pa.array(k[:-1][keep], type=pa.string()),
                "next_kind": pa.array(k[1:][keep], type=pa.string()),
            }
        )

    return grouped_agg(
        spans, ["prev_kind", "next_kind"], {"n_transitions": (None, "count")}, rows=pairs
    )


def span_bytes_by_kind(spans):
    """Corpus storage profile of the ``spans`` Dataset: span counts and
    total text BYTES per span kind — where the corpus's mass actually lives (the number that
    sizes block/batch budgets for each kind's processing stage). One
    scan; binary_length runs on the flattened values buffer; only
    kinds-sized partials move."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from .exchange import grouped_agg

    def kind_bytes(batch: pa.Table) -> pa.Table:
        spans = batch["spans"]
        spans = as_array(spans)
        kinds = pc.struct_field(spans.values, "kind")
        nbytes = pc.fill_null(
            pc.binary_length(pc.struct_field(spans.values, "text")), 0
        )
        return pa.Table.from_pydict({"kind": kinds, "b": pc.cast(nbytes, pa.int64())})

    return grouped_agg(
        spans,
        "kind",
        {"n_spans": (None, "count"), "total_bytes": ("b", "sum")},
        rows=kind_bytes,
    )
