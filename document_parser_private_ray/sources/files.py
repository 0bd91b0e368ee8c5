"""Raw-file sources: bytes -> interleaved spans (S1 raw-file mode +
M12 validation, SURVEY §2.1/§2.2).

``from_text_files`` is the text-mode byte-stream extractor: reads files
with ``read_binary_files`` and turns each into a spans row via the M1
heading/block splitter — the same structure TextParser.parse produces
(text_parser.py:17-39), with per-row error capture replacing the
reference's validate-or-raise (file_utils.py:4-11): an unreadable /
undecodable file degrades to an ``error`` row, never a task failure.

``from_pdf_files`` models the reference's staged PDF fallback chain
(pdf_parser.py:119-196): an ordered list of pluggable backends tried
per document, the succeeding one recorded in ``parse_stage``. The
default chain is the in-repo minimal-subset extractor (S2 + Courier
table grids for S3); real backends (pdfplumber/fitz/OCR — not in this
container, SURVEY §7.0) slot in via ``backends=``.
"""

from __future__ import annotations

from typing import List, Optional

import pyarrow as pa

from ..functions.headings import split_blocks
from ..schemas import SPAN_TYPE

_FILE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(SPAN_TYPE)),
        ("file_name", pa.string()),
        ("file_size", pa.int64()),
        ("format", pa.string()),
        ("parse_stage", pa.string()),  # which backend produced the spans
        ("error", pa.string()),
    ]
)


def _blocks_to_spans(blocks: List[dict]) -> List[dict]:
    return [
        {
            "kind": b["kind"],
            "text": b["text"],
            "media_ref": b.get("media_ref", ""),
            "offset": i,
        }
        for i, b in enumerate(blocks)
    ]


def _decode_text_batch(batch: "pa.Table") -> pa.Table:
    rows = []
    for path, data in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
        import os

        row = {
            "doc_id": path,
            "spans": [],
            "file_name": os.path.basename(path),
            "file_size": len(data) if data is not None else 0,
            "format": "text",
            "parse_stage": "text",
            "error": "",
        }
        try:
            raw_text = (data or b"").decode("utf-8")
            row["spans"] = _blocks_to_spans(split_blocks(raw_text))
        except Exception as e:
            row["error"] = f"{type(e).__name__}: {e}"
            row["parse_stage"] = ""
        rows.append(row)
    return pa.Table.from_pylist(rows, schema=_FILE_SCHEMA)


def from_text_files(paths):
    """Directory/list of text files -> spans Dataset (doc_id = path)."""
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)
    return ds.map_batches(_decode_text_batch, batch_format="pyarrow", batch_size=64)


class PdfExtract:
    """PDF byte-stream extractor stage (S2-S5) with the reference's
    staged fallback-chain semantics (pdf_parser.py:119-196: pdf2txt ->
    pdfplumber -> PyMuPDF -> OCR, each stage tried per document until
    one yields content, with the succeeding stage recorded).

    ``backends`` is an ordered list of ``(name, callable)`` pairs (or
    bare callables, named from ``__name__``); each callable maps
    ``bytes -> list[{"kind","text"}]`` blocks. A backend FAILS a row by
    raising or by returning no blocks — exactly the reference's
    "extracted no text, trying <next>" degradation — and the winning
    backend's name lands in the ``parse_stage`` column. The DEFAULT
    chain is the in-repo minimal-subset extractor
    (``sources.pdf.extract_pdf_blocks``: uncompressed literal-string
    streams, M3 font-heading classification, Courier table grids);
    real-world backends (pdfplumber/fitz/OCR) prepend via
    ``backends=``. The stage holds nothing but its backend
    list, so ``from_*_files`` map an instance as Ray tasks, the
    backends pickled with it; a backend that needs a loaded model per
    worker keeps it in a per-process slot (``stages.parse.worker_state``)."""

    fmt = "pdf"

    def __init__(self, backends: Optional[list] = None):
        if backends is None:
            backends = [("minimal", self._default_backend())]
        self.backends = [
            b if isinstance(b, tuple) else (getattr(b, "__name__", "custom"), b)
            for b in backends
        ]

    def _default_backend(self):
        from .pdf import extract_pdf_blocks

        return extract_pdf_blocks

    def __call__(self, batch: pa.Table) -> pa.Table:
        import os

        rows = []
        for path, data in zip(batch["path"].to_pylist(), batch["bytes"].to_pylist()):
            row = {
                "doc_id": path,
                "spans": [],
                "file_name": os.path.basename(path),
                "file_size": len(data) if data is not None else 0,
                "format": self.fmt,
                "parse_stage": "",
                "error": "",
            }
            failures = []
            for name, backend in self.backends:
                try:
                    blocks = backend(data)
                except Exception as e:
                    failures.append(f"{name}: {type(e).__name__}: {e}")
                    continue
                if not blocks:
                    failures.append(f"{name}: extracted no content")
                    continue
                row["spans"] = _blocks_to_spans(blocks)
                row["parse_stage"] = name
                break
            else:
                row["error"] = "; ".join(failures) or "no backends configured"
            rows.append(row)
        return pa.Table.from_pylist(rows, schema=_FILE_SCHEMA)


class DocxExtract(PdfExtract):
    """DOCX staged extractor (S6) — same fallback-chain semantics over
    the stdlib OOXML reader (``sources.docx.extract_docx_blocks``). The
    reference's docx_parser.py is a 0-byte stub; this exceeds it."""

    fmt = "docx"

    def _default_backend(self):
        from .docx import extract_docx_blocks

        return extract_docx_blocks


class HtmlExtract(PdfExtract):
    """HTML staged extractor — DOM-heuristic boilerplate strip
    (``sources.html.extract_html_blocks``) producing interleaved
    text/heading/media spans with ``media_ref`` from retained ``<img>``
    elements. No reference counterpart (the reference has no HTML
    reader); this is north-rule surface (HTML boilerplate strip, DOM
    heuristics)."""

    fmt = "html"

    def __init__(self):
        from .html import extract_html_blocks, extract_html_blocks_sniffed

        # staged chain: strict UTF-8 first (records 'minimal'), then
        # the charset-sniffing decode (BOM / meta charset / latin-1)
        super().__init__(
            [("minimal", extract_html_blocks), ("sniff", extract_html_blocks_sniffed)]
        )


def _from_staged_files(stage, paths):
    import ray.data as rd

    ds = rd.read_binary_files(paths, include_paths=True)
    return ds.map_batches(stage, batch_format="pyarrow", batch_size=16)


def from_pdf_files(paths, backends: Optional[list] = None):
    return _from_staged_files(PdfExtract(backends), paths)


def from_docx_files(paths):
    return _from_staged_files(DocxExtract(), paths)


def from_html_files(paths):
    return _from_staged_files(HtmlExtract(), paths)
