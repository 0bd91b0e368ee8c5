"""Minimal DOCX extractor (S6).

The reference's ``docx_parser.py`` is a 0-byte stub, so there is no
parity obligation — this module EXCEEDS the reference by closing the
source matrix with stdlib-only OOXML handling: a .docx is a zip
archive whose ``word/document.xml`` holds the body as ``<w:p>``
paragraphs (heading-ness via ``<w:pPr><w:pStyle w:val="HeadingN">``)
and ``<w:tbl>`` tables of ``<w:tr>/<w:tc>`` cells. The extractor walks
the body in document order and emits the SAME typed block stream the
PDF minimal subset produces ({"kind": heading|text|table, ...}), so
``files._blocks_to_spans`` and the whole downstream parse chain are
shared unchanged.

The tests generate the full chain docx-bytes -> blocks -> spans ->
parse in-sandbox with a fixture writer of this subset; real-world
documents with features outside it (embedded media, footnotes, tracked
changes) still carry their visible paragraph/table text through this
extractor.
"""

from __future__ import annotations

import io
import json
import re
import zipfile
from typing import Dict, List
from xml.etree import ElementTree as ET

W_NS = "http://schemas.openxmlformats.org/wordprocessingml/2006/main"
W = f"{{{W_NS}}}"

_HEADING_STYLE_RE = re.compile(r"^(heading|title|h)\s*\d*$", re.IGNORECASE)


def _para_text(p) -> str:
    """Concatenate runs of a paragraph; ``<w:br/>`` and ``<w:tab/>``
    become newline / tab so multi-line paragraphs round-trip."""
    parts: List[str] = []
    for node in p.iter():
        if node.tag == f"{W}t":
            parts.append(node.text or "")
        elif node.tag == f"{W}br":
            parts.append("\n")
        elif node.tag == f"{W}tab":
            parts.append("\t")
    return "".join(parts)


def _is_heading(p) -> bool:
    style = p.find(f"{W}pPr/{W}pStyle")
    if style is None:
        return False
    val = style.get(f"{W}val") or ""
    return bool(_HEADING_STYLE_RE.match(val))


def extract_docx_blocks(data: bytes) -> List[Dict]:
    """.docx bytes -> [{"kind", "text"}] typed blocks (same stream
    shape as ``pdf.extract_pdf_blocks``; table blocks carry the
    reference's {"page", "data"} table shape with JSON span text)."""
    if not data or data[:2] != b"PK":
        raise ValueError("not a DOCX (zip) byte stream")
    with zipfile.ZipFile(io.BytesIO(data)) as z:
        with z.open("word/document.xml") as f:
            root = ET.parse(f).getroot()
    body = root.find(f"{W}body")
    if body is None:
        return []
    out: List[Dict] = []
    for el in body:
        if el.tag == f"{W}p":
            text = _para_text(el)
            if not text.strip():
                continue
            kind = "heading" if _is_heading(el) else "text"
            out.append({"kind": kind, "text": text})
        elif el.tag == f"{W}tbl":
            rows = [
                [_para_text(tc) for tc in tr.findall(f"{W}tc")]
                for tr in el.findall(f"{W}tr")
            ]
            out.append(
                {
                    "kind": "table",
                    "text": json.dumps(rows),
                    "data": rows,
                    "page": 0,
                }
            )
    return out
