"""Fixture writers for the PDF and DOCX chains: a minimal deterministic
PDF writer (the subset ``sources.pdf.extract_pdf_blocks`` reads:
literal-string ``Tj`` show-text operators, Helvetica/Courier fonts,
optionally Flate-compressed with a PNG predictor) and a stdlib-zip
.docx writer (the ``<w:p>`` / ``<w:tbl>`` body ``sources.docx.
extract_docx_blocks`` reads), so the chains' round trips are generated
in-process."""

import io
import zipfile
import zlib
from typing import Dict, List
from xml.sax.saxutils import escape

from document_parser_private_ray.sources.docx import W_NS
from document_parser_private_ray.sources.pdf import _paeth

HEADING_FONT = ("F2", "Helvetica-Bold", 14)
TEXT_FONT = ("F1", "Helvetica", 10)
# Tables set in the monospace font: the extractor recognizes Courier
# blocks as table grids (rows = lines, cells = tab-separated) — the
# minimal-subset analogue of pdfplumber's line-detection
# (pdf_parser.py:152-162 emits {"page", "data"} per table).
TABLE_FONT = ("F3", "Courier", 9)


def _pdf_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace("(", "\\(").replace(")", "\\)")


def _png_predict_encode(data: bytes, columns: int) -> bytes:
    """PNG per-row predictor ENCODER (generator side, 1 byte/pixel):
    rows of ``columns`` bytes, filter byte prepended, cycling through
    all five PNG filter types so a round-trip exercises every decode
    branch. Data is newline-padded to a whole row (trailing whitespace
    is inert in a content stream)."""
    pad = (-len(data)) % columns
    data += b"\n" * pad
    out = bytearray()
    prev = bytes(columns)
    for idx, r in enumerate(range(0, len(data), columns)):
        row = data[r : r + columns]
        ft = idx % 5
        out.append(ft)
        for i in range(columns):
            a = row[i - 1] if i >= 1 else 0
            b = prev[i]
            c = prev[i - 1] if i >= 1 else 0
            pred = (0, a, b, (a + b) >> 1, _paeth(a, b, c))[ft]
            out.append((row[i] - pred) & 0xFF)
        prev = row
    return bytes(out)


def write_minimal_pdf(
    blocks: List[Dict], compress: bool = False, predictor: int | None = None,
    predictor_columns: int = 64,
) -> bytes:
    """[{"kind": "heading"|"text", "text": str} |
    {"kind": "table", "data": [[cell, ...], ...]}] -> PDF bytes.
    Headings set in Helvetica-Bold 14, body in Helvetica 10 (sizes
    chosen so the M3 heuristic round-trips the kind); table rows set
    in Courier 9 with tab-separated cells (cells must not contain
    tabs/newlines — the minimal subset's table encoding).
    ``compress=True`` Flate-encodes the content stream (the filter
    virtually every real-world PDF uses — pdf_parser.py:137-166
    handles it through pdfplumber; here it's stdlib zlib).
    ``predictor=15`` (with ``compress=True``) additionally runs the
    content stream through the PNG per-row predictor before Flate and
    writes the matching ``/DecodeParms`` — the layout real-world
    writers emit for predictor-compressed streams."""
    content_lines = []
    y = 760
    for b in blocks:
        if b.get("kind") == "table":
            fkey, _, size = TABLE_FONT
            lines = ["\t".join(str(c) for c in row) for row in b.get("data") or []]
        else:
            fkey, _, size = HEADING_FONT if b.get("kind") == "heading" else TEXT_FONT
            lines = (b.get("text") or "").split("\n")
        for ln in lines:
            content_lines.append(
                f"BT /{fkey} {size} Tf 72 {y} Td ({_pdf_escape(ln)}) Tj ET"
            )
            y -= size + 4
            if y < 40:
                y = 760
    stream = "\n".join(content_lines).encode("latin-1", "replace")
    filter_entry = b""
    if compress:
        if predictor is not None:
            if not 10 <= predictor <= 15:
                raise ValueError("generator supports PNG predictors (10-15) only")
            stream = _png_predict_encode(stream, predictor_columns)
        stream = zlib.compress(stream)
        filter_entry = b" /Filter /FlateDecode"
        if predictor is not None:
            filter_entry += (
                f" /DecodeParms << /Predictor {predictor} "
                f"/Columns {predictor_columns} >>".encode()
            )

    objects = []
    objects.append(b"<< /Type /Catalog /Pages 2 0 R >>")
    objects.append(b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
    objects.append(
        b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
        b"/Resources << /Font << /F1 5 0 R /F2 6 0 R /F3 7 0 R >> >> /Contents 4 0 R >>"
    )
    objects.append(
        b"<< /Length " + str(len(stream)).encode() + filter_entry
        + b" >>\nstream\n" + stream + b"\nendstream"
    )
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica-Bold >>")
    objects.append(b"<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>")

    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for i, body in enumerate(objects, start=1):
        offsets.append(len(out))
        out += f"{i} 0 obj\n".encode() + body + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {len(objects) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode()
    out += (
        f"trailer\n<< /Size {len(objects) + 1} /Root 1 0 R >>\n"
        f"startxref\n{xref_pos}\n%%EOF\n"
    ).encode()
    return bytes(out)


_CONTENT_TYPES = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Types xmlns="http://schemas.openxmlformats.org/package/2006/content-types">'
    '<Default Extension="rels" ContentType='
    '"application/vnd.openxmlformats-package.relationships+xml"/>'
    '<Default Extension="xml" ContentType="application/xml"/>'
    '<Override PartName="/word/document.xml" ContentType='
    '"application/vnd.openxmlformats-officedocument.wordprocessingml.document.main+xml"/>'
    "</Types>"
)
_RELS = (
    '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
    '<Relationships xmlns="http://schemas.openxmlformats.org/package/2006/relationships">'
    '<Relationship Id="rId1" Type="http://schemas.openxmlformats.org/'
    'officeDocument/2006/relationships/officeDocument" Target="word/document.xml"/>'
    "</Relationships>"
)


def _para_xml(text: str, heading: bool) -> str:
    style = (
        '<w:pPr><w:pStyle w:val="Heading1"/></w:pPr>' if heading else ""
    )
    # a break run BEFORE each continuation line, in document order
    runs = ""
    for i, ln in enumerate(text.split("\n")):
        if i:
            runs += "<w:r><w:br/></w:r>"
        runs += f'<w:r><w:t xml:space="preserve">{escape(ln)}</w:t></w:r>'
    return f"<w:p>{style}{runs}</w:p>"


def _table_xml(data: List[List[str]]) -> str:
    rows = "".join(
        "<w:tr>"
        + "".join(
            f'<w:tc><w:p><w:r><w:t xml:space="preserve">{escape(str(c))}'
            "</w:t></w:r></w:p></w:tc>"
            for c in row
        )
        + "</w:tr>"
        for row in data
    )
    return f"<w:tbl>{rows}</w:tbl>"


def write_minimal_docx(blocks: List[Dict]) -> bytes:
    """[{"kind": "heading"|"text", "text": str} |
    {"kind": "table", "data": [[cell, ...], ...]}] -> .docx bytes.
    Deterministic (fixed zip timestamps), stdlib-only."""
    body = []
    for b in blocks:
        if b.get("kind") == "table":
            body.append(_table_xml(b.get("data") or []))
        else:
            body.append(
                _para_xml(b.get("text") or "", b.get("kind") == "heading")
            )
    doc = (
        '<?xml version="1.0" encoding="UTF-8" standalone="yes"?>'
        f'<w:document xmlns:w="{W_NS}"><w:body>'
        + "".join(body)
        + "</w:body></w:document>"
    )
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        for name, payload in (
            ("[Content_Types].xml", _CONTENT_TYPES),
            ("_rels/.rels", _RELS),
            ("word/document.xml", doc),
        ):
            info = zipfile.ZipInfo(name, date_time=(1980, 1, 1, 0, 0, 0))
            info.compress_type = zipfile.ZIP_DEFLATED
            z.writestr(info, payload)
    return buf.getvalue()
