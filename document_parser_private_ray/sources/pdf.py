"""Minimal byte-stream PDF text extractor (S2).

The container ships no PDF library (SURVEY §7.0), so ``from_pdf_files``
was a pluggable slot only. This module closes the loop the way SURVEY
§7.0 planned: an EXTRACTOR for text PDFs of a minimal subset
(literal-string `Tj` show-text operators, ASCII/latin-1 text,
Helvetica fonts, Courier for table grids — the shape the tests'
fixture writer emits) under any chain of the stdlib-decodable filters
(FlateDecode and LZWDecode with predictors, RunLengthDecode,
ASCIIHexDecode, ASCII85Decode) — so the full chain
pdf-bytes -> blocks -> spans -> parse runs and is testable entirely
in-sandbox. Real-world PDFs still route through the pluggable
``extract=`` hook (pdfplumber/fitz chain, pdf_parser.py:119-196 shape)
when a backend exists.

Block classification reuses the M3 font-heading heuristic
(``functions.layout.is_heading_block`` — pdf_parser.py:215-219), so
the extractor's output is the same typed block stream the reference's
layout integration produces.
"""

from __future__ import annotations

import base64
import binascii
import re
import zlib
from typing import Dict, List

from ..functions.layout import is_heading_block

def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa_, pb_, pc_ = abs(p - a), abs(p - b), abs(p - c)
    if pa_ <= pb_ and pa_ <= pc_:
        return a
    return b if pb_ <= pc_ else c


def _undo_predictor(
    data: bytes, predictor: int, columns: int, colors: int, bpc: int
) -> bytes:
    """Invert a Flate predictor (PDF 32000-1 §7.4.4.4): TIFF horizontal
    differencing (2) and the PNG per-row filters None/Sub/Up/Average/
    Paeth (10-15). Covers the /DecodeParms the overwhelming majority of
    real-world Flate streams use (reference parity:
    pdf_parser.py:137-166 via pdfplumber); exotic shapes (sub-8-bit
    TIFF components) still raise."""
    if predictor <= 1:
        return data
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    if predictor == 2:
        if bpc != 8:
            raise NotImplementedError(
                "TIFF predictor with BitsPerComponent != 8 is outside the "
                "minimal subset; pass extract= with a full PDF backend"
            )
        out = bytearray(data)
        for r in range(0, len(out) - len(out) % rowlen, rowlen):
            for i in range(r + bpp, r + rowlen):
                out[i] = (out[i] + out[i - bpp]) & 0xFF
        return bytes(out)
    if not 10 <= predictor <= 15:
        raise NotImplementedError(
            f"unknown /Predictor {predictor}; pass extract= with a full PDF backend"
        )
    stride = rowlen + 1
    if len(data) % stride:
        raise ValueError(
            f"PNG-predicted stream length {len(data)} not a multiple of "
            f"row stride {stride}"
        )
    out = bytearray()
    prev = bytearray(rowlen)
    for r in range(0, len(data), stride):
        ft = data[r]
        row = bytearray(data[r + 1 : r + stride])
        if ft == 1:  # Sub
            for i in range(bpp, rowlen):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ft == 2:  # Up
            for i in range(rowlen):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ft == 3:  # Average
            for i in range(rowlen):
                left = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((left + prev[i]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for i in range(rowlen):
                a = row[i - bpp] if i >= bpp else 0
                c = prev[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + _paeth(a, prev[i], c)) & 0xFF
        elif ft != 0:
            raise ValueError(f"unknown PNG filter type {ft}")
        out += row
        prev = row
    return bytes(out)


# the nearest dictionary preceding each `stream` keyword (content-stream
# dicts are flat or one-level-nested: /Length, /Filter, /DecodeParms)
_STREAM_DICT_RE = re.compile(
    rb"<<((?:[^<>]|<<(?:[^<>]|<<[^<>]*>>)*>>)*)>>\s*stream\r?\n", re.DOTALL
)
_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?!\s+0\s+R)")
# ``/Filter /Name`` or ``/Filter [/A /B ...]`` (decode order)
_FILTER_RE = re.compile(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9]+)")
_NAME_RE = re.compile(rb"/([A-Za-z0-9]+)")
_PRED_RE = re.compile(rb"/Predictor\s+(\d+)")
_COLS_RE = re.compile(rb"/Columns\s+(\d+)")
_COLORS_RE = re.compile(rb"/Colors\s+(\d+)")
_BPC_RE = re.compile(rb"/BitsPerComponent\s+(\d+)")
_EARLY_RE = re.compile(rb"/EarlyChange\s+(\d+)")
_INLINE_PARMS_RE = re.compile(rb"/DecodeParms\s*[<\[]")
_FONT_REF_RE = re.compile(rb"/(F\d+)\s+(\d+)\s+0\s+R")
_OBJ_RE = re.compile(rb"(\d+)\s+0\s+obj(.*?)endobj", re.DOTALL)
_BASEFONT_RE = re.compile(rb"/BaseFont\s*/([A-Za-z0-9+-]+)")
_TOKEN_RE = re.compile(rb"/(F\d+)\s+([0-9.]+)\s+Tf|\(((?:[^()\\]|\\.)*)\)\s*Tj")


def _unescape(raw: bytes) -> str:
    out = []
    i = 0
    while i < len(raw):
        c = raw[i : i + 1]
        if c == b"\\" and i + 1 < len(raw):
            nxt = raw[i + 1 : i + 2]
            if nxt in (b"\\", b"(", b")"):
                out.append(nxt)
                i += 2
                continue
            if nxt == b"n":
                out.append(b"\n")
                i += 2
                continue
        out.append(c)
        i += 1
    return b"".join(out).decode("latin-1")


def _font_map(data: bytes) -> Dict[bytes, str]:
    """Resolve /Fx resource keys to BaseFont names through the object
    table (the minimal-subset version of a font-descriptor walk)."""
    obj_bodies = {num: body for num, body in _OBJ_RE.findall(data)}
    mapping: Dict[bytes, str] = {}
    for fkey, objnum in _FONT_REF_RE.findall(data):
        body = obj_bodies.get(objnum, b"")
        m = _BASEFONT_RE.search(body)
        if m:
            mapping[fkey] = m.group(1).decode("latin-1")
    return mapping


def _filters(d: bytes) -> List[str]:
    """The stream dict's ``/Filter`` chain in decode order. A ``/Filter``
    that is not a name or an array of names (an indirect reference)
    raises rather than passing the stream through undecoded."""
    m = _FILTER_RE.search(d)
    if m is None:
        if b"/Filter" in d:
            raise NotImplementedError(
                "/Filter that is not a name or an array of names is outside "
                "the minimal subset; pass extract= with a full PDF backend"
            )
        return []
    return [n.decode("latin-1") for n in _NAME_RE.findall(m.group(1))]


def _lzw_decode(data: bytes, early_change: int = 1) -> bytes:
    """LZWDecode (PDF 32000-1 §7.4.4): MSB-first codes of 9 to 12 bits,
    256 clears the table, 257 ends the data. With ``early_change`` 1
    (the default) the code width grows one code early."""
    out = bytearray()
    table = [bytes([i]) for i in range(256)] + [b"", b""]
    width, prev = 9, None
    acc = nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= width:
            nbits -= width
            code = (acc >> nbits) & ((1 << width) - 1)
            acc &= (1 << nbits) - 1
            if code == 256:
                del table[258:]
                width, prev = 9, None
                continue
            if code == 257:
                return bytes(out)
            if code < len(table):
                entry = table[code]
            elif code == len(table) and prev is not None:
                entry = prev + prev[:1]
            else:
                raise ValueError(f"LZW code {code} outside the table")
            if prev is not None and len(table) < 4096:
                table.append(prev + entry[:1])
            out += entry
            prev = entry
            if width < 12 and len(table) + early_change >= 1 << width:
                width += 1
    return bytes(out)


def _run_length_decode(data: bytes) -> bytes:
    """RunLengthDecode (PDF 32000-1 §7.4.5): a length byte n < 128 copies
    the next n + 1 bytes, n > 128 repeats the next byte 257 - n times,
    128 ends the data."""
    out = bytearray()
    i = 0
    while i < len(data):
        n = data[i]
        if n == 128:
            break
        if n < 128:
            out += data[i + 1 : i + 2 + n]
            i += n + 2
        else:
            out += data[i + 1 : i + 2] * (257 - n)
            i += 2
    return bytes(out)


def _decode(payload: bytes, name: str, d: bytes) -> bytes:
    """One filter of the chain. FlateDecode inflates via stdlib zlib and
    LZWDecode via ``_lzw_decode`` (``/EarlyChange``), each then
    inverting any ``/DecodeParms`` predictor (TIFF differencing, PNG
    Sub/Up/Average/Paeth); RunLengthDecode, ASCIIHexDecode and
    ASCII85Decode are stdlib byte loops / binascii / base64. Any other
    filter (DCT, JPX) is outside the minimal subset and raises, naming
    the filter."""
    if name == "ASCIIHexDecode":
        digits = re.sub(rb"\s", b"", payload).split(b">", 1)[0]
        # an odd final digit is followed by an implied 0 (PDF 32000-1 §7.4.2)
        return binascii.unhexlify(digits + b"0" * (len(digits) % 2))
    if name == "ASCII85Decode":
        return base64.a85decode(payload.strip().split(b"~>", 1)[0])
    if name == "RunLengthDecode":
        return _run_length_decode(payload)
    if name not in ("FlateDecode", "LZWDecode"):
        raise NotImplementedError(
            f"/{name} content streams are outside the minimal subset; "
            "pass extract= with a full PDF backend"
        )
    if b"/DecodeParms" in d and _INLINE_PARMS_RE.search(d) is None:
        # e.g. an indirect ``/DecodeParms n 0 R``: guessing "no
        # predictor" would return garbled text
        raise NotImplementedError(
            "/DecodeParms that is not an inline dictionary is outside the "
            "minimal subset; pass extract= with a full PDF backend"
        )
    if name == "FlateDecode":
        payload = zlib.decompress(payload)
    else:
        em = _EARLY_RE.search(d)
        payload = _lzw_decode(payload, int(em.group(1)) if em else 1)
    pm = _PRED_RE.search(d)
    if pm is None:
        return payload
    return _undo_predictor(
        payload,
        int(pm.group(1)),
        int(mm.group(1)) if (mm := _COLS_RE.search(d)) else 1,
        int(mm.group(1)) if (mm := _COLORS_RE.search(d)) else 1,
        int(mm.group(1)) if (mm := _BPC_RE.search(d)) else 8,
    )


def _content_streams(data: bytes) -> List[bytes]:
    """Decoded content-stream payloads. ``/Length <n>`` (direct, not an
    indirect ``n 0 R`` reference) slices the payload exactly — Flate
    output may legally contain ``endstream`` as bytes; otherwise fall
    back to the lazy endstream scan. The ``/Filter`` chain decodes in
    order, every filter or a raise (``_decode``) — never a skip."""
    streams: List[bytes] = []
    for m in _STREAM_DICT_RE.finditer(data):
        d = m.group(1)
        start = m.end()
        lm = _LENGTH_RE.search(d)
        if lm:
            payload = data[start : start + int(lm.group(1))]
        else:
            end = data.find(b"endstream", start)
            if end < 0:
                continue
            payload = data[start:end]
            if payload.endswith(b"\n"):
                payload = payload[:-1]
            if payload.endswith(b"\r"):
                payload = payload[:-1]
        for name in _filters(d):
            payload = _decode(payload, name, d)
        streams.append(payload)
    return streams


def extract_pdf_blocks(data: bytes) -> List[Dict]:
    """PDF bytes (minimal subset) -> [{"kind", "text"}] blocks.

    Consecutive show-text lines in the same font+size merge into one
    block (the analogue of a fitz text block); each block classifies
    via the M3 heading heuristic on its font name/size."""
    if not data.startswith(b"%PDF"):
        raise ValueError("not a PDF byte stream")
    fonts = _font_map(data)
    lines: List[tuple] = []  # (font_name, size, text)
    cur_font, cur_size = "", 10.0
    for stream in _content_streams(data):
        for m in _TOKEN_RE.finditer(stream):
            if m.group(1) is not None:
                cur_font = fonts.get(m.group(1), m.group(1).decode("latin-1"))
                cur_size = float(m.group(2))
            else:
                lines.append((cur_font, cur_size, _unescape(m.group(3))))
    blocks: List[Dict] = []
    for font, size, text in lines:
        if blocks and blocks[-1]["_font"] == (font, size):
            blocks[-1]["text"] += "\n" + text
        else:
            blocks.append({"text": text, "_font": (font, size)})
    import json

    out = []
    for b in blocks:
        font, size = b.pop("_font")
        if font.startswith("Courier"):
            # table grid: rows = lines, cells = tab-separated. The block
            # carries the reference's table shape ({"page", "data"},
            # pdf_parser.py:158-161) and the span text is the same JSON
            # encoding layout_to_spans uses for table spans.
            data = [ln.split("\t") for ln in b["text"].split("\n")]
            out.append(
                {
                    "kind": "table", "text": json.dumps(data), "data": data,
                    "page": 0, "font": font, "size": size,
                }
            )
            continue
        kind = "heading" if is_heading_block(b["text"], font, size) else "text"
        out.append({"kind": kind, "text": b["text"], "font": font, "size": size})
    return out
