"""S2 minimal PDF loop: generate uncompressed-text PDFs, extract them
back, and run the extracted spans through the full parse chain with
span equality against the single-doc oracle."""

import os

import pytest

from document_parser_private_ray.sources.pdf import (
    extract_pdf_blocks,
    write_minimal_pdf,
)


def test_roundtrip_blocks():
    blocks = [
        {"kind": "heading", "text": "SUMMARY"},
        {"kind": "text", "text": "builder of data pipelines."},
        {"kind": "heading", "text": "SKILLS"},
        {"kind": "text", "text": "python, docker (and) \\ special, chars"},
    ]
    data = write_minimal_pdf(blocks)
    assert data.startswith(b"%PDF-1.4")
    got = extract_pdf_blocks(data)
    assert [(b["kind"], b["text"]) for b in got] == [
        (b["kind"], b["text"]) for b in blocks
    ]
    # font resolution went through the object table, not the raw key
    assert got[0]["font"] == "Helvetica-Bold" and got[0]["size"] == 14.0
    assert got[1]["font"] == "Helvetica" and got[1]["size"] == 10.0


def test_multiline_block_merges_back():
    blocks = [
        {"kind": "heading", "text": "EXPERIENCE"},
        {"kind": "text", "text": "line one\nline two\nline three"},
    ]
    got = extract_pdf_blocks(write_minimal_pdf(blocks))
    assert got[1]["text"] == "line one\nline two\nline three"


def test_not_a_pdf_raises():
    with pytest.raises(ValueError):
        extract_pdf_blocks(b"plain text, no pdf header")


def test_non_flate_filter_raises():
    data = (
        b"%PDF-1.4\n1 0 obj\n<< /Length 5 /Filter /DCTDecode >>\n"
        b"stream\nxxxxx\nendstream\nendobj\n%%EOF\n"
    )
    with pytest.raises(NotImplementedError):
        extract_pdf_blocks(data)


def test_flate_roundtrip_blocks():
    """FlateDecode content streams (the filter virtually every real
    PDF uses) inflate through stdlib zlib and round-trip the same
    typed blocks as the uncompressed subset."""
    blocks = [
        {"kind": "heading", "text": "SUMMARY"},
        {"kind": "text", "text": "compressed but fully parseable (really)."},
        {"kind": "table", "data": [["a", "b"], ["1", "2"]]},
    ]
    data = write_minimal_pdf(blocks, compress=True)
    assert b"/FlateDecode" in data
    got = extract_pdf_blocks(data)
    assert [b["kind"] for b in got] == ["heading", "text", "table"]
    assert got[1]["text"] == "compressed but fully parseable (really)."
    assert got[2]["data"] == [["a", "b"], ["1", "2"]]
    # byte-identical block stream vs the uncompressed encoding
    plain = extract_pdf_blocks(write_minimal_pdf(blocks))
    assert got == plain


def test_pdf_to_parse_chain_span_equality(ray_session, tmp_path):
    """e2e (VERDICT r1 item 7): generated PDF -> from_pdf_files ->
    parse chain == DocumentOracle on the same extracted spans."""
    import ray.data as rd

    from document_parser_private_ray.oracle.document import DocumentOracle
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.files import from_pdf_files

    resumes = [
        [
            {"kind": "heading", "text": "SUMMARY"},
            {"kind": "text", "text": "seasoned engineer who ships."},
            {"kind": "heading", "text": "SKILLS"},
            {"kind": "text", "text": "Python, Docker, Kubernetes"},
            {"kind": "heading", "text": "EDUCATION"},
            {"kind": "text", "text": "BSc Computer Science, MIT (2015 - 2019)"},
            {"kind": "heading", "text": "WORK EXPERIENCE"},
            {"kind": "text", "text": "Software Engineer, Acme Software Inc (Jan 2020 - Present)\n• Built data pipelines processing millions of records daily"},
        ],
        [
            {"kind": "heading", "text": "CONTACT INFO"},
            {"kind": "text", "text": "555-123-4567\nJane Smith\njane.smith1@example.com"},
            {"kind": "heading", "text": "PROJECTS"},
            {"kind": "text", "text": "Stocktake - a warehouse management system"},
        ],
    ]
    paths = []
    for i, blocks in enumerate(resumes):
        p = os.path.join(tmp_path, f"cv{i}.pdf")
        with open(p, "wb") as f:
            f.write(write_minimal_pdf(blocks))
        paths.append(p)

    ds = from_pdf_files(paths)
    rows = ds.take_all()
    assert all(r["error"] == "" for r in rows)
    by_doc = {os.path.basename(r["doc_id"]): r["spans"] for r in rows}

    spans_ds = ds.map_batches(
        lambda t: t.select(["doc_id", "spans"]), batch_format="pyarrow"
    )
    parsed = {
        os.path.basename(r["doc_id"]): r
        for r in parse_resumes(spans_ds).take_all()
    }

    oracle = DocumentOracle()
    for name, spans in by_doc.items():
        out = oracle.process(
            name,
            [s["kind"] for s in spans],
            [s["text"] for s in spans],
            [s["media_ref"] for s in spans],
        )
        got = parsed[name]
        assert got["error"] == ""
        assert got["out_spans"] == out["out_spans"]  # span-sequence equality
        assert got["resume"]["skills"] == out["resume"]["skills"]


def test_table_roundtrip():
    """S3: Courier tab-grid tables round-trip as kind='table' blocks
    with the reference's {"page", "data"} shape and JSON span text."""
    import json

    blocks = [
        {"kind": "heading", "text": "SKILLS"},
        {"kind": "table", "data": [["skill", "years"], ["python", "5"], ["docker", "3"]]},
        {"kind": "text", "text": "closing remark."},
    ]
    got = extract_pdf_blocks(write_minimal_pdf(blocks))
    assert [b["kind"] for b in got] == ["heading", "table", "text"]
    table = got[1]
    assert table["data"] == [["skill", "years"], ["python", "5"], ["docker", "3"]]
    assert table["page"] == 0
    assert json.loads(table["text"]) == table["data"]


def test_table_pdf_through_parse_chain(ray_session, tmp_path):
    """S3 e2e: PDF with a table -> from_pdf_files emits a table span ->
    the parse chain carries it through (table spans hold no raw text,
    so sections/extractors see the textual spans only)."""
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.files import from_pdf_files

    blocks = [
        {"kind": "heading", "text": "SKILLS"},
        {"kind": "table", "data": [["skill", "years"], ["Python", "5"]]},
        {"kind": "text", "text": "Python, Docker"},
    ]
    p = os.path.join(tmp_path, "tbl.pdf")
    with open(p, "wb") as f:
        f.write(write_minimal_pdf(blocks))

    ds = from_pdf_files([p])
    rows = ds.take_all()
    assert rows[0]["error"] == "" and rows[0]["parse_stage"] == "minimal"
    kinds = [s["kind"] for s in rows[0]["spans"]]
    assert kinds == ["heading", "table", "text"]

    spans_ds = ds.map_batches(
        lambda t: t.select(["doc_id", "spans"]), batch_format="pyarrow"
    )
    parsed = parse_resumes(spans_ds).take_all()
    assert parsed[0]["error"] == ""
    assert "table" in {s["kind"] for s in parsed[0]["out_spans"]}


def test_flate_pdf_through_parse_chain(ray_session, tmp_path):
    """e2e (VERDICT r3 item 4): Flate-compressed PDF -> from_pdf_files
    -> parse chain, spans identical to the uncompressed encoding."""
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.files import from_pdf_files

    blocks = [
        {"kind": "heading", "text": "SKILLS"},
        {"kind": "text", "text": "Python, Docker, Kubernetes"},
        {"kind": "heading", "text": "EDUCATION"},
        {"kind": "text", "text": "BSc Computer Science, MIT (2015 - 2019)"},
    ]
    pz = os.path.join(tmp_path, "cv_flate.pdf")
    pp = os.path.join(tmp_path, "cv_plain.pdf")
    with open(pz, "wb") as f:
        f.write(write_minimal_pdf(blocks, compress=True))
    with open(pp, "wb") as f:
        f.write(write_minimal_pdf(blocks))

    rows = {
        os.path.basename(r["doc_id"]): r
        for r in from_pdf_files([pz, pp]).take_all()
    }
    assert rows["cv_flate.pdf"]["error"] == ""
    assert rows["cv_flate.pdf"]["parse_stage"] == "minimal"
    assert [
        (s["kind"], s["text"]) for s in rows["cv_flate.pdf"]["spans"]
    ] == [(s["kind"], s["text"]) for s in rows["cv_plain.pdf"]["spans"]]

    spans_ds = from_pdf_files([pz]).map_batches(
        lambda t: t.select(["doc_id", "spans"]), batch_format="pyarrow"
    )
    parsed = parse_resumes(spans_ds).take_all()
    assert parsed[0]["error"] == ""
    assert "Python" in parsed[0]["resume"]["skills"]


def test_backend_fallback_chain(ray_session, tmp_path):
    """S2 fallback semantics (pdf_parser.py:119-196): backends tried in
    order per row; raising or returning nothing falls through; the
    succeeding backend's name is recorded in parse_stage; a chain with
    no survivor degrades to an error row listing every failure."""
    from document_parser_private_ray.sources.files import from_pdf_files
    from document_parser_private_ray.sources.pdf import extract_pdf_blocks

    def broken(data):
        raise RuntimeError("simulated backend crash")

    def empty(data):
        return []

    p = os.path.join(tmp_path, "cv.pdf")
    with open(p, "wb") as f:
        f.write(write_minimal_pdf([{"kind": "heading", "text": "SUMMARY"}]))

    rows = from_pdf_files(
        [p],
        backends=[("broken", broken), ("empty", empty), ("minimal", extract_pdf_blocks)],
    ).take_all()
    assert rows[0]["parse_stage"] == "minimal"
    assert rows[0]["error"] == ""
    assert len(rows[0]["spans"]) == 1

    dead = from_pdf_files([p], backends=[("broken", broken), ("empty", empty)]).take_all()
    assert dead[0]["parse_stage"] == ""
    assert "broken: RuntimeError" in dead[0]["error"]
    assert "empty: extracted no content" in dead[0]["error"]
    assert dead[0]["spans"] == []


def test_png_predictor_roundtrip_blocks():
    """VERDICT r4 #7: FlateDecode + PNG-predictor /DecodeParms (the
    layout most real-world writers emit) round-trips the same typed
    blocks as the plain subset. The generator cycles all five PNG
    filter types (None/Sub/Up/Average/Paeth), so every decode branch
    runs; odd column widths exercise the row-padding path."""
    blocks = [
        {"kind": "heading", "text": "EXPERIENCE"},
        {"kind": "text", "text": "predictor-compressed but fully parseable."},
        {"kind": "table", "data": [["x", "y"], ["3", "4"]]},
    ]
    plain = extract_pdf_blocks(write_minimal_pdf(blocks))
    for cols in (7, 64, 200):
        data = write_minimal_pdf(blocks, compress=True, predictor=15,
                                 predictor_columns=cols)
        assert b"/DecodeParms" in data and b"/Predictor 15" in data
        assert extract_pdf_blocks(data) == plain


def test_tiff_predictor_roundtrip():
    """TIFF horizontal differencing (/Predictor 2) also inverts."""
    import zlib as _z

    from document_parser_private_ray.sources.pdf import _undo_predictor

    blocks = [{"kind": "text", "text": "tiff differenced content stream here."}]
    base = write_minimal_pdf(blocks)
    # lift the raw content stream out of the uncompressed PDF
    raw = base.split(b"stream\n", 1)[1].split(b"\nendstream", 1)[0]
    cols = 16
    pad = (-len(raw)) % cols
    padded = raw + b"\n" * pad
    # encode: per row, out[i] = row[i] - row[i-1]
    enc = bytearray()
    for r in range(0, len(padded), cols):
        row = padded[r : r + cols]
        enc.append(row[0])
        for i in range(1, cols):
            enc.append((row[i] - row[i - 1]) & 0xFF)
    assert _undo_predictor(bytes(enc), 2, cols, 1, 8) == padded
    # and through the full extractor via a hand-built stream dict
    stream = _z.compress(bytes(enc))
    pdf = base.split(b"4 0 obj")[0]  # headers + first three objects
    doc = (
        pdf
        + b"4 0 obj\n<< /Length " + str(len(stream)).encode()
        + b" /Filter /FlateDecode /DecodeParms << /Predictor 2 /Columns 16 >>"
        + b" >>\nstream\n" + stream + b"\nendstream\nendobj\n"
        + b"5 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>\nendobj\n"
        + b"trailer\n<< /Size 6 /Root 1 0 R >>\n%%EOF\n"
    )
    got = extract_pdf_blocks(doc)
    assert [b["text"] for b in got] == ["tiff differenced content stream here."]


@pytest.mark.parametrize(
    "old,new",
    [
        (b"/Predictor 15", b"/Predictor 99"),
        # an indirect reference leaves no inline /Predictor to read
        (b"/DecodeParms << /Predictor 15 /Columns 64 >>", b"/DecodeParms 9 0 R"),
    ],
    ids=["unknown_predictor", "indirect_decodeparms"],
)
def test_unknown_predictor_raises(old, new):
    blocks = [{"kind": "text", "text": "zzz"}]
    data = write_minimal_pdf(blocks, compress=True, predictor=15)
    assert old in data
    bad = data.replace(old, new)
    with pytest.raises(NotImplementedError):
        extract_pdf_blocks(bad)


def _lzw_encode(data: bytes, early_change: int = 1) -> bytes:
    """LZW encoder for the round trips: a clear code first and whenever
    the table fills, widths grown as the decoder grows them (one code
    early when ``early_change`` is 1), then the EOD code."""
    codes, width = [(256, 9)], 9
    table, nxt = {bytes([i]): i for i in range(256)}, 258
    w = b""
    for c in data:
        wc = w + bytes([c])
        if wc in table:
            w = wc
            continue
        codes.append((table[w], width))
        table[wc], nxt = nxt, nxt + 1
        if width < 12 and nxt + early_change > 1 << width:
            width += 1
        if nxt == 4096:
            codes.append((256, width))
            table, nxt, width = {bytes([i]): i for i in range(256)}, 258, 9
        w = bytes([c])
    if w:
        codes.append((table[w], width))
        # the decoder adds its last entry on this code, so EOD may be wider
        if width < 12 and nxt + 1 + early_change > 1 << width:
            width += 1
    codes.append((257, width))
    acc = nbits = 0
    out = bytearray()
    for code, bits in codes:
        acc, nbits = (acc << bits) | code, nbits + bits
        while nbits >= 8:
            nbits -= 8
            out.append((acc >> nbits) & 0xFF)
    if nbits:
        out.append((acc << (8 - nbits)) & 0xFF)
    return bytes(out)


def _rle_encode(data: bytes) -> bytes:
    """RunLengthDecode encoder: repeat records for runs of 2+, literal
    records otherwise, each at most 128 bytes, then EOD (128)."""
    out, i = bytearray(), 0
    while i < len(data):
        j = i
        while j < len(data) and j - i < 128 and data[j] == data[i]:
            j += 1
        if j - i >= 2:
            out += bytes([257 - (j - i), data[i]])
        else:
            while j < len(data) and j - i < 128 and data[j] != data[j - 1]:
                j += 1
            out += bytes([j - i - 1]) + data[i:j]
        i = j
    return bytes(out + b"\x80")


def _refiltered(blocks, filters, parms=b""):
    """The PDF of ``blocks`` with its content stream encoded for the
    ``/Filter`` chain ``filters`` (listed in decode order, so encoding
    runs in reverse): a bare name for one filter, an array otherwise.
    ``parms`` is written as the stream's ``/DecodeParms``."""
    import base64
    import binascii
    import zlib as _z

    encode = {
        "FlateDecode": _z.compress,
        # whitespace between digits and the EOD marker are legal
        "ASCIIHexDecode": lambda b: binascii.hexlify(b, b"\n", 30) + b">",
        "ASCII85Decode": lambda b: base64.a85encode(b, wrapcol=64) + b"~>",
        "LZWDecode": lambda b: _lzw_encode(b, 0 if b"/EarlyChange 0" in parms else 1),
        "RunLengthDecode": _rle_encode,
    }
    base = write_minimal_pdf(blocks)
    raw = base.split(b"stream\n", 1)[1].split(b"\nendstream", 1)[0]
    for name in reversed(filters):
        raw = encode[name](raw)
    names = b" ".join(b"/" + f.encode() for f in filters)
    entry = names if len(filters) == 1 else b"[" + names + b"]"
    head, tail = base.split(b"4 0 obj\n", 1)
    return (
        head
        + b"4 0 obj\n<< /Length " + str(len(raw)).encode() + b" /Filter " + entry
        + (b" /DecodeParms " + parms if parms else b"") + b" >>\nstream\n" + raw + b"\nendstream\nendobj\n"
        + tail.split(b"endobj\n", 1)[1]
    )


_CHAIN_BLOCKS = [
    {"kind": "heading", "text": "SUMMARY"},
    {"kind": "text", "text": "filter chains decode (in order) or raise."},
    {"kind": "table", "data": [["a", "b"], ["1", "2"]]},
]


@pytest.mark.parametrize(
    "filters",
    [
        ["ASCIIHexDecode"],
        ["ASCII85Decode"],
        ["ASCII85Decode", "FlateDecode"],
        # inflate, then un-hex: the second filter is never skipped
        ["FlateDecode", "ASCIIHexDecode"],
        ["LZWDecode"],
        ["RunLengthDecode"],
        ["ASCIIHexDecode", "LZWDecode"],
    ],
    ids=["hex", "a85", "a85_flate", "flate_hex", "lzw", "runlength", "hex_lzw"],
)
def test_filter_chain_roundtrip(filters):
    data = _refiltered(_CHAIN_BLOCKS, filters)
    plain = extract_pdf_blocks(write_minimal_pdf(_CHAIN_BLOCKS))
    assert [b["kind"] for b in plain] == ["heading", "text", "table"]
    assert extract_pdf_blocks(data) == plain


def test_hex_odd_digit_count_pads_zero():
    from document_parser_private_ray.sources.pdf import _decode

    assert _decode(b"41 42 4>", "ASCIIHexDecode", b"") == b"AB@"


def test_lzw_reference_vector():
    """The LZW example of the PDF reference (§7.4.4.2)."""
    from document_parser_private_ray.sources.pdf import _lzw_decode

    data = bytes.fromhex("80 0B 60 50 22 0C 0C 85 01")
    assert _lzw_decode(data) == bytes.fromhex("2D 2D 2D 2D 2D 41 2D 2D 2D 42")
    assert _lzw_encode(bytes.fromhex("2D 2D 2D 2D 2D 41 2D 2D 2D 42")) == data


@pytest.mark.parametrize("early_change", [1, 0])
def test_lzw_roundtrip_through_width_changes_and_clears(early_change):
    """Enough distinct strings to grow the code width 9 -> 12 and refill
    the table (a clear code mid-stream), under both EarlyChange modes."""
    import random

    from document_parser_private_ray.sources.pdf import _lzw_decode

    rng = random.Random(7)
    data = bytes(rng.choice(b"abcdefgh ") for _ in range(60_000))
    enc = _lzw_encode(data, early_change)
    assert _lzw_decode(enc, early_change) == data
    with pytest.raises(ValueError):
        _lzw_decode(enc, 1 - early_change)


def test_lzw_early_change_zero_and_predictor_in_pdf():
    from document_parser_private_ray.sources.pdf import _png_predict_encode

    plain = extract_pdf_blocks(write_minimal_pdf(_CHAIN_BLOCKS))
    data = _refiltered(_CHAIN_BLOCKS, ["LZWDecode"], b"<< /EarlyChange 0 >>")
    assert extract_pdf_blocks(data) == plain
    # LZW + PNG predictor: encode the predicted rows, then LZW
    base = write_minimal_pdf(_CHAIN_BLOCKS)
    raw = base.split(b"stream\n", 1)[1].split(b"\nendstream", 1)[0]
    enc = _lzw_encode(_png_predict_encode(raw, 16))
    head, tail = base.split(b"4 0 obj\n", 1)
    doc = (
        head + b"4 0 obj\n<< /Length " + str(len(enc)).encode()
        + b" /Filter /LZWDecode /DecodeParms << /Predictor 12 /Columns 16 >>"
        + b" >>\nstream\n" + enc + b"\nendstream\nendobj\n"
        + tail.split(b"endobj\n", 1)[1]
    )
    assert extract_pdf_blocks(doc) == plain


def test_run_length_decode():
    from document_parser_private_ray.sources.pdf import _run_length_decode

    # literal "abc", three "z", EOD, then bytes past EOD are ignored
    assert _run_length_decode(b"\x02abc\xfez\x80junk") == b"abczzz"
    data = b"a" * 300 + bytes(range(200)) + b"bb" + b"c"
    assert _run_length_decode(_rle_encode(data)) == data


def test_corrupt_lzw_stream_raises():
    data = (
        b"%PDF-1.4\n1 0 obj\n<< /Length 5 /Filter /LZWDecode >>\n"
        b"stream\nxxxxx\nendstream\nendobj\n%%EOF\n"
    )
    with pytest.raises(ValueError, match="LZW"):
        extract_pdf_blocks(data)


@pytest.mark.parametrize("name", ["DCTDecode", "JPXDecode"])
def test_unsupported_filter_in_chain_raises_by_name(name):
    data = _refiltered(_CHAIN_BLOCKS, ["FlateDecode"]).replace(
        b"/Filter /FlateDecode", b"/Filter [/FlateDecode /" + name.encode() + b"]"
    )
    with pytest.raises(NotImplementedError, match=name):
        extract_pdf_blocks(data)
