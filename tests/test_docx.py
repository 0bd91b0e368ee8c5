"""S6 minimal DOCX loop: generate stdlib-zip .docx files, extract the
typed block stream back, and run it through the full parse chain. The
reference's docx_parser.py is a 0-byte stub — these semantics are the
engine's own (SURVEY §2.1 S6, VERDICT r3 item 8)."""

import os

import pytest

from doc_writers import write_minimal_docx
from document_parser_private_ray.sources.docx import extract_docx_blocks


def test_roundtrip_blocks():
    blocks = [
        {"kind": "heading", "text": "SUMMARY"},
        {"kind": "text", "text": "ships <things> & writes \"docs\"."},
        {"kind": "heading", "text": "SKILLS"},
        {"kind": "text", "text": "python, docker"},
    ]
    got = extract_docx_blocks(write_minimal_docx(blocks))
    assert [(b["kind"], b["text"]) for b in got] == [
        (b["kind"], b["text"]) for b in blocks
    ]


def test_multiline_paragraph_roundtrips():
    blocks = [{"kind": "text", "text": "line one\nline two\nline three"}]
    got = extract_docx_blocks(write_minimal_docx(blocks))
    assert got[0]["text"] == "line one\nline two\nline three"


def test_table_roundtrip():
    import json

    blocks = [
        {"kind": "heading", "text": "SKILLS"},
        {"kind": "table", "data": [["skill", "years"], ["python", "5"]]},
        {"kind": "text", "text": "closing remark."},
    ]
    got = extract_docx_blocks(write_minimal_docx(blocks))
    assert [b["kind"] for b in got] == ["heading", "table", "text"]
    assert got[1]["data"] == [["skill", "years"], ["python", "5"]]
    assert json.loads(got[1]["text"]) == got[1]["data"]


def test_not_a_docx_raises():
    with pytest.raises(ValueError):
        extract_docx_blocks(b"plain text, no zip header")


def test_empty_paragraphs_skipped_heading_styles():
    """Whitespace-only paragraphs drop; Heading2/Title styles classify
    as headings."""
    xml_blocks = [
        {"kind": "heading", "text": "EXPERIENCE"},
        {"kind": "text", "text": "   "},
        {"kind": "text", "text": "real content"},
    ]
    got = extract_docx_blocks(write_minimal_docx(xml_blocks))
    assert [(b["kind"], b["text"]) for b in got] == [
        ("heading", "EXPERIENCE"),
        ("text", "real content"),
    ]


def test_docx_through_parse_chain(ray_session, tmp_path):
    """e2e: generated .docx -> from_docx_files -> parse chain == the
    single-doc oracle on the same extracted spans."""
    from document_parser_private_ray.oracle.document import DocumentOracle
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.files import from_docx_files

    resumes = [
        [
            {"kind": "heading", "text": "SUMMARY"},
            {"kind": "text", "text": "seasoned engineer who ships."},
            {"kind": "heading", "text": "SKILLS"},
            {"kind": "text", "text": "Python, Docker, Kubernetes"},
            {"kind": "heading", "text": "EDUCATION"},
            {"kind": "text", "text": "BSc Computer Science, MIT (2015 - 2019)"},
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
        p = os.path.join(tmp_path, f"cv{i}.docx")
        with open(p, "wb") as f:
            f.write(write_minimal_docx(blocks))
        paths.append(p)

    ds = from_docx_files(paths)
    rows = ds.take_all()
    assert all(r["error"] == "" for r in rows)
    assert all(r["format"] == "docx" for r in rows)
    assert all(r["parse_stage"] == "minimal" for r in rows)
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
        assert got["out_spans"] == out["out_spans"]
        assert got["resume"]["skills"] == out["resume"]["skills"]


def test_corrupt_docx_degrades_to_error_row(ray_session, tmp_path):
    """M12 validation: a truncated zip degrades to an error row, never
    a task failure."""
    from document_parser_private_ray.sources.files import from_docx_files

    p = os.path.join(tmp_path, "broken.docx")
    with open(p, "wb") as f:
        f.write(b"PK\x03\x04 truncated garbage")
    rows = from_docx_files([p]).take_all()
    assert rows[0]["parse_stage"] == ""
    assert rows[0]["error"] != ""
    assert rows[0]["spans"] == []
