"""Poison-row degradation (SURVEY §4.2): a malformed document must
become an ``error``-column row, never a task failure — null span
lists, empty span lists, and null span text all flow through
``parse_resumes`` alongside healthy rows."""

import pyarrow as pa


def test_poison_rows_degrade_to_error_column(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.schemas import INPUT_SCHEMA

    rows = [
        {
            "doc_id": "ok",
            "spans": [
                {"kind": "heading", "text": "SKILLS", "media_ref": "", "offset": 0},
                {"kind": "text", "text": "Python, SQL", "media_ref": "", "offset": 1},
            ],
        },
        {"doc_id": "none-spans", "spans": None},
        {"doc_id": "empty-spans", "spans": []},
        {
            "doc_id": "null-text",
            "spans": [{"kind": "text", "text": None, "media_ref": "", "offset": 0}],
        },
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA))
    out = parse_resumes(ds, batch_size=2).to_pandas()
    assert len(out) == 4  # no task death, every row accounted for
    by_id = {r["doc_id"]: r for _, r in out.iterrows()}

    # healthy row parses
    assert by_id["ok"]["error"] == ""
    assert len(by_id["ok"]["out_spans"]) == 1
    assert by_id["ok"]["out_spans"][0]["kind"] == "skills"

    # structurally-empty docs are valid empty parses, not errors
    for did in ("none-spans", "empty-spans"):
        assert by_id[did]["error"] == ""
        assert len(by_id[did]["out_spans"]) == 0

    # a null span text is a genuine poison value -> error column set,
    # empty resume, no exception escaping the stage
    bad = by_id["null-text"]
    assert bad["error"].startswith("TypeError")
    assert len(bad["out_spans"]) == 0
    assert len(bad["resume"]["skills"]) == 0


def test_poison_rows_with_pii_stage(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.schemas import INPUT_SCHEMA

    rows = [
        {
            "doc_id": "a",
            "spans": [{"kind": "text", "text": None, "media_ref": "", "offset": 0}],
        },
        {
            "doc_id": "b",
            "spans": [
                {"kind": "text", "text": "mail me: jo@x.io", "media_ref": "", "offset": 0}
            ],
        },
    ]
    ds = rd.from_arrow(pa.Table.from_pylist(rows, schema=INPUT_SCHEMA))
    out = parse_resumes(ds, with_pii=True, batch_size=2).to_pandas()
    by_id = {r["doc_id"]: r for _, r in out.iterrows()}
    assert by_id["a"]["error"].startswith("TypeError")
    assert by_id["a"]["anonymized_text"] == "" and len(by_id["a"]["pii_map"]) == 0
    assert by_id["b"]["error"] == ""
    assert "jo@x.io" not in by_id["b"]["anonymized_text"]
    assert len(by_id["b"]["pii_map"]) == 1


def test_html_chain_null_text(ray_session):
    """A null/empty documents.text row degrades to an empty page (no
    content spans), never a task failure — across all HTML pipelines'
    shared render+extract stages."""
    import pyarrow as pa
    import ray.data as rd

    from document_parser_private_ray.pipelines.html import (
        HtmlDocSummary,
        HtmlMainContent,
        _render_batch,
    )

    poisoned = rd.from_arrow(
        pa.table(
            {
                "doc_id": pa.array([1, 2, 3], type=pa.int64()),
                "text": pa.array(["plenty of real words in this paragraph here", None, ""]),
                "source": pa.array(["web", None, "web"]),
            }
        )
    )
    pages = poisoned.map_batches(
        _render_batch, batch_format="pyarrow", zero_copy_batch=True
    )
    spans = pages.map_batches(HtmlMainContent(), batch_format="pyarrow").take_all()
    assert {s["doc_id"] for s in spans} == {1}  # null/empty -> no spans
    summary = pages.map_batches(HtmlDocSummary(), batch_format="pyarrow").take_all()
    by_id = {r["doc_id"]: r for r in summary}
    assert by_id[1]["main_text"] == "plenty of real words in this paragraph here"
    # null/empty docs yield NO summary row — HtmlDocSummary mirrors the
    # oracle's len(w) > 0 filter (ADVICE r4), so both sides agree on any
    # corpus; degrading to a dropped row is still never a task failure
    assert set(by_id) == {1}
