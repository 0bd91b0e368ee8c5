"""Evaluation harness (R3 join + §5 metrics) and raw-file sources."""

import pyarrow as pa
import pytest


def test_evaluator_perfect_and_perturbed(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.evaluate import evaluate_predictions

    gt = [
        {"doc_id": "a", "skills": ["Python", "Docker"], "companies": ["Acme"], "education": ["BSc"]},
        {"doc_id": "b", "skills": ["Java"], "companies": ["Globex"], "education": ["MSc"]},
    ]
    # perfect predictions
    preds = rd.from_items(gt)
    res = evaluate_predictions(preds, gt)
    assert res["skills"]["f1"] == 1.0
    assert res["companies"]["precision"] == 1.0
    assert res["education"]["similarity"] == 100.0

    # perturbed: one missing skill, one spurious company
    bad = [
        {"doc_id": "a", "skills": ["Python"], "companies": ["Acme", "Hooli"], "education": ["BSc"]},
        {"doc_id": "b", "skills": ["Java"], "companies": ["Globex"], "education": ["MSc"]},
        {"doc_id": "zzz-not-in-gt", "skills": ["X"], "companies": [], "education": []},
    ]
    res = evaluate_predictions(rd.from_items(bad), gt)
    assert res["skills"]["recall"] == pytest.approx(2 / 3, abs=1e-4)
    assert res["skills"]["precision"] == 1.0
    assert res["companies"]["precision"] == pytest.approx(2 / 3, abs=1e-4)
    # unmatched prediction doc dropped (inner join on doc_id)
    assert res["education"]["f1"] == 1.0


def test_entity_counter_metrics_vs_naive(ray_session):
    """SQL-replayable counter path == a naive Python replay of exact-set
    tp/fp/fn + integer-micro precision/recall/F1 (floor division)."""
    import ray.data as rd

    from document_parser_private_ray.pipelines.evaluate import (
        ENTITY_TYPES,
        entity_counter_metrics,
    )

    gt = [
        {"doc_id": "a", "skills": ["Python", "Docker"], "companies": ["Acme"], "education": ["BSc"]},
        {"doc_id": "b", "skills": ["Java"], "companies": ["Globex"], "education": ["MSc"]},
        {"doc_id": "c", "skills": [], "companies": ["Initech"], "education": []},
    ]
    preds = [
        {"doc_id": "a", "skills": ["Python"], "companies": ["Acme", "Hooli"], "education": ["BSc"]},
        {"doc_id": "b", "skills": ["Java", "Java"], "companies": [], "education": ["PhD"]},
        {"doc_id": "zzz-not-in-gt", "skills": ["X"], "companies": ["Y"], "education": ["Z"]},
    ]
    out = entity_counter_metrics(rd.from_items(preds), gt).to_pandas()
    assert sorted(out["entity_type"]) == sorted(ENTITY_TYPES)  # rows come in no set order

    # naive replay (inner join on doc_id, exact sets, integer micro)
    gt_by_id = {r["doc_id"]: r for r in gt}
    for et in ENTITY_TYPES:
        tp = fp = fn = 0
        for p in preds:
            g = gt_by_id.get(p["doc_id"])
            if g is None:
                continue
            ps, gs = set(p[et]), set(g[et])
            tp += len(ps & gs)
            fp += len(ps - gs)
            fn += len(gs - ps)
        row = out[out["entity_type"] == et].iloc[0]
        assert (row["tp"], row["fp"], row["fn"]) == (tp, fp, fn)
        prec = (tp * 1_000_000) // (tp + fp) if tp + fp else 0
        rec = (tp * 1_000_000) // (tp + fn) if tp + fn else 0
        f1 = (2 * prec * rec) // (prec + rec) if prec + rec else 0
        assert row["precision_micro"] == prec
        assert row["recall_micro"] == rec
        assert row["f1_micro"] == f1


def test_parsed_projection(ray_session, tmp_path):
    from document_parser_private_ray.pipelines.evaluate import (
        parsed_to_prediction_columns,
    )
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.corpus import write_corpus_local
    import ray.data as rd

    d = tmp_path / "c"
    write_corpus_local(str(d), 10)
    parsed = parse_resumes(rd.read_parquet(str(d)))
    proj = parsed_to_prediction_columns(parsed).take_all()
    assert len(proj) == 10
    assert all(set(r) == {"doc_id", "skills", "companies", "education"} for r in proj)


def test_from_text_files(ray_session, tmp_path):
    from document_parser_private_ray.sources.files import from_text_files

    (tmp_path / "r1.txt").write_text("SUMMARY\nA fine builder.\n\nSKILLS\nPython, Docker")
    (tmp_path / "r2.txt").write_bytes(b"\xff\xfe invalid utf8 \x9c")
    ds = from_text_files([str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")])
    rows = {r["file_name"]: r for r in ds.take_all()}
    ok = rows["r1.txt"]
    assert ok["error"] == ""
    kinds = [s["kind"] for s in ok["spans"]]
    assert kinds == ["heading", "text", "heading", "text"]
    assert [s["offset"] for s in ok["spans"]] == [0, 1, 2, 3]
    bad = rows["r2.txt"]
    assert bad["error"].startswith("UnicodeDecodeError")
    assert bad["spans"] == []


def test_text_files_feed_parse_chain(ray_session, tmp_path):
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.files import from_text_files

    (tmp_path / "cv.txt").write_text(
        "555-123-4567\nJohn Smith\njohn@x.com\n\nSUMMARY\nBuilder of things.\n\n"
        "TECHNICAL SKILLS\nPython, Docker"
    )
    ds = from_text_files(str(tmp_path / "cv.txt")).select_columns(["doc_id", "spans"])
    parsed = parse_resumes(ds).take_all()
    assert len(parsed) == 1
    resume = parsed[0]["resume"]
    assert resume["contact"]["email"] == "john@x.com"
    assert "Python" in resume["skills"]


def test_pdf_default_backend_and_override(ray_session, tmp_path):
    import os

    from document_parser_private_ray.sources.files import from_pdf_files
    from doc_writers import write_minimal_pdf

    (tmp_path / "real.pdf").write_bytes(
        write_minimal_pdf([{"kind": "text", "text": "hello from pdf"}])
    )
    (tmp_path / "junk.pdf").write_bytes(b"not a pdf at all")
    rows = {
        os.path.basename(r["doc_id"]): r
        for r in from_pdf_files(
            [str(tmp_path / "real.pdf"), str(tmp_path / "junk.pdf")]
        ).take_all()
    }
    # the default backend (minimal-subset extractor) produces real spans
    assert rows["real.pdf"]["error"] == ""
    assert rows["real.pdf"]["spans"][0]["text"] == "hello from pdf"
    # non-PDF bytes degrade to an error row, never a task failure
    # (chain format: "<backend>: <error>", pdf_parser.py:119-196 shape)
    assert rows["junk.pdf"]["error"].startswith("minimal: ValueError")

    # plugging a custom decoder overrides the default
    def fake_extract(data):
        return [{"kind": "text", "text": "from custom backend"}]

    rows2 = from_pdf_files(str(tmp_path / "junk.pdf"), backends=[fake_extract]).take_all()
    assert rows2[0]["error"] == ""
    assert rows2[0]["spans"][0]["text"] == "from custom backend"
    assert rows2[0]["parse_stage"] == "fake_extract"  # named from __name__
