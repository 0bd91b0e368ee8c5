"""End-to-end: Ray pipeline output == single-doc oracle, row by row, on
the deterministic synthetic corpus — the north-rule span-sequence
equality gate (kind, text, media_ref, order)."""

import pytest

from document_parser_private_ray.oracle import DocumentOracle
from document_parser_private_ray.sources.corpus import generate_document

N_DOCS = 120
SEED = 42


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    from document_parser_private_ray.sources.corpus import write_corpus_local

    path = tmp_path_factory.mktemp("corpus") / "spans"
    write_corpus_local(str(path), N_DOCS, seed=SEED, rows_per_file=40)
    return str(path)


import functools


@functools.lru_cache(maxsize=1)
def oracle_outputs():
    oracle = DocumentOracle()
    expected = {}
    for i in range(N_DOCS):
        doc = generate_document(i, SEED)
        kinds = [s["kind"] for s in doc["spans"]]
        texts = [s["text"] for s in doc["spans"]]
        media = [s["media_ref"] for s in doc["spans"]]
        expected[doc["doc_id"]] = oracle.process(doc["doc_id"], kinds, texts, media)
    return expected


def test_span_equality_pipeline_vs_oracle(ray_session, corpus_path):
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    ds = read_corpus(corpus_path)
    parsed = parse_resumes(ds, concurrency=(1, 2), batch_size=16)
    got = {row["doc_id"]: row for row in parsed.take_all()}

    expected = oracle_outputs()
    assert set(got) == set(expected)

    mismatches = []
    for doc_id, exp in expected.items():
        g = got[doc_id]
        assert g["error"] == "", f"{doc_id}: {g['error']}"
        got_spans = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in g["out_spans"]
        ]
        exp_spans = [
            (s["kind"], s["text"], s["media_ref"], s["order"]) for s in exp["out_spans"]
        ]
        if got_spans != exp_spans:
            mismatches.append(doc_id)
    assert mismatches == [], f"span-sequence mismatch for {mismatches[:5]}"


def test_resume_struct_equality(ray_session, corpus_path):
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    parsed = parse_resumes(read_corpus(corpus_path), concurrency=(1, 2), batch_size=16)
    got = {row["doc_id"]: row for row in parsed.take_all()}
    expected = oracle_outputs()
    for doc_id, exp in list(expected.items())[:25]:
        assert got[doc_id]["resume"] == exp["resume"], f"resume mismatch for {doc_id}"


def test_span_equality_larger_corpus(ray_session, tmp_path):
    """Wider sweep: 400 docs (more huge-doc and fallback shapes)."""
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus
    from document_parser_private_ray.sources.corpus import write_corpus_local

    path = str(tmp_path / "big")
    write_corpus_local(path, 400, seed=SEED, rows_per_file=100)
    parsed = parse_resumes(read_corpus(path), concurrency=(2, 4), batch_size=64)
    got = {r["doc_id"]: r["out_spans"] for r in parsed.take_all()}

    oracle = DocumentOracle()
    mismatches = []
    for i in range(400):
        doc = generate_document(i, SEED)
        sp = doc["spans"]
        exp = oracle.process(
            doc["doc_id"], [s["kind"] for s in sp], [s["text"] for s in sp],
            [s["media_ref"] for s in sp],
        )
        exp_spans = [
            {"kind": s["kind"], "text": s["text"], "media_ref": s["media_ref"], "order": s["order"]}
            for s in exp["out_spans"]
        ]
        if got[doc["doc_id"]] != exp_spans:
            mismatches.append(doc["doc_id"])
    assert mismatches == []


def test_pii_chain_equality(ray_session, corpus_path):
    """T3 through the distributed chain: with_pii parse must equal the
    oracle's anonymized text + pii_map per document."""
    from document_parser_private_ray.oracle import DocumentOracle
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus
    from document_parser_private_ray.sources.corpus import generate_document

    n = 40
    parsed = parse_resumes(
        read_corpus(corpus_path), with_pii=True, concurrency=(1, 2)
    )
    got = {
        r["doc_id"]: (r["anonymized_text"], r["pii_map"])
        for r in parsed.take_all()
        if int(r["doc_id"].split("-")[1]) < n
    }
    oracle = DocumentOracle(with_pii=True)
    for i in range(n):
        doc = generate_document(i, SEED)
        sp = doc["spans"]
        exp = oracle.process(
            doc["doc_id"], [s["kind"] for s in sp], [s["text"] for s in sp],
            [s["media_ref"] for s in sp],
        )
        assert got[doc["doc_id"]] == (exp["anonymized_text"], exp["pii_map"])


def test_warm_broadcast_identical_results(ray_session, corpus_path):
    """Cache seeding must be purely an optimization: warm-broadcast
    parse == cold parse, span for span."""
    from document_parser_private_ray.oracle.document import DocumentOracle
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    cold = parse_resumes(read_corpus(corpus_path), concurrency=(1, 2))
    caches = DocumentOracle().warm(read_corpus(corpus_path).limit(50).take_all())
    warm = parse_resumes(read_corpus(corpus_path), concurrency=(1, 2), warm_caches=caches)
    a = {r["doc_id"]: (r["out_spans"], r["resume"]) for r in cold.take_all()}
    b = {r["doc_id"]: (r["out_spans"], r["resume"]) for r in warm.take_all()}
    assert a == b


def test_explode_reassemble_roundtrip(ray_session, corpus_path):
    """R1: explode to span rows, shuffle-group by doc_id, reassemble in
    offset order — identical parse results afterwards."""
    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus
    from document_parser_private_ray.stages.parse import explode_spans, reassemble_group

    ds = read_corpus(corpus_path)
    reassembled = (
        ds.map_batches(explode_spans, batch_format="pyarrow")
        .groupby("doc_id")
        .map_groups(reassemble_group, batch_format="pyarrow")
    )
    parsed = parse_resumes(reassembled, concurrency=(1, 2))
    got = {r["doc_id"]: r["out_spans"] for r in parsed.take_all()}
    expected = oracle_outputs()
    for doc_id, exp in expected.items():
        exp_spans = [
            {"kind": s["kind"], "text": s["text"], "media_ref": s["media_ref"], "order": s["order"]}
            for s in exp["out_spans"]
        ]
        assert got[doc_id] == exp_spans
