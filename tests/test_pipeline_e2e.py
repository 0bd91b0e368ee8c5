"""End-to-end: Ray pipeline output == single-doc oracle, row by row, on
the deterministic synthetic corpus — the north-rule span-sequence
equality gate (kind, text, media_ref, order)."""

import os

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


# more files (24) than the read asks blocks for on 4 CPUs (8)
MANY_DOCS = 240


@pytest.fixture(scope="module")
def many_files(tmp_path_factory):
    from document_parser_private_ray.sources.corpus import write_corpus_local

    path = tmp_path_factory.mktemp("corpus") / "many"
    write_corpus_local(str(path), MANY_DOCS, seed=SEED, rows_per_file=10)
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
    parsed = parse_resumes(ds, batch_size=16)
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

    parsed = parse_resumes(read_corpus(corpus_path), batch_size=16)
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
    parsed = parse_resumes(read_corpus(path), batch_size=64)
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
    parsed = parse_resumes(read_corpus(corpus_path), with_pii=True)
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

    cold = parse_resumes(read_corpus(corpus_path))
    caches = DocumentOracle().warm(read_corpus(corpus_path).limit(50).take_all())
    warm = parse_resumes(read_corpus(corpus_path), warm_caches=caches)
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
    parsed = parse_resumes(reassembled)
    got = {r["doc_id"]: r["out_spans"] for r in parsed.take_all()}
    expected = oracle_outputs()
    for doc_id, exp in expected.items():
        exp_spans = [
            {"kind": s["kind"], "text": s["text"], "media_ref": s["media_ref"], "order": s["order"]}
            for s in exp["out_spans"]
        ]
        assert got[doc_id] == exp_spans


def test_shipped_stage_is_small_and_shares_the_slot(ray_session, monkeypatch):
    """The mapped stage pickles as its constructor arguments plus the
    warm-cache ref — never the oracle or the memo dicts. Unpickled
    copies in one process share that process's oracle; a different ref
    replaces it; an inline dict still builds a private oracle."""
    import pickle

    import ray

    from document_parser_private_ray.functions.sections import SectionDetector
    from document_parser_private_ray.stages import parse

    monkeypatch.setattr(parse, "_SLOTS", {})
    detector = SectionDetector()
    for i in range(12_000):
        detector._classify(f"line {i} of a synthetic paragraph")
    caches = {"lines": dict(detector._line_memo)}
    assert len(pickle.dumps(caches)) > 300_000

    blob = ray.cloudpickle.dumps(parse.ParseDocuments(warm_caches=ray.put(caches)))
    assert len(blob) < 16 * 1024
    first, second = pickle.loads(blob), pickle.loads(blob)
    shared = first.oracle
    assert second.oracle is shared
    assert len(shared.detector._line_memo) == 12_000

    other = pickle.loads(ray.cloudpickle.dumps(parse.ParseDocuments(warm_caches=ray.put({}))))
    replaced = other.oracle
    assert replaced is not shared and parse._SLOTS["parse"][1] is replaced
    assert len(replaced.detector._line_memo) == 0

    own = parse.ParseDocuments(warm_caches=caches)
    assert own.oracle is not parse._SLOTS["parse"][1]
    assert len(own.oracle.detector._line_memo) == 12_000


def test_detect_sections_stage_shares_the_slot(monkeypatch):
    """Unpickled ``DetectSectionsStage`` copies with equal patterns share
    one detector whose line memo outlives a batch; different patterns
    replace it; the parse slot and the detect slot never evict each
    other."""
    import pickle

    import pyarrow as pa

    from document_parser_private_ray.schemas import INPUT_SCHEMA
    from document_parser_private_ray.stages import parse

    monkeypatch.setattr(parse, "_SLOTS", {})
    p = {"publications": [r"^publications$"], "summary": [r"^summary$"]}
    blob = pickle.dumps(parse.DetectSectionsStage(section_patterns=p))
    assert len(blob) < 1024
    first, second = pickle.loads(blob), pickle.loads(blob)
    batch = pa.Table.from_pylist(
        [
            {
                "doc_id": "d1",
                "spans": [
                    {"kind": "heading", "text": "PUBLICATIONS", "media_ref": "", "offset": 0},
                    {"kind": "text", "text": "Paper A", "media_ref": "", "offset": 1},
                ],
            }
        ],
        schema=INPUT_SCHEMA,
    )
    (out,) = first(batch).to_pylist()
    assert [sec["name"] for sec in out["sections"]] == ["publications"]
    assert "Paper A" in out["sections"][0]["content"]
    shared = first.detector
    memo = len(shared._line_memo)
    assert memo > 0
    second(batch)
    assert second.detector is shared and len(shared._line_memo) == memo

    oracle = parse.ParseDocuments().oracle
    assert first.detector is shared and parse.ParseDocuments().oracle is oracle

    other = pickle.loads(
        pickle.dumps(parse.DetectSectionsStage(section_patterns={"summary": [r"^summary$"]}))
    )
    replaced = other.detector
    assert replaced is not shared and parse._SLOTS["detect_sections"][1] is replaced
    assert len(replaced._line_memo) == 0
    assert parse._SLOTS["parse"][1] is oracle


@pytest.mark.parametrize("with_pii", [False, True], ids=["plain", "pii"])
def test_back_to_back_jobs_identical_rows(ray_session, corpus_path, with_pii):
    """Jobs on one cluster reuse the workers' oracles: the same ref
    twice, then a different (empty) warm dict, each row identical to
    the in-process oracle."""
    import ray

    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    oracle = DocumentOracle(with_pii=with_pii)
    expected = {}
    for i in range(N_DOCS):
        doc = generate_document(i, SEED)
        sp = doc["spans"]
        expected[doc["doc_id"]] = oracle.process(
            doc["doc_id"], [s["kind"] for s in sp], [s["text"] for s in sp],
            [s["media_ref"] for s in sp],
        )
    caches = DocumentOracle(with_pii=with_pii).warm(read_corpus(corpus_path).limit(50).take_all())
    ref = ray.put(caches)
    for warm in (ref, ref, {}):
        parsed = parse_resumes(
            read_corpus(corpus_path), with_pii=with_pii, warm_caches=warm, batch_size=16
        )
        got = {r["doc_id"]: r for r in parsed.take_all()}
        assert set(got) == set(expected)
        for doc_id, exp in expected.items():
            g = got[doc_id]
            assert g["error"] == ""
            assert g["out_spans"] == exp["out_spans"], doc_id
            assert g["resume"] == exp["resume"], doc_id
            if with_pii:
                assert (g["anonymized_text"], g["pii_map"]) == (
                    exp["anonymized_text"], exp["pii_map"]
                ), doc_id


def test_parse_fuses_with_write(ray_session, corpus_path, many_files, tmp_path):
    """The parse is a task map, so Ray fuses it with the write. On a
    corpus with more files than the read asks blocks for, each fused
    task parses and writes one read block: as many tasks and part files
    as read blocks, and no SplitBlocks."""
    import re

    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    parsed = parse_resumes(read_corpus(corpus_path), batch_size=16)
    parsed.write_parquet(str(tmp_path / "out"))
    assert "MapBatches(ParseDocuments)->Write" in parsed.stats()

    blocks = read_corpus(many_files).materialize().num_blocks()
    parsed = parse_resumes(read_corpus(many_files), batch_size=16)
    parsed.write_parquet(str(tmp_path / "many"))
    stats = parsed.stats()
    assert "SplitBlocks" not in stats
    tasks = re.search(r"MapBatches\(ParseDocuments\)->Write: (\d+) tasks", stats)
    assert int(tasks.group(1)) == blocks
    assert len(os.listdir(tmp_path / "many")) == blocks


def test_read_corpus_sizes_blocks_to_the_cluster(ray_session, many_files):
    """read_corpus asks for SPANS_READ_PER_CPU x cluster CPUs blocks. On a
    corpus with more files than that it makes exactly that many, with no
    SplitBlocks and none past the target; a tiny target raises the
    count through Ray's own block cap (which slices by average row size,
    so there a block of a few heavy rows can still pass the target)."""
    import ray
    from ray.data import DataContext

    from document_parser_private_ray import stages
    from document_parser_private_ray.pipelines import resume

    def sizes(ds):
        return [m.size_bytes for b in ds.iter_internal_ref_bundles() for _, m in b.blocks]

    ctx = DataContext.get_current()
    per_cpu = stages.width(stages.SPANS_READ_PER_CPU)
    # the spans read stays at 2 blocks per CPU (PERF_pr11_blocks_by_files.json)
    assert per_cpu == 2 * int(ray.cluster_resources()["CPU"])
    assert len(os.listdir(many_files)) > per_cpu

    ds = resume.read_corpus(many_files).materialize()
    assert ds.num_blocks() == per_cpu
    assert "SplitBlocks" not in ds.stats()
    assert ds.count() == MANY_DOCS
    assert max(sizes(ds)) <= ctx.target_max_block_size

    # a list of files is the same read
    files = sorted(os.path.join(many_files, f) for f in os.listdir(many_files))
    assert resume.read_corpus(files).materialize().num_blocks() == per_cpu

    old = ctx.target_max_block_size
    ctx.target_max_block_size = sum(sizes(ds)) // (3 * per_cpu)
    try:
        small = resume.read_corpus(many_files).materialize()
        assert small.num_blocks() > per_cpu
        assert small.count() == MANY_DOCS
    finally:
        ctx.target_max_block_size = old


def test_parse_lifts_reservation_on_own_context(ray_session, corpus_path):
    """parse_resumes turns Ray Data's per-operator resource reservation
    off on its own dataset context only; the caller's DataContext keeps
    its setting."""
    from ray.data import DataContext

    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus

    before = DataContext.get_current().op_resource_reservation_enabled
    parsed = parse_resumes(read_corpus(corpus_path))
    assert parsed.context.op_resource_reservation_enabled is False
    assert DataContext.get_current().op_resource_reservation_enabled == before
