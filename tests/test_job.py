"""The ray-job-submit entrypoint: end-to-end run over a small corpus,
idempotent resume (committed partitions skipped), lineage rollup."""

import glob
import json
import os

import pyarrow.parquet as pq


def _write_corpus(dir_path, n_docs=60, files=3):
    from document_parser_private_ray.schemas import INPUT_SCHEMA
    from document_parser_private_ray.sources.corpus import generate_document

    import pyarrow as pa

    os.makedirs(dir_path, exist_ok=True)
    per = n_docs // files
    for f in range(files):
        rows = [
            {k: d[k] for k in ("doc_id", "spans")}
            for d in (generate_document(i, 42) for i in range(f * per, (f + 1) * per))
        ]
        pq.write_table(
            pa.Table.from_pylist(rows, schema=INPUT_SCHEMA),
            os.path.join(dir_path, f"part-{f}.parquet"),
        )


def test_job_end_to_end_and_resume(ray_session, tmp_path):
    from document_parser_private_ray.job import main

    src = str(tmp_path / "corpus")
    out = str(tmp_path / "parsed")
    _write_corpus(src)

    summary = main(
        [
            "--input", src, "--output", out, "--run-id", "r1",
            "--files-per-partition", "1",
            "--warm-sample", "20",
        ]
    )
    assert summary["processed"] == 3 and summary["skipped"] == 0
    assert summary["doc_count"] == 60 and summary["error_count"] == 0
    assert summary["committed_partitions"] == 3

    # output is real parsed rows
    files = glob.glob(os.path.join(out, "parts", "part-*", "*.parquet"))
    tbl = pq.read_table(files)
    assert tbl.num_rows == 60
    assert {"doc_id", "out_spans", "resume", "error"} <= set(tbl.column_names)

    # lineage rows committed with the run id
    lineage = [
        json.load(open(p)) for p in glob.glob(os.path.join(out, "lineage", "*.json"))
    ]
    assert len(lineage) == 3 and all(l["status"] == "committed" for l in lineage)

    # resume: nothing left to do, nothing reprocessed
    summary2 = main(
        [
            "--input", src, "--output", out, "--run-id", "r2",
            "--files-per-partition", "1",
            "--warm-sample", "0",
        ]
    )
    assert summary2["processed"] == 0 and summary2["skipped"] == 3
