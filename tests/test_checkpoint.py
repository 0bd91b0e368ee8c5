"""Resumable partitioned execution: failure injection + restart must
produce byte-identical output to an uninterrupted run, with no
partition processed twice (FIXTURES.md §4)."""

import os

import pytest

from document_parser_private_ray.sources.corpus import write_corpus_local
from document_parser_private_ray.state.checkpoint import (
    committed_partitions,
    lineage_table,
    run_resumable,
)

N_DOCS = 60


def read_output(out_dir: str):
    """The committed output (every ``parts/part-*`` dir) as one Dataset."""
    import glob

    import ray.data as rd

    parts = os.path.join(out_dir, "parts", "part-*[0-9]", "*.parquet")
    return rd.read_parquet(sorted(glob.glob(parts)))


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "spans"
    write_corpus_local(str(path), N_DOCS, seed=42, rows_per_file=10)  # 6 files
    return sorted(str(path / f) for f in os.listdir(path))


def _pipeline(ds):
    from document_parser_private_ray.pipelines.resume import parse_resumes

    return parse_resumes(ds, batch_size=16)


def _collect(out_dir):
    rows = {r["doc_id"]: r["out_spans"] for r in read_output(out_dir).take_all()}
    return rows


def test_resume_after_injected_failure(ray_session, corpus_files, tmp_path):
    clean_dir = str(tmp_path / "clean")
    summary = run_resumable(corpus_files, clean_dir, _pipeline, run_id="clean",
                            files_per_partition=2)
    assert summary["processed"] == 3 and summary["skipped"] == 0

    crash_dir = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="injected failure"):
        run_resumable(corpus_files, crash_dir, _pipeline, run_id="try1",
                      files_per_partition=2, fail_after=1)
    assert committed_partitions(crash_dir) == {0}

    resumed = run_resumable(corpus_files, crash_dir, _pipeline, run_id="try2",
                            files_per_partition=2)
    assert resumed["skipped"] == 1  # partition 0 not reprocessed
    assert resumed["processed"] == 2

    assert _collect(crash_dir) == _collect(clean_dir)

    lt = lineage_table(crash_dir).to_pylist()
    assert [r["partition_id"] for r in lt] == [0, 1, 2]
    assert all(r["status"] == "committed" for r in lt)
    assert {r["run_id"] for r in lt} == {"try1", "try2"}
    assert sum(r["doc_count"] for r in lt) == N_DOCS
    assert all(r["error_count"] == 0 for r in lt)
    assert sum(r["span_count"] for r in lt) > 0


def test_rerun_is_noop(ray_session, corpus_files, tmp_path):
    out = str(tmp_path / "noop")
    run_resumable(corpus_files, out, _pipeline, files_per_partition=3)
    again = run_resumable(corpus_files, out, _pipeline, files_per_partition=3)
    assert again["processed"] == 0 and again["skipped"] == 2


def test_table_job_resume_after_failure(ray_session, tmp_path):
    """The HTML extraction job over a key-partitioned TABLE resumes
    idempotently: fail after 2 buckets, restart, output and lineage
    equal the uninterrupted run."""
    import pyarrow.compute as pc
    import pytest

    from document_parser_private_ray.pipelines.html import html_spans, web_extract_job
    from document_parser_private_ray.state.checkpoint import lineage_table

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "web")
    with pytest.raises(RuntimeError, match="injected failure"):
        web_extract_job(sf, out, n_partitions=4, fail_after=2)
    partial = lineage_table(out)
    assert partial.num_rows == 2

    summary = web_extract_job(sf, out, n_partitions=4)
    assert summary["skipped"] == 2 and summary["processed"] == 2
    lin = lineage_table(out)
    assert lin.num_rows == 4
    assert pc.all(pc.equal(lin["status"], "committed")).as_py()

    got = read_output(out).to_pandas().sort_values(
        ["doc_id", "span_offset"]).reset_index(drop=True)
    direct = html_spans(sf).to_pandas().sort_values(
        ["doc_id", "span_offset"]).reset_index(drop=True)
    assert got.equals(direct)
    # lineage counters recompute from the committed data
    assert int(pc.sum(lin["span_count"]).as_py()) == len(direct)

    # a third run is a no-op
    assert web_extract_job(sf, out, n_partitions=4)["processed"] == 0
    with pytest.raises(ValueError):
        web_extract_job(sf, out, n_partitions=3)
