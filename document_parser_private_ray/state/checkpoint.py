"""Resumable, partitioned execution with per-partition lineage
(north rule: "every partition emits lineage + counters to a checkpoint
table so the job resumes idempotently after failure").

Model: the input corpus is a list of files; partitions are deterministic
contiguous file groups (partition_id = index over the sorted file list).
Each partition runs as its own bounded Ray Dataset pipeline and commits
atomically:

    out_dir/
      parts/part-<id>/...parquet       (written to a tmp dir, then renamed)
      lineage/part-<id>.json           (doc/span/error counters + wall_ms)

On restart, committed partition ids are skipped (idempotent: every stage
is a deterministic pure function of the input rows). The lineage
directory doubles as the metrics table (FIXTURES.md §4 schema) and can
be loaded as a Dataset via ``lineage_table``.

At 100 TB the same layout holds: partitions = input shards (or key
ranges), each a streaming pipeline bounded by the shard size; the
lineage write is tiny and atomic per partition.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, List, Optional

import pyarrow as pa
import pyarrow.compute as pc

LINEAGE_FIELDS = (
    "partition_id", "doc_count", "span_count", "error_count",
    "wall_ms", "status", "run_id",
)


def _partitions(files: List[str], files_per_partition: int) -> List[List[str]]:
    files = sorted(files)
    return [
        files[i : i + files_per_partition]
        for i in range(0, len(files), files_per_partition)
    ]


def committed_partitions(out_dir: str) -> set:
    lineage_dir = os.path.join(out_dir, "lineage")
    if not os.path.isdir(lineage_dir):
        return set()
    done = set()
    for name in os.listdir(lineage_dir):
        if name.startswith("part-") and name.endswith(".json"):
            try:
                with open(os.path.join(lineage_dir, name)) as f:
                    row = json.load(f)
                if row.get("status") == "committed":
                    done.add(int(row["partition_id"]))
            except (ValueError, json.JSONDecodeError):
                continue
    return done


def _commit_partitions(
    out_dir: str,
    reads: List[Callable],
    pipeline_fn: Callable,
    run_id: str,
    fail_after: Optional[int],
) -> dict:
    """The one commit loop: partition ``pid`` is ``reads[pid]()``, the
    Dataset of its input. Each partition not yet committed runs through
    ``pipeline_fn``, is written to a tmp dir, renamed into place (the
    atomic commit of the data), and then gets its lineage row (renamed
    into place too). ``fail_after`` kills the run after N partitions
    (failure injection for resume tests)."""
    import shutil

    os.makedirs(os.path.join(out_dir, "parts"), exist_ok=True)
    os.makedirs(os.path.join(out_dir, "lineage"), exist_ok=True)
    done = committed_partitions(out_dir)

    processed, skipped = 0, 0
    for pid, read in enumerate(reads):
        if pid in done:
            skipped += 1
            continue
        if fail_after is not None and processed >= fail_after:
            raise RuntimeError(f"injected failure after {processed} partitions")

        t0 = time.monotonic()
        out = pipeline_fn(read())
        final_dir = os.path.join(out_dir, "parts", f"part-{pid:05d}")
        tmp_dir = final_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)  # leftover from a crashed attempt
        out.write_parquet(tmp_dir)
        doc_count, span_count, error_count = _written_counters(tmp_dir)
        shutil.rmtree(final_dir, ignore_errors=True)
        os.rename(tmp_dir, final_dir)

        lineage_row = {
            "partition_id": pid,
            "doc_count": doc_count,
            "span_count": span_count,
            "error_count": error_count,
            "wall_ms": (time.monotonic() - t0) * 1000.0,
            "status": "committed",
            "run_id": run_id,
        }
        lineage_path = os.path.join(out_dir, "lineage", f"part-{pid:05d}.json")
        with open(lineage_path + ".tmp", "w") as f:
            json.dump(lineage_row, f)
        os.rename(lineage_path + ".tmp", lineage_path)
        processed += 1

    return {
        "n_partitions": len(reads),
        "processed": processed,
        "skipped": skipped,
        "run_id": run_id,
    }


def run_resumable(
    input_files: List[str],
    out_dir: str,
    pipeline_fn: Callable,
    run_id: str = "run-0",
    files_per_partition: int = 4,
    fail_after: Optional[int] = None,
) -> dict:
    """Process partitions not yet committed. ``pipeline_fn(ds) -> ds``
    attaches the transform chain to each partition's spans Dataset
    (its files read through ``pipelines.resume.read_corpus``).
    ``fail_after`` kills the run after N partitions (failure-injection
    for resume tests). Returns run summary."""
    from ..pipelines.resume import read_corpus

    reads = [
        functools.partial(read_corpus, part_files)
        for part_files in _partitions(input_files, files_per_partition)
    ]
    return _commit_partitions(out_dir, reads, pipeline_fn, run_id, fail_after)


def _written_counters(tmp_dir: str) -> tuple:
    """(doc_count, span_count, error_count) from a written partition,
    adapting to the output schema: parse-chain outputs count spans from
    ``out_spans`` and errors from ``error``; exploded span outputs count
    distinct ``doc_id`` and rows; anything else counts rows."""
    import pyarrow.dataset as pads

    written = pads.dataset(tmp_dir, format="parquet")
    names = written.schema.names
    doc_count, span_count, error_count = 0, 0, 0
    if "out_spans" in names:
        cols = ["out_spans"] + (["error"] if "error" in names else [])
        for b in written.to_batches(columns=cols):
            doc_count += b.num_rows
            span_count += len(pc.list_flatten(b.column(0)))
            if "error" in names:
                error_count += pc.sum(
                    pc.cast(pc.not_equal(b.column(1), ""), pa.int64())
                ).as_py() or 0
    elif "doc_id" in names:
        seen = set()
        for b in written.to_batches(columns=["doc_id"]):
            span_count += b.num_rows
            seen.update(pc.unique(b.column(0)).to_pylist())
        doc_count = len(seen)
    else:
        for b in written.to_batches():
            doc_count += b.num_rows
    return doc_count, span_count, error_count


def run_resumable_table(
    table_path: str,
    out_dir: str,
    pipeline_fn: Callable,
    run_id: str = "run-0",
    n_partitions: int = 8,
    key: str = "doc_id",
    columns: Optional[List[str]] = None,
    fail_after: Optional[int] = None,
) -> dict:
    """Key-partitioned variant of ``run_resumable`` for single-table
    inputs (the web/HTML chain): partitions are deterministic hash
    buckets of ``key`` (partition_id = key & (n_partitions - 1),
    n_partitions a power of two — pyarrow scan expressions have
    bit_wise_and but no modulo), each read with a pushed-down scan
    filter, run as its own bounded pipeline and committed atomically
    with a lineage row — restart skips committed buckets. At 100 TB the
    same layout holds with partitions = key ranges aligned to the
    table's shard boundaries."""
    from ..sources.readers import read_table

    if n_partitions & (n_partitions - 1):
        raise ValueError(f"n_partitions must be a power of two, got {n_partitions}")
    reads = [
        functools.partial(
            read_table, table_path, columns,
            filter=pc.equal(pc.bit_wise_and(pc.field(key), n_partitions - 1), pid),
        )
        for pid in range(n_partitions)
    ]
    return _commit_partitions(out_dir, reads, pipeline_fn, run_id, fail_after)


def lineage_table(out_dir: str) -> pa.Table:
    rows = []
    lineage_dir = os.path.join(out_dir, "lineage")
    for name in sorted(os.listdir(lineage_dir)):
        if name.endswith(".json"):
            with open(os.path.join(lineage_dir, name)) as f:
                rows.append(json.load(f))
    return pa.Table.from_pylist(rows)
