"""The flagship pipeline: interleaved-span corpus -> parsed resumes +
output spans (north rule), expressed Ray-Data-first.

    read (Lance/Parquet, pruned)
      -> map_batches(ParseDocuments(...))   # the whole per-doc chain, as tasks
      -> write_parquet / downstream aggregates

The parse runs on Ray's reusable task workers, not an actor pool: the
mapped ``ParseDocuments`` instance ships as its constructor arguments
(warm caches as one ``ray.put`` ref) and each worker process keeps the
oracle it built in a per-process slot (``stages.parse``), so imports,
ontologies and seeded memos are paid once per worker, not once per job.
A task map also fuses with the following write into one
``MapBatches(ParseDocuments)->Write`` operator.

Sizing: documents are heavy-tailed (FIXTURES §1), but in a short job
the fixed cost of each task and the CPUs left idle while the scan
streams cost more than the tail. ``read_corpus`` asks for
``SPANS_READ_PER_CPU`` read blocks per cluster CPU, each fused
parse->write task takes one read block, and the map runs under
``stages.lift_reservation``. On a 6,000-doc corpus split into 2 to 40
files (4 CPUs, ``PERF_pr11_blocks_by_files.json``), 2 blocks per CPU
was 6-22% faster than Ray's default block count at every file count;
1 per CPU lost 10% at 5 files, and 3 and 4 per CPU gained less. On
the ``resume_stream`` benchmark (12 or 13 files) that is 8 tasks per
job instead of 25 behind a ``SplitBlocks(2)`` read.
"""

from __future__ import annotations

from typing import Optional

import pyarrow.compute as pc

from ..stages import SPANS_READ_PER_CPU, lift_reservation, width
from ..stages.parse import ParseDocuments


def read_corpus(path, columns=("doc_id", "spans")):
    """Read the spans table from a path or a list of parquet files: the
    one read of it in the package. Prefers Lance when available (the
    logical format of the north rule); falls back to Parquet (sandbox
    physical format — no pylance wheel offline, SURVEY §1.5).

    The parquet read asks for ``width(SPANS_READ_PER_CPU)`` blocks
    instead of Ray's default: a narrow corpus is split and a wide one
    merged to that count, and Ray's own ``target_max_block_size`` cap
    still splits a read block that would grow past the target. Measured
    on 4 CPUs over 2 to 40 files (``PERF_pr11_blocks_by_files.json``):
    +6% to +22% docs/s against Ray's default at each file count. On the
    ``resume_stream`` benchmark that is 8 blocks with no ``SplitBlocks``."""
    import ray.data as rd

    if isinstance(path, str) and path.endswith(".lance"):
        return rd.read_lance(path, columns=list(columns))
    return rd.read_parquet(
        path, columns=list(columns), override_num_blocks=width(SPANS_READ_PER_CPU)
    )


def parse_resumes(
    ds,
    data_dir: Optional[str] = None,
    today=None,
    with_pii: bool = False,
    concurrency=None,
    batch_size: int = 32,
    warm_caches=None,
    max_tasks_in_flight: Optional[int] = None,
):
    """Attach the parse chain to a spans Dataset as a task map, one
    task per input block (``read_corpus`` sizes them), under
    ``stages.lift_reservation``: the read is a cheap scan and the parse
    is CPU-bound. With both, the ``resume_stream`` benchmark (6,000
    docs, 4 CPUs) went from 1,833 to 2,794 docs/s and from 1.40 to 1.19
    CPU ms per doc (medians of 10 alternating pairs, 10/10 wins each).

    ``warm_caches``: pure-function memo caches (fuzzy decisions, line
    classifications, date parses — ``DocumentOracle.warm`` builds them
    in one driver pass), broadcast via ray.put (or passed as an existing
    ObjectRef) so every worker starts at steady-state throughput
    instead of paying the cold-cache transient. The driver never
    resolves the ref.

    ``concurrency`` and ``max_tasks_in_flight`` have no effect: they
    sized the actor pool this stage used to run on, and are accepted
    only so existing callers keep working."""
    if warm_caches is not None:
        import ray

        if not isinstance(warm_caches, ray.ObjectRef):
            warm_caches = ray.put(warm_caches)
    stage = ParseDocuments(
        data_dir=data_dir, today=today, with_pii=with_pii, warm_caches=warm_caches
    )
    return lift_reservation(
        ds.map_batches(
            stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
        )
    )


def sample_corpus(ds, fraction: float = 0.01, seed: int = 7, limit: int = 0):
    """R7: seeded sampling for bench subsets / quick looks."""
    out = ds.random_sample(fraction, seed=seed)
    return out.limit(limit) if limit else out


def span_rollup(spans, export: str):
    """R2 over a spans Dataset: parse it, then per-section span counts +
    an error count over the parsed (doc_id, out_spans, error) columns —
    a small, driver-safe result. Those columns go through an atomic
    parquet export at ``export``, so a SQL oracle recounts the rollup
    from the same intermediate (the parse chain itself is gated by the
    pytest span-equality suite)."""
    import pyarrow as pa
    from ray.data.aggregate import Sum

    from ..state import exported

    def count_batch(batch: pa.Table) -> pa.Table:
        kinds = pc.struct_field(pc.list_flatten(batch["out_spans"]), "kind")
        vc = kinds.value_counts()
        rows = [
            {"kind": s["values"], "n": s["counts"]} for s in vc.to_pylist()
        ]
        errors = pc.sum(
            pc.cast(pc.not_equal(batch["error"], ""), pa.int64())
        ).as_py() or 0
        rows.append({"kind": "__error__", "n": errors})
        return pa.Table.from_pylist(
            rows, schema=pa.schema([("kind", pa.string()), ("n", pa.int64())])
        )

    parsed = parse_resumes(spans).select_columns(["doc_id", "out_spans", "error"])
    # partial counts per batch (tiny) -> global groupby over partials
    return (
        exported(parsed, export)
        .map_batches(count_batch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("kind")
        .aggregate(Sum("n", alias_name="count"))
    )
