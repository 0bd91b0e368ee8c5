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
A task map also fuses with the read before it and the write after it.

Sizing: documents are heavy-tailed (FIXTURES §1), but in a short job
the fixed cost of each stage and task and the last straggler set the
wall. ``read_corpus`` plans ``stages.width()`` read tasks, one per
cluster CPU, over row ranges of the corpus that differ by at most one
row (a range may span files), and the parse sets no ``batch_size``, so
each job is one balanced
``ReadParquet->MapBatches(ParseDocuments)->Write`` task per CPU, run
under ``stages.lift_reservation``. On the ``resume_stream`` benchmark
(12 files of 500 rows plus one of a few rows, 4 CPUs) that is 4 tasks
of about 1,500 rows per job instead of 8 file-grouped read tasks of a
few to 1,000 rows feeding 8 separate parse tasks: 7,436 -> 9,048
docs/s, median of 10 alternating pairs, 10/10 wins
(``PERF_pr18_bench_pairs.json``).
"""

from __future__ import annotations

import glob
import os
from typing import Optional

import pyarrow.compute as pc

from ..stages import lift_reservation
from ..stages.parse import ParseDocuments


def read_corpus(path, columns=("doc_id", "spans")):
    """Read the spans table from a path (a directory of parquet files,
    or one file) or a list of parquet files: the one read of it in the
    package. Prefers Lance when available (the logical format of the
    north rule); falls back to Parquet (sandbox physical format — no
    pylance wheel offline, SURVEY §1.5).

    The parquet read is ``sources.readers.read_table`` over the files
    in sorted order (a directory's ``*.parquet`` files; markers and
    caches beside them are skipped): ``stages.width()`` read tasks
    planned from the footers, each a row range of the corpus taken end
    to end, their row counts differing by at most one. No task splits
    its output, so each fuses with a following map that sets no
    ``batch_size``."""
    if isinstance(path, str) and path.endswith(".lance"):
        import ray.data as rd

        return rd.read_lance(path, columns=list(columns))
    from ..sources.readers import read_table

    if not isinstance(path, str):
        files = sorted(path)
    elif os.path.isdir(path):
        files = sorted(glob.glob(os.path.join(path, "*.parquet")))
    else:
        files = [path]
    return read_table(files, list(columns))


def parse_resumes(
    ds,
    with_pii: bool = False,
    concurrency=None,
    batch_size: int = 32,
    warm_caches=None,
    max_tasks_in_flight: Optional[int] = None,
):
    """Attach the parse chain to a spans Dataset as a task map, one
    task per input block (``read_corpus`` sizes them), under
    ``stages.lift_reservation``: the read is a cheap scan and the parse
    is CPU-bound. The map sets no ``batch_size``, so Ray fuses it with
    the read before it and the write after it; ``ParseDocuments`` parses
    each block in ``batch_size``-row slices, which bounds the per-row
    Python objects a task holds at once, and returns one table.

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
    stage = ParseDocuments(with_pii=with_pii, warm_caches=warm_caches, batch_size=batch_size)
    return lift_reservation(
        ds.map_batches(stage, batch_format="pyarrow", zero_copy_batch=True)
    )


# sample_corpus: the sampling seed
SAMPLE_SEED = 7


def sample_corpus(ds, fraction: float = 0.01, limit: int = 0):
    """R7: seeded sampling for bench subsets / quick looks."""
    out = ds.random_sample(fraction, seed=SAMPLE_SEED)
    return out.limit(limit) if limit else out


def span_rollup(spans, export: str):
    """R2 over a spans Dataset: parse it, then per-section span counts +
    an error count over the parsed (doc_id, out_spans, error) columns —
    a small, driver-safe result. Those columns go through an atomic
    parquet export at ``export``, so a SQL oracle recounts the rollup
    from the same intermediate (the parse chain itself is gated by the
    pytest span-equality suite)."""
    import pyarrow as pa

    from ..state import exported
    from .exchange import grouped_agg

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
    return grouped_agg(
        exported(parsed, export).map_batches(
            count_batch, batch_format="pyarrow", zero_copy_batch=True
        ),
        "kind",
        {"count": ("n", "sum")},
    )
