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

Skew: documents are heavy-tailed (FIXTURES §1). The pipeline keeps
batches small for the parse stage so the streaming executor
load-balances many small tasks across the workers.
"""

from __future__ import annotations

from typing import Optional

import pyarrow.compute as pc

from ..stages.parse import ParseDocuments


def read_corpus(path: str, columns=("doc_id", "spans")):
    """Read the spans table. Prefers Lance when available (the logical
    format of the north rule); falls back to Parquet (sandbox physical
    format — no pylance wheel offline, SURVEY §1.5)."""
    import ray.data as rd

    if path.endswith(".lance"):
        return rd.read_lance(path, columns=list(columns))
    return rd.read_parquet(path, columns=list(columns))


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
    """Attach the parse chain to a spans Dataset as a task map.

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
    return ds.map_batches(
        stage, batch_format="pyarrow", zero_copy_batch=True, batch_size=batch_size
    )


def write_outputs(parsed, out_dir: str, fmt: str = "parquet"):
    """Sink (S7 parity): the reference emits per-document JSON
    (main.py:184-186); at corpus scale the same payload goes to a
    directory of parquet (default) or JSON-lines part files."""
    if fmt == "json":
        return parsed.write_json(out_dir)
    return parsed.write_parquet(out_dir)


def sample_corpus(ds, fraction: float = 0.01, seed: int = 7, limit: int = 0):
    """R7: seeded sampling for bench subsets / quick looks."""
    out = ds.random_sample(fraction, seed=seed)
    return out.limit(limit) if limit else out


def resume_rollup(parsed):
    """Corpus-level aggregate over parsed output (R2-style): per-section
    span counts + error count — a small, driver-safe result."""
    import pyarrow as pa

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

    from ray.data.aggregate import Sum

    # partial counts per batch (tiny) -> global groupby over partials
    return (
        parsed.map_batches(count_batch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("kind")
        .aggregate(Sum("n", alias_name="count"))
    )
