"""The flagship pipeline: interleaved-span corpus -> parsed resumes +
output spans (north rule), expressed Ray-Data-first.

    read (Lance/Parquet, pruned)
      -> [optional skew pre-pass: est_cost column, vectorized]
      -> map_batches(ParseDocuments, actor pool)   # the whole per-doc chain
      -> write_parquet / downstream aggregates

Skew: documents are heavy-tailed (FIXTURES §1). The pipeline keeps
batches small for the parse stage so the streaming executor
load-balances many small tasks across the pool (dynamic work stealing);
``route_by_cost`` additionally sends pathological documents (giant
multi-thousand-span CVs) through a batch_size=1 branch so one monster
never stalls a full batch. Routing is a cheap vectorized filter on the
est_cost column computed in one pass.
"""

from __future__ import annotations

from typing import Optional

import pyarrow.compute as pc

from ..stages.parse import ParseDocuments, add_cost_column


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
    skew_threshold: Optional[int] = None,
    warm_caches=None,
    max_tasks_in_flight: Optional[int] = None,
):
    """Attach the parse chain to a spans Dataset. ``concurrency`` sizes
    the actor pool (None -> (2, 8)).

    ``warm_caches``: pure-function memo caches (fuzzy decisions, line
    classifications, date parses — ``DocumentOracle.warm`` builds them
    in one driver pass), broadcast via ray.put so every actor starts at
    steady-state throughput instead of each paying the cold-cache
    transient (the dominant cost when docs-per-actor is small)."""
    fn_kwargs = dict(data_dir=data_dir, today=today, with_pii=with_pii)
    pool = concurrency if concurrency is not None else (2, 8)
    # fixed pools may cap the per-actor task queue (2 beats the default 4
    # for end-of-job balance under heavy-tailed blocks — BASELINE.md)
    if max_tasks_in_flight is not None and isinstance(pool, int):
        from ray.data import ActorPoolStrategy

        pool_kwargs = dict(
            compute=ActorPoolStrategy(
                size=pool, max_tasks_in_flight_per_actor=max_tasks_in_flight
            )
        )
    else:
        pool_kwargs = dict(concurrency=pool)

    if warm_caches is not None:
        # broadcast as-is (a caller may pass an existing ObjectRef)
        import ray

        fn_kwargs["warm_caches"] = (
            warm_caches if isinstance(warm_caches, ray.ObjectRef) else ray.put(warm_caches)
        )

    if skew_threshold:
        costed = ds.map_batches(add_cost_column, batch_format="pyarrow", zero_copy_batch=True)
        small = costed.map_batches(
            lambda t: t.filter(pc.less_equal(t["est_cost"], skew_threshold)).drop_columns(["est_cost"]),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        large = costed.map_batches(
            lambda t: t.filter(pc.greater(t["est_cost"], skew_threshold)).drop_columns(["est_cost"]),
            batch_format="pyarrow", zero_copy_batch=True,
        )
        parsed_small = small.map_batches(
            ParseDocuments,
            fn_constructor_kwargs=fn_kwargs,
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=batch_size,
            **pool_kwargs,
        )
        parsed_large = large.map_batches(
            ParseDocuments,
            fn_constructor_kwargs=fn_kwargs,
            batch_format="pyarrow", zero_copy_batch=True,
            batch_size=1,
            concurrency=(1, 2),
        )
        return parsed_small.union(parsed_large)

    return ds.map_batches(
        ParseDocuments,
        fn_constructor_kwargs=fn_kwargs,
        batch_format="pyarrow", zero_copy_batch=True,
        batch_size=batch_size,
        **pool_kwargs,
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
