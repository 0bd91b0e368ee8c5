"""The one co-partition exchange every bucketed pipeline goes through.

``co_partition`` moves one or more Datasets through a SINGLE all-to-all
exchange so that every row with the same key lands in the same bucket
group, then runs a per-bucket kernel on each group. It owns the whole
exchange layout in one place:

* bucket count — ``stages.width()``, read on the driver when the plan
  is built: one rule for every exchange, derived from the cluster's
  CPUs, never chosen per query;
* bucket function — a key is one column or a list of columns; each
  column hashes to its int value (temporals by their int encoding) or
  to ``crc32(utf-8)`` of the string (stable across worker processes,
  unlike Python's salted ``hash``), nulls as 0 / ``""``; one column
  buckets on ``hash % n``, several fold their hashes with a
  golden-ratio mix first, so every row of an (a, b) pair lands in one
  bucket whatever the id distribution;
* union layout — each side is null-padded to the union of the schemas
  the caller states on the driver (never ``Dataset.schema()`` inside a
  UDF), with a ``__side`` tag typed ``pa.string()`` so a zero-row block
  unions cleanly with non-empty ones;
* the kernel call — one ``Dataset.sort`` on ``__bucket`` with the
  bucket ids as its boundaries (no sampling pass; one output block per
  bucket), then a ``map_batches`` over those blocks hands the kernel a
  ``{tag: table}`` dict per non-empty bucket, each table holding only
  its own side's columns (a single-side call hands over the table
  itself).

Co-partitioning both sides once and joining inside each bucket is the
large-⋈-large shape. Kernels group by key inside their bucket, so the
bucket count never changes an answer. A hot key stays in one bucket
whatever the width; salting spreads it (bucket on a (key, salt)
column).

``grouped_agg`` is the one grouped aggregate, in two phases on this
exchange: inside one ``map_batches`` task each batch collapses to one
partial row per key (``pa.Table.group_by``), then a ``co_partition``
on the keys merges each bucket's partials with one more
``pa.Table.group_by`` (sum for sums and counts, min, max), so the
exchange carries partials, never raw rows, and no Ray
``groupby().aggregate`` runs anywhere. A ``co_partition`` kernel whose
result is summed per key returns its raw rows and hands the
exchange's output to ``grouped_agg``. Its output order is the
buckets', not the keys': a caller whose answer reads the order sorts.

``sorted_runs`` is the one "sort the bucket, find each key's run, rank
within it" step: after the single-side exchange, each bucket is combined
once and sorted once by ``pc.sort_indices`` on (key, *order_by) — a
stable Arrow sort, so rows equal on every sort column keep their
arrival order — and the kernel receives the sorted table with ``pos``,
every row's 0-based position in its key run (``pos == 0`` starts a run,
``pos + 1`` is the rank). String keys find their runs from dictionary
codes. Kernels built on it never sort, never copy keys to numpy or
Python objects to sort them, and never recompute run starts.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Mapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .. import stages

BUCKET = "__bucket"
SIDE = "__side"


def as_array(col) -> pa.Array:
    """``col`` as one contiguous Arrow array, for offsets/values access:
    a ChunkedArray's one chunk as is, else its chunks combined (a table
    filtered to no rows has columns of no chunks: they give an empty
    array of their type)."""
    if not isinstance(col, pa.ChunkedArray):
        return col
    return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()


def _key_hash(keys) -> np.ndarray:
    """uint64 hash of one key column: the int value (temporals by their
    int encoding, null as 0), or one crc32 per distinct string (null as
    the empty string)."""
    keys = as_array(keys)
    if pa.types.is_string(keys.type) or pa.types.is_large_string(keys.type):
        # one crc32 per DISTINCT string, broadcast back through the codes
        enc = pc.dictionary_encode(pc.fill_null(keys, ""))
        crc = np.array(
            [zlib.crc32(s.encode("utf-8")) for s in enc.dictionary.to_pylist()],
            dtype=np.uint64,
        )
        return crc[enc.indices.to_numpy(zero_copy_only=False)]
    if pa.types.is_temporal(keys.type):
        keys = keys.view(pa.int32() if keys.type.bit_width == 32 else pa.int64())
    return pc.fill_null(keys, 0).to_numpy(zero_copy_only=False).astype(np.uint64)


def bucket_ids(keys, n: int) -> pa.Array:
    """int32 bucket of every row of ``keys``, one key column or a list
    of them: ``hash % n`` of one column's ``_key_hash``; several columns
    fold theirs as ``h * g + next`` (``g`` the 64-bit golden ratio) and
    bucket on the top 31 bits of the last ``h * g``."""
    cols = keys if isinstance(keys, list) else [keys]
    h = _key_hash(cols[0])
    if len(cols) > 1:
        g = np.uint64(0x9E3779B97F4A7C15)
        for c in cols[1:]:
            h = h * g + _key_hash(c)
        h = (h * g) >> np.uint64(33)
    return pa.array((h % np.uint64(n)).astype(np.int32))


def _const_str(value: str, n: int) -> pa.Array:
    """``n`` copies of ``value`` as a ``pa.string()`` array, built from
    buffers (no per-row Python objects)."""
    raw = value.encode("utf-8")
    offsets = np.arange(n + 1, dtype=np.int32) * len(raw)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(raw * n)
    )


def _key_columns(key, tag: str) -> list:
    k = key[tag] if isinstance(key, Mapping) else key
    return [k] if isinstance(k, str) else list(k)


def co_partition(
    sides: Mapping[str, tuple],
    key: str | list | Mapping[str, str | list],
    kernel: Callable,
):
    """One exchange co-locating every side's rows into ``stages.width()``
    key buckets, then ``kernel`` once per bucket group.

    ``sides`` maps a tag to ``(dataset, schema)``: ``schema`` is the
    ``pa.Schema`` of the columns that side ships, stated on the driver
    (``None`` is allowed for a single side, which ships its rows as
    they are). ``key`` names the key column or a list of key columns,
    shared by every side or given per tag as ``{tag: key}``. With
    several sides the kernel receives ``{tag: pa.Table}`` holding only
    that side's schema columns (a column several sides share takes the
    type of the first side that states it); with one side it receives
    the bucket's table."""
    buckets = stages.width()
    if len(sides) == 1:
        ((tag, (ds, _)),) = sides.items()
        cols = _key_columns(key, tag)

        def add_bucket(batch: pa.Table) -> pa.Table:
            return batch.append_column(BUCKET, bucket_ids([batch[c] for c in cols], buckets))

        def run(group: pa.Table):
            return kernel(group.drop_columns([BUCKET]))

        tagged = ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
    else:
        union: dict[str, pa.DataType] = {}
        for _, schema in sides.values():
            for name, t in zip(schema.names, schema.types):
                union.setdefault(name, t)
        names = [*union, BUCKET, SIDE]

        def pad(tag: str, schema: pa.Schema):
            own = set(schema.names)
            cols = _key_columns(key, tag)

            def fn(batch: pa.Table) -> pa.Table:
                n = batch.num_rows
                arrays = []
                for c, t in union.items():
                    if c not in own:
                        arrays.append(pa.nulls(n, type=t))
                    elif batch.schema.field(c).type != t:
                        arrays.append(pc.cast(batch[c], t))
                    else:
                        arrays.append(batch[c])
                arrays.append(bucket_ids([batch[c] for c in cols], buckets))
                arrays.append(_const_str(tag, n))
                return pa.Table.from_arrays(arrays, names=names)

            return fn

        parts = [
            ds.map_batches(pad(tag, schema), batch_format="pyarrow", zero_copy_batch=True)
            for tag, (ds, schema) in sides.items()
        ]
        tagged = parts[0].union(*parts[1:])

        def run(group: pa.Table):
            side = group[SIDE]
            return kernel(
                {
                    tag: group.filter(pc.equal(side, tag)).select(schema.names)
                    for tag, (_, schema) in sides.items()
                }
            )

    def each_bucket(block: pa.Table):
        if block.num_rows:
            yield run(block)

    # the bucket ids are the sort's boundaries: no sampling pass, and
    # each output block holds exactly one bucket (width 1 still needs one)
    return tagged.sort(BUCKET, boundaries=list(range(1, max(buckets, 2)))).map_batches(
        each_bucket, batch_format="pyarrow", zero_copy_batch=True, batch_size=None
    )


def sorted_runs(ds, key: str, order_by, kernel: Callable):
    """``co_partition`` of one dataset on ``key``, then ``kernel(table,
    pos)`` once per bucket on the bucket's rows sorted by ``key``
    ascending and then ``order_by`` (each entry a column name, ascending,
    or ``(column, "descending")``). ``pos`` is the int64 position of each
    row within its run of equal keys; a zero-row bucket gets an empty
    ``pos``."""
    sort_keys = [(key, "ascending")] + [
        (c, "ascending") if isinstance(c, str) else tuple(c) for c in order_by
    ]

    def run(group: pa.Table):
        g = group.combine_chunks()
        g = g.take(pc.sort_indices(g, sort_keys=sort_keys))
        keys = g[key].combine_chunks()
        if not (pa.types.is_integer(keys.type) or pa.types.is_temporal(keys.type)):
            keys = pc.dictionary_encode(keys, null_encoding="encode").indices
        return kernel(g, run_positions(run_starts(keys.to_numpy(zero_copy_only=False))))

    return co_partition({"rows": (ds, None)}, key, run)


def grouped_agg(ds, keys, aggs: Mapping[str, tuple], rows: Callable | None = None,
                batch_size: int | None = None):
    """``ds`` grouped by ``keys`` and aggregated in two phases.

    ``aggs`` maps each output name to ``(column, op)``, ``op`` one of
    ``sum`` / ``count`` / ``min`` / ``max``; ``count`` counts the
    column's non-null values, or every row when ``column`` is ``None``.
    Each batch of ``batch_size`` rows (``None``: one block) first goes
    through ``rows`` (a batch -> table function deriving the key and
    value columns), then collapses to one partial row per key; a
    ``co_partition`` on ``keys`` merges the partials bucket by bucket.
    Output columns: the keys, then ``aggs`` in order (an empty ``aggs``
    gives the distinct keys); rows come in bucket order."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    names = [*keys, *aggs]
    specs = [([], "count_all") if col is None else (col, op) for col, op in aggs.values()]
    merge = [(name, "sum" if op == "count" else op) for name, (_, op) in aggs.items()]

    def partial(batch: pa.Table) -> pa.Table:
        t = batch if rows is None else rows(batch)
        return t.group_by(keys).aggregate(specs).rename_columns(names)

    def merged(bucket: pa.Table) -> pa.Table:
        # one thread: a float sum adds the partials in arrival order
        return bucket.group_by(keys, use_threads=False).aggregate(merge).rename_columns(names)

    partials = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True,
                              batch_size=batch_size)
    return co_partition({"partials": (partials, None)}, keys, merged)


def run_starts(*sorted_keys: np.ndarray) -> np.ndarray:
    """Boolean mask over rows sorted by ``sorted_keys``: True where a run
    of equal key tuples begins (row 0 always; an empty input gives an
    empty mask)."""
    n = len(sorted_keys[0])
    new_run = np.zeros(n, dtype=bool)
    new_run[:1] = True
    for k in sorted_keys:
        new_run[1:] |= k[1:] != k[:-1]
    return new_run


def run_positions(new_run: np.ndarray) -> np.ndarray:
    """int64 0-based position of every row within its run, given the
    ``run_starts`` mask of the sorted rows."""
    at = np.arange(len(new_run), dtype=np.int64)
    return at - np.maximum.accumulate(np.where(new_run, at, 0))
