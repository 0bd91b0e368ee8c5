"""The one co-partition exchange every bucketed pipeline goes through.

``co_partition`` moves one or more Datasets through a SINGLE all-to-all
exchange so that every row with the same key lands in the same bucket
group, then runs a per-bucket kernel on each group. It owns the whole
exchange layout in one place:

* bucket function — int keys ``key % n_buckets``; string keys
  ``crc32(utf-8) % n_buckets`` (stable across worker processes, unlike
  Python's salted ``hash``);
* union layout — each side is null-padded to the union of the schemas
  the caller states on the driver (never ``Dataset.schema()`` inside a
  UDF), with a ``__side`` tag typed ``pa.string()`` so a zero-row block
  unions cleanly with non-empty ones;
* the kernel call — ``groupby(__bucket).map_groups`` hands the kernel a
  ``{tag: table}`` dict, each table holding only its own side's
  columns (a single-side call hands over the table itself).

Co-partitioning both sides once and joining inside each bucket is the
large-⋈-large shape; raising ``n_buckets`` spreads a hot key's bucket
mates (salting composes: bucket on a (key, salt) column).
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Mapping

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BUCKET = "__bucket"
SIDE = "__side"


def bucket_ids(keys, n_buckets: int) -> pa.Array:
    """int32 bucket of every key: ``key % n_buckets`` for integer keys,
    ``crc32(utf-8) % n_buckets`` for string keys (null strings hash as
    the empty string)."""
    if pa.types.is_string(keys.type) or pa.types.is_large_string(keys.type):
        # one crc32 per DISTINCT string, broadcast back through the codes
        if isinstance(keys, pa.ChunkedArray):
            keys = keys.combine_chunks()
        enc = pc.dictionary_encode(pc.fill_null(keys, ""))
        crc = np.array(
            [zlib.crc32(s.encode("utf-8")) for s in enc.dictionary.to_pylist()],
            dtype=np.int64,
        )
        h = crc[enc.indices.to_numpy(zero_copy_only=False)]
    else:
        h = keys.to_numpy(zero_copy_only=False)
    return pa.array((h % n_buckets).astype(np.int32))


def _const_str(value: str, n: int) -> pa.Array:
    """``n`` copies of ``value`` as a ``pa.string()`` array, built from
    buffers (no per-row Python objects)."""
    raw = value.encode("utf-8")
    offsets = np.arange(n + 1, dtype=np.int32) * len(raw)
    return pa.StringArray.from_buffers(
        n, pa.py_buffer(offsets), pa.py_buffer(raw * n)
    )


def co_partition(
    sides: Mapping[str, tuple],
    key: str | Mapping[str, str],
    kernel: Callable,
    n_buckets: int,
):
    """One exchange co-locating every side's rows by key bucket, then
    ``kernel`` once per bucket group.

    ``sides`` maps a tag to ``(dataset, schema)``: ``schema`` is the
    ``pa.Schema`` of the columns that side ships, stated on the driver
    (``None`` is allowed for a single side, which ships its rows as
    they are). ``key`` names the key column, shared by every side or
    given per tag as ``{tag: column}``. With several sides the kernel
    receives ``{tag: pa.Table}`` holding only that side's schema columns
    (a column several sides share takes the type of the first side that
    states it); with one side it receives the bucket's table."""
    if len(sides) == 1:
        ((tag, (ds, _)),) = sides.items()
        col = key if isinstance(key, str) else key[tag]

        def add_bucket(batch: pa.Table) -> pa.Table:
            return batch.append_column(BUCKET, bucket_ids(batch[col], n_buckets))

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
            col = key if isinstance(key, str) else key[tag]

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
                arrays.append(bucket_ids(batch[col], n_buckets))
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

    return tagged.groupby(BUCKET).map_groups(
        run, batch_format="pyarrow", zero_copy_batch=True
    )


def co_partition_pairs(pairs, kernel: Callable, a: str = "doc_a", b: str = "doc_b"):
    """``co_partition`` of one pair table into 64 buckets on an (a, b)
    id mix (the top 6 bits of a golden-ratio hash), so every row of a
    pair lands in one bucket whatever the id distribution. Any two
    int columns work: the class-keyed pair kernels co-locate their
    (band, key) rows the same way."""
    g = np.uint64(0x9E3779B97F4A7C15)

    def mix_class(t: pa.Table) -> pa.Table:
        x = t[a].to_numpy(zero_copy_only=False).astype(np.uint64)
        y = t[b].to_numpy(zero_copy_only=False).astype(np.uint64)
        cls = (((x * g + y) * g) >> np.uint64(58)).astype(np.int32)
        return t.append_column("pair_cls", pa.array(cls))

    tagged = pairs.map_batches(mix_class, batch_format="pyarrow", zero_copy_batch=True)
    return co_partition({"pairs": (tagged, None)}, "pair_cls", kernel, 64)


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
