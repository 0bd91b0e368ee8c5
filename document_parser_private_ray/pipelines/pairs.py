"""The pair layer shared by the near-dup and set-similarity queries.

Candidate generation in this family is one algorithm: co-locate rows
that share a class key (``exchange.co_partition_pairs`` on the two
class columns, or ``co_partition`` on one), self-join every key group
into ``a < b`` pairs, then attach each side's payload for the caller's
verify. This module holds the two pieces:

* ``self_pairs`` — the in-bucket kernel. A key group over
  ``max_bucket`` rows emits only the star over its min id: O(n) pairs
  instead of the O(n²) straggler, cluster connectivity kept, redundant
  clique edges dropped (logged).
* ``attach_pair_values`` — the broadcast-vs-shuffle join, decided by
  the observed candidate count against ``BROADCAST_MAX_PAIRS``. A
  small candidate set broadcasts its id set, filters the table in one
  shuffle-free scan (``scan_ids``) and looks values up on the driver; a
  large one co-partitions the pairs with the bloom-pruned table rows
  once per side (the large-⋈-large shape). Both paths use the same
  ``lookup`` kernel and drop pairs whose id is missing from the table.
"""

from __future__ import annotations

import logging

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import co_partition

#: candidate-pair (or labelled-node) count up to which the id set
#: broadcasts instead of shuffling
BROADCAST_MAX_PAIRS = 100_000

_log = logging.getLogger(__name__)


def fits_broadcast(n: int) -> bool:
    """Whether ``n`` candidate pairs (or labelled nodes) take the
    broadcast path."""
    return n <= BROADCAST_MAX_PAIRS


def _ids(col) -> np.ndarray:
    return pc.cast(col, pa.int64()).to_numpy(zero_copy_only=False)


def self_pairs(group: pa.Table, keys, id_col: str, carry=(), max_bucket=None,
               a: str = "doc_a", b: str = "doc_b") -> pa.Table:
    """Every ``a < b`` pair of ``group`` rows sharing ``keys``: columns
    ``keys``, ``a``, ``b`` (int64 ids), then each ``carry`` column
    suffixed ``_a`` and ``_b``. A key group of more than ``max_bucket``
    rows emits only the star over its min id, with the root's carry
    values on the ``a`` side. An empty result keeps the column types."""
    keys = [keys] if isinstance(keys, str) else list(keys)
    carry = list(carry)
    g = group.select([*keys, id_col, *carry]).combine_chunks()
    g = g.set_column(len(keys), id_col, pc.cast(g[id_col], pa.int64()))
    left = g
    if max_bucket is not None and g.num_rows > max_bucket:
        stats = g.group_by(keys).aggregate([(id_col, "count"), (id_col, "min")])
        over = stats.filter(pc.greater(stats[f"{id_col}_count"], max_bucket))
        if over.num_rows:
            _log.warning(
                "%d key groups over cap %d (largest %d rows): star pairs over the min id",
                over.num_rows, max_bucket, pc.max(over[f"{id_col}_count"]).as_py(),
            )
            # an oversize group keeps only its root on the a side
            root = f"{id_col}_min"
            j = g.join(over.select([*keys, root]), keys=keys, join_type="left outer")
            keep = pc.or_kleene(pc.is_null(j[root]), pc.equal(j[id_col], j[root]))
            left = j.filter(keep).select(g.column_names)

    def side(t: pa.Table, s: str, name: str) -> pa.Table:
        return t.rename_columns([*keys, name, *[c + s for c in carry]])

    pairs = side(left, "_a", a).join(side(g, "_b", b), keys=keys, join_type="inner")
    pairs = pairs.filter(pc.less(pairs[a], pairs[b]))
    return pairs.select([*keys, a, b, *[c + "_a" for c in carry], *[c + "_b" for c in carry]])


def lookup(ids: np.ndarray, keys: np.ndarray):
    """Where each of ``keys`` sits in ``ids`` (argsort + searchsorted):
    ``(found, row)`` — a mask over ``keys`` and, where found, the row
    of ``ids`` holding it (the first one if an id repeats)."""
    if len(ids) == 0:
        return np.zeros(len(keys), dtype=bool), np.zeros(len(keys), dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    ids_s = ids[order]
    idx = np.minimum(np.searchsorted(ids_s, keys), len(ids_s) - 1)
    return ids_s[idx] == keys, order[idx]


def scan_ids(table, id_col: str, ids: np.ndarray, columns) -> pa.Table:
    """``columns`` of the Dataset ``table``'s rows whose ``id_col`` is in
    ``ids``, collected on the driver: the id set broadcasts once
    (``ray.put``) and one shuffle-free scan filters it."""
    import ray

    ids_ref = ray.put(pa.array(ids, type=pa.int64()))
    columns = list(columns)

    def keep_ids(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(pc.cast(batch[id_col], pa.int64()), value_set=ray.get(ids_ref))
        return batch.select(columns).filter(mask)

    parts = list(
        table.map_batches(keep_ids, batch_format="pyarrow", zero_copy_batch=True)
        .iter_batches(batch_format="pyarrow", batch_size=None)
    )
    return pa.concat_tables(parts) if parts else _schema(table, columns).empty_table()


def _schema(ds, columns=None) -> pa.Schema:
    s = ds.schema()
    types = dict(zip(s.names, s.types))
    return pa.schema([(c, types[c]) for c in (columns or s.names)])


def attach_pair_values(pairs, table, id_col: str, value_col: str, n_pairs: int,
                       a: str = "doc_a", b: str = "doc_b"):
    """The pairs Dataset with ``table``'s ``value_col`` attached to both
    ids: every pair column, then ``{value_col}_a`` and ``{value_col}_b``.
    A pair whose id is missing from ``table`` drops. ``n_pairs`` is the
    observed pair count: up to ``BROADCAST_MAX_PAIRS`` the ids
    broadcast, above it both sides shuffle."""
    if fits_broadcast(n_pairs):
        return _attach_broadcast(pairs, table, id_col, value_col, a, b)
    return _attach_shuffle(pairs, table, id_col, value_col, a, b)


def _attach_broadcast(pairs, table, id_col, value_col, a, b):
    """The pair list is driver-resident (it is the query's candidate
    set); only its candidate rows leave the table scan."""
    import ray.data as rd

    pt = pa.concat_tables(pairs.iter_batches(batch_format="pyarrow", batch_size=None))
    ia, ib = _ids(pt[a]), _ids(pt[b])
    cand = scan_ids(table, id_col, np.unique(np.concatenate([ia, ib])), [id_col, value_col])
    cid, vals = _ids(cand[id_col]), cand[value_col].combine_chunks()
    fa, ra = lookup(cid, ia)
    fb, rb = lookup(cid, ib)
    keep = fa & fb
    out = pt.filter(pa.array(keep))
    out = out.append_column(f"{value_col}_a", vals.take(pa.array(ra[keep])))
    return rd.from_arrow(
        out.append_column(f"{value_col}_b", vals.take(pa.array(rb[keep])))
    )


def _attach_shuffle(pairs, table, id_col, value_col, a, b):
    """Corpus-scale candidate sets: one co-partition per side joins the
    pairs with the table rows on that side's id, one ``lookup`` per
    bucket. Table rows are bloom-pruned to the pair ids before either
    exchange (false positives drop at the lookup; no false negatives)."""
    import ray

    from .bloom import bloom_mask, build_bloom

    pairs = pairs.materialize()  # consumed by the bloom build and side a

    def both_ids(t: pa.Table) -> pa.Table:
        return pa.table({"key": np.concatenate([_ids(t[a]), _ids(t[b])])})

    bloom_ref = ray.put(
        build_bloom(pairs.map_batches(both_ids, batch_format="pyarrow", zero_copy_batch=True), "key")
    )

    def candidate_rows(t: pa.Table) -> pa.Table:
        t = t.select([id_col, value_col])
        return t.filter(pa.array(bloom_mask(_ids(t[id_col]), ray.get(bloom_ref))))

    # the pruned rows feed both exchanges: scan the table once
    rows = table.map_batches(
        candidate_rows, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    value_type = _schema(table, [value_col]).field(value_col).type
    row_schema = pa.schema([(id_col, pa.int64()), (value_col, value_type)])
    pair_schema = _schema(pairs)

    def attach_side(side: str, out_col: str):
        def kernel(t: dict) -> pa.Table:
            p, r = t["P"], t["R"]
            found, row = lookup(_ids(r[id_col]), _ids(p[side]))
            vals = r[value_col].combine_chunks().take(pa.array(row[found]))
            return p.filter(pa.array(found)).append_column(out_col, vals)

        return kernel

    out = pairs
    for side, out_col in ((a, f"{value_col}_a"), (b, f"{value_col}_b")):
        out = co_partition(
            {"P": (out, pair_schema), "R": (rows, row_schema)},
            {"P": side, "R": id_col},
            attach_side(side, out_col),
        )
        pair_schema = pair_schema.append(pa.field(out_col, value_type))
    return out
