"""Distributed join patterns (R3 + the guide's partitioned-hash-join
shape).

Every join here is a kernel handed to ``exchange.co_partition``: both
sides move through ONE all-to-all exchange keyed by bucket, and each
bucket runs the join locally — the Arrow (Acero) hash join for
``bucketed_join``, a vectorized membership test for
``bucketed_filter_join``, a finish-the-aggregate-then-join for the fused
queries. Blocks stay Arrow end-to-end (no pandas dtype upcasts, no
mixed block types downstream).

(Ray 2.49 ships an experimental ``Dataset.join``; this explicit version
is the portable, skew-controllable primitive the oracle-checked queries
use.)
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .exchange import co_partition, grouped_agg
from .relational import _cents, _read


def bucketed_join(
    left,
    right,
    left_key: str,
    right_key: str,
    join_type: str = "inner",
):
    """Hash join of two Datasets on integer key columns (``inner``,
    ``left outer`` or ``full outer``). Non-key column names must be
    disjoint across sides. Outer rows with no bucket-mate still
    surface: every row reaches its bucket group regardless of the other
    side's presence, and the per-bucket Acero join emits it null-padded
    (full-outer right-only rows recover their key through the ``__rk``
    payload carry below)."""
    if join_type not in ("inner", "left outer", "full outer"):
        raise ValueError(f"unsupported join_type {join_type!r}")
    lschema = left.schema()
    rschema = right.schema()
    all_cols = list(lschema.names) + [
        c for c in rschema.names if c not in lschema.names
    ]

    def join_bucket(t: dict) -> pa.Table:
        l, r = t["L"], t["R"]
        # Acero drops the right key column; carry a copy through the
        # payload so it survives with correct per-row semantics (equal
        # to the left key on matches, null on outer non-matches).
        r = r.append_column("__rk", r[right_key])
        out = l.join(r, keys=[left_key], right_keys=[right_key], join_type=join_type)
        if right_key != left_key and right_key not in out.column_names:
            out = out.append_column(right_key, out["__rk"])
        if "__rk" in out.column_names:
            out = out.drop_columns(["__rk"])
        return out.select(all_cols)

    return co_partition(
        {"L": (left, lschema), "R": (right, rschema)},
        {"L": left_key, "R": right_key},
        join_bucket,
    )


def order_lineitem_revenue(sf_dir: str, k: int = 15):
    """orders ⋈ lineitem (both large) -> top-k orders by line revenue,
    carrying order attributes through the join (provably needs the
    join, not just a groupby).

    Fused shape (r5): lineitem pre-aggregates per-batch partials
    (l_orderkey -> revenue, n) BEFORE the exchange, both sides
    co-partition by orderkey bucket in ONE exchange, and each
    bucket FINISHES its per-order aggregate (all of an order's rows
    land in one bucket by construction) before the Acero join attaches
    the order attributes — the previous corpus-scale
    ``groupby(o_orderkey)`` AFTER the join paid the per-distinct-key
    cross-block merge cost on top of a second exchange. Only the
    per-order aggregate rows reach the final top-k sort."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate", "o_orderpriority"])
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"])

    def lineitem_partials(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        t = pa.Table.from_pydict({"l_orderkey": batch["l_orderkey"], "revenue": rev})
        g = t.group_by("l_orderkey").aggregate([("revenue", "sum"), ("revenue", "count")])
        return g.rename_columns(["l_orderkey", "revenue", "n_lines"])

    partials = lineitem.map_batches(
        lineitem_partials, batch_format="pyarrow", zero_copy_batch=True
    )

    def join_bucket(t: dict) -> pa.Table:
        # finish the per-order aggregate — co-partitioned, so this is
        # the FINAL value, not a partial
        agg = t["L"].group_by("l_orderkey").aggregate(
            [("revenue", "sum"), ("n_lines", "sum")]
        )
        agg = agg.rename_columns(["o_orderkey", "revenue", "n_lines"])
        out = agg.join(t["O"], keys="o_orderkey", join_type="inner")
        return out.select(
            ["o_orderkey", "revenue", "n_lines", "o_orderdate", "o_orderpriority"]
        )

    return (
        co_partition(
            {
                "O": (orders, pa.schema([
                    ("o_orderkey", pa.int64()),
                    ("o_orderdate", pa.timestamp("us")),
                    ("o_orderpriority", pa.string()),
                ])),
                "L": (partials, pa.schema([
                    ("l_orderkey", pa.int64()),
                    ("revenue", pa.float64()),
                    ("n_lines", pa.int64()),
                ])),
            },
            {"O": "o_orderkey", "L": "l_orderkey"},
            join_bucket,
        )
        .sort(["revenue", "o_orderkey"], descending=[True, False])
        .limit(k)
    )


# distinct_values: the table and its column
DISTINCT_TABLE, DISTINCT_COLUMN = "customer", "c_mktsegment"


def distinct_values(sf_dir: str):
    """Distinct values of ``DISTINCT_COLUMN`` (R9) — ``Dataset.unique``
    shuffle."""
    ds = _read(sf_dir, DISTINCT_TABLE, [DISTINCT_COLUMN])
    vals = sorted(ds.unique(DISTINCT_COLUMN))
    return pa.Table.from_pydict({DISTINCT_COLUMN: pa.array(vals)})


def bucketed_filter_join(
    left, right, left_key: str, right_key: str, mode: str
):
    """Semi / anti join of two Datasets on integer keys — the same
    co-partition exchange as ``bucketed_join``, but the per-bucket
    kernel is a vectorized membership test (``pc.is_in``) instead of
    Acero's hash join: left rows whose key does (semi) / does not
    (anti) appear on the right. The right side ships only its KEY
    column through the shuffle."""
    if mode not in ("semi", "anti"):
        raise ValueError(f"mode must be 'semi' or 'anti', got {mode!r}")
    lschema = left.schema()
    ltypes = dict(zip(lschema.names, lschema.types))
    rschema = pa.schema([(right_key, ltypes[left_key])])

    def filter_bucket(t: dict) -> pa.Table:
        l = t["L"]
        rkeys = pc.unique(t["R"][right_key])
        hit = pc.is_in(l[left_key], value_set=rkeys)
        return l.filter(hit if mode == "semi" else pc.invert(hit))

    return co_partition(
        {"L": (left, lschema), "R": (right.select_columns([right_key]), rschema)},
        {"L": left_key, "R": right_key},
        filter_bucket,
    )


def customers_no_urgent_orders(sf_dir: str):
    """Anti join (TPC-H Q22 shape): customers that never placed an
    urgent-priority order, with their segment.
    The urgency filter runs batch-wise BEFORE the shuffle so only
    matching keys leave the read stage."""
    customers = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])

    def urgent_keys(batch: pa.Table) -> pa.Table:
        mask = pc.starts_with(batch["o_orderpriority"], "1")
        return batch.filter(mask).select(["o_custkey"])

    urgent = orders.map_batches(
        urgent_keys, batch_format="pyarrow", zero_copy_batch=True
    )
    return bucketed_filter_join(
        customers, urgent, "c_custkey", "o_custkey", mode="anti"
    )


def customers_big_spenders(sf_dir: str):
    """Semi join: customers with at least one fulfilled order above a
    price floor. Same co-partitioned shuffle as
    the anti join; only the membership polarity differs."""
    customers = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_mktsegment"])
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus", "o_totalprice"])

    def big_keys(batch: pa.Table) -> pa.Table:
        mask = pc.and_(
            pc.equal(batch["o_orderstatus"], "F"),
            pc.greater(batch["o_totalprice"], 150000.0),
        )
        return batch.filter(mask).select(["o_custkey"])

    big = orders.map_batches(big_keys, batch_format="pyarrow", zero_copy_batch=True)
    return bucketed_filter_join(
        customers, big, "c_custkey", "o_custkey", mode="semi"
    )


# order_bigline_histogram: a big lineitem's quantity exceeds this
BIG_QUANTITY = 45.0


def order_bigline_histogram(sf_dir: str):
    """Distribution of big-line counts per order with LEFT OUTER
    semantics — orders with zero big lineitems (quantity over
    ``BIG_QUANTITY``) must appear
    (n_big = 0), which an inner join cannot produce. Fused shape (r5):
    the lineitem side filters and pre-aggregates per batch BEFORE the
    exchange, both sides co-partition by orderkey bucket in ONE
    exchange, and each bucket FINISHES the per-order count
    (co-partitioned, so the in-bucket sum is final), realizes the
    outer-join zeros with a searchsorted against its order keys, and
    emits <= distinct-count histogram partials — the previous version
    paid a corpus-key groupby AND a second join exchange."""
    import numpy as np

    orders = _read(sf_dir, "orders", ["o_orderkey"])
    lineitem = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])

    def big_line_partials(batch: pa.Table) -> pa.Table:
        big = batch.filter(pc.greater(batch["l_quantity"], BIG_QUANTITY))
        g = big.select(["l_orderkey"]).group_by("l_orderkey").aggregate(
            [("l_orderkey", "count")]
        )
        return g.rename_columns(["l_orderkey", "n"])

    partials = lineitem.map_batches(
        big_line_partials, batch_format="pyarrow", zero_copy_batch=True
    )

    def hist_bucket(t: dict) -> pa.Table:
        ok = t["O"]["o_orderkey"].to_numpy(zero_copy_only=False)
        l = t["L"]
        counts = np.zeros(len(ok), dtype=np.int64)
        if l.num_rows and len(ok):
            agg = l.group_by("l_orderkey").aggregate([("n", "sum")])
            lk = agg["l_orderkey"].to_numpy(zero_copy_only=False)
            ln = agg["n_sum"].to_numpy(zero_copy_only=False)
            order = np.argsort(lk)
            lk, ln = lk[order], ln[order]
            idx = np.minimum(np.searchsorted(lk, ok), len(lk) - 1)
            hit = lk[idx] == ok
            counts[hit] = ln[idx[hit]]
        n_big, n = np.unique(counts, return_counts=True)
        return pa.Table.from_pydict(
            {
                "n_big": pa.array(n_big, type=pa.int64()),
                "n": pa.array(n.astype(np.int64), type=pa.int64()),
            }
        )

    hist = co_partition(
        {
            "O": (orders, pa.schema([("o_orderkey", pa.int64())])),
            "L": (partials, pa.schema([("l_orderkey", pa.int64()), ("n", pa.int64())])),
        },
        {"O": "o_orderkey", "L": "l_orderkey"},
        hist_bucket,
    )
    return grouped_agg(hist, "n_big", {"n_orders": ("n", "sum")})


# q3_shipping_priority: the market segment, the order/ship date cutoff
# and the number of orders
Q3_SEGMENT = "BUILDING"
Q3_CUTOFF = "1998-01-01"
Q3_K = 10


def q3_shipping_priority(sf_dir: str):
    """TPC-H Q3 shape, top ``Q3_K`` orders of the ``Q3_SEGMENT`` segment
    around the ``Q3_CUTOFF`` date — a CHAINED multi-way join, each link the cheapest
    exchange that preserves semantics: (1) orders dated before the
    cutoff are SEMI-joined against the segment's customer keys
    (``bucketed_filter_join`` — one co-partition exchange, the customer
    side ships keys only, never names/balances); (2) the survivors meet
    the post-cutoff lineitems in ONE bucketed hash join; (3) revenue is
    floored to integer cents PER LINE before the per-order sum, so the
    total is summation-order-free and the SQL oracle replays it
    bit-for-bit. Filters run at the scan on every input."""
    import numpy as np

    cut = np.datetime64(Q3_CUTOFF, "us")

    customers = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])
    cust_keys = customers.map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], Q3_SEGMENT)).select(["c_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    import pyarrow.dataset as pads

    # predicate pushdown: the date filters run INSIDE the parquet scan
    # (row groups skipped via statistics before decode)
    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter=pads.field("o_orderdate") < cut.item(),
    )
    orders = bucketed_filter_join(orders, cust_keys, "o_custkey", "c_custkey", "semi")
    orders = orders.map_batches(
        lambda b: b.drop_columns(["o_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).materialize()  # consumed twice: bloom build + the join below

    # Bloom-prune the probe side BEFORE its exchange: lineitem partials
    # whose order key cannot be in the (date+segment-filtered) build
    # side never enter the groupby/join shuffles; false positives just
    # ride through to the exact join (correctness untouched)
    from .bloom import build_bloom, bloom_mask

    bloom = build_bloom(orders, "o_orderkey")

    def line_revenue_partial(batch: pa.Table) -> pa.Table:
        # aggregate BEFORE the join: per-batch per-order partial sums,
        # so the join's right side is order-grain and the post-join
        # groupby disappears (one row per order straight off the join)
        cents = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
        )
        t = pa.Table.from_pydict(
            {
                "l_orderkey": batch["l_orderkey"],
                "rev_cents": pa.array(cents, type=pa.int64()),
            }
        )
        g = t.group_by("l_orderkey").aggregate([("rev_cents", "sum")])
        g = g.rename_columns(["l_orderkey", "rev_cents"])
        keep = bloom_mask(
            g["l_orderkey"].to_numpy(zero_copy_only=False),
            bloom,
        )
        return g.filter(pa.array(keep))

    revenue = grouped_agg(
        _read(
            sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
            filter=pads.field("l_shipdate") > cut.item(),
        ),
        "l_orderkey",
        {"revenue_cents": ("rev_cents", "sum")},
        rows=line_revenue_partial,
    )

    joined = bucketed_join(orders, revenue, "o_orderkey", "l_orderkey")
    return (
        joined.map_batches(
            lambda b: b.select(
                ["o_orderkey", "revenue_cents", "o_orderdate", "o_orderpriority"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .sort(["revenue_cents", "o_orderkey"], descending=[True, False])
        .limit(Q3_K)
    )


def fk_violations(sf_dir: str):
    """Referential-integrity audit — the data-quality gate a pipeline
    runs before trusting a 100 TB drop: for each child->parent
    relationship, the child row count and the number of ORPHANS
    (children whose key has no parent), computed with the keys-only
    anti join (``bucketed_filter_join``: one co-partition exchange per
    relationship, parents ship nothing but key columns). Output is one
    row per relationship."""
    rels = [
        ("orders.o_custkey->customer.c_custkey",
         ("orders", "o_custkey"), ("customer", "c_custkey")),
        ("lineitem.l_orderkey->orders.o_orderkey",
         ("lineitem", "l_orderkey"), ("orders", "o_orderkey")),
        ("customer.c_nationkey->nation.n_nationkey",
         ("customer", "c_nationkey"), ("nation", "n_nationkey")),
    ]
    out_r, out_n, out_o = [], [], []
    for name, (child, ckey), (parent, pkey) in rels:
        child_ds = _read(sf_dir, child, [ckey])
        parent_ds = _read(sf_dir, parent, [pkey])
        n_child = child_ds.count()
        orphans = bucketed_filter_join(
            child_ds, parent_ds, ckey, pkey, "anti"
        ).count()
        out_r.append(name)
        out_n.append(n_child)
        out_o.append(orphans)
    return pa.Table.from_pydict(
        {
            "relationship": pa.array(out_r, type=pa.string()),
            "n_child_rows": pa.array(out_n, type=pa.int64()),
            "n_orphans": pa.array(out_o, type=pa.int64()),
        }
    )


# building_not_big_spenders: a big spender's total order value exceeds this
BIG_SPEND = 1_500_000.0


def building_not_big_spenders(sf_dir: str):
    """Set algebra (EXCEPT) over derived key sets: BUILDING-segment
    customers MINUS customers whose total order value exceeds
    ``BIG_SPEND`` — composed from the same keys-only co-partition primitives as
    the semi/anti joins: the subtrahend set is itself an aggregate
    (groupby custkey -> filter), and the EXCEPT is one anti
    ``bucketed_filter_join``. Output: (c_custkey, c_acctbal)."""
    building = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment", "c_acctbal"]).map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], "BUILDING")).drop_columns(
            ["c_mktsegment"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    big = (
        grouped_agg(
            _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]),
            "o_custkey",
            {"total": ("o_totalprice", "sum")},
        )
        .map_batches(
            lambda b: b.filter(pc.greater(b["total"], BIG_SPEND)).select(
                ["o_custkey"]
            ),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
    )

    out = bucketed_filter_join(building, big, "c_custkey", "o_custkey", "anti")

    def to_cents(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "c_custkey": batch["c_custkey"],
                "acctbal_cents": _cents(batch["c_acctbal"].to_numpy(zero_copy_only=False)),
            }
        )

    return out.map_batches(
        to_cents, batch_format="pyarrow", zero_copy_batch=True
    )


def orders_above_customer_avg(sf_dir: str):
    """Correlated-subquery shape — orders strictly above their own
    customer's average order value — decorrelated the classic way: the
    comparison is the DIVISION-FREE integer form
    price_cents * n_orders > sum_cents, so no float average ever exists
    to disagree across engines. Output: per-priority counts of
    above-average orders.

    Fused shape (r5): orders co-partition by custkey bucket in ONE
    exchange; inside each bucket the per-customer aggregate is FINAL
    (all of a customer's orders are co-located), rows flag against it
    via one argsort + searchsorted, and ``grouped_agg`` collapses the
    flagged rows to per-priority partials for the tiny final groupby. The previous version built
    a separate per-customer Dataset and joined it back — two exchanges
    plus a re-execution of the orders scan (two lazy consumers of one
    Dataset re-run the upstream)."""
    import numpy as np

    def prep(b: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "o_custkey": pc.cast(b["o_custkey"], pa.int64()),
                "o_orderpriority": b["o_orderpriority"],
                "price_cents": _cents(b["o_totalprice"].to_numpy(zero_copy_only=False)),
            }
        )

    orders = _read(
        sf_dir, "orders", ["o_custkey", "o_totalprice", "o_orderpriority"]
    ).map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)

    def flag_bucket(group: pa.Table) -> pa.Table:
        g = group.combine_chunks()
        ck = g["o_custkey"].to_numpy(zero_copy_only=False)
        cents = g["price_cents"].to_numpy(zero_copy_only=False)
        # per-customer (sum, n) — FINAL, the bucket holds every order
        agg = (
            g.select(["o_custkey", "price_cents"])
            .group_by("o_custkey")
            .aggregate([("price_cents", "sum"), ("price_cents", "count")])
        )
        ak = agg["o_custkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(ak)
        ak_s = ak[order]
        sums = agg["price_cents_sum"].to_numpy(zero_copy_only=False)[order]
        ns = agg["price_cents_count"].to_numpy(zero_copy_only=False)[order]
        idx = np.searchsorted(ak_s, ck)
        above = cents * ns[idx] > sums[idx]
        return pa.Table.from_pydict(
            {"o_orderpriority": g["o_orderpriority"], "above": above.astype(np.int64)}
        )

    flagged = co_partition({"O": (orders, None)}, "o_custkey", flag_bucket)
    return grouped_agg(
        flagged,
        "o_orderpriority",
        {"n_above_avg": ("above", "sum"), "n_orders": (None, "count")},
    )


def snapshot_diff(sf_dir: str):
    """Dataset-version diff — the incremental-ingest primitive that
    tells a recurring crawl/curation job what changed between two
    corpus snapshots: (doc_id, status) for every added / removed /
    changed document, unchanged docs dropped. Exercises the FULL OUTER
    bucketed join (both sides large, co-partitioned by id hash, ONE
    exchange; only (id, md5) pairs ever shuffle — never text).

    The "current" version derives deterministically from the documents
    table so the op is self-contained and SQL-replayable: docs with
    doc_id%7==3 are deleted, docs with doc_id%11==5 are edited (md5
    over text + '~edit'), and docs with doc_id%13==1 spawn a new
    doc_id+10_000_000 row (md5 over text + '~new'); the snapshot side
    is the table as-is."""
    import numpy as np

    from ..functions.textstats import md5_fingerprint
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def current_side(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        texts = batch["text"].to_pylist()
        out_ids, out_fps = [], []
        for i, t in zip(ids, texts):
            i = int(i)
            if i % 7 != 3:
                out_ids.append(i)
                out_fps.append(
                    md5_fingerprint(t + "~edit") if i % 11 == 5 else md5_fingerprint(t)
                )
            if i % 13 == 1:
                out_ids.append(i + 10_000_000)
                out_fps.append(md5_fingerprint(t + "~new"))
        return pa.Table.from_pydict(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "fp": pa.array(out_fps, type=pa.string()),
            }
        )

    def snapshot_side(batch: pa.Table) -> pa.Table:
        return pa.Table.from_pydict(
            {
                "snap_doc_id": pc.cast(batch["doc_id"], pa.int64()),
                "snap_fp": pa.array(
                    [md5_fingerprint(t) for t in batch["text"].to_pylist()],
                    type=pa.string(),
                ),
            }
        )

    cur = docs.map_batches(current_side, batch_format="pyarrow", zero_copy_batch=True)
    snap = docs.map_batches(snapshot_side, batch_format="pyarrow", zero_copy_batch=True)
    joined = bucketed_join(
        cur, snap, "doc_id", "snap_doc_id", join_type="full outer",
    )

    def classify(batch: pa.Table) -> pa.Table:
        # Acero coalesces join keys (right-only rows carry the key in
        # the LEFT key column), so side presence is read off the
        # fingerprint payloads, never the keys.
        status = pc.if_else(
            pc.is_null(batch["snap_fp"]),
            pa.scalar("added"),
            pc.if_else(
                pc.is_null(batch["fp"]),
                pa.scalar("removed"),
                pa.scalar("changed"),
            ),
        )
        out = pa.Table.from_pydict(
            {
                "doc_id": pc.coalesce(
                    pc.cast(batch["doc_id"], pa.int64()),
                    pc.cast(batch["snap_doc_id"], pa.int64()),
                ),
                "status": status,
                "__same": pc.equal(batch["fp"], batch["snap_fp"]),
            }
        )
        out = out.filter(
            pc.invert(pc.fill_null(out["__same"], False))
        )
        return out.drop_columns(["__same"])

    return joined.map_batches(
        classify, batch_format="pyarrow", zero_copy_batch=True
    )
