"""Relational operator coverage (SURVEY §2.5 R2/R3/R5/R6/R7/R9),
expressed Ray-Data-first over the TPC-H-ish testdata tables.

Patterns demonstrated (and verified against DuckDB SQL by the driver):
  * column-pruned reads (every read passes ``columns=``);
  * vectorized filters/compute inside ``map_batches`` (pyarrow kernels);
  * pre-aggregation through ``exchange.grouped_agg``: per-batch partial
    aggregates -> tiny global groupby (the shuffle moves partials, not
    rows);
  * broadcast joins: small dimension tables are read once on the driver,
    shipped by value into each batch task, and attached per batch with
    the sorted-key searchsorted ``_dim_lookup`` — no all-to-all shuffle
    for the small side;
  * global sort/top-k on small aggregate results only.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..stages import width
from .exchange import co_partition, grouped_agg, run_starts, sorted_runs
from .segments import _as_array


def _read(sf_dir: str, table: str, columns, filter=None):
    """The ``{sf_dir}/{table}.parquet`` table through ``read_table``
    (column-pruned; ``filter`` is a ``pyarrow.dataset`` predicate run
    inside the scan) in ``stages.width()`` blocks: the exchanges
    downstream partition by incoming block count, so the read takes
    the one cluster-derived width instead of a per-query count."""
    from ..sources.readers import read_table

    return read_table(
        f"{sf_dir}/{table}.parquet", columns, override_num_blocks=width(), filter=filter
    )


def _dim_lookup(sorted_keys, fact_keys):
    """Validated broadcast-dimension lookup: positions of fact_keys in
    sorted_keys plus the matched mask. Callers drop unmatched rows —
    inner-join semantics, matching the SQL oracles — instead of silently
    misattributing an orphan fact key to the nearest dimension row (or
    raising IndexError when the key exceeds the dimension max)."""
    if len(sorted_keys) == 0:
        return (
            np.zeros(len(fact_keys), dtype=np.int64),
            np.zeros(len(fact_keys), dtype=bool),
        )
    idx = np.minimum(np.searchsorted(sorted_keys, fact_keys), len(sorted_keys) - 1)
    return idx, sorted_keys[idx] == fact_keys


def _cents(values: np.ndarray) -> np.ndarray:
    """Exact integer cents, ``floor(x * 100 + 0.5)`` as int64 — the
    rounding rule the oracle SQL replays."""
    return np.floor(values * 100 + 0.5).astype(np.int64)


# -- Q1-style pricing summary (groupby + multi-aggregate) ----------------

def q1_pricing_summary(sf_dir: str):
    """lineitem rollup by (returnflag, linestatus) with partial per-batch
    aggregation before the shuffle."""
    ds = _read(
        sf_dir,
        "lineitem",
        ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount"],
    )

    def disc_price(batch: pa.Table) -> pa.Table:
        price = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return batch.append_column("disc_price", price)

    return grouped_agg(
        ds,
        ["l_returnflag", "l_linestatus"],
        {
            "sum_qty": ("l_quantity", "sum"),
            "sum_base_price": ("l_extendedprice", "sum"),
            "sum_disc_price": ("disc_price", "sum"),
            "count_order": ("l_quantity", "count"),
        },
        rows=disc_price,
        batch_size=65536,
    ).sort(["l_returnflag", "l_linestatus"])


# -- broadcast-join revenue by nation (R3/R5) ----------------------------

def revenue_by_nation(sf_dir: str):
    """lineitem ⋈ supplier ⋈ nation revenue rollup. The dimension tables
    (supplier 100..10k rows, nation 25) are broadcast — read once on the
    driver, shipped by value into each batch task; the fact table
    streams."""
    import pyarrow.parquet as pq

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    dim = supplier.join(nation, keys="s_nationkey", right_keys="n_nationkey")
    # sorted-key lookup arrays: the broadcast side as two numpy arrays,
    # batch-side mapping is one searchsorted (no pandas .map per batch)
    sk = dim["s_suppkey"].to_numpy()
    order = np.argsort(sk)
    sk_sorted = sk[order]
    name_by_supp = np.asarray(dim["n_name"].to_pylist(), dtype=object)[order]

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def join(batch: pa.Table) -> pa.Table:
        idx, ok = _dim_lookup(sk_sorted, batch["l_suppkey"].to_numpy())
        if not ok.all():
            batch = batch.filter(pa.array(ok))
            idx = idx[ok]
        revenue = pc.multiply(
            batch["l_extendedprice"], pc.subtract(pa.scalar(1.0), batch["l_discount"])
        )
        return pa.Table.from_arrays(
            [pa.array(name_by_supp[idx], type=pa.string()), revenue],
            names=["n_name", "revenue"],
        )

    return grouped_agg(
        ds, "n_name", {"revenue": ("revenue", "sum")}, rows=join, batch_size=65536
    ).sort("revenue", descending=True)


# -- top-k with broadcast filter (R6) ------------------------------------

def top_customers_by_order_value(sf_dir: str, segment: str = "BUILDING", k: int = 10):
    """orders ⋉ customer(segment) -> top-k customers by total order
    value. Customer SCALES with the fact tables (unlike nation/region/
    part), so it is never driver-read or broadcast by value (VERDICT r4
    #4): the segment filter runs batch-wise on the customer scan, the
    semi join and the per-customer aggregate FUSE into one co-partition
    exchange (all of a customer's orders land in its bucket, so the
    in-bucket aggregate is final — no second corpus-scale groupby), and
    only the top-k result KEYS — k rows, driver-small by construction —
    come back to fetch display names with one filtered scan."""
    seg_cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda b: b.filter(pc.equal(b["c_mktsegment"], segment)).select(["c_custkey"]),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def semi_agg_bucket(t: dict) -> pa.Table:
        o = t["O"]
        o = o.filter(pc.is_in(o["o_custkey"], value_set=pc.unique(t["C"]["c_custkey"])))
        agg = o.group_by("o_custkey").aggregate(
            [("o_totalprice", "sum"), ("o_totalprice", "count")]
        )
        return agg.rename_columns(["o_custkey", "total_value", "n_orders"])

    out = (
        co_partition(
            {
                "O": (orders, pa.schema([("o_custkey", pa.int64()), ("o_totalprice", pa.float64())])),
                "C": (seg_cust, pa.schema([("c_custkey", pa.int64())])),
            },
            {"O": "o_custkey", "C": "c_custkey"},
            semi_agg_bucket,
        )
        .sort("total_value", descending=True)
        .limit(k)
        .materialize()  # k rows
    )
    top_keys = pa.array(
        [r["o_custkey"] for r in out.take_all()], type=pa.int64()
    )

    def pick_names(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(pc.cast(batch["c_custkey"], pa.int64()), value_set=top_keys)
        return batch.filter(mask).select(["c_custkey", "c_name"])

    name_rows = (
        _read(sf_dir, "customer", ["c_custkey", "c_name"])
        .map_batches(pick_names, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )  # <= k rows
    names = {r["c_custkey"]: r["c_name"] for r in name_rows}

    def attach_name(batch: pa.Table) -> pa.Table:
        name_col = pa.array([names.get(ck, "") for ck in batch["o_custkey"].to_pylist()])
        return batch.append_column("c_name", name_col)

    return out.map_batches(attach_name, batch_format="pyarrow", zero_copy_batch=True)


# -- windowed aggregate over the events stream table ---------------------

def events_hourly_window(sf_dir: str):
    """Tumbling 1-hour event-time windows per event_type: Ray Data has no
    native windows (SURVEY §2.6) — the window key is computed vectorized
    (timestamp floor) and the window is a groupby over (type, hour)."""
    from ray.data.aggregate import Count, Sum

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def add_window(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch["ts"], unit="hour")
        return batch.append_column("window_start", hour)

    return (
        ds.map_batches(add_window, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536)
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
        .sort(["event_type", "window_start"])
    )


def events_sliding_window(sf_dir: str, width_hours: int = 3, step_hours: int = 1):
    """Sliding event-time windows per event_type (width 3h, hop 1h by
    default): each event is expanded vectorized to every window that
    covers it (width/step copies with shifted window_start keys — the
    standard explode-then-aggregate sliding-window encoding), then one
    groupby over (type, window_start) aggregates. Expansion factor =
    width/step, applied per batch with Arrow kernels — no per-row
    Python, no window state."""
    from ray.data.aggregate import Count, Sum

    assert width_hours % step_hours == 0, "width must be a multiple of step"
    n_copies = width_hours // step_hours

    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])

    def expand(batch: pa.Table) -> pa.Table:
        import datetime

        base = pc.floor_temporal(batch["ts"], multiple=step_hours, unit="hour")
        parts = []
        for i in range(n_copies):
            shift = pa.scalar(
                datetime.timedelta(hours=i * step_hours), type=pa.duration("us")
            )
            parts.append(
                pa.Table.from_arrays(
                    [
                        batch["event_type"],
                        pc.subtract(base, shift),
                        batch["value"],
                    ],
                    names=["event_type", "window_start", "value"],
                )
            )
        return pa.concat_tables(parts)

    return (
        ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True, batch_size=65536)
        .groupby(["event_type", "window_start"])
        .aggregate(Count(alias_name="n_events"), Sum("value", alias_name="sum_value"))
        .sort(["event_type", "window_start"])
    )


# -- as-of join (ordered merge within co-partitioned groups) -------------

def purchases_asof_views(sf_dir: str):
    """As-of join: each purchase event matched to the user's most recent
    view event at-or-before its timestamp (inner semantics). Ray Data
    has no native as-of join — the pattern is: tag both streams, ONE
    co-partitioning exchange on a user-hash BUCKET (``stages.width()``
    groups, so the per-group Python overhead is constant, not
    per-user), then inside
    each bucket the rows sorted by (user, ts, views before purchases)
    (``exchange.sorted_runs``) and one forward-max scan match every
    purchase to its latest prior view vectorized (guide: as-of/range
    join)."""
    import ray

    from .bloom import bloom_mask, build_bloom

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "value"])

    # bloom of PURCHASING users, built from a cheap keys-only pre-scan:
    # views of users who never purchase can produce no as-of match
    # (inner semantics) and must not enter the co-partition exchange;
    # purchase rows always pass their own bloom by construction
    purch_users = _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
        lambda b: b.filter(pc.equal(b["event_type"], "purchase")).select(
            ["user_id"]
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )
    bloom_ref = ray.put(build_bloom(purch_users, "user_id"))

    def pick(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(
            batch["event_type"], value_set=pa.array(["purchase", "view"])
        )
        t = batch.filter(mask)
        keep = bloom_mask(
            t["user_id"].to_numpy(zero_copy_only=False), ray.get(bloom_ref)
        )
        return t.filter(pa.array(keep))

    both = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True)

    def asof_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        is_p = pc.equal(g["event_type"], "purchase").to_numpy()
        # latest-view-so-far: forward max of view positions; a carry
        # from the previous user lies before the run start and drops
        # (inner)
        at = np.arange(len(pos), dtype=np.int64)
        ff = np.maximum.accumulate(np.where(is_p, -1, at))
        pi = np.flatnonzero(is_p & (ff >= at - pos))
        vi = ff[pi]
        return pa.table(
            {
                "user_id": g["user_id"].take(pi),
                "ts": g["ts"].take(pi),
                "purchase_value": g["value"].take(pi),
                "view_ts": g["ts"].take(vi),
                "view_value": g["value"].take(vi),
            }
        )

    # "view" > "purchase": views sort BEFORE purchases at equal
    # (user, ts), so a view at exactly t matches a purchase at t
    # (allow_exact_matches)
    return sorted_runs(
        both, "user_id", ["ts", ("event_type", "descending")], asof_bucket
    )


# -- per-user sessionization (map_groups ordered-state pattern) ----------

def events_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows per user: ONE co-partitioning exchange on a
    user-hash BUCKET (``stages.width()`` groups — constant per-group
    Python overhead instead of one interpreter call per user), then the
    bucket's rows sorted by (user, ts) (``exchange.sorted_runs``);
    session breaks are a vectorized diff (user-change OR gap>threshold)
    and the per-session aggregates come from np.add.reduceat over the
    break offsets. Partitioning assumption: one bucket's events fit in
    one group — the width grows with the cluster, and the kernel is
    bucket-count-agnostic."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "value"])

    gap = np.timedelta64(int(gap_minutes), "m")

    def sessionize_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        brk = pos == 0
        brk[1:] |= np.diff(g["ts"].to_numpy()) > gap
        starts = np.flatnonzero(brk)
        lens = np.diff(np.append(starts, len(pos)))
        return pa.table(
            {
                "user_id": g["user_id"].take(starts),
                "session_start": g["ts"].take(starts),
                "session_end": g["ts"].take(starts + lens - 1),
                "n_events": pa.array(lens),
                "sum_value": pa.array(
                    np.add.reduceat(g["value"].to_numpy(), starts), type=pa.float64()
                ),
            }
        )

    return sorted_runs(ds, "user_id", ["ts"], sessionize_bucket)


# -- per-group top-k (grouped rank at scale) -----------------------------

def user_top_events(sf_dir: str, k: int = 3):
    """Top-k events per user by (value desc, ts, event_id) with a dense
    1-based rank — the grouped-rank operator shape: one hash shuffle on
    the user-BUCKET key, then the bucket's sorted rows and run positions
    (``exchange.sorted_runs``) rank every user in it at once (r5 — was
    one Python group call per user). Partitioning assumption: one
    user's events fit in one bucket group."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "value"])

    def topk_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        sel = np.flatnonzero(pos < k)
        return pa.table(
            {
                "user_id": g["user_id"].take(sel),
                "event_id": g["event_id"].take(sel),
                "value_cents": pa.array(_cents(g["value"].to_numpy()[sel])),
                "rank": pa.array(pos[sel] + 1),
            }
        )

    return sorted_runs(
        ds, "user_id", [("value", "descending"), "ts", "event_id"], topk_bucket
    ).sort(["user_id", "rank"])


# -- per-user lag window (inter-event gaps) ------------------------------

def event_gaps(sf_dir: str):
    """Per-user inter-event gap statistics — the LAG-window shape: one
    hash shuffle on the user-BUCKET key, then the bucket's (user, ts,
    event_id)-sorted rows (``exchange.sorted_runs``) with segmented
    diff/reduceat aggregates covering every user in it (r5 — was one
    Python group call per user). Gaps are exact integer
    microseconds so the DuckDB ``lag`` oracle reproduces them
    bit-for-bit. Partitioning assumption: one user's events fit in one
    bucket group."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_id"])

    def gaps_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        starts = np.flatnonzero(pos == 0)
        lens = np.diff(np.append(starts, len(pos)))
        # the gap before each row, 0 at a user's first event (sorted
        # ts: every gap is >= 0, so the 0 never lifts a max)
        gap = np.zeros(len(pos), dtype=np.int64)
        gap[1:] = np.diff(pc.cast(g["ts"], pa.int64()).to_numpy())
        gap[starts] = 0
        return pa.table(
            {
                "user_id": g["user_id"].take(starts),
                "n_events": pa.array(lens),
                "n_gaps": pa.array(lens - 1),
                "max_gap_us": pa.array(np.maximum.reduceat(gap, starts)),
                "sum_gap_us": pa.array(np.add.reduceat(gap, starts)),
            }
        )

    return sorted_runs(
        ds, "user_id", ["ts", "event_id"], gaps_bucket
    ).sort("user_id")


# -- hierarchical rollup (GROUP BY ROLLUP shape) --------------------------

def orders_rollup(sf_dir: str):
    """Order counts and exact-cent totals by (priority, year) with
    ROLLUP levels: per-priority subtotals and a grand total. ONE
    shuffle at the finest grain (priorities x years — a few dozen
    keys); the coarser levels are derived from the tiny fine-grain
    aggregate on the driver with exact integer arithmetic, never from
    a second pass over the fact table. NULL rollup markers are encoded
    as 'ALL' / -1 so the comparison is engine-neutral."""
    ds = _read(sf_dir, "orders", ["o_orderpriority", "o_orderdate", "o_totalprice"])

    def year_cents(batch: pa.Table) -> pa.Table:
        years = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[Y]")
            .astype(np.int64)
            + 1970
        )
        return pa.Table.from_pydict(
            {
                "o_orderpriority": batch["o_orderpriority"],
                "o_year": pa.array(years, type=pa.int64()),
                "cents": _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)),
            }
        )

    fine = grouped_agg(
        ds,
        ["o_orderpriority", "o_year"],
        {"sum_price_cents": ("cents", "sum"), "n_orders": ("cents", "count")},
        rows=year_cents,
    ).take_all()  # <= priorities x years rows by construction — the aggregate, not the facts
    rows = [
        (r["o_orderpriority"], r["o_year"], r["n_orders"], r["sum_price_cents"])
        for r in fine
    ]
    by_prio: dict = {}
    for prio, year, n, cents in rows:
        cur = by_prio.setdefault(prio, [0, 0])
        cur[0] += n
        cur[1] += cents
    out = list(rows)
    out += [(p, -1, n, c) for p, (n, c) in by_prio.items()]
    out.append(
        ("ALL", -1, sum(n for n, _ in by_prio.values()),
         sum(c for _, c in by_prio.values()))
    )
    out.sort(key=lambda r: (r[0], r[1]))
    return pa.Table.from_pydict(
        {
            "o_orderpriority": pa.array([r[0] for r in out], type=pa.string()),
            "o_year": pa.array([r[1] for r in out], type=pa.int64()),
            "n_orders": pa.array([r[2] for r in out], type=pa.int64()),
            "sum_price_cents": pa.array([r[3] for r in out], type=pa.int64()),
        }
    )


# -- strict ordered funnel (event-sequence analytics) ---------------------

def funnel_counts(sf_dir: str, stages=("view", "click", "purchase")):
    """Strict ordered funnel: users whose FIRST stage-k event happens
    strictly after their first stage-(k-1) completion. One hash shuffle
    on user_id, per-group vectorized first-after scan, then a driver
    fold of the tiny per-user stage depth. Output: one row per stage
    with the users-remaining count."""
    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type", "event_id"])

    def depth_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        # every user in the bucket advances through the stage machine
        # together: per stage, one vectorized candidate mask + one
        # first-per-user selection over the (user, ts, event_id)-sorted
        # rows — K tiny passes, zero per-user Python (r5; was one group
        # call per user)
        ts_s = pc.cast(g["ts"], pa.int64()).to_numpy()
        types_s = g["event_type"].to_numpy()
        starts = pos == 0
        users = g["user_id"].to_numpy()[starts]
        inv = np.cumsum(starts) - 1  # each row's user run
        cur = np.full(len(users), -(2**62), dtype=np.int64)
        reached = np.zeros(len(users), dtype=np.int64)
        alive = np.ones(len(users), dtype=bool)
        for s in stages:
            cand = np.flatnonzero(
                (types_s == s) & (ts_s > cur[inv]) & alive[inv]
            )
            if cand.size == 0:
                break
            # rows sorted by (user, ts, event_id): the first candidate
            # row per user IS that user's first stage hit in time order
            cu, first = np.unique(inv[cand], return_index=True)
            cur[cu] = ts_s[cand[first]]
            reached[cu] += 1
            alive[:] = False
            alive[cu] = True
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(users, type=pa.int64()),
                "depth": pa.array(reached, type=pa.int64()),
            }
        )

    per_user = sorted_runs(ds, "user_id", ["ts", "event_id"], depth_bucket)
    from ray.data.aggregate import Count

    hist = per_user.groupby("depth").aggregate(Count(alias_name="n")).take_all()
    counts = {r["depth"]: r["n"] for r in hist}  # <= len(stages)+1 rows
    labels, vals = [], []
    for i, s in enumerate(stages, start=1):
        labels.append(f"{i}_{s}")
        vals.append(sum(n for d, n in counts.items() if d >= i))
    return pa.Table.from_pydict(
        {
            "stage": pa.array(labels, type=pa.string()),
            "n_users": pa.array(vals, type=pa.int64()),
        }
    )


# -- weekly retention cohorts ---------------------------------------------

def retention_cohorts(sf_dir: str):
    """Classic retention triangle: users grouped by first-activity week
    (cohort), counted in every week they were active. ONE shuffle on the
    user-BUCKET key computes every user's (cohort_week, active_week)
    pairs from the bucket's (user, ts)-sorted rows and run masks
    (``exchange.sorted_runs``; r5 — was one Python group call per
    user); the second groupby is over the tiny
    (weeks x weeks) key space. Week = Monday-start date, matching
    DuckDB date_trunc('week')."""
    ds = _read(sf_dir, "events", ["user_id", "ts"])

    def weeks_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        days = g["ts"].to_numpy().astype("datetime64[D]").view("int64")
        # Monday-start week containing `day` (1970-01-01 is a Thursday);
        # sorted ts gives sorted weeks within each user run
        wk = ((days + 3) // 7) * 7 - 3
        # distinct (user, week) rows; cohort = the user run's first week
        keep = run_starts(wk) | (pos == 0)
        dw = wk[keep]
        cohort = wk[np.arange(len(pos)) - pos][keep]
        # ISO yyyy-mm-dd strings: engine-neutral for the value compare
        return pa.Table.from_pydict(
            {
                "cohort_week": pa.array(
                    np.datetime_as_string(cohort.astype("datetime64[D]")),
                    type=pa.string(),
                ),
                "active_week": pa.array(
                    np.datetime_as_string(dw.astype("datetime64[D]")),
                    type=pa.string(),
                ),
            }
        )

    from ray.data.aggregate import Count

    return (
        sorted_runs(ds, "user_id", ["ts"], weeks_bucket)
        .groupby(["cohort_week", "active_week"])
        .aggregate(Count(alias_name="n_users"))
        .sort(["cohort_week", "active_week"])
    )


# -- broadcast range join (band assignment) -------------------------------

PRICE_BANDS = [
    ("00_budget", 0.0, 50_000.0),
    ("01_mid", 50_000.0, 150_000.0),
    ("02_high", 150_000.0, 300_000.0),
    ("03_premium", 300_000.0, float("inf")),
]


def orders_price_bands(sf_dir: str, bands=None):
    """Range join of a large fact table against a tiny band table —
    the broadcast pattern: the band boundaries ride into every task as
    a closure constant (ray.put-scale payload), each batch assigns
    bands with ONE vectorized np.searchsorted (no shuffle join), and
    the only exchange is the final <= #bands groupby. Exact integer
    cents so the SQL BETWEEN-join oracle replays the totals."""
    bands = bands or PRICE_BANDS
    names = [b[0] for b in bands]
    uppers = np.array([b[2] for b in bands[:-1]], dtype=np.float64)

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def assign(batch: pa.Table) -> pa.Table:
        price = batch["o_totalprice"].to_numpy(zero_copy_only=False)
        idx = np.searchsorted(uppers, price, side="right")
        return pa.Table.from_pydict(
            {
                "band": pa.array(np.array(names, dtype=object)[idx].tolist(),
                                 type=pa.string()),
                "cents": _cents(price),
            }
        )

    return grouped_agg(
        ds,
        "band",
        {"sum_price_cents": ("cents", "sum"), "n_orders": ("cents", "count")},
        rows=assign,
    ).sort("band")


# -- pivot / crosstab ------------------------------------------------------

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]


def _priority_segment_cells(sf_dir: str):
    """(prio, seg, n) contingency cells from orders ⋈ customer WITHOUT a
    driver-side customer read (customer scales with the fact tables —
    VERDICT r4 #4): both sides co-partition by custkey bucket in ONE
    exchange (the ``bucketed_filter_join`` shape); each
    bucket's kernel maps its orders to segments with one sorted-key
    searchsorted, and ``grouped_agg`` collapses the (prio, seg) rows to
    <= P x S partial cells before a tiny final groupby sums them.
    Unmatched orders drop — inner-join semantics, as in the SQL
    oracles."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderpriority"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"])

    def cells_bucket(t: dict) -> pa.Table:
        o, c = t["O"], t["C"]
        if o.num_rows == 0 or c.num_rows == 0:
            return pa.Table.from_pydict(
                {"prio": pa.array([], type=pa.string()), "seg": pa.array([], type=pa.string())}
            )
        ck = c["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.argsort(ck)
        seg_sorted = c["c_mktsegment"].combine_chunks().take(pa.array(order))
        idx, ok = _dim_lookup(ck[order], o["o_custkey"].to_numpy(zero_copy_only=False))
        if not ok.all():
            o = o.filter(pa.array(ok))
            idx = idx[ok]
        return pa.Table.from_pydict(
            {"prio": o["o_orderpriority"], "seg": seg_sorted.take(pa.array(idx))}
        )

    cells = co_partition(
        {
            "O": (orders, pa.schema([("o_custkey", pa.int64()), ("o_orderpriority", pa.string())])),
            "C": (cust, pa.schema([("c_custkey", pa.int64()), ("c_mktsegment", pa.string())])),
        },
        {"O": "o_custkey", "C": "c_custkey"},
        cells_bucket,
    )
    # <= priorities x segments rows by construction
    return grouped_agg(cells, ["prio", "seg"], {"n": ("seg", "count")}).take_all()


def priority_segment_pivot(sf_dir: str, segments=None):
    """Crosstab of order counts: priority rows x market-segment columns
    — the PIVOT shape. Cells come from the co-partitioned
    ``_priority_segment_cells`` exchange (no customer broadcast); the
    driver spreads the <= priorities x segments aggregate to wide
    columns."""
    segments = segments or SEGMENTS
    agg = _priority_segment_cells(sf_dir)
    counts = {(r["prio"], r["seg"]): r["n"] for r in agg}
    prios = sorted({p for p, _ in counts})
    cols = {"o_orderpriority": pa.array(prios, type=pa.string())}
    for s in segments:
        cols[f"n_{s}"] = pa.array(
            [counts.get((p, s), 0) for p in prios], type=pa.int64()
        )
    return pa.Table.from_pydict(cols)


# -- interval join (events into containing session windows) ---------------

def session_purchase_counts(sf_dir: str, gap_minutes: int = 30):
    """Interval join — each event matched to the session window
    [start, end] that contains it (same user), counting purchases per
    session. The two large sides (session windows from
    ``events_sessionize`` and the raw typed events) are null-padded,
    tagged and co-partitioned by USER-HASH BUCKET in ONE exchange; each
    bucket's kernel handles ALL its users at once with a composite
    (user, time) structured-key searchsorted — the merge-join kernel
    for interval containment, no per-row scan, no cross product, and
    (r5) no per-user interpreter call: the previous groupby(user_id)
    paid one Python group call per user, the shape this engine removes
    everywhere else."""
    sessions = events_sessionize(sf_dir, gap_minutes=gap_minutes)
    events = _read(sf_dir, "events", ["user_id", "ts", "event_type"])

    def join_bucket(t: dict) -> pa.Table:
        sess, ev = t["S"], t["E"]
        empty = pa.Table.from_pydict(
            {
                "user_id": pa.array([], type=pa.int64()),
                "session_start": pa.array([], type=pa.timestamp("us")),
                "n_events": pa.array([], type=pa.int64()),
                "n_purchases": pa.array([], type=pa.int64()),
            }
        )
        if sess.num_rows == 0:
            # users with events but no session windows: no containing
            # window, the interval join emits nothing for them
            return empty
        su = sess["user_id"].to_numpy(zero_copy_only=False)
        s_end = (
            sess["session_end"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view("int64")
        )
        s_start = (
            sess["session_start"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view("int64")
        )
        order = np.lexsort((s_end, su))
        su, s_end, s_start = su[order], s_end[order], s_start[order]
        n_ev = sess["n_events"].to_numpy(zero_copy_only=False)[order]
        skeys = np.empty(len(su), dtype=[("u", np.int64), ("t", np.int64)])
        skeys["u"], skeys["t"] = su, s_end
        purchases = np.zeros(len(su), dtype=np.int64)
        if ev.num_rows:
            eu = ev["user_id"].to_numpy(zero_copy_only=False)
            ets = (
                ev["ts"].to_numpy(zero_copy_only=False)
                .astype("datetime64[us]").view("int64")
            )
            is_purchase = pc.equal(ev["event_type"], "purchase").to_numpy(
                zero_copy_only=False
            )
            ekeys = np.empty(len(eu), dtype=skeys.dtype)
            ekeys["u"], ekeys["t"] = eu, ets
            # first session (in (user, end) order) with the SAME user and
            # end >= ts; containment also needs start <= ts
            idx = np.searchsorted(skeys, ekeys, side="left")
            idx_c = np.minimum(idx, len(su) - 1)
            valid = (
                (idx < len(su))
                & (su[idx_c] == eu)
                & (s_start[idx_c] <= ets)
            )
            purchases = np.bincount(
                idx_c[valid & is_purchase], minlength=len(su)
            ).astype(np.int64)
        return pa.Table.from_pydict(
            {
                "user_id": pa.array(su, type=pa.int64()),
                "session_start": pa.array(
                    s_start.view("datetime64[us]"), type=pa.timestamp("us")
                ),
                "n_events": pa.array(n_ev.astype(np.int64), type=pa.int64()),
                "n_purchases": pa.array(purchases, type=pa.int64()),
            }
        )

    return (
        co_partition(
            {
                "S": (sessions, pa.schema([
                    ("user_id", pa.int64()),
                    ("session_start", pa.timestamp("us")),
                    ("session_end", pa.timestamp("us")),
                    ("n_events", pa.int64()),
                ])),
                "E": (events, pa.schema([
                    ("user_id", pa.int64()),
                    ("ts", pa.timestamp("us")),
                    ("event_type", pa.string()),
                ])),
            },
            "user_id",
            join_bucket,
        )
        .sort(["user_id", "session_start"])
    )


# -- grouped NTILE window (per-nation balance quartiles) -------------------

def customer_balance_quartiles(sf_dir: str, k: int = 4):
    """Per-nation account-balance quartiles — the grouped NTILE window.
    ONE shuffle on the partition key (c_nationkey); inside each group
    the rows are lexsorted by (acctbal, custkey) and the exact NTILE
    bucket sizes (first n%k buckets get one extra row, SQL semantics)
    are assigned with one np.repeat — no per-row Python. Output is the
    tiny per-(nation, quartile) aggregate in exact integer cents.
    Partitioning assumption: one partition key's rows fit in one group
    (exact NTILE needs the whole partition ranked; for a partition too
    large for that, use the corpus_shuffle range-bucket + prefix-offset
    rank instead)."""
    ds = _read(sf_dir, "customer", ["c_custkey", "c_nationkey", "c_acctbal"])

    def quartile_group(group: pa.Table) -> pa.Table:
        bal = group["c_acctbal"].to_numpy(zero_copy_only=False)
        key = group["c_custkey"].to_numpy(zero_copy_only=False)
        order = np.lexsort((key, bal))
        cents = _cents(bal[order])
        n = len(order)
        q, r = divmod(n, k)
        sizes = np.full(k, q, dtype=np.int64)
        sizes[:r] += 1
        sizes = sizes[sizes > 0]
        tiles = np.repeat(np.arange(1, len(sizes) + 1, dtype=np.int64), sizes)
        bounds = np.cumsum(sizes)
        starts = np.concatenate(([0], bounds[:-1]))
        sums = np.add.reduceat(cents, starts)
        return pa.Table.from_pydict(
            {
                "c_nationkey": pa.array(
                    [int(group["c_nationkey"][0].as_py())] * len(sizes),
                    type=pa.int64(),
                ),
                "quartile": pa.array(np.arange(1, len(sizes) + 1), type=pa.int64()),
                "n_customers": pa.array(sizes, type=pa.int64()),
                "min_bal_cents": pa.array(cents[starts], type=pa.int64()),
                "max_bal_cents": pa.array(cents[bounds - 1], type=pa.int64()),
                "sum_bal_cents": pa.array(sums, type=pa.int64()),
            }
        )

    return (
        ds.groupby("c_nationkey")
        .map_groups(quartile_group, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["c_nationkey", "quartile"])
    )


# -- grouped running window (per-user cumulative spend) --------------------

def user_cumulative_spend(sf_dir: str):
    """Running cumulative purchase spend per user — the grouped
    prefix-sum window (SUM OVER PARTITION BY user ORDER BY ts ROWS
    UNBOUNDED PRECEDING). Purchases are filtered AT THE SCAN, then ONE
    shuffle on user-hash bucket; each bucket's kernel takes its rows
    sorted by (user, ts, event_id) (``exchange.sorted_runs``) and
    computes every user's prefix sum with a run-reset cumsum over exact
    integer cents (order-free arithmetic,
    so the SQL window replays it bit-for-bit) — no per-user interpreter
    call (r5: was groupby(user_id).map_groups)."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def only_purchases(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["event_type"], "purchase")).drop_columns(
            ["event_type"]
        )

    purchases = ds.map_batches(
        only_purchases, batch_format="pyarrow", zero_copy_batch=True
    )

    def cumsum_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        cents = _cents(g["value"].to_numpy())
        cs = np.cumsum(cents)
        # minus the bucket-wide sum before each user run's first row
        before = (cs - cents)[np.arange(len(pos)) - pos]
        return pa.table(
            {
                "user_id": g["user_id"],
                "event_id": g["event_id"],
                "ts": g["ts"],
                "spend_cents": pa.array(cents),
                "cum_spend_cents": pa.array(cs - before),
            }
        )

    return sorted_runs(
        purchases, "user_id", ["ts", "event_id"], cumsum_bucket
    ).sort(["user_id", "ts", "event_id"])


# -- tumbling-window distinct users (DAU/HAU counting) ---------------------

def events_hourly_users(sf_dir: str):
    """Distinct active users per hour — the windowed COUNT(DISTINCT)
    shape. Per batch, (hour, user) pairs are deduplicated BEFORE the
    exchange (the distinct-partial idiom: the shuffle carries at most
    windows x users-per-batch pairs, never raw events), one
    groupby(hour, user) completes the global dedup, and ``grouped_agg``
    counts the pairs per hour."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "events", ["ts", "user_id"])

    def dedup_partial(batch: pa.Table) -> pa.Table:
        hours = pc.floor_temporal(batch["ts"], unit="hour")
        t = pa.Table.from_pydict({"hour": hours, "user_id": batch["user_id"]})
        return t.group_by(["hour", "user_id"]).aggregate([])

    pairs = (
        ds.map_batches(dedup_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["hour", "user_id"])
        .aggregate(Count(alias_name="_c"))
        .drop_columns(["_c"])
    )

    return grouped_agg(pairs, "hour", {"n_users": ("hour", "count")}).sort("hour")


# -- path mining (per-user ordered event-type sequences) -------------------

def user_event_paths(sf_dir: str, k: int = 20, max_len: int = 50):
    """Most common user journeys — every user's chronologically ordered
    event-type sequence (joined with '>'), truncated to the first
    ``max_len`` events, counted across users and ranked. ONE shuffle on
    the user-BUCKET key; each bucket builds EVERY user's path from its
    sorted rows and run positions (``exchange.sorted_runs``): run-rank
    truncation + a single ListArray binary_join (r5 — was one Python
    group call per user), ``grouped_agg`` collapses the
    paths to partial path counts, and only the top-k survive the final
    tiny exchange."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def paths_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        keep = pos < max_len
        et = _as_array(g["event_type"]).filter(pa.array(keep))
        # every run starts a path; the last offset closes the last one
        offsets = np.flatnonzero(np.append(pos[keep] == 0, True))
        paths = pc.binary_join(
            pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), et),
            ">",
        )
        return pa.Table.from_arrays([paths], names=["path"])

    paths = sorted_runs(ds, "user_id", ["ts", "event_id"], paths_bucket)
    return (
        grouped_agg(paths, "path", {"n_users": (None, "count")})
        .sort(["n_users", "path"], descending=[True, False])
        .limit(k)
    )


# -- exact integer least-squares trend per event type ----------------------

def event_value_trends(sf_dir: str):
    """Per-event-type linear trend of purchase value over time —
    distributed least squares from PARTIAL SUMS: each batch reduces to
    (type, n, Sx, Sy, Sxy, Sxx) int64 partials (x = hours since epoch,
    y = integer cents), one tiny groupby(event_type) merges them, and
    the driver closes the normal equations in exact Python-int
    arithmetic: slope = (n*Sxy - Sx*Sy) / (n*Sxx - Sx^2), reported in
    micro-cents-per-hour with TRUNCATING division (DuckDB HUGEINT '//'
    truncates toward zero, so the oracle replays bit-for-bit)."""
    ds = _read(sf_dir, "events", ["ts", "event_type", "value"])
    US_PER_HOUR = 3_600_000_000

    def moments(batch: pa.Table) -> pa.Table:
        x = (
            batch["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view("int64") // US_PER_HOUR
        )
        y = _cents(batch["value"].to_numpy(zero_copy_only=False))
        return pa.Table.from_pydict(
            {"event_type": batch["event_type"], "x": x, "y": y, "xy": x * y, "xx": x * x}
        )

    merged = grouped_agg(
        ds,
        "event_type",
        {
            "n": (None, "count"),
            "sx": ("x", "sum"),
            "sy": ("y", "sum"),
            "sxy": ("xy", "sum"),
            "sxx": ("xx", "sum"),
        },
        rows=moments,
    ).take_all()  # <= #event types rows by construction

    def tdiv(a: int, b: int) -> int:
        # truncate toward zero (matches DuckDB integer division)
        q = abs(a) // abs(b)
        return q if (a >= 0) == (b >= 0) else -q

    out_t, out_n, out_s, out_m = [], [], [], []
    for r in sorted(merged, key=lambda r: r["event_type"]):
        n, sx, sy = int(r["n"]), int(r["sx"]), int(r["sy"])
        sxy, sxx = int(r["sxy"]), int(r["sxx"])
        den = n * sxx - sx * sx
        out_t.append(r["event_type"])
        out_n.append(n)
        out_s.append(tdiv((n * sxy - sx * sy) * 1_000_000, den) if den else 0)
        out_m.append(tdiv(sy * 1_000_000, n))
    return pa.Table.from_pydict(
        {
            "event_type": pa.array(out_t, type=pa.string()),
            "n_events": pa.array(out_n, type=pa.int64()),
            "slope_micro": pa.array(out_s, type=pa.int64()),
            "mean_cents_micro": pa.array(out_m, type=pa.int64()),
        }
    )


# -- Markov transition counts over event sequences --------------------------

def event_transitions(sf_dir: str):
    """First-order Markov transition counts (prev_type -> type) over
    every user's chronological event sequence — the LAG-pair shape: ONE
    shuffle on the user-BUCKET key; each bucket's rows come sorted by
    (user, ts, event_id) (``exchange.sorted_runs``), the intra-user
    adjacent pairs are masked by run position, and the kernel
    collapses to
    <= types^2 partial counts (r5 — was one Python group call per
    user), then a tiny global groupby."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type"])

    def pairs_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        et = _as_array(g["event_type"])
        within = pa.array(pos[1:] > 0)
        return pa.Table.from_pydict(
            {
                "prev_type": et.slice(0, max(len(pos) - 1, 0)).filter(within),
                "next_type": et.slice(1).filter(within),
            }
        )

    pairs = sorted_runs(ds, "user_id", ["ts", "event_id"], pairs_bucket)
    return grouped_agg(
        pairs, ["prev_type", "next_type"], {"n_transitions": (None, "count")}
    ).sort(["prev_type", "next_type"])


# -- star-schema rollup with a broadcast dimension --------------------------

def revenue_by_parttype(sf_dir: str):
    """lineitem ⋈ part revenue rollup by p_type — the broadcast-dimension
    star join (revenue_by_nation's shape on the part dimension): the
    dimension's (partkey -> type) map is read once and shipped by value,
    the fact table streams with per-batch searchsorted attach + partial
    aggregation in exact integer cents."""
    import pyarrow.parquet as pq

    part = pq.read_table(f"{sf_dir}/part.parquet", columns=["p_partkey", "p_type"])
    pk = part["p_partkey"].to_numpy()
    order = np.argsort(pk)
    pk_sorted = pk[order]
    type_by_part = np.asarray(part["p_type"].to_pylist(), dtype=object)[order]

    ds = _read(sf_dir, "lineitem", ["l_partkey", "l_extendedprice", "l_discount"])

    def attach(batch: pa.Table) -> pa.Table:
        cents = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
        )
        idx, ok = _dim_lookup(
            pk_sorted, batch["l_partkey"].to_numpy(zero_copy_only=False)
        )
        if not ok.all():
            idx, cents = idx[ok], cents[ok]
        return pa.Table.from_pydict(
            {"p_type": pa.array(type_by_part[idx], type=pa.string()), "rev": cents}
        )

    return grouped_agg(
        ds,
        "p_type",
        {"revenue_cents": ("rev", "sum"), "n_lines": ("rev", "count")},
        rows=attach,
    ).sort("p_type")


def revenue_by_region(sf_dir: str):
    """Snowflake rollup lineitem -> supplier -> nation -> region: the
    three dimension hops are PRE-JOINED ONCE driver-side (all
    dimension-scale tables) into a single suppkey -> region map and
    broadcast by value; the fact table streams with per-batch
    searchsorted attach and exact-cents partial aggregation — the
    multi-hop star never touches the shuffle."""
    import pyarrow.parquet as pq

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    dim = supplier.join(
        nation, keys="s_nationkey", right_keys="n_nationkey"
    ).join(region, keys="n_regionkey", right_keys="r_regionkey")
    sk = dim["s_suppkey"].to_numpy()
    order = np.argsort(sk)
    sk_sorted = sk[order]
    region_by_supp = np.asarray(dim["r_name"].to_pylist(), dtype=object)[order]

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def attach(batch: pa.Table) -> pa.Table:
        cents = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
        )
        idx, ok = _dim_lookup(
            sk_sorted, batch["l_suppkey"].to_numpy(zero_copy_only=False)
        )
        if not ok.all():
            idx, cents = idx[ok], cents[ok]
        return pa.Table.from_pydict(
            {"r_name": pa.array(region_by_supp[idx], type=pa.string()), "rev": cents}
        )

    return grouped_agg(
        ds,
        "r_name",
        {"revenue_cents": ("rev", "sum"), "n_lines": ("rev", "count")},
        rows=attach,
    ).sort("r_name")


# -- semi-structured extraction (JSON property column) ----------------------

def props_field_stats(sf_dir: str, field: str = "k"):
    """Typed extraction from the semi-structured JSON ``props`` column —
    the log-processing shape: ONE vectorized ``pc.extract_regex`` pulls
    the integer field out of every JSON blob (no per-row json.loads),
    rows missing the field drop (null-safe), and per-type integer stats
    aggregate via partials. The SQL oracle uses DuckDB's native JSON
    path extraction, pinning the two engines' parse semantics to each
    other."""
    from ray.data.aggregate import Count, Max, Min, Sum

    ds = _read(sf_dir, "events", ["event_type", "props"])
    pattern = rf'"{field}"\s*:\s*(?P<v>-?\d+)'

    def extract(batch: pa.Table) -> pa.Table:
        m = pc.extract_regex(batch["props"], pattern)
        v = pc.cast(pc.struct_field(m, "v"), pa.int64())
        t = pa.Table.from_pydict({"event_type": batch["event_type"], "v": v})
        return t.filter(pc.is_valid(t["v"]))

    return (
        ds.map_batches(extract, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n"),
            Sum("v", alias_name="sum_v"),
            Min("v", alias_name="min_v"),
            Max("v", alias_name="max_v"),
        )
        .sort("event_type")
    )


def orders_by_weekday(sf_dir: str):
    """Order seasonality by day-of-week — the date-part derivation
    family (year/hour/week are covered by rollup/windows/cohorts): dow
    computed vectorized from epoch days ((days + 4) % 7, 0 = Sunday,
    matching DuckDB's dayofweek), counts and exact cents via partials."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def dow_cents(batch: pa.Table) -> pa.Table:
        days = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").view("int64")
        )
        return pa.Table.from_pydict(
            {
                "dow": (days + 4) % 7,  # epoch day 0 = Thursday; 0 = Sunday
                "cents": _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)),
            }
        )

    return grouped_agg(
        ds,
        "dow",
        {"n_orders": (None, "count"), "sum_price_cents": ("cents", "sum")},
        rows=dow_cents,
    ).sort("dow")


def priority_segment_chi2(sf_dir: str):
    """Chi-square independence statistic over the (priority x segment)
    contingency table — the distributed-statistics shape: the same
    broadcast + partial-counts scan as the pivot feeds a <= P x S cell
    aggregate; the statistic closes on the driver in EXACT integer
    micro-units, chi2 = sum over cells of (O*N - R*C)^2 * 1e6 // (R*C*N)
    with truncating division (cell terms are floor-independent of
    summation order; DuckDB HUGEINT replays it bit-for-bit). Cells come
    from the co-partitioned ``_priority_segment_cells`` exchange (no
    customer broadcast). Output: one row (n_cells, dof, chi2_micro)."""
    cells = _priority_segment_cells(sf_dir)
    counts = {(r["prio"], r["seg"]): int(r["n"]) for r in cells}
    prios = sorted({p for p, _ in counts})
    segs = sorted({s for _, s in counts})
    row_tot = {p: sum(counts.get((p, s), 0) for s in segs) for p in prios}
    col_tot = {s: sum(counts.get((p, s), 0) for p in prios) for s in segs}
    n_total = sum(row_tot.values())
    chi2 = 0
    for p in prios:
        for s in segs:
            o = counts.get((p, s), 0)
            r, c = row_tot[p], col_tot[s]
            num = (o * n_total - r * c) ** 2 * 1_000_000
            chi2 += num // (r * c * n_total)  # all positive: trunc == floor
    return pa.Table.from_pydict(
        {
            "n_cells": pa.array([len(prios) * len(segs)], type=pa.int64()),
            "dof": pa.array(
                [(len(prios) - 1) * (len(segs) - 1)], type=pa.int64()
            ),
            "chi2_micro": pa.array([chi2], type=pa.int64()),
        }
    )


def daily_revenue_ma7(sf_dir: str):
    """Trailing 7-day revenue window at daily grain — the time-RANGE
    window family (gap-aware: missing days contribute nothing, exactly
    like SQL's RANGE INTERVAL frame). Per-batch partials collapse to
    (day, cents) rows; ONE tiny groupby yields the CALENDAR-BOUNDED
    daily aggregate (<= ~2.5k rows for this table's 7-year span
    regardless of order volume), and the driver closes the trailing
    window over it with a two-pointer sweep in exact integer cents."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def day_cents(batch: pa.Table) -> pa.Table:
        days = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").view("int64")
        )
        return pa.Table.from_pydict(
            {
                "day": days,
                "cents": _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)),
            }
        )

    daily = grouped_agg(
        ds, "day", {"cents": ("cents", "sum")}, rows=day_cents
    ).take_all()  # <= distinct order days (calendar-bounded) by construction
    daily.sort(key=lambda r: r["day"])
    days = [int(r["day"]) for r in daily]
    cents = [int(r["cents"]) for r in daily]
    out_day, out_c, out_ma = [], [], []
    lo = 0
    acc = 0
    for i, d in enumerate(days):
        acc += cents[i]
        while days[lo] < d - 6:
            acc -= cents[lo]
            lo += 1
        out_day.append(np.int64(d))
        out_c.append(cents[i])
        out_ma.append(acc)
    return pa.Table.from_pydict(
        {
            "day": pa.array(
                np.array(out_day, dtype="int64").view("datetime64[D]")
                .astype("datetime64[us]"),
                type=pa.timestamp("us"),
            ),
            "revenue_cents": pa.array(out_c, type=pa.int64()),
            "trailing7_cents": pa.array(out_ma, type=pa.int64()),
        }
    )


def user_first_last_purchase(sf_dir: str):
    """Grouped argmin/argmax — each user's FIRST and LAST purchase by
    (ts, event_id): purchases filtered at the scan, ONE shuffle on the
    user-BUCKET key, every user's extreme rows picked at the run
    boundaries of the bucket's sorted rows (``exchange.sorted_runs``;
    r5 — was one Python group call per user). Output one
    row per purchasing user with both endpoints in exact cents."""
    ds = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])

    def only_purchases(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["event_type"], "purchase")).drop_columns(
            ["event_type"]
        )

    purchases = ds.map_batches(
        only_purchases, batch_format="pyarrow", zero_copy_batch=True
    )

    def endpoints_bucket(g: pa.Table, pos: np.ndarray) -> pa.Table:
        firsts = np.flatnonzero(pos == 0)
        lens = np.diff(np.append(firsts, len(pos)))
        lasts = firsts + lens - 1
        cents = _cents(g["value"].to_numpy())
        return pa.table(
            {
                "user_id": g["user_id"].take(firsts),
                "n_purchases": pa.array(lens),
                "first_ts": g["ts"].take(firsts),
                "first_cents": pa.array(cents[firsts]),
                "last_ts": g["ts"].take(lasts),
                "last_cents": pa.array(cents[lasts]),
            }
        )

    return sorted_runs(
        purchases, "user_id", ["ts", "event_id"], endpoints_bucket
    ).sort("user_id")


def nation_share_of_region(sf_dir: str):
    """Percent-of-total within group in exact integers: each nation's
    revenue alongside its region's total — the two-level share rollup.
    One fact scan with the broadcast supplier->(nation, region) map and
    integer-cents partials; the <= 25-row nation aggregate closes the
    region totals on the driver (no second pass, no division — the
    share is the exact pair)."""
    import pyarrow.parquet as pq

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name", "n_regionkey"]
    )
    region = pq.read_table(
        f"{sf_dir}/region.parquet", columns=["r_regionkey", "r_name"]
    )
    dim = supplier.join(
        nation, keys="s_nationkey", right_keys="n_nationkey"
    ).join(region, keys="n_regionkey", right_keys="r_regionkey")
    sk = dim["s_suppkey"].to_numpy()
    order = np.argsort(sk)
    sk_sorted = sk[order]
    nat = np.asarray(dim["n_name"].to_pylist(), dtype=object)[order]
    reg = np.asarray(dim["r_name"].to_pylist(), dtype=object)[order]

    ds = _read(sf_dir, "lineitem", ["l_suppkey", "l_extendedprice", "l_discount"])

    def attach(batch: pa.Table) -> pa.Table:
        cents = _cents(
            batch["l_extendedprice"].to_numpy(zero_copy_only=False)
            * (1.0 - batch["l_discount"].to_numpy(zero_copy_only=False))
        )
        idx, ok = _dim_lookup(
            sk_sorted, batch["l_suppkey"].to_numpy(zero_copy_only=False)
        )
        if not ok.all():
            idx, cents = idx[ok], cents[ok]
        return pa.Table.from_pydict(
            {
                "r_name": pa.array(reg[idx], type=pa.string()),
                "n_name": pa.array(nat[idx], type=pa.string()),
                "rev": cents,
            }
        )

    rows = grouped_agg(
        ds, ["r_name", "n_name"], {"revenue_cents": ("rev", "sum")}, rows=attach
    ).take_all()  # <= 25 nation rows by construction
    totals: dict = {}
    for r in rows:
        totals[r["r_name"]] = totals.get(r["r_name"], 0) + int(r["revenue_cents"])
    rows.sort(key=lambda r: (r["r_name"], r["n_name"]))
    return pa.Table.from_pydict(
        {
            "r_name": pa.array([r["r_name"] for r in rows], type=pa.string()),
            "n_name": pa.array([r["n_name"] for r in rows], type=pa.string()),
            "revenue_cents": pa.array(
                [int(r["revenue_cents"]) for r in rows], type=pa.int64()
            ),
            "region_total_cents": pa.array(
                [totals[r["r_name"]] for r in rows], type=pa.int64()
            ),
        }
    )


def order_price_quartiles(sf_dir: str, percentiles=(0.25, 0.5, 0.75)):
    """Exact PERCENTILE_DISC over a value whose distinct-cardinality is
    UNBOUNDED (order prices) — the two-pass coarse-histogram rank
    search: pass 1 reduces the corpus to <= value_range/2^14 coarse
    bucket counts (partials before one tiny groupby), the driver walks
    cumulative counts to locate each target rank's bucket and residual;
    pass 2 re-scans ONLY the rows of the (few) needed buckets — a
    predicate-filtered read, bounded by bucket width — and resolves the
    exact k-th value locally. No global sort, no unbounded histogram."""
    import math

    SHIFT = 14

    ds = _read(sf_dir, "orders", ["o_totalprice"])

    def bucket(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        return pa.Table.from_pydict({"bkt": cents >> SHIFT})

    hist = grouped_agg(
        ds, "bkt", {"n": (None, "count")}, rows=bucket
    ).take_all()  # <= value_range / 2^14 rows by construction
    hist.sort(key=lambda r: r["bkt"])
    total = sum(int(r["n"]) for r in hist)
    targets = {}  # bucket -> [(p, residual_rank_within_bucket)]
    for p in percentiles:
        need = max(1, math.ceil(p * total))
        cum = 0
        for r in hist:
            nxt = cum + int(r["n"])
            if nxt >= need:
                targets.setdefault(int(r["bkt"]), []).append((p, need - cum))
                break
            cum = nxt

    wanted = sorted(targets)
    wanted_arr = pa.array(wanted, type=pa.int64())

    def pick_buckets(batch: pa.Table) -> pa.Table:
        cents = _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False))
        bkt = cents >> SHIFT
        keep = pc.is_in(pa.array(bkt, type=pa.int64()), value_set=wanted_arr)
        return pa.Table.from_pydict(
            {"cents": pa.array(cents, type=pa.int64())}
        ).filter(keep)

    member_rows = (
        ds.map_batches(pick_buckets, batch_format="pyarrow", zero_copy_batch=True)
        .take_all()
    )  # bounded by the few targeted buckets' widths
    by_bucket: dict = {}
    for r in member_rows:
        by_bucket.setdefault(int(r["cents"]) >> SHIFT, []).append(int(r["cents"]))
    out_p, out_v = [], []
    for bkt, plist in targets.items():
        vals = sorted(by_bucket[bkt])
        for p, resid in plist:
            out_p.append(p)
            out_v.append(vals[resid - 1])
    order = np.argsort(out_p)
    return pa.Table.from_pydict(
        {
            "p": pa.array(np.array(out_p)[order], type=pa.float64()),
            "price_cents": pa.array(
                np.array(out_v, dtype=np.int64)[order], type=pa.int64()
            ),
        }
    )


def value_outliers(sf_dir: str, k_sigma: int = 3):
    """Anomaly detection in EXACT integer arithmetic — purchases more
    than ``k_sigma`` standard deviations from their event type's mean,
    with no float mean or sigma anywhere: pass 1 reduces to per-type
    (n, Sx, Sxx) int64 partials; the driver converts the squared
    condition (x*n - Sx)^2 > k^2 * (n*Sxx - Sx^2) into two exact
    integer THRESHOLDS on x via math.isqrt (floor-exact, so the
    comparison is identical to the squared form the SQL oracle
    evaluates per row in HUGEINT); pass 2 flags rows against the
    broadcast thresholds with one vectorized compare per batch."""
    import math

    ds = _read(sf_dir, "events", ["event_type", "value"]).map_batches(
        lambda b: pa.Table.from_pydict(
            {
                "event_type": b["event_type"],
                "cents": _cents(b["value"].to_numpy(zero_copy_only=False)),
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )

    def square(batch: pa.Table) -> pa.Table:
        c = batch["cents"].to_numpy(zero_copy_only=False)
        return batch.append_column("cc", pa.array(c * c))

    stats = grouped_agg(
        ds,
        "event_type",
        {"n": (None, "count"), "sx": ("cents", "sum"), "sxx": ("cc", "sum")},
        rows=square,
    ).take_all()  # <= #event types rows by construction
    # exact thresholds: x is an outlier iff x*n - Sx > isqrt(K) or
    # Sx - x*n > isqrt(K), K = k^2 * (n*Sxx - Sx^2)  (Python bigints)
    TH = {}
    for r in stats:
        n, sx, sxx = int(r["n"]), int(r["sx"]), int(r["sxx"])
        K = k_sigma * k_sigma * (n * sxx - sx * sx)
        root = math.isqrt(K) if K > 0 else 0
        TH[r["event_type"]] = (n, sx, root)

    def flag(batch: pa.Table) -> pa.Table:
        et = np.asarray(batch["event_type"].to_pylist(), dtype=object)
        c = batch["cents"].to_numpy(zero_copy_only=False)
        types, inv = np.unique(et, return_inverse=True)
        # per-row int64 is exact here: |x|*n <= 5e4 cents * n, safe for
        # n up to ~1.8e14 rows per type (documented bound)
        n_vec = np.array([TH[t][0] for t in types], dtype=np.int64)[inv]
        sx_vec = np.array([TH[t][1] for t in types], dtype=np.int64)[inv]
        root_vec = np.array([TH[t][2] for t in types], dtype=np.int64)[inv]
        dev = c * n_vec - sx_vec
        is_out = (np.abs(dev) > root_vec).astype(np.int64)
        return batch.append_column("is_out", pa.array(is_out))

    return grouped_agg(
        ds,
        "event_type",
        {"n_events": (None, "count"), "n_outliers": ("is_out", "sum")},
        rows=flag,
    ).sort("event_type")


def signup_conversion_24h(sf_dir: str):
    """Activation analytics: of users whose FIRST signup exists, how
    many purchased within 24 hours of it — per-user temporal pair
    analysis: ONE shuffle on user_id, first-signup and first-qualifying-
    purchase found vectorized inside the group, a single summary row
    out. Output: (n_signup_users, n_converted_24h)."""
    from ray.data.aggregate import Sum

    US_DAY = 86_400_000_000

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"]).map_batches(
        lambda b: b.filter(
            pc.is_in(b["event_type"], value_set=pa.array(["signup", "purchase"]))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


    def per_bucket(group: pa.Table) -> pa.Table:
        # every user in the bucket at once: first-signup via a scatter
        # min, the 24h-qualifying-purchase flag via a scatter max over
        # the window test (r5 — was one Python group call per user)
        g = group.combine_chunks()
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            g["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view("int64")
        )
        users, inv = np.unique(uid, return_inverse=True)
        is_sign = pc.equal(g["event_type"], "signup").to_numpy(
            zero_copy_only=False
        )
        # sentinel far above any epoch but safe to add US_DAY to
        SENT = np.int64(2**62)
        first_sign = np.full(len(users), SENT, dtype=np.int64)
        np.minimum.at(first_sign, inv[is_sign], ts[is_sign])
        signed = first_sign < SENT
        is_purch = ~is_sign  # the scan kept only signup/purchase rows
        conv = np.zeros(len(users), dtype=np.int64)
        if is_purch.any():
            pi = inv[is_purch]
            pt = ts[is_purch]
            qualifies = (
                signed[pi]
                & (pt >= first_sign[pi])
                & (pt <= first_sign[pi] + US_DAY)
            ).astype(np.int64)
            np.maximum.at(conv, pi, qualifies)
        return pa.Table.from_pydict(
            {
                "signed": pa.array([int(signed.sum())], type=pa.int64()),
                "converted": pa.array([int(conv[signed].sum())], type=pa.int64()),
            }
        )

    agg = (
        co_partition({"events": (ds, None)}, "user_id", per_bucket)
        .aggregate(
            Sum("signed", alias_name="n_signup_users"),
            Sum("converted", alias_name="n_converted_24h"),
        )
    )
    return pa.Table.from_pydict(
        {
            "n_signup_users": pa.array(
                [int(agg["n_signup_users"] or 0)], type=pa.int64()
            ),
            "n_converted_24h": pa.array(
                [int(agg["n_converted_24h"] or 0)], type=pa.int64()
            ),
        }
    )


def weekly_revenue_wow(sf_dir: str):
    """Period-over-period: weekly order revenue with the previous
    week's value alongside (exact integer pair — the WoW delta derives
    without division). Weeks are Monday-start epoch-week indexes
    (== date_trunc('week')); the weekly aggregate is calendar-bounded,
    so the LAG closes on the driver."""
    ds = _read(sf_dir, "orders", ["o_orderdate", "o_totalprice"])

    def week_cents(batch: pa.Table) -> pa.Table:
        days = (
            batch["o_orderdate"].to_numpy(zero_copy_only=False)
            .astype("datetime64[D]").view("int64")
        )
        return pa.Table.from_pydict(
            {
                "week": (days - 4 + 7 * 10_000) // 7 - 10_000,  # Monday-start
                "cents": _cents(batch["o_totalprice"].to_numpy(zero_copy_only=False)),
            }
        )

    weekly = grouped_agg(
        ds, "week", {"cents": ("cents", "sum")}, rows=week_cents
    ).take_all()  # <= calendar weeks by construction
    weekly.sort(key=lambda r: r["week"])
    weeks = [int(r["week"]) for r in weekly]
    cents = [int(r["cents"]) for r in weekly]
    prev = [0] + cents[:-1]
    # week index back to the Monday date (epoch us)
    starts = (np.array(weeks, dtype=np.int64) * 7 + 4).view("datetime64[D]")
    return pa.Table.from_pydict(
        {
            "week_start": pa.array(
                starts.astype("datetime64[us]"), type=pa.timestamp("us")
            ),
            "revenue_cents": pa.array(cents, type=pa.int64()),
            "prev_week_cents": pa.array(prev, type=pa.int64()),
        }
    )


def transition_majority_accuracy(sf_dir: str):
    """Baseline model evaluation: the accuracy of always predicting the
    MAJORITY next event type given the previous one — exact integer
    micro from the Markov transition table (types^2-bounded, closed on
    the driver): accuracy = sum_prev max_next / sum_all. Ties break to
    the lexicographically smallest next type (deterministic, matching
    the SQL window order)."""
    trans = event_transitions(sf_dir).take_all()
    best: dict = {}
    total = 0
    for r in trans:
        n = int(r["n_transitions"])
        total += n
        cur = best.get(r["prev_type"])
        if cur is None or n > cur[0] or (n == cur[0] and r["next_type"] < cur[1]):
            best[r["prev_type"]] = (n, r["next_type"])
    correct = sum(n for n, _ in best.values())
    return pa.Table.from_pydict(
        {
            "n_transitions": pa.array([total], type=pa.int64()),
            "n_correct_majority": pa.array([correct], type=pa.int64()),
            "accuracy_micro": pa.array(
                [correct * 1_000_000 // total if total else 0], type=pa.int64()
            ),
        }
    )


def time_to_convert_percentiles(sf_dir: str, percentiles=(0.5, 0.9)):
    """Conversion-latency distribution: minutes from each user's FIRST
    view to their first purchase AT OR AFTER it — exact
    PERCENTILE_DISC over per-user deltas. ONE shuffle on user computes
    the delta vectorized; the (delta-minutes, count) histogram is
    bounded by the event-time span in minutes, so the driver closes the
    discrete percentiles exactly (the doc_length_percentiles idiom on a
    derived metric)."""
    import math

    from ray.data.aggregate import Sum

    US_MIN = 60_000_000

    ds = _read(sf_dir, "events", ["user_id", "ts", "event_type"]).map_batches(
        lambda b: b.filter(
            pc.is_in(b["event_type"], value_set=pa.array(["view", "purchase"]))
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


    def delta_bucket(group: pa.Table) -> pa.Table:
        # every user at once: first view and first at-or-after purchase
        # via two scatter mins, per-bucket (mins, n) histogram partial
        # (r5 — was one Python group call per user)
        g = group.combine_chunks()
        uid = g["user_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        ts = (
            g["ts"].to_numpy(zero_copy_only=False)
            .astype("datetime64[us]").view("int64")
        )
        users, inv = np.unique(uid, return_inverse=True)
        is_view = pc.equal(g["event_type"], "view").to_numpy(
            zero_copy_only=False
        )
        SENT = np.int64(2**62)
        first_view = np.full(len(users), SENT, dtype=np.int64)
        np.minimum.at(first_view, inv[is_view], ts[is_view])
        is_purch = ~is_view  # the scan kept only view/purchase rows
        first_purch = np.full(len(users), SENT, dtype=np.int64)
        pi, pt = inv[is_purch], ts[is_purch]
        ok = pt >= first_view[pi]
        np.minimum.at(first_purch, pi[ok], pt[ok])
        both = (first_view < SENT) & (first_purch < SENT)
        deltas = (first_purch[both] - first_view[both]) // US_MIN
        mins, n = np.unique(deltas, return_counts=True)
        return pa.Table.from_pydict(
            {
                "mins": pa.array(mins, type=pa.int64()),
                "n": pa.array(n.astype(np.int64), type=pa.int64()),
            }
        )

    hist = (
        co_partition({"events": (ds, None)}, "user_id", delta_bucket)
        .groupby("mins")
        .aggregate(Sum("n", alias_name="cnt"))
        .take_all()
    )  # <= event-span minutes rows by construction
    hist.sort(key=lambda r: r["mins"])
    total = sum(int(r["cnt"]) for r in hist)
    out_p, out_v = [], []
    for p in percentiles:
        need = max(1, math.ceil(p * total))
        cum, val = 0, int(hist[-1]["mins"]) if hist else 0
        for r in hist:
            cum += int(r["cnt"])
            if cum >= need:
                val = int(r["mins"])
                break
        out_p.append(p)
        out_v.append(val)
    return pa.Table.from_pydict(
        {
            "p": pa.array(out_p, type=pa.float64()),
            "minutes": pa.array(out_v, type=pa.int64()),
            "n_converting_users": pa.array([total] * len(out_p), type=pa.int64()),
        }
    )
