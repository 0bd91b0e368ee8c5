"""Bucketed hash join vs DuckDB; continuation-row splitting round trip."""

import duckdb
import pytest

SF = "/root/testdata/sf0.001"


def test_bucketed_join_matches_duckdb(ray_session):
    from document_parser_private_ray.pipelines.joins import order_lineitem_revenue

    got = order_lineitem_revenue(SF, k=10).to_pandas()
    exp = duckdb.sql(
        f"""SELECT o_orderkey,
                   SUM(l_extendedprice * (1 - l_discount)) AS revenue,
                   COUNT(*) AS n_lines
            FROM read_parquet('{SF}/orders.parquet') o
            JOIN read_parquet('{SF}/lineitem.parquet') l ON o_orderkey = l_orderkey
            GROUP BY o_orderkey
            ORDER BY revenue DESC, o_orderkey LIMIT 10"""
    ).df()
    assert got["o_orderkey"].tolist() == exp["o_orderkey"].tolist()
    assert got["n_lines"].tolist() == exp["n_lines"].tolist()
    assert got["revenue"].tolist() == pytest.approx(exp["revenue"].tolist(), rel=1e-9)


def test_bucketed_join_generic(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.joins import bucketed_join

    left = rd.from_items([{"k": i, "a": f"L{i}"} for i in range(20)])
    right = rd.from_items(
        [{"rk": i % 10, "b": f"R{j}-{i % 10}"} for j, i in enumerate(range(30))]
    )
    out = bucketed_join(left, right, "k", "rk").to_pandas()
    # inner join: keys 0..9 each match 3 right rows -> 30 rows
    assert len(out) == 30
    assert set(out["k"]) == set(range(10))
    assert set(out.columns) == {"k", "a", "rk", "b"}


def test_asof_join_matches_duckdb(ray_session):
    from document_parser_private_ray.pipelines.relational import purchases_asof_views

    got = purchases_asof_views(SF).to_pandas()
    exp = duckdb.sql(
        f"""WITH e AS (SELECT * FROM read_parquet('{SF}/events.parquet')),
            p AS (SELECT user_id, ts, value FROM e WHERE event_type='purchase'),
            v AS (SELECT user_id, ts AS view_ts, value AS view_value FROM e
                  WHERE event_type='view')
            SELECT p.user_id, p.ts, v.view_ts, p.value AS purchase_value,
                   v.view_value
            FROM p ASOF JOIN v ON p.user_id = v.user_id AND p.ts >= v.view_ts
            ORDER BY p.user_id, p.ts"""
    ).df()
    got = got.sort_values(["user_id", "ts"]).reset_index(drop=True)
    assert len(got) == len(exp)
    assert got["user_id"].tolist() == exp["user_id"].tolist()
    assert got["view_ts"].tolist() == exp["view_ts"].tolist()


def test_distinct_values(ray_session):
    from document_parser_private_ray.pipelines.joins import distinct_values

    got = distinct_values(SF, "customer", "c_mktsegment").to_pydict()["c_mktsegment"]
    exp = duckdb.sql(
        f"SELECT DISTINCT c_mktsegment FROM read_parquet('{SF}/customer.parquet') ORDER BY 1"
    ).df()["c_mktsegment"].tolist()
    assert got == exp


def test_wide_row_split_reassemble_roundtrip(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.corpus import generate_batch
    from document_parser_private_ray.stages.parse import (
        reassemble_continuations,
        split_oversize_rows,
    )

    # doc indices biased to include huge docs: scan for one with >300 spans
    from document_parser_private_ray.sources.corpus import generate_document

    idx = []
    for i in range(400):
        if len(generate_document(i, 42)["spans"]) > 300:
            idx.append(i)
        if len(idx) >= 2:
            break
    assert idx, "corpus should contain huge docs"
    ids = idx + [0, 1, 2]

    table = generate_batch(ids, 42)
    direct = {
        r["doc_id"]: r["out_spans"]
        for r in parse_resumes(rd.from_arrow(table)).take_all()
    }
    split_ds = rd.from_arrow(table).map_batches(
        split_oversize_rows(max_spans=100), batch_format="pyarrow"
    )
    assert split_ds.count() > len(ids)  # actually split something
    rejoined = split_ds.groupby("doc_id").map_groups(
        reassemble_continuations, batch_format="pyarrow"
    )
    via_split = {
        r["doc_id"]: r["out_spans"]
        for r in parse_resumes(rejoined).take_all()
    }
    assert direct == via_split


def test_bucketed_filter_join_semi_anti(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.joins import bucketed_filter_join

    left = rd.from_items([{"k": i, "a": f"L{i}"} for i in range(20)])
    # right keys: evens 0..18, with duplicates, plus keys absent from left
    right = rd.from_items(
        [{"rk": k} for k in [0, 2, 2, 4, 6, 8, 10, 12, 14, 16, 18, 99, 100]]
    )
    semi = bucketed_filter_join(left, right, "k", "rk", mode="semi")
    anti = bucketed_filter_join(left, right, "k", "rk", mode="anti")
    semi_df = semi.to_pandas()
    anti_df = anti.to_pandas()
    assert sorted(semi_df["k"]) == [i for i in range(20) if i % 2 == 0]
    assert sorted(anti_df["k"]) == [i for i in range(20) if i % 2 == 1]
    # left schema preserved, no dup blowup from repeated right keys
    assert set(semi_df.columns) == {"k", "a"} == set(anti_df.columns)
    with pytest.raises(ValueError):
        bucketed_filter_join(left, right, "k", "rk", mode="outer")


def test_bucketed_join_left_outer(ray_session):
    import ray.data as rd

    from document_parser_private_ray.pipelines.joins import bucketed_join

    left = rd.from_items([{"k": i, "a": f"L{i}"} for i in range(8)])
    right = rd.from_items([{"rk": k, "b": f"R{k}"} for k in [0, 2, 2, 4, 99]])
    out = bucketed_join(left, right, "k", "rk", join_type="left outer").to_pandas()
    # matched: k=0 (1 row), k=2 (2 rows), k=4 (1 row); unmatched: 1,3,5,6,7
    assert len(out) == 9
    unmatched = out[out["b"].isna()]
    assert sorted(unmatched["k"]) == [1, 3, 5, 6, 7]
    assert unmatched["rk"].isna().all()
    matched = out[out["b"].notna()]
    assert (matched["k"] == matched["rk"]).all()
    assert sorted(matched["k"]) == [0, 2, 2, 4]
    # full outer is supported since snapshot_diff; right-unmatched keys
    # surface with null left columns
    full = bucketed_join(left, right, "k", "rk", join_type="full outer").to_pandas()
    assert len(full) == 10  # the 9 left-outer rows + right-only rk=99
    right_only = full[full["a"].isna()]
    assert sorted(right_only["rk"]) == [99]
    with pytest.raises(ValueError):
        bucketed_join(left, right, "k", "rk", join_type="right outer")


def _table(ds):
    import pyarrow as pa

    return pa.concat_tables(ds.iter_batches(batch_format="pyarrow", batch_size=None))


def _sorted_rows(table, cols):
    return sorted(zip(*(table[c].to_pylist() for c in cols)))


@pytest.mark.parametrize("width", [1, 3, 16])
def test_co_partition_two_side_matches_single_side(ray_session, monkeypatch, width):
    """The same int-key inner join through a two-side call and through
    a single-side call (caller-tagged rows) agree with pandas, at
    several exchange widths (set through the rule on the driver)."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from document_parser_private_ray import stages
    from document_parser_private_ray.pipelines.exchange import co_partition

    monkeypatch.setattr(stages, "width", lambda: width)

    lrows = [{"k": i % 7, "a": i} for i in range(40)]
    rrows = [{"k": i % 11, "b": 100 + i} for i in range(25)]
    exp = sorted(
        pd.DataFrame(lrows).merge(pd.DataFrame(rrows), on="k")[["k", "a", "b"]]
        .itertuples(index=False, name=None)
    )

    two = co_partition(
        {
            "L": (rd.from_items(lrows), pa.schema([("k", pa.int64()), ("a", pa.int64())])),
            "R": (rd.from_items(rrows), pa.schema([("k", pa.int64()), ("b", pa.int64())])),
        },
        "k",
        lambda t: t["L"].join(t["R"], keys="k").select(["k", "a", "b"]),
    )
    both = rd.from_items(
        [{"k": r["k"], "v": r["a"], "side": "L"} for r in lrows]
        + [{"k": r["k"], "v": r["b"], "side": "R"} for r in rrows]
    )

    def split_join(group):
        is_l = pc.equal(group["side"], "L")
        left = group.filter(is_l).select(["k", "v"]).rename_columns(["k", "a"])
        right = group.filter(pc.invert(is_l)).select(["k", "v"]).rename_columns(["k", "b"])
        return left.join(right, keys="k").select(["k", "a", "b"])

    one = co_partition({"rows": (both, None)}, "k", split_join)
    cols = ["k", "a", "b"]
    assert _sorted_rows(_table(two), cols) == exp
    assert _sorted_rows(_table(one), cols) == exp


def test_co_partition_kernel_sees_own_side_columns(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from document_parser_private_ray.pipelines.exchange import co_partition

    left = rd.from_items([{"id": i, "x": float(i), "extra": "drop"} for i in range(10)])
    right = rd.from_items([{"rid": i, "y": f"y{i}"} for i in range(0, 10, 2)])
    schemas = {
        "L": pa.schema([("id", pa.int64()), ("x", pa.float64())]),
        "R": pa.schema([("rid", pa.int64()), ("y", pa.string())]),
    }

    def columns_seen(t):
        return pa.table(
            {
                "side": list(t),
                "cols": [",".join(tbl.column_names) for tbl in t.values()],
                "rows": [tbl.num_rows for tbl in t.values()],
            }
        )

    out = _table(co_partition(
        {"L": (left, schemas["L"]), "R": (right, schemas["R"])},
        {"L": "id", "R": "rid"},
        columns_seen,
    ))
    seen = {(s, c) for s, c in zip(out["side"].to_pylist(), out["cols"].to_pylist())}
    assert seen == {("L", "id,x"), ("R", "rid,y")}
    rows = {}
    for s, n in zip(out["side"].to_pylist(), out["rows"].to_pylist()):
        rows[s] = rows.get(s, 0) + n
    assert rows == {"L": 10, "R": 5}


def test_co_partition_zero_row_block_side(ray_session):
    """A side whose batches filter down to zero rows still unions: the
    ``__side`` tag is typed ``string`` even when empty."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from document_parser_private_ray.pipelines.exchange import _const_str, co_partition

    assert _const_str("C", 0).type == pa.string()
    assert _const_str("C", 3).to_pylist() == ["C"] * 3

    blocks = [
        pa.table({"c": pa.array([1, 2, 3], pa.int64()), "seg": ["A", "B", "A"]}),
        pa.table({"c": pa.array([4, 5], pa.int64()), "seg": ["B", "B"]}),
        pa.table({"c": pa.array([], pa.int64()), "seg": pa.array([], pa.string())}),
    ]
    cust = rd.from_arrow(blocks).map_batches(
        lambda b: b.filter(pc.equal(b["seg"], "A")).select(["c"]),
        batch_format="pyarrow",
    )
    orders = rd.from_items([{"oc": i % 6, "v": i} for i in range(12)])
    out = _table(co_partition(
        {
            "O": (orders, pa.schema([("oc", pa.int64()), ("v", pa.int64())])),
            "C": (cust, pa.schema([("c", pa.int64())])),
        },
        {"O": "oc", "C": "c"},
        lambda t: t["O"].filter(pc.is_in(t["O"]["oc"], value_set=t["C"]["c"])),
    ))
    assert sorted(out["v"].to_pylist()) == [1, 3, 7, 9]


@pytest.mark.parametrize("derive", [False, True])
def test_grouped_agg_matches_one_arrow_group_by(ray_session, derive):
    """Partial-per-batch then merge equals one ``pa.Table.group_by`` over
    the whole table, across several blocks (one empty), null values,
    and both the ``rows=`` and the ``rows=None`` path."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from document_parser_private_ray.pipelines.exchange import grouped_agg

    blocks = [
        pa.table({"k": ["a", "b", "a", "c"], "g": [1, 1, 1, 2], "v": [5, None, 7, -1]}),
        pa.table({"k": pa.array([], pa.string()), "g": pa.array([], pa.int64()),
                  "v": pa.array([], pa.int64())}),
        pa.table({"k": ["b", "a", "c", "c", "b"], "g": [1, 1, 2, 3, 1], "v": [2, 3, None, 4, 9]}),
    ]

    def doubled(t: pa.Table) -> pa.Table:
        return t.append_column("x", pc.multiply(t["v"], 2))

    full = pa.concat_tables(blocks)
    if derive:
        full = doubled(full)
    col = "x" if derive else "v"
    aggs = {
        "s": (col, "sum"), "n": (col, "count"), "rows": (None, "count"),
        "lo": (col, "min"), "hi": (col, "max"),
    }
    out = _table(grouped_agg(
        rd.from_arrow(blocks), ["k", "g"], aggs, rows=doubled if derive else None,
        batch_size=2 if derive else None,
    ))
    exp = full.group_by(["k", "g"]).aggregate(
        [(col, "sum"), (col, "count"), ([], "count_all"), (col, "min"), (col, "max")]
    ).rename_columns(["k", "g", *aggs])
    assert out.column_names == ["k", "g", *aggs]
    cols = out.column_names
    assert _sorted_rows(out, cols) == _sorted_rows(exp, cols)


SORTED_RUNS_CASES = {
    "int": ("k", ["id"], [5, 3, 5, 9, 3, 3, 1, 5]),
    "non_ascii_str": ("k", ["id"], ["é", "b", "日本", "é", "b", "a", "日本", "z"]),
    "float_desc": ("g", [("x", "descending"), "id"], [2, 1, 2, 2, 1, 7, 1, 2]),
}


@pytest.mark.parametrize("width", [1, 7])
@pytest.mark.parametrize("case", sorted(SORTED_RUNS_CASES))
def test_sorted_runs_matches_one_table_sort(ray_session, monkeypatch, case, width):
    """Every kernel call sees whole key runs, each equal to its run in one
    ``pc.sort_indices`` of the concatenated input, with ``pos`` counting
    0, 1, ... along the run — across several blocks, one of them empty,
    at several exchange widths (set through the rule on the driver)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from document_parser_private_ray import stages
    from document_parser_private_ray.pipelines.exchange import sorted_runs

    monkeypatch.setattr(stages, "width", lambda: width)

    key, order_by, keys = SORTED_RUNS_CASES[case]
    x = [0.5, 2.0, 0.5, -1.0, 2.0, 3.25, 2.0, 0.5]
    full = pa.table({key: keys, "x": x, "id": list(range(len(keys)))})
    blocks = [full.slice(0, 3), full.slice(0, 0), full.slice(3)]

    def kernel(t: pa.Table, pos: np.ndarray) -> pa.Table:
        assert pos.dtype == np.int64 and len(pos) == t.num_rows
        # tag each row with its call and its place in the call's order
        n = t.num_rows
        return pa.table({
            "id": t["id"], "pos": pos, "seq": np.arange(n),
            "call": np.full(n, t["id"][0].as_py() if n else -1),
        })

    out = _table(sorted_runs(rd.from_arrow(blocks), key, order_by, kernel))
    sort_keys = [(key, "ascending")] + [
        (c, "ascending") if isinstance(c, str) else c for c in order_by
    ]
    exp = full.take(pc.sort_indices(full, sort_keys=sort_keys))
    exp_ids = exp["id"].to_pylist()
    exp_keys = exp[key].to_pylist()
    exp_pos, prev, run = {}, object(), 0
    for k, i in zip(exp_keys, exp_ids):
        run = run + 1 if k == prev else 0
        exp_pos[i], prev = run, k
    calls: dict = {}
    for c, q, i, p in zip(*(out[f].to_pylist() for f in ("call", "seq", "id", "pos"))):
        calls.setdefault(c, []).append((q, i, p))
    assert sorted(out["id"].to_pylist()) == sorted(exp_ids)
    for rows in calls.values():
        rows.sort()
        seen = {i for _, i, _ in rows}
        # the call's rows in the order of the one whole-table sort ...
        assert [i for _, i, _ in rows] == [i for i in exp_ids if i in seen]
        # ... holding whole key runs, ranked from 0 along each run
        assert [p for _, _, p in rows] == [exp_pos[i] for _, i, _ in rows]


def test_string_buckets_stable_across_processes():
    """String keys bucket by crc32, not Python's salted ``hash``: two
    interpreters with different hash seeds agree."""
    import json
    import os
    import subprocess
    import sys

    code = (
        "import json, pyarrow as pa\n"
        "from document_parser_private_ray.pipelines.exchange import bucket_ids\n"
        "keys = pa.chunked_array([['a', 'b', None, 'héllo'], ['a', 'zz']])\n"
        "print(json.dumps(bucket_ids(keys, 16).to_pylist()))\n"
    )
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=root)
        res = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        )
        outs.append(json.loads(res.stdout))
    assert outs[0] == outs[1]
    assert outs[0][0] == outs[0][4]  # equal keys, equal buckets
    assert all(0 <= b < 16 for b in outs[0])


def test_run_starts_empty_and_multi_key():
    import numpy as np

    from document_parser_private_ray.pipelines.exchange import run_starts

    assert run_starts(np.array([], dtype=np.int64)).tolist() == []
    assert run_starts(np.array([3, 3, 4, 4, 4])).tolist() == [True, False, True, False, False]
    assert run_starts(np.array([1, 1, 1]), np.array([0, 1, 1])).tolist() == [True, True, False]


def test_funnel_counts_hand_case(ray_session, tmp_path):
    """Strict ordering: a click BEFORE the first view must not count."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import funnel_counts

    b = dt.datetime(2024, 1, 1)
    s = dt.timedelta(seconds=1)
    rows = [
        # user 1: full ordered funnel
        (1, "view", b), (1, "click", b + s), (1, "purchase", b + 2 * s),
        # user 2: click precedes view -> depth 1 only
        (2, "click", b), (2, "view", b + s),
        # user 3: view then purchase but no click -> depth 1
        (3, "view", b), (3, "purchase", b + s),
        # user 4: no view at all -> depth 0
        (4, "click", b), (4, "purchase", b + s),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[2] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[1] for r in rows]),
            "value": pa.array([0.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    tmp_path.mkdir(exist_ok=True)
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = funnel_counts(str(tmp_path)).to_pandas().set_index("stage")["n_users"]
    assert got["1_view"] == 3
    assert got["2_click"] == 1
    assert got["3_purchase"] == 1


def test_retention_cohorts_hand_case(ray_session, tmp_path):
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import retention_cohorts

    # 2024-01-01 is a Monday
    rows = [
        (1, dt.datetime(2024, 1, 2)),   # cohort wk 2024-01-01
        (1, dt.datetime(2024, 1, 9)),   # active wk 2024-01-08
        (2, dt.datetime(2024, 1, 7)),   # Sunday -> still wk 2024-01-01
        (3, dt.datetime(2024, 1, 8)),   # cohort wk 2024-01-08
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array(["view"] * len(rows)),
            "value": pa.array([0.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    tmp_path.mkdir(exist_ok=True)
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = retention_cohorts(str(tmp_path)).to_pandas()
    rec = {
        (r["cohort_week"], r["active_week"]): r["n_users"] for _, r in got.iterrows()
    }
    assert rec == {
        ("2024-01-01", "2024-01-01"): 2,
        ("2024-01-01", "2024-01-08"): 1,
        ("2024-01-08", "2024-01-08"): 1,
    }


def test_supplier_pagerank_vs_naive(ray_session, tmp_path):
    """Integer PageRank replayed naively in Python ints on a small
    hand graph — including floor-division truncation."""
    from collections import defaultdict

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.pagerank import supplier_pagerank

    # orders: order k placed by customer c; lineitem: order k uses supplier s
    orders = [(1, 10), (2, 10), (3, 11), (4, 12)]
    lines = [(1, 100), (1, 101), (2, 100), (3, 100), (4, 102), (4, 101)]
    tmp_path.mkdir(exist_ok=True)
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([o for o, _ in orders], type=pa.int64()),
                "o_custkey": pa.array([c for _, c in orders], type=pa.int64()),
            }
        ),
        tmp_path / "orders.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([o for o, _ in lines], type=pa.int64()),
                "l_suppkey": pa.array([s for _, s in lines], type=pa.int64()),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = supplier_pagerank(str(tmp_path), n_iters=3, k=10).to_pandas()

    # naive replay
    pairs = set()
    o2c = dict(orders)
    for o, s in lines:
        pairs.add((o2c[o], s))
    edges = defaultdict(list)
    for c, s in pairs:
        edges[c * 2].append(s * 2 + 1)
        edges[s * 2 + 1].append(c * 2)
    score = {n: 1_000_000 for n in edges}
    for _ in range(3):
        nxt = defaultdict(int)
        for u, nbrs in edges.items():
            c = score[u] * 85 // (100 * len(nbrs))
            for v in nbrs:
                nxt[v] += c
        score = {n: 150_000 + v for n, v in nxt.items()}
    exp = sorted(
        ((n - 1) // 2, sc) for n, sc in score.items() if n % 2 == 1
    )
    exp.sort(key=lambda t: (-t[1], t[0]))
    assert list(zip(got["s_suppkey"], got["score_micro"])) == exp


def test_session_purchase_counts_hand_case(ray_session, tmp_path):
    """Interval containment: purchases land in the right session; a
    second session of the same user gets its own window."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import (
        session_purchase_counts,
    )

    b = dt.datetime(2024, 1, 1)
    m = dt.timedelta(minutes=1)
    rows = [
        # user 1, session A: view, purchase, purchase
        (1, b, "view"), (1, b + 2 * m, "purchase"), (1, b + 4 * m, "purchase"),
        # gap > 30 min -> session B: view only
        (1, b + 60 * m, "view"),
        # user 2: one session, one purchase
        (2, b, "purchase"),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[2] for r in rows]),
            "value": pa.array([1.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    tmp_path.mkdir(exist_ok=True)
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = session_purchase_counts(str(tmp_path)).to_pandas()
    assert len(got) == 3
    u1 = got[got["user_id"] == 1].sort_values("session_start")
    assert u1["n_events"].tolist() == [3, 1]
    assert u1["n_purchases"].tolist() == [2, 0]
    u2 = got[got["user_id"] == 2]
    assert u2["n_purchases"].tolist() == [1]


def test_customer_balance_quartiles_ntile_sizes(ray_session, tmp_path):
    """NTILE semantics: n=6, k=4 -> bucket sizes 2,2,1,1 ordered by
    (acctbal, custkey); exact integer cents."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import (
        customer_balance_quartiles,
    )

    bals = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
    tbl = pa.table(
        {
            "c_custkey": pa.array(range(1, 7), type=pa.int64()),
            "c_name": pa.array([f"c{i}" for i in range(6)]),
            "c_nationkey": pa.array([7] * 6, type=pa.int32()),
            "c_acctbal": pa.array(bals),
            "c_mktsegment": pa.array(["BUILDING"] * 6),
        }
    )
    pq.write_table(tbl, tmp_path / "customer.parquet")
    got = customer_balance_quartiles(str(tmp_path)).to_pandas()
    assert got["n_customers"].tolist() == [2, 2, 1, 1]
    assert got["quartile"].tolist() == [1, 2, 3, 4]
    assert got["min_bal_cents"].tolist() == [1000, 3000, 5000, 6000]
    assert got["max_bal_cents"].tolist() == [2000, 4000, 5000, 6000]
    assert got["sum_bal_cents"].tolist() == [3000, 7000, 5000, 6000]


def test_user_cumulative_spend_hand_case(ray_session, tmp_path):
    """Running sum restarts per user and orders by (ts, event_id)."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import (
        user_cumulative_spend,
    )

    b = dt.datetime(2024, 1, 1)
    s = dt.timedelta(seconds=1)
    rows = [
        (1, b, "purchase", 1.0),
        (1, b + s, "view", 99.0),       # not a purchase: excluded
        (1, b + 2 * s, "purchase", 2.5),
        (2, b, "purchase", 10.0),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[2] for r in rows]),
            "value": pa.array([r[3] for r in rows]),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = user_cumulative_spend(str(tmp_path)).to_pandas()
    assert got["spend_cents"].tolist() == [100, 250, 1000]
    assert got["cum_spend_cents"].tolist() == [100, 350, 1000]
    assert got["user_id"].tolist() == [1, 1, 2]


def test_profile_columns_with_nulls_and_negatives(ray_session, tmp_path):
    """Null counts are exact; numeric min/max merge arithmetically (not
    lexically: 9 < 10), negatives and all-null columns handled."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.profile import profile_columns

    tbl = pa.table(
        {
            "a": pa.array([9, 10, 2, None], type=pa.int64()),
            "b": pa.array([-1.25, 3.5, None, 0.0]),
            "c": pa.array([None, None, None, None], type=pa.string()),
        }
    )
    pq.write_table(tbl, tmp_path / "t.parquet")
    got = (
        profile_columns(str(tmp_path), table="t", columns=("a", "b", "c"))
        .to_pandas()
        .set_index("column")
    )
    assert got.loc["a", "n_null"] == 1
    assert got.loc["a", "min_repr"] == "2"
    assert got.loc["a", "max_repr"] == "10"
    assert got.loc["b", "min_repr"] == "-125"  # cents, negative
    assert got.loc["b", "max_repr"] == "350"
    assert got.loc["c", "n_null"] == 4
    assert got.loc["c", "min_repr"] == ""
    assert got.loc["c", "max_repr"] == ""


def test_events_hourly_users_dedups_within_hour(ray_session, tmp_path):
    """A user active twice in one hour counts once; hours are disjoint."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import (
        events_hourly_users,
    )

    b = dt.datetime(2024, 1, 1, 10, 0)
    rows = [
        (1, b), (1, b + dt.timedelta(minutes=5)),      # same hour, same user
        (2, b + dt.timedelta(minutes=30)),
        (1, b + dt.timedelta(hours=1)),
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array(["view"] * len(rows)),
            "value": pa.array([1.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = events_hourly_users(str(tmp_path)).to_pandas()
    assert got["n_users"].tolist() == [2, 1]


def test_user_event_paths_order_and_count(ray_session, tmp_path):
    """Paths are chronological per user; identical journeys count once
    per user; ranking is (count desc, path)."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import user_event_paths

    b = dt.datetime(2024, 1, 1)
    s = dt.timedelta(seconds=1)
    rows = [
        (1, b, "view"), (1, b + s, "click"), (1, b + 2 * s, "purchase"),
        (2, b, "view"), (2, b + s, "click"), (2, b + 2 * s, "purchase"),
        (3, b + s, "click"), (3, b, "view"),  # out-of-order input rows
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[2] for r in rows]),
            "value": pa.array([1.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = user_event_paths(str(tmp_path)).to_pandas()
    assert got["path"].tolist() == ["view>click>purchase", "view>click"]
    assert got["n_users"].tolist() == [2, 1]


def test_event_value_trends_vs_naive(ray_session, tmp_path):
    """Exact integer slope equals a naive single-process least squares
    with truncating division; a perfectly linear series is recovered."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import event_value_trends

    b = dt.datetime(2024, 1, 1)
    h = dt.timedelta(hours=1)
    # 'up': value = 2.00 + 0.50/hour (slope exactly 50 cents/hour)
    rows = [("up", b + i * h, 2.0 + 0.5 * i) for i in range(10)]
    # 'flat': constant
    rows += [("flat", b + i * h, 3.0) for i in range(5)]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([1] * len(rows), type=pa.int64()),
            "event_type": pa.array([r[0] for r in rows]),
            "value": pa.array([r[2] for r in rows]),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = event_value_trends(str(tmp_path)).to_pandas().set_index("event_type")
    assert got.loc["up", "slope_micro"] == 50 * 1_000_000
    assert got.loc["flat", "slope_micro"] == 0
    assert got.loc["flat", "mean_cents_micro"] == 300 * 1_000_000


def test_event_transitions_hand_case(ray_session, tmp_path):
    """Transitions are per-user chronological LAG pairs; no cross-user
    pairs; singleton users contribute nothing."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import event_transitions

    b = dt.datetime(2024, 1, 1)
    s = dt.timedelta(seconds=1)
    rows = [
        (1, b, "view"), (1, b + s, "click"), (1, b + 2 * s, "view"),
        (2, b, "view"), (2, b + s, "click"),
        (3, b, "purchase"),  # singleton: no transition
    ]
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(rows)), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array([r[2] for r in rows]),
            "value": pa.array([1.0] * len(rows)),
            "props": pa.array(["{}"] * len(rows)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = event_transitions(str(tmp_path)).to_pandas()
    trans = {
        (r.prev_type, r.next_type): r.n_transitions for r in got.itertuples()
    }
    assert trans == {("view", "click"): 2, ("click", "view"): 1}


def test_props_field_stats_null_safe(ray_session, tmp_path):
    """Blobs missing the field (or malformed) drop; negatives and
    whitespace variants parse; stats are exact."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import props_field_stats

    props = ['{"k": 5}', '{"k":-3}', '{ "k" : 7 }', '{"other": 1}', "not json"]
    tbl = pa.table(
        {
            "event_id": pa.array(range(5), type=pa.int64()),
            "ts": pa.array([0] * 5, type=pa.timestamp("us")),
            "user_id": pa.array([1] * 5, type=pa.int64()),
            "event_type": pa.array(["view"] * 5),
            "value": pa.array([1.0] * 5),
            "props": pa.array(props),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = props_field_stats(str(tmp_path)).to_pandas()
    assert got["n"].tolist() == [3]
    assert got["sum_v"].tolist() == [9]
    assert got["min_v"].tolist() == [-3]
    assert got["max_v"].tolist() == [7]


def test_priority_segment_chi2_naive_replay(ray_session, tmp_path):
    """Integer chi-square equals an independent naive replay, including
    zero cells of the full grid."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import (
        priority_segment_chi2,
    )

    # customers: two segments; orders concentrated so one cell is zero
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2], type=pa.int64()),
                "c_name": pa.array(["a", "b"]),
                "c_nationkey": pa.array([0, 0], type=pa.int32()),
                "c_acctbal": pa.array([0.0, 0.0]),
                "c_mktsegment": pa.array(["X", "Y"]),
            }
        ),
        tmp_path / "customer.parquet",
    )
    import datetime as dt

    prios = ["1-URGENT"] * 3 + ["2-HIGH"] * 2
    custs = [1, 1, 2, 1, 1]  # (2-HIGH, Y) is the zero cell
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array(range(5), type=pa.int64()),
                "o_custkey": pa.array(custs, type=pa.int64()),
                "o_orderstatus": pa.array(["F"] * 5),
                "o_totalprice": pa.array([1.0] * 5),
                "o_orderdate": pa.array(
                    [dt.datetime(2024, 1, 1)] * 5, type=pa.timestamp("us")
                ),
                "o_orderpriority": pa.array(prios),
            }
        ),
        tmp_path / "orders.parquet",
    )
    got = priority_segment_chi2(str(tmp_path)).to_pandas()

    counts = {("1-URGENT", "X"): 2, ("1-URGENT", "Y"): 1,
              ("2-HIGH", "X"): 2, ("2-HIGH", "Y"): 0}
    rt = {"1-URGENT": 3, "2-HIGH": 2}
    ct = {"X": 4, "Y": 1}
    n = 5
    exp = sum(
        ((counts[(p, s)] * n - rt[p] * ct[s]) ** 2 * 10**6)
        // (rt[p] * ct[s] * n)
        for p in rt
        for s in ct
    )
    assert got["n_cells"].tolist() == [4]
    assert got["dof"].tolist() == [1]
    assert got["chi2_micro"].tolist() == [exp]


def test_daily_revenue_ma7_gap_aware(ray_session, tmp_path):
    """Days outside the trailing 6-day range fall out of the window;
    calendar gaps contribute nothing."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import daily_revenue_ma7

    days = [0, 1, 8]  # day 8 is > 6 days after day 1: window restarts
    base = dt.datetime(2024, 1, 1)
    tbl = pa.table(
        {
            "o_orderkey": pa.array(range(3), type=pa.int64()),
            "o_custkey": pa.array([1] * 3, type=pa.int64()),
            "o_orderstatus": pa.array(["F"] * 3),
            "o_totalprice": pa.array([10.0, 20.0, 40.0]),
            "o_orderdate": pa.array(
                [base + dt.timedelta(days=d) for d in days],
                type=pa.timestamp("us"),
            ),
            "o_orderpriority": pa.array(["1-URGENT"] * 3),
        }
    )
    pq.write_table(tbl, tmp_path / "orders.parquet")
    got = daily_revenue_ma7(str(tmp_path)).to_pandas()
    assert got["revenue_cents"].tolist() == [1000, 2000, 4000]
    assert got["trailing7_cents"].tolist() == [1000, 3000, 4000]


def test_sample_corpus_seeded_and_bounded(ray_session, tmp_path):
    """R7 sampling: same seed -> identical sample; fraction bounds the
    size; limit caps it."""
    import pyarrow as pa
    import ray.data as rd

    from document_parser_private_ray.pipelines.resume import sample_corpus

    ds = rd.from_arrow(
        pa.table({"doc_id": pa.array(range(2000), type=pa.int64())})
    )
    a = sorted(r["doc_id"] for r in sample_corpus(ds, 0.1, seed=7).take_all())
    b = sorted(r["doc_id"] for r in sample_corpus(ds, 0.1, seed=7).take_all())
    assert a == b and 100 <= len(a) <= 320
    capped = sample_corpus(ds, 0.5, seed=7, limit=10).take_all()
    assert len(capped) == 10


def test_bloom_no_false_negatives(ray_session):
    """Every inserted key passes the filter; absent keys mostly fail
    (false-positive rate far below 5% at this fill)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from document_parser_private_ray.pipelines.bloom import (
        bloom_mask,
        build_bloom,
    )

    keys = np.arange(0, 200_000, 2, dtype=np.int64)  # 100k even keys
    ds = rd.from_arrow(pa.table({"k": pa.array(keys)}))
    bm = build_bloom(ds, "k")
    assert bloom_mask(keys, bm).all()  # no false negatives, ever
    absent = np.arange(1, 200_000, 2, dtype=np.int64)  # odd keys
    fp = bloom_mask(absent, bm).mean()
    assert fp < 0.05


def test_cosupplier_pairs_degree_cap(ray_session, tmp_path):
    """Pairs come from each customer's max_deg smallest suppliers only;
    counts accumulate across customers."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.pagerank import cosupplier_pairs

    # customer 1 orders from suppliers 1,2,3 (cap 2 -> only pair (1,2));
    # customer 2 orders from suppliers 1,2 -> pair (1,2) again
    orders = [(10, 1), (11, 2)]
    lines = [(10, 1), (10, 2), (10, 3), (11, 1), (11, 2)]
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([o for o, _ in orders], type=pa.int64()),
                "o_custkey": pa.array([c for _, c in orders], type=pa.int64()),
                "o_orderstatus": pa.array(["F"] * 2),
                "o_totalprice": pa.array([1.0] * 2),
                "o_orderdate": pa.array(
                    [dt.datetime(2024, 1, 1)] * 2, type=pa.timestamp("us")
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 2),
            }
        ),
        tmp_path / "orders.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([o for o, _ in lines], type=pa.int64()),
                "l_partkey": pa.array([1] * 5, type=pa.int64()),
                "l_suppkey": pa.array([s for _, s in lines], type=pa.int64()),
                "l_linenumber": pa.array([1] * 5, type=pa.int32()),
                "l_quantity": pa.array([1.0] * 5),
                "l_extendedprice": pa.array([1.0] * 5),
                "l_discount": pa.array([0.0] * 5),
                "l_tax": pa.array([0.0] * 5),
                "l_returnflag": pa.array(["N"] * 5),
                "l_linestatus": pa.array(["O"] * 5),
                "l_shipdate": pa.array(
                    [dt.datetime(2024, 1, 2)] * 5, type=pa.timestamp("us")
                ),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = cosupplier_pairs(str(tmp_path), max_deg=2).to_pandas()
    assert got[["s_a", "s_b", "n_shared_customers"]].values.tolist() == [[1, 2, 2]]


def test_order_price_quartiles_disc_rule(ray_session, tmp_path):
    """Two-pass rank search matches the discrete-percentile rule on a
    hand distribution spanning multiple coarse buckets."""
    import datetime as dt

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import (
        order_price_quartiles,
    )

    # prices far apart so every value lands in its own 2^14-cent bucket
    prices = [100.0, 200.0, 300.0, 400.0, 500.0, 600.0, 700.0, 800.0]
    tbl = pa.table(
        {
            "o_orderkey": pa.array(range(8), type=pa.int64()),
            "o_custkey": pa.array([1] * 8, type=pa.int64()),
            "o_orderstatus": pa.array(["F"] * 8),
            "o_totalprice": pa.array(prices),
            "o_orderdate": pa.array(
                [dt.datetime(2024, 1, 1)] * 8, type=pa.timestamp("us")
            ),
            "o_orderpriority": pa.array(["1-URGENT"] * 8),
        }
    )
    pq.write_table(tbl, tmp_path / "orders.parquet")
    got = order_price_quartiles(str(tmp_path)).to_pandas()
    # DISC rule: need=ceil(p*8) -> ranks 2, 4, 6 -> 200, 400, 600
    assert got["price_cents"].tolist() == [20000, 40000, 60000]


def test_value_outliers_exact_threshold(ray_session, tmp_path):
    """The isqrt-threshold form equals the squared comparison exactly:
    a planted extreme value is flagged, near-mean values are not."""
    import datetime as dt
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import value_outliers

    vals = [10.0] * 20 + [10.5] * 20 + [1000.0]  # one extreme outlier
    tbl = pa.table(
        {
            "event_id": pa.array(range(len(vals)), type=pa.int64()),
            "ts": pa.array(
                [dt.datetime(2024, 1, 1)] * len(vals), type=pa.timestamp("us")
            ),
            "user_id": pa.array([1] * len(vals), type=pa.int64()),
            "event_type": pa.array(["purchase"] * len(vals)),
            "value": pa.array(vals),
            "props": pa.array(["{}"] * len(vals)),
        }
    )
    pq.write_table(tbl, tmp_path / "events.parquet")
    got = value_outliers(str(tmp_path)).to_pandas()
    cents = [int(math.floor(v * 100 + 0.5)) for v in vals]
    n, sx = len(cents), sum(cents)
    sxx = sum(c * c for c in cents)
    K = 9 * (n * sxx - sx * sx)
    expected = sum(1 for c in cents if (c * n - sx) ** 2 > K)
    assert got["n_outliers"].tolist() == [expected]
    assert expected == 1
