"""Inverted-index construction + distributed content checksums."""

import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts, sources=None, name="documents.parquet"):
    n = len(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * n),
            "source": pa.array(sources or ["s"] * n),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / name)


def test_build_postings_df_cap(ray_session, tmp_path):
    """Posting lists are distinct sorted doc_ids; lists past max_df are
    truncated to the smallest ids with the flag set and TRUE df kept."""
    from document_parser_private_ray.pipelines.search import build_postings

    texts = [
        "apple banana apple",   # repeated word -> one posting entry
        "apple cherry",
        "apple banana",
        "apple",
    ]
    _write_docs(tmp_path, texts)
    got = build_postings(str(tmp_path), max_df=2).to_pandas().set_index("word")
    assert got.loc["apple", "df"] == 4
    assert bool(got.loc["apple", "truncated"]) is True
    assert got.loc["apple", "doc_ids"] == "0,1"
    assert got.loc["banana", "df"] == 2
    assert bool(got.loc["banana", "truncated"]) is False
    assert got.loc["banana", "doc_ids"] == "0,2"
    assert got.loc["cherry", "doc_ids"] == "1"


def test_table_checksum_order_free_and_tamper_sensitive(
    ray_session, tmp_path
):
    """The checksum is invariant under row reordering and changes when
    any row's content changes; per-source sums add up to __all__."""
    from document_parser_private_ray.pipelines.integrity import table_checksum

    texts = [f"content number {i}" for i in range(50)]
    sources = ["a" if i % 2 else "b" for i in range(50)]

    d1 = tmp_path / "v1"
    d1.mkdir()
    _write_docs(d1, texts, sources)
    c1 = table_checksum(str(d1)).to_pandas().set_index("source")

    # reordered copy: same content, shuffled row order
    d2 = tmp_path / "v2"
    d2.mkdir()
    perm = list(reversed(range(50)))
    tbl = pa.table(
        {
            "doc_id": pa.array(perm, type=pa.int64()),
            "text": pa.array([texts[i] for i in perm]),
            "lang": pa.array(["en"] * 50),
            "source": pa.array([sources[i] for i in perm]),
            "n_chars": pa.array([len(texts[i]) for i in perm], type=pa.int64()),
        }
    )
    pq.write_table(tbl, d2 / "documents.parquet")
    c2 = table_checksum(str(d2)).to_pandas().set_index("source")
    assert c1["checksum"].to_dict() == c2["checksum"].to_dict()

    # tampered copy: one character changed in one row
    d3 = tmp_path / "v3"
    d3.mkdir()
    tampered = list(texts)
    tampered[7] = tampered[7] + "!"
    _write_docs(d3, tampered, sources)
    c3 = table_checksum(str(d3)).to_pandas().set_index("source")
    assert c3.loc["a", "checksum"] != c1.loc["a", "checksum"]  # row 7 is odd -> 'a'
    assert c3.loc["b", "checksum"] == c1.loc["b", "checksum"]

    # __all__ equals the wrapping sum of the per-source checksums
    mod = 1 << 64
    tot = sum(int(c1.loc[s, "checksum"]) % mod for s in ("a", "b")) % mod
    tot = tot - mod if tot >= 1 << 63 else tot
    assert int(c1.loc["__all__", "checksum"]) == tot
    assert int(c1.loc["__all__", "n_rows"]) == 50


def test_fk_violations_detects_planted_orphans(ray_session, tmp_path):
    """Planted orphan child keys are counted; clean relationships report
    zero orphans."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.joins import fk_violations

    pq.write_table(
        pa.table({"n_nationkey": pa.array([0, 1], type=pa.int32()),
                  "n_name": pa.array(["A", "B"])}),
        tmp_path / "nation.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "c_custkey": pa.array([1, 2, 3], type=pa.int64()),
                "c_name": pa.array(["x", "y", "z"]),
                "c_nationkey": pa.array([0, 1, 9], type=pa.int32()),  # 9: orphan
                "c_acctbal": pa.array([1.0, 2.0, 3.0]),
                "c_mktsegment": pa.array(["S"] * 3),
            }
        ),
        tmp_path / "customer.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "o_orderkey": pa.array([10, 11], type=pa.int64()),
                "o_custkey": pa.array([1, 99], type=pa.int64()),  # 99: orphan
                "o_orderstatus": pa.array(["F", "O"]),
                "o_totalprice": pa.array([5.0, 6.0]),
                "o_orderdate": pa.array(
                    [pa.scalar(0, type=pa.timestamp("us"))] * 2,
                    type=pa.timestamp("us"),
                ),
                "o_orderpriority": pa.array(["1-URGENT"] * 2),
            }
        ),
        tmp_path / "orders.parquet",
    )
    pq.write_table(
        pa.table(
            {
                "l_orderkey": pa.array([10, 10, 11], type=pa.int64()),
                "l_partkey": pa.array([1, 2, 3], type=pa.int64()),
                "l_suppkey": pa.array([1, 2, 3], type=pa.int64()),
                "l_linenumber": pa.array([1, 2, 1], type=pa.int32()),
                "l_quantity": pa.array([1.0, 2.0, 3.0]),
                "l_extendedprice": pa.array([1.0, 2.0, 3.0]),
                "l_discount": pa.array([0.0, 0.0, 0.0]),
                "l_tax": pa.array([0.0, 0.0, 0.0]),
                "l_returnflag": pa.array(["N"] * 3),
                "l_linestatus": pa.array(["O"] * 3),
                "l_shipdate": pa.array(
                    [pa.scalar(0, type=pa.timestamp("us"))] * 3,
                    type=pa.timestamp("us"),
                ),
            }
        ),
        tmp_path / "lineitem.parquet",
    )
    got = fk_violations(str(tmp_path)).to_pandas().set_index("relationship")
    assert got.loc["orders.o_custkey->customer.c_custkey", "n_orphans"] == 1
    assert got.loc["lineitem.l_orderkey->orders.o_orderkey", "n_orphans"] == 0
    assert got.loc["customer.c_nationkey->nation.n_nationkey", "n_orphans"] == 1


def test_embedding_norms_order_free_exact(ray_session, tmp_path):
    """Per-element micro floors then int sum: equals the naive replay
    regardless of summation order."""
    import math

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.similarity import embedding_norms

    vecs = [[0.5, -1.25, 2.0], [0.1, 0.2, 0.3], [1.0, 0.0, -1.0]]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(3), type=pa.int64()),
                "embedding": pa.array(vecs, type=pa.list_(pa.float32())),
                "label": pa.array([0, 1, 0], type=pa.int32()),
            }
        ),
        tmp_path / "embeddings.parquet",
    )
    # rows come in no set order
    got = embedding_norms(str(tmp_path)).to_pandas().sort_values("vec_id", ignore_index=True)
    import numpy as np

    exp = [
        sum(
            int(math.floor(float(np.float64(np.float32(x))) ** 2 * 1_000_000 + 0.5))
            for x in v
        )
        for v in vecs
    ]
    assert got["norm2_micro"].tolist() == exp
