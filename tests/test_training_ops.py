"""Ray-level tests for the training-data operators (dedup, similarity,
text analysis, media) against numpy/duckdb ground truth at sf0.001."""

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def test_dedup_exact_matches_duckdb(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.dedup import dedup_exact

    got = dedup_exact(SF).to_pandas().sort_values("keep_doc_id")  # rows come in no set order
    exp = duckdb.sql(
        f"""SELECT sha256(text) AS content_hash, MIN(doc_id) AS keep_doc_id,
            COUNT(*) AS n_copies
            FROM read_parquet('{SF}/documents.parquet')
            GROUP BY 1 ORDER BY keep_doc_id"""
    ).df()
    assert len(got) == len(exp)
    assert got["keep_doc_id"].tolist() == exp["keep_doc_id"].tolist()
    assert got["n_copies"].sum() == exp["n_copies"].sum()


def test_embedding_neardup_matches_numpy(ray_session):
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.dedup import embedding_neardup_pairs

    got = embedding_neardup_pairs(SF, threshold=0.45).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.array(t["vec_id"].to_pylist())
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    s = m @ m.T
    exp_pairs = {
        (int(ids[i]), int(ids[j]))
        for i in range(len(ids))
        for j in range(len(ids))
        if ids[i] < ids[j] and s[i, j] > 0.45
    }
    assert set(zip(got["id_a"], got["id_b"])) == exp_pairs


def test_embedding_neardup_lsh_recall(ray_session):
    """LSH-bucketed near-dup: subset of the exact pairs (precision 1.0),
    recall rises with table count."""
    from document_parser_private_ray.pipelines.dedup import embedding_neardup_pairs
    from document_parser_private_ray.pipelines.similarity import embedding_neardup_lsh

    exact = embedding_neardup_pairs(SF, threshold=0.45).to_pandas()
    exact_pairs = set(zip(exact["id_a"], exact["id_b"]))
    approx = embedding_neardup_lsh(SF).to_pandas()
    approx_pairs = set(zip(approx["id_a"], approx["id_b"]))
    assert approx_pairs <= exact_pairs  # exact verification => precision 1.0
    if exact_pairs:
        recall = len(approx_pairs) / len(exact_pairs)
        assert recall >= 0.5, f"recall {recall}"


def test_ann_bruteforce_exact(ray_session):
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.similarity import ann_bruteforce_topk

    got = ann_bruteforce_topk(SF, n_queries=4).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.array(t["vec_id"].to_pylist())
    order = np.argsort(ids)
    ids = ids[order]
    m = np.array(t["embedding"].to_pylist(), dtype=np.float32)[order]
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    for qi in ids[:4]:
        qvec = m[np.where(ids == qi)[0][0]]
        sims = m @ qvec
        # expected top-5 by (sim desc, vec_id asc)
        exp = sorted(zip(-sims, ids))[:5]
        exp_ids = [int(v) for _, v in exp]
        got_q = got[got["query_id"] == qi].sort_values("rank")
        assert got_q["vec_id"].tolist() == exp_ids


def test_ann_lsh_recall_vs_bruteforce(ray_session):
    from document_parser_private_ray.pipelines.similarity import (
        ann_bruteforce_topk,
        ann_lsh_topk,
    )

    exact = ann_bruteforce_topk(SF).to_pandas()
    approx = ann_lsh_topk(SF, n_bits=4).to_pandas()
    # every query must at least find itself; overall recall is reported
    hits, total = 0, 0
    for q in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        assert q in a  # the query vector is always in its own bucket
        hits += len(e & a)
        total += len(e)
    assert hits / total > 0.2  # approximate: bounded-recall sanity


def test_doc_quality_matches_duckdb(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.text_analysis import doc_quality

    got = doc_quality(SF).to_pandas().sort_values("doc_id")  # rows come in no set order
    exp = duckdb.sql(
        f"""SELECT doc_id, LENGTH(text) AS n_chars,
            CASE WHEN LENGTH(TRIM(text))=0 THEN 0
                 ELSE LEN(regexp_split_to_array(TRIM(text),'\\s+')) END AS n_words
            FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"""
    ).df()
    assert got["n_chars"].tolist() == exp["n_chars"].tolist()
    assert got["n_words"].tolist() == exp["n_words"].tolist()


def test_media_pipeline_plumbing(ray_session, tmp_path):
    from document_parser_private_ray.pipelines.media import media_pipeline

    out = media_pipeline(str(tmp_path / "export"), n_items=64).to_pandas()
    assert len(out) == 64
    assert set(out["kind"]) <= {"image", "audio"}
    assert (out["n_bytes"] > 0).all()
    assert (out["decode_error"] == "").all()
    assert out["feature"].map(len).eq(8).all()
    # deterministic across runs
    out2 = media_pipeline(str(tmp_path / "again"), n_items=64).to_pandas()
    assert out["checksum"].tolist() == out2["checksum"].tolist()


def test_minhash_finds_planted_duplicates(ray_session, tmp_path):
    """Plant near-duplicate docs in a parquet table; LSH must surface
    them and exact-jaccard verification must keep only real ones."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.dedup import dedup_minhash

    base = " ".join(f"token{i}" for i in range(120))
    rows = []
    for i in range(40):
        if i % 10 == 3:
            text = base + f" extra{i}"  # near-dup cluster around `base`
        else:
            text = " ".join(f"doc{i}w{j}" for j in range(100))
        rows.append({"doc_id": i, "text": text})
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    res = dedup_minhash(str(d), threshold=0.8)
    # docs 3,13,23,33 are near-dups of each other -> 3 dropped, min kept
    assert res["dropped_doc_ids"] == [13, 23, 33]
    assert res["n_verified_pairs"] >= 6


def test_neardup_keep_best_prefers_longest(ray_session, tmp_path):
    """Quality-canonical election: the keeper is the LONGEST cluster
    member, not the min doc_id — planted so the longest copy has the
    HIGHEST id (min-id semantics would pick doc 3, byte-quality picks
    33); ties on length fall back to min doc_id."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.dedup import neardup_keep_best

    base = " ".join(f"token{i}" for i in range(120))
    rows = []
    for i in range(40):
        if i % 10 == 3:
            # near-dup cluster; doc 33 carries the most extra bytes
            text = base + " extrapayload" * (i // 10 + 1)
        else:
            text = " ".join(f"doc{i}w{j}" for j in range(100))
        rows.append({"doc_id": i, "text": text})
    d = tmp_path / "planted"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    out = neardup_keep_best(str(d), threshold=0.8).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert row["cluster"] == 3  # label = min member id
    assert row["keep_doc_id"] == 33  # longest copy, NOT min id
    assert row["n_members"] == 4
    assert row["keep_bytes"] == len(base) + 4 * len(" extrapayload")

    # tie on bytes -> min doc_id wins: identical texts
    rows2 = [{"doc_id": i, "text": "same spam text " * 12} for i in (7, 5, 9)]
    rows2 += [
        {"doc_id": 100 + i, "text": " ".join(f"u{i}w{j}" for j in range(80))}
        for i in range(4)
    ]
    d2 = tmp_path / "tie"
    d2.mkdir()
    pq.write_table(pa.Table.from_pylist(rows2), str(d2 / "documents.parquet"))
    out2 = neardup_keep_best(str(d2), threshold=0.9).to_pandas()
    assert len(out2) == 1
    assert out2.iloc[0]["keep_doc_id"] == 5
    assert out2.iloc[0]["n_members"] == 3


def test_adversarial_constant_text_bucket_cap(ray_session, tmp_path):
    """Adversarial corpus: many documents with IDENTICAL text (and
    identical embeddings), so every band hashes them into one bucket.
    The oversize-bucket guard must emit star pairs (O(n) edges) instead
    of the O(n^2) clique, the run must finish, and dedup must still
    drop all but the min doc_id — star connectivity preserves the
    component (VERDICT r1 item 6)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.dedup import (
        dedup_minhash,
        dedup_simhash,
        minhash_candidate_pairs,
    )
    from document_parser_private_ray.pipelines.similarity import embedding_neardup_lsh

    n = 120
    rows = [{"doc_id": i, "text": "same spam text " * 12} for i in range(n)]
    # a few distinct docs so not everything is one bucket
    rows += [
        {"doc_id": n + i, "text": " ".join(f"uniq{i}w{j}" for j in range(80))}
        for i in range(5)
    ]
    d = tmp_path / "spam"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    # cap far below the spam-cluster size -> star pairs: n-1 edges per
    # band for the constant cluster, deduped across bands to n-1 total
    pairs = minhash_candidate_pairs(str(d), max_bucket=16).to_pandas()
    spam_pairs = pairs[(pairs.doc_a < n) & (pairs.doc_b < n)]
    assert len(spam_pairs) == n - 1  # star over min id, not n*(n-1)/2
    assert (spam_pairs.doc_a == 0).all()

    res = dedup_minhash(str(d), threshold=0.9)
    assert res["dropped_doc_ids"] == list(range(1, n))

    out = dedup_simhash(str(d), max_bucket=16).to_pandas()
    # identical text -> identical simhash -> all spam pairs verified;
    # star cap keeps the pair list linear in cluster size
    spam = out[(out.doc_a < n) & (out.doc_b < n)]
    assert len(spam) == n - 1

    # constant embeddings share one sign-LSH bucket in every table: the
    # cap gives the star over the min vec_id, one collision per table
    rng = np.random.RandomState(5)
    vecs = [[0.5] * 8] * n + [list(rng.normal(size=8)) for _ in range(5)]
    pq.write_table(
        pa.table(
            {
                "vec_id": pa.array(range(n + 5), type=pa.int64()),
                "embedding": pa.array(vecs, type=pa.list_(pa.float32())),
            }
        ),
        str(d / "embeddings.parquet"),
    )
    emb = embedding_neardup_lsh(str(d), max_bucket=16).to_pandas()
    spam = emb[(emb.id_a < n) & (emb.id_b < n)]
    assert len(spam) == n - 1
    assert (spam.id_a == 0).all()
    assert (spam.n_collisions == 8).all()


def test_user_top_events_matches_duckdb(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.relational import user_top_events

    # rows come in no set order
    got = user_top_events(SF).to_pandas().sort_values(["user_id", "rank"])
    exp = duckdb.sql(
        f"""SELECT user_id, event_id,
               CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS value_cents, rank
            FROM (SELECT user_id, event_id, value,
                  ROW_NUMBER() OVER (PARTITION BY user_id
                      ORDER BY value DESC, ts, event_id) AS rank
                  FROM read_parquet('{SF}/events.parquet'))
            WHERE rank <= 3 ORDER BY user_id, rank"""
    ).df()
    assert got[["user_id", "event_id", "value_cents", "rank"]].values.tolist() == \
        exp[["user_id", "event_id", "value_cents", "rank"]].values.tolist()


def test_dataset_split_deterministic_and_complete(ray_session):
    from document_parser_private_ray.pipelines.splits import dataset_split, split_of

    # rows come in no set order
    got = dataset_split(SF).to_pandas().sort_values("doc_id")
    # every doc assigned, assignment pure function of the id
    assert got["split"].isin(["train", "val", "test"]).all()
    again = dataset_split(SF).to_pandas().sort_values("doc_id")
    assert got["split"].tolist() == again["split"].tolist()
    assert got["split"].tolist() == [split_of(str(i)) for i in got["doc_id"]]
    # roughly 80/10/10 (hash-uniform; loose bounds at 50 docs)
    frac_train = (got["split"] == "train").mean()
    assert 0.5 < frac_train < 1.0


@pytest.mark.parametrize("kind", ["texts", "vectors"])
def test_attach_pair_values_paths_agree(ray_session, monkeypatch, kind):
    """The broadcast path and the per-side co-partition path of
    attach_pair_values return identical rows for text and vector
    payloads: every pair column rides along, each side gets its own
    value, and a pair whose id is missing from the table drops."""
    import ray.data as rd

    from document_parser_private_ray.pipelines import pairs as pair_layer

    rng = np.random.RandomState(3)
    n = 40
    if kind == "texts":
        id_col, value_col, a, b = "doc_id", "text", "doc_a", "doc_b"
        values = [" ".join(f"d{i}w{j}" for j in range(1 + i % 7)) for i in range(n)]
        vtype = pa.string()
    else:
        id_col, value_col, a, b = "vec_id", "embedding", "id_a", "id_b"
        values = [list(map(float, rng.normal(size=8))) for _ in range(n)]
        vtype = pa.list_(pa.float32())
    table = rd.from_arrow(
        pa.table({id_col: pa.array(range(n), type=pa.int64()),
                  value_col: pa.array(values, type=vtype)})
    )
    i64 = pa.int64()
    # a dangling id (99) whose pair must drop on both paths
    pairs = rd.from_arrow(
        pa.table(
            {
                a: pa.array([0, 1, 2, 5, 7, 3], type=i64),
                b: pa.array([9, 8, 4, 6, 99, 12], type=i64),
                "n_collisions": pa.array([1, 2, 3, 1, 4, 2], type=i64),
            }
        )
    )
    cols = [a, b, "n_collisions", f"{value_col}_a", f"{value_col}_b"]

    def comparable(v):
        return v if isinstance(v, str) else tuple(np.asarray(v, dtype=np.float32))

    def run():
        df = pair_layer.attach_pair_values(
            pairs, table, id_col, value_col, 6, a=a, b=b
        ).to_pandas()
        assert list(df.columns) == cols
        for c in cols[3:]:
            df[c] = df[c].map(comparable)
        return df.sort_values([a, b]).reset_index(drop=True)

    bc = run()
    monkeypatch.setattr(pair_layer, "BROADCAST_MAX_PAIRS", 0)
    sh = run()
    assert bc.equals(sh)
    assert bc[[a, b]].values.tolist() == [[0, 9], [1, 8], [2, 4], [3, 12], [5, 6]]
    for side, col in ((a, cols[3]), (b, cols[4])):
        assert bc[col].tolist() == [comparable(values[i]) for i in bc[side]]


def test_self_pairs_kernel():
    """self_pairs equals brute-force a < b pairs per key group; an
    oversize group emits the star over its min id carrying the root's
    values; an empty group gives a typed empty table."""
    import itertools

    from document_parser_private_ray.pipelines.pairs import self_pairs

    rng = np.random.RandomState(7)
    names = ["k", "doc_a", "doc_b", "c_a", "c_b"]
    for _ in range(25):
        n = rng.randint(1, 40)
        t = pa.table(
            {
                "k": pa.array(rng.randint(0, 4, n), type=pa.int32()),
                "id": pa.array(rng.permutation(200)[:n], type=pa.int64()),
                "c": pa.array(rng.randint(0, 1000, n).astype(np.uint64)),
            }
        )
        rows = t.to_pylist()
        cap = int(rng.randint(2, 8))
        exp_all, exp_star = [], []
        for k in {r["k"] for r in rows}:
            m = [r for r in rows if r["k"] == k]
            clique = [
                (k, x["id"], y["id"], x["c"], y["c"])
                for x, y in itertools.product(m, m)
                if x["id"] < y["id"]
            ]
            exp_all += clique
            if len(m) > cap:
                root = min(m, key=lambda r: r["id"])
                exp_star += [
                    (k, root["id"], r["id"], root["c"], r["c"])
                    for r in m if r is not root
                ]
            else:
                exp_star += clique
        for got, exp in (
            (self_pairs(t, "k", "id", carry=["c"]), exp_all),
            (self_pairs(t, "k", "id", carry=["c"], max_bucket=cap), exp_star),
        ):
            assert got.column_names == names
            assert sorted(zip(*(got[c].to_pylist() for c in names))) == sorted(exp)

    empty = self_pairs(
        t.slice(0, 0), ["k"], "id", carry=["c"], max_bucket=1, a="id_a", b="id_b"
    )
    assert empty.num_rows == 0
    assert empty.schema == pa.schema(
        [("k", pa.int32()), ("id_a", pa.int64()), ("id_b", pa.int64()),
         ("c_a", pa.uint64()), ("c_b", pa.uint64())]
    )


def test_ngram_jaccard_exact_with_empty_docs(ray_session, tmp_path):
    """Inverted-index Jaccard must equal brute force over shingle sets,
    including the jaccard(∅,∅)=1.0 convention for no-word documents."""
    import itertools

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.functions.sketches import jaccard, shingles
    from document_parser_private_ray.pipelines.dedup import ngram_jaccard_pairs

    rows = [
        {"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta"},
        {"doc_id": 1, "text": "alpha beta gamma delta epsilon eta"},
        {"doc_id": 2, "text": "totally different words here friend"},
        {"doc_id": 3, "text": "   "},
        {"doc_id": 4, "text": ""},
        {"doc_id": 5, "text": "alpha beta gamma delta epsilon zeta"},
    ]
    d = tmp_path / "ngram"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    got = ngram_jaccard_pairs(str(d), threshold=0.3).to_pandas()
    got_pairs = {
        (a, b): round(j, 9)
        for a, b, j in zip(got.doc_a, got.doc_b, got.jaccard_sim)
    }
    exp = {}
    sets = {r["doc_id"]: shingles(r["text"]) for r in rows}
    for a, b in itertools.combinations(sorted(sets), 2):
        j = 1.0 if not sets[a] and not sets[b] else jaccard(sets[a], sets[b])
        if j >= 0.3:
            exp[(a, b)] = round(j, 9)
    assert got_pairs == exp
    assert (3, 4) in got_pairs and got_pairs[(3, 4)] == 1.0  # empty-empty
    assert got_pairs[(0, 5)] == 1.0  # identical docs


def test_ngram_jaccard_adversarial_empty_flood(ray_session, tmp_path):
    """100k whitespace-only documents must NOT produce an O(n²) pair
    explosion: the empty group is encoded as the star over the min
    empty id — exactly n_empty - 1 rows, finishing in seconds with
    bounded driver memory."""
    import time

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.dedup import ngram_jaccard_pairs

    n_empty = 100_000
    ids = list(range(n_empty)) + [n_empty, n_empty + 1]
    texts = ["  "] * n_empty + [
        "alpha beta gamma delta epsilon zeta",
        "alpha beta gamma delta epsilon zeta",
    ]
    d = tmp_path / "flood"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": pa.array(ids, type=pa.int64()), "text": texts}),
        str(d / "documents.parquet"),
    )
    t0 = time.monotonic()
    got = ngram_jaccard_pairs(str(d), threshold=0.5).to_pandas()
    wall = time.monotonic() - t0
    stars = got[got.doc_a == 0]
    assert len(stars) == n_empty - 1  # star over min id, not all-pairs
    assert (stars.jaccard_sim == 1.0).all()
    assert set(got[got.doc_a != 0].itertuples(index=False, name=None)) == {
        (n_empty, n_empty + 1, 1.0)
    }
    assert len(got) == n_empty, f"expected O(n) rows, got {len(got)}"
    assert wall < 120, f"empty-flood took {wall:.0f}s"


def test_events_sliding_window_matches_duckdb(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.relational import events_sliding_window

    # rows come in no set order
    got = events_sliding_window(SF).to_pandas().sort_values(
        ["event_type", "window_start"], ignore_index=True
    )
    exp = duckdb.sql(
        f"""SELECT event_type,
               date_trunc('hour', ts) - to_hours(i) AS window_start,
               COUNT(*) AS n_events, SUM(value) AS sum_value
            FROM read_parquet('{SF}/events.parquet') CROSS JOIN range(3) t(i)
            GROUP BY event_type, window_start
            ORDER BY event_type, window_start"""
    ).df()
    assert len(got) == len(exp)
    assert got["event_type"].tolist() == exp["event_type"].tolist()
    assert got["n_events"].tolist() == exp["n_events"].tolist()
    assert (got["sum_value"] - exp["sum_value"]).abs().max() < 1e-6


def test_top_words_matches_duckdb(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.text_analysis import top_words

    got = top_words(SF, k=20).to_pandas()
    exp = duckdb.sql(
        f"""SELECT word, COUNT(*) AS n FROM (
                SELECT UNNEST(regexp_extract_all(lower(text), '[a-z0-9]+')) AS word
                FROM read_parquet('{SF}/documents.parquet'))
            GROUP BY word ORDER BY n DESC, word LIMIT 20"""
    ).df()
    assert got["word"].tolist() == exp["word"].tolist()
    assert got["n"].tolist() == exp["n"].tolist()


def test_doc_length_percentiles_exact(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.text_analysis import (
        doc_length_percentiles,
    )

    got = doc_length_percentiles(SF).to_pandas()
    exp = duckdb.sql(
        f"""SELECT PERCENTILE_DISC(0.5) WITHIN GROUP (ORDER BY LENGTH(text)) AS p50,
                   PERCENTILE_DISC(0.9) WITHIN GROUP (ORDER BY LENGTH(text)) AS p90,
                   PERCENTILE_DISC(0.99) WITHIN GROUP (ORDER BY LENGTH(text)) AS p99
            FROM read_parquet('{SF}/documents.parquet')"""
    ).df()
    assert got["n_chars"].tolist() == [
        int(exp["p50"][0]), int(exp["p90"][0]), int(exp["p99"][0])
    ]


def test_curate_corpus_composed_chain(ray_session):
    """Quality -> language -> exact-dedup -> split, verified against a
    brute-force recomputation with the same scalar kernels."""
    import hashlib

    import duckdb

    from document_parser_private_ray.functions.textstats import lang_id
    from document_parser_private_ray.pipelines.curate import curate_corpus
    from document_parser_private_ray.pipelines.splits import split_of

    got = curate_corpus(SF).to_pandas().set_index("split")["n_docs"].to_dict()

    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"
    ).df()
    seen, counts = {}, {"train": 0, "val": 0, "test": 0}
    for _, r in docs.iterrows():
        t = r["text"]
        n_words = len(t.split())
        digit_ratio = sum(c.isdigit() for c in t) / max(len(t), 1)
        if n_words < 5 or digit_ratio > 0.3 or lang_id(t) != "en":
            continue
        h = hashlib.sha256(t.encode()).hexdigest()
        if h in seen:
            continue
        seen[h] = r["doc_id"]
        counts[split_of(str(r["doc_id"]))] += 1
    assert got == {k: v for k, v in counts.items() if v > 0}


def test_winnow_overlap_matches_bruteforce(ray_session, tmp_path):
    """Fingerprint-overlap pairs == brute-force pairwise intersection of
    the per-doc winnow fingerprint sets."""
    import itertools

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.functions.textstats import winnow_fingerprints
    from document_parser_private_ray.pipelines.dedup import winnow_overlap_pairs

    base = " ".join(f"w{i}" for i in range(60))
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base + " tail one extra words here"},
        {"doc_id": 2, "text": " ".join(f"z{i}" for i in range(50))},
        {"doc_id": 3, "text": base},
        {"doc_id": 4, "text": "tiny"},
    ]
    d = tmp_path / "winnow"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    got = winnow_overlap_pairs(str(d), min_shared=2).to_pandas()
    got_pairs = {(a, b): n for a, b, n in zip(got.doc_a, got.doc_b, got.n_shared)}
    sets = {r["doc_id"]: set(winnow_fingerprints(r["text"])) for r in rows}
    exp = {}
    for a, b in itertools.combinations(sorted(sets), 2):
        n = len(sets[a] & sets[b])
        if n >= 2:
            exp[(a, b)] = n
    assert got_pairs == exp
    assert (0, 3) in got_pairs  # identical docs share every fingerprint


def test_ann_ivf_recall_vs_bruteforce(ray_session):
    from document_parser_private_ray.pipelines.similarity import (
        ann_bruteforce_topk,
        ann_ivf_topk,
    )

    exact = ann_bruteforce_topk(SF).to_pandas()
    approx = ann_ivf_topk(SF, n_centroids=8, n_probe=3).to_pandas()
    hits, total = 0, 0
    for q in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        assert q in a  # a query's own cell is always probed first
        hits += len(e & a)
        total += len(e)
    assert hits / total > 0.2
    # deterministic across runs (fixed init/iterations k-means); rows
    # come in no set order
    again = ann_ivf_topk(SF, n_centroids=8, n_probe=3).to_pandas()
    assert sorted(approx[["query_id", "vec_id", "rank"]].values.tolist()) == \
        sorted(again[["query_id", "vec_id", "rank"]].values.tolist())


def test_ann_ivfpq_recall_and_naive_adc(ray_session):
    """IVF-PQ: (1) top-k overlaps the brute-force baseline (quantized
    scores still find near neighbours); (2) the distributed ADC scores
    equal a naive driver-side replay (encode all, probe, integer-micro
    LUT sums, adc/vec_id ordering); (3) deterministic across runs."""
    import numpy as np
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.similarity import (
        ann_bruteforce_topk,
        ann_ivfpq_topk,
        pq_adc_lut_micro,
        pq_encode,
        train_ivf_centroids,
        train_pq_codebooks,
    )

    k, nq, nc, npr = 5, 8, 8, 3
    approx = ann_ivfpq_topk(SF, n_centroids=nc, n_probe=npr).to_pandas()
    exact = ann_bruteforce_topk(SF).to_pandas()
    hits, total = 0, 0
    for q in exact["query_id"].unique():
        e = set(exact[exact["query_id"] == q]["vec_id"])
        a = set(approx[approx["query_id"] == q]["vec_id"])
        hits += len(e & a)
        total += len(e)
    assert hits / total > 0.2

    # naive replay
    C = train_ivf_centroids(SF, nc)
    books = train_pq_codebooks(SF)
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    order = pc.sort_indices(t["vec_id"])
    ids = np.asarray(pc.take(t["vec_id"], order).to_pylist(), dtype=np.int64)
    raw = np.array(pc.take(t["embedding"], order).to_pylist(), dtype=np.float64)
    assign = ((raw[:, None, :] - C[None, :, :]) ** 2).sum(-1).argmin(1)
    codes = pq_encode(raw, books)
    qraw, qids = raw[:nq], ids[:nq]
    probe = np.argsort(
        ((qraw[:, None, :] - C[None, :, :]) ** 2).sum(-1), axis=1, kind="stable"
    )[:, :npr]
    lut = pq_adc_lut_micro(qraw, books)
    m_idx = np.arange(books.shape[0])
    expect = []
    for qi in range(nq):
        mask = np.isin(assign, probe[qi])
        adc = lut[qi][m_idx[None, :], codes[mask]].sum(1)
        cand = ids[mask]
        sel = np.lexsort((cand, adc))[:k]
        for r, j in enumerate(sel, 1):
            expect.append([int(qids[qi]), int(cand[j]), int(adc[j]), r])
    got = approx[["query_id", "vec_id", "adc", "rank"]].values.tolist()
    assert sorted(got) == sorted(expect)

    again = ann_ivfpq_topk(SF, n_centroids=nc, n_probe=npr).to_pandas()
    # rows come in no set order
    assert sorted(got) == sorted(again[["query_id", "vec_id", "adc", "rank"]].values.tolist())


def test_media_full_pipeline_stages(ray_session, tmp_path):
    """Frame-sample explodes videos into image rows, resize pins image
    dimensions, features decode every surviving row — deterministic."""
    from document_parser_private_ray.pipelines.media import (
        media_full_pipeline,
        synth_media_batch,
    )

    out = media_full_pipeline(str(tmp_path / "export"), n_items=96).to_pandas()
    src = synth_media_batch(
        [f"media://synth/{i}" for i in range(96)], with_video=True
    ).to_pandas()
    n_videos = (src["kind"] == "video").sum()
    assert n_videos > 0
    expected_frames = sum(
        len(range(0, n, 4)) for n in src[src["kind"] == "video"]["meta_n_frames"]
    )
    # videos are gone (exploded into frames); frame rows join the images
    assert (out["kind"] != "video").all()
    assert len(out) == len(src) - n_videos + expected_frames
    assert out["media_ref"].str.contains("#frame").sum() == expected_frames
    assert (out["decode_error"] == "").all()
    assert out["feature"].map(len).eq(8).all()
    again = media_full_pipeline(str(tmp_path / "again"), n_items=96).to_pandas()
    assert out.sort_values("media_ref")["checksum"].tolist() == \
        again.sort_values("media_ref")["checksum"].tolist()


def test_doc_repetition_hand_cases(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.text_analysis import doc_repetition

    docs = {
        1: "a b c d e f g h\ni j k l m n o p\n",  # no repetition (16 words)
        2: "x y\nx y\nx y\nz\n",          # 3 dup-ish lines (x y ×3 -> 2 dups)
        3: "go go go go go stop",         # top bigram (go,go) ×4 of 5
        4: "",                            # empty
        5: "   \n\t\n",                   # whitespace only
        6: "one",                         # single word, no bigrams
    }
    tbl = pa.table({"doc_id": list(docs), "text": list(docs.values())})
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = doc_repetition(str(tmp_path)).to_pandas().set_index("doc_id")

    def expect(t):
        from collections import Counter
        lines = [ln for ln in (s.strip() for s in t.split("\n")) if ln]
        words = t.lower().split()
        bigs = Counter(zip(words, words[1:]))
        nl, nw = len(lines), len(words)
        ndl, ndw = nl - len(set(lines)), nw - len(set(words))
        nb = max(nw - 1, 0)
        top = max(bigs.values()) if bigs else 0
        flag = int(ndl * 100 > nl * 30 or top * 100 > nb * 18)
        return (nl, ndl, nw, ndw, nb, top, flag)

    for did, t in docs.items():
        row = got.loc[did]
        assert (
            row["n_lines"], row["n_dup_lines"], row["n_words"],
            row["n_dup_words"], row["n_bigrams"], row["top_bigram_n"],
            row["rep_flag"],
        ) == expect(t), f"doc {did}"
    assert got.loc[2, "rep_flag"] == 1 and got.loc[3, "rep_flag"] == 1
    assert got.loc[1, "rep_flag"] == 0


def test_data_mix_deterministic_copies(ray_session):
    import hashlib

    from document_parser_private_ray.pipelines.mixing import data_mix

    # rows come in no set order
    got = data_mix(SF).to_pandas().sort_values(["doc_id", "copy"], ignore_index=True)
    # recompute the exact copy set naively
    import duckdb

    docs = duckdb.sql(
        f"SELECT doc_id, source FROM read_parquet('{SF}/documents.parquet')"
    ).df()

    def md5i(s):
        return int.from_bytes(hashlib.md5(s.encode()).digest()[:8], "little")

    exp = []
    for did, src in zip(docs["doc_id"], docs["source"]):
        w8 = 4 + md5i(src) % 16
        n = w8 // 8 + (1 if md5i(f"{did}:{src}") % 8 < w8 % 8 else 0)
        exp += [(did, src, c) for c in range(n)]
    exp.sort()
    assert list(map(tuple, got[["doc_id", "source", "copy"]].itertuples(index=False))) == exp
    # stable across runs
    again = data_mix(SF).to_pandas().sort_values(["doc_id", "copy"], ignore_index=True)
    assert got.equals(again)


def test_pack_sequences_multi_bucket_matches_naive(ray_session):
    from document_parser_private_ray.pipelines.mixing import pack_sequences
    from document_parser_private_ray.pipelines.text_analysis import doc_tokens

    cap, bucket = 64, 8  # force many buckets at sf0.001
    # rows come in no set order
    got = pack_sequences(SF, capacity=cap, bucket_size=bucket).to_pandas().sort_values("doc_id")
    toks = doc_tokens(SF).to_pandas().sort_values("doc_id")
    acc, bins = 0, {}
    for did, n in zip(toks["doc_id"], toks["ws_tokens"]):
        bins[did] = acc // cap
        acc += n
    assert got["bin"].tolist() == [bins[d] for d in got["doc_id"]]
    assert got["n_tokens"].tolist() == toks["ws_tokens"].tolist()


def test_doc_tfidf_matches_naive(ray_session):
    import math
    from collections import Counter

    import duckdb

    from document_parser_private_ray.pipelines.text_analysis import doc_tfidf

    got = doc_tfidf(SF).to_pandas()
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).df()
    tf = {d: Counter(t.lower().split()) for d, t in zip(docs["doc_id"], docs["text"])}
    n_docs = len(tf)
    df = Counter()
    for c in tf.values():
        df.update(c.keys())
    for did, g in got.groupby("doc_id"):
        scored = sorted(
            (
                (-math.floor(c * math.log(n_docs / df[w]) * 1e6 + 0.5), w)
                for w, c in tf[did].items()
            )
        )[:5]
        assert [(w, -s) for s, w in scored] == list(
            zip(g.sort_values("rank")["word"], g.sort_values("rank")["tfidf_micro"])
        ), f"doc {did}"


def test_doc_chunks_hand_and_coverage(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.text_analysis import doc_chunks

    long = " ".join(f"w{i}" for i in range(150))
    docs = {1: "a b c", 2: long, 3: "", 4: "   "}
    pq.write_table(
        pa.table({"doc_id": list(docs), "text": list(docs.values())}),
        tmp_path / "documents.parquet",
    )
    got = doc_chunks(str(tmp_path)).to_pandas()
    assert sorted(got["doc_id"].unique()) == [1, 2]  # empty docs emit nothing
    one = got[got["doc_id"] == 1]
    assert len(one) == 1 and one.iloc[0]["chunk_text"] == "a b c"
    two = got[got["doc_id"] == 2].sort_values("chunk_id")
    # starts at 0,48,96,144; windows of 64 clipped at 150
    assert two["chunk_id"].tolist() == [0, 1, 2, 3]
    assert two["n_tokens"].tolist() == [64, 64, 54, 6]
    toks = long.split()
    for _, r in two.iterrows():
        s = r["chunk_id"] * 48
        assert r["chunk_text"] == " ".join(toks[s : s + 64])


def test_doc_stopwords_hand_cases(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.text_analysis import doc_stopwords

    docs = {
        1: "The cat sat in a hat",       # the,in,a -> 3 of 6
        2: "xyz qrs",                    # 0 of 2
        3: "",                           # 0 of 0
        4: "a A tHe OF",                 # all stop (case-folded) -> 4 of 4
    }
    pq.write_table(
        pa.table({"doc_id": list(docs), "text": list(docs.values())}),
        tmp_path / "documents.parquet",
    )
    got = doc_stopwords(str(tmp_path)).to_pandas().set_index("doc_id")
    assert got.loc[1].tolist() == [6, 3]
    assert got.loc[2].tolist() == [2, 0]
    assert got.loc[3].tolist() == [0, 0]
    assert got.loc[4].tolist() == [4, 4]


def test_bm25_matches_naive(ray_session):
    import math
    from collections import Counter

    import duckdb

    from document_parser_private_ray.pipelines.search import bm25_search

    got = bm25_search(SF).to_pandas()
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).df()
    terms = ["hash", "join", "merge"]
    toks = {d: t.lower().split() for d, t in zip(docs["doc_id"], docs["text"])}
    lens = {d: len(t) for d, t in toks.items()}
    n_docs = float(len(toks))
    avg = sum(lens.values()) / n_docs
    df = {q: float(sum(1 for t in toks.values() if q in t)) for q in terms}
    scores = {}
    for d, t in toks.items():
        c = Counter(t)
        s = 0
        for q in terms:
            tf = float(c[q])
            if tf == 0:
                continue
            idf = math.log((n_docs - df[q] + 0.5) / (df[q] + 0.5) + 1.0)
            s += math.floor(
                idf * (tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * (lens[d] / avg)))
                * 1_000_000 + 0.5
            )
        if s:
            scores[d] = s
    exp = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    assert list(zip(got["doc_id"], got["score_micro"])) == exp


def test_decontaminate_matches_naive(ray_session):
    import math

    import duckdb

    from document_parser_private_ray.functions.sketches import shingles
    from document_parser_private_ray.pipelines.decontam import (
        BENCH_MOD,
        THRESHOLD_MICRO,
        decontaminate,
    )

    got = (
        decontaminate(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet') ORDER BY doc_id"
    ).df()
    sets = {d: shingles(t) for d, t in zip(docs["doc_id"], docs["text"])}
    bench = set()
    for d, s in sets.items():
        if d % BENCH_MOD == 0:
            bench |= s
    for _, row in got.iterrows():
        d = row["doc_id"]
        s = sets[d]
        n_ov = len(s & bench)
        assert row["n_sh"] == len(s)
        assert row["n_overlap"] == n_ov
        micro = math.floor(n_ov / len(s) * 1_000_000 + 0.5) if s else 0
        assert row["contam_micro"] == micro
        assert row["is_benchmark"] == (1 if d % BENCH_MOD == 0 else 0)
        exp_flag = 1 if (d % BENCH_MOD != 0 and s and micro >= THRESHOLD_MICRO) else 0
        assert row["contaminated"] == exp_flag
    # the benchmark docs themselves must fully overlap the benchmark set
    bench_rows = got[got["is_benchmark"] == 1]
    assert len(bench_rows) > 0
    nonempty = bench_rows[bench_rows["n_sh"] > 0]
    assert (nonempty["n_overlap"] == nonempty["n_sh"]).all()
    assert (bench_rows["contaminated"] == 0).all()


def test_model_score_matches_naive(ray_session):
    import re

    import duckdb

    from document_parser_private_ray.pipelines.text_analysis import (
        STOPWORDS,
        ModelScore,
        doc_model_score,
    )

    got = doc_model_score(SF).to_pandas().set_index("doc_id")
    docs = duckdb.sql(
        f"SELECT doc_id, text FROM read_parquet('{SF}/documents.parquet')"
    ).df()
    bias, w_stop, w_alpha, w_punct = ModelScore.WEIGHTS
    for d, t in zip(docs["doc_id"], docs["text"]):
        words = t.split()
        n_stop = sum(1 for w in t.lower().split() if w in STOPWORDS)
        n_alpha = len(re.sub(r"[^a-zA-Z]", "", t))
        n_punct = len(re.sub(r"[a-zA-Z0-9 ]", "", t))
        ss = (n_stop * 1_000_000) // len(words) if words else 0
        as_ = (n_alpha * 1_000_000) // len(t) if t else 0
        ps = (n_punct * 1_000_000) // len(t) if t else 0
        score = bias + w_stop * ss + w_alpha * as_ + w_punct * ps
        row = got.loc[d]
        assert row["stop_share_micro"] == ss
        assert row["alpha_share_micro"] == as_
        assert row["punct_share_micro"] == ps
        assert row["score_micro"] == score
        assert row["keep"] == (1 if score >= ModelScore.KEEP_MICRO else 0)


def test_semdedup_matches_bruteforce(ray_session):
    """SemDeDup verdicts replayed in numpy: same centroid assignment,
    within-cluster min-lower-id dup semantics."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.semdedup import semdedup
    from document_parser_private_ray.pipelines.similarity import train_ivf_centroids

    got = semdedup(SF, threshold=0.45).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    m = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    C = train_ivf_centroids(SF)
    cid = ((m[:, None, :] - C[None, :, :]) ** 2).sum(-1).argmin(1)
    mn = m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-300)
    s = mn @ mn.T
    exp = {}
    for j in range(len(ids)):
        lower = [
            int(ids[i])
            for i in range(len(ids))
            if cid[i] == cid[j] and ids[i] < ids[j] and s[i, j] > 0.45
        ]
        exp[int(ids[j])] = (int(cid[j]), min(lower) if lower else -1)
    assert len(got) == len(ids)
    for _, row in got.iterrows():
        ecid, edup = exp[row["vec_id"]]
        assert row["cluster"] == ecid
        assert row["dup_of"] == edup
        assert row["is_dup"] == (1 if edup != -1 else 0)


def test_semdedup_planted_duplicates(ray_session, tmp_path):
    """Near-identical planted vectors land in one cluster and all but
    the lowest id are flagged, pointing at the representative."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.semdedup import semdedup

    rng = np.random.default_rng(7)
    base = rng.normal(size=(64, 8)).astype(np.float32)
    # vecs 100..103: one representative + three epsilon-perturbed copies
    rep = rng.normal(size=8).astype(np.float32)
    planted = [rep + rng.normal(scale=1e-4, size=8).astype(np.float32) for _ in range(3)]
    vecs = list(base) + [rep] + planted
    ids = list(range(64)) + [100, 101, 102, 103]
    tbl = pa.table(
        {
            "vec_id": pa.array(ids, type=pa.int64()),
            "embedding": pa.array([v.tolist() for v in vecs], type=pa.list_(pa.float32())),
            "label": pa.array([0] * len(ids), type=pa.int32()),
        }
    )
    pq.write_table(tbl, tmp_path / "embeddings.parquet")
    got = semdedup(str(tmp_path), threshold=0.95, n_centroids=4).to_pandas()
    got = got.set_index("vec_id")
    assert got.loc[100, "is_dup"] == 0
    for v in (101, 102, 103):
        assert got.loc[v, "is_dup"] == 1
        assert got.loc[v, "dup_of"] == 100


def test_source_filter_planted_domains(ray_session, tmp_path):
    """Domain gate: a clean source survives, a punctuation-garbage
    source is dropped, a single-doc source fails min_docs regardless
    of score."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.domains import (
        source_filter,
        source_stats,
    )

    clean = "the cat and the dog is in a house of the sun and to be the"
    garbage = "!!!! ???? ;;;; @@@@ #### $$$$ %%%% ^^^^ &&&& ****"
    rows = (
        [(i, clean, "en", "good", len(clean)) for i in range(4)]
        + [(10 + i, garbage, "en", "bad", len(garbage)) for i in range(4)]
        + [(20, clean, "en", "lonely", len(clean))]
    )
    tbl = pa.table(
        {
            "doc_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "text": pa.array([r[1] for r in rows]),
            "lang": pa.array([r[2] for r in rows]),
            "source": pa.array([r[3] for r in rows]),
            "n_chars": pa.array([r[4] for r in rows], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    stats = source_stats(str(tmp_path)).to_pandas().set_index("source")
    assert stats.loc["good", "src_kept"] == 1
    assert stats.loc["bad", "src_kept"] == 0
    assert stats.loc["lonely", "src_kept"] == 0  # min_docs gate
    assert stats.loc["good", "n_docs"] == 4
    got = source_filter(str(tmp_path)).to_pandas().set_index("doc_id")
    assert len(got) == 9
    assert (got.loc[[0, 1, 2, 3], "src_kept"] == 1).all()
    assert (got.loc[[10, 11, 12, 13, 20], "src_kept"] == 0).all()


def test_bpe_pair_counts_hand_case(ray_session, tmp_path):
    """Pair counts on a hand-checkable corpus: in-word adjacent pairs
    only — never across words, rows, case or punctuation."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.tokenizer import bpe_pair_counts

    texts = ["Banana, band!", "ana ANA an a", ""]
    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = bpe_pair_counts(str(tmp_path), top_k=50).to_pandas()
    counts = dict(zip(got["pair"], got["n"]))
    # banana: ba an na an na / band: ba an nd / ana x2: an na each / an: an
    assert counts == {"an": 6, "na": 4, "ba": 2, "nd": 1}
    # deterministic order: count desc, pair asc
    assert got["pair"].tolist() == ["an", "na", "ba", "nd"]


def test_media_dedup_planted_payload_copies(ray_session, tmp_path):
    """Binary-payload exact dedup: 256 refs aliased mod 200 -> exactly
    200 distinct payloads, 56 groups of 2 copies, survivors are the
    lexicographic-min refs."""
    from document_parser_private_ray.pipelines.media import media_dedup

    got = media_dedup(str(tmp_path / "export")).to_pandas()
    assert len(got) == 200
    assert int((got["n_copies"] == 2).sum()) == 56
    assert int(got["n_copies"].sum()) == 256
    dup = got[got["n_copies"] == 2]
    # refs i and i+200 share bytes for i < 56; the lexicographic min of
    # the two refs survives (= DuckDB MIN(VARCHAR))
    exp_keep = sorted(
        min(f"media://synth/{i}", f"media://synth/{i + 200}") for i in range(56)
    )
    assert sorted(dup["keep_ref"]) == exp_keep


def test_vocab_kmv_paths(ray_session, tmp_path):
    """KMV sketch: exact path when vocab < k; sketch path replayed
    against a naive md5 computation when vocab >= k."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.cardinality import vocab_kmv

    def write_docs(words_per_doc, path):
        texts = [" ".join(ws) for ws in words_per_doc]
        tbl = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(["s"] * len(texts)),
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        )
        path.mkdir()
        pq.write_table(tbl, path / "documents.parquet")

    # vocab of 5 < k=16 -> exact count, empty kth_hash
    write_docs([["apple", "pear"], ["pear", "plum", "Fig!"], ["kiwi"]],
               tmp_path / "small")
    got = vocab_kmv(str(tmp_path / "small")).to_pandas().iloc[0]
    assert got["est_distinct"] == 5 and got["kth_hash"] == ""

    # vocab of 40 >= k=16 -> sketch estimate replayed naively
    # (alphabetic words: the tokenizer strips digits)
    import itertools

    vocab = ["".join(p) for p in itertools.product("abcdefg", repeat=2)][:40]
    write_docs([vocab[:25], vocab[20:]], tmp_path / "big")
    got = vocab_kmv(str(tmp_path / "big")).to_pandas().iloc[0]
    hashes = sorted(hashlib.md5(w.encode()).hexdigest() for w in vocab)[:16]
    kth = hashes[-1]
    assert got["kth_hash"] == kth
    assert got["est_distinct"] == 15 * (1 << 48) // int(kth[:12], 16)


def test_word_collocations_vs_naive(ray_session, tmp_path):
    """Bigram lift replayed naively: exact integer lift, in-doc
    adjacency only (never across docs), deterministic ordering."""
    import re
    from collections import Counter

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.collocations import word_collocations

    texts = [
        "big data big data big data big data big data",
        "data lake, Big DATA! stream lake stream lake stream lake",
        "stream lake stream lake big stream",
        "",
    ]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = word_collocations(str(tmp_path), top_k=10, min_count=2).to_pandas()

    uni, big = Counter(), Counter()
    for t in texts:
        ws = re.findall(r"[a-z]+", t.lower())
        uni.update(ws)
        big.update(f"{a} {b}" for a, b in zip(ws, ws[1:]))
    n_total = sum(uni.values())
    exp = []
    for bg, n_xy in big.items():
        if n_xy < 2:
            continue
        w1, w2 = bg.split(" ")
        lift = 1_000_000 * n_total * n_xy // (uni[w1] * uni[w2])
        exp.append((lift, w1, w2, n_xy))
    exp.sort(key=lambda s: (-s[0], s[1], s[2]))
    exp = exp[:10]
    assert list(zip(got["lift_micro"], got["w1"], got["w2"], got["n_xy"])) == exp


def _write_tbl(path, name, tbl):
    import pyarrow.parquet as pq

    path.mkdir(exist_ok=True)
    pq.write_table(tbl, path / f"{name}.parquet")


def test_sample_stratified_deterministic(ray_session, tmp_path):
    """Membership equals the naive per-source md5-order top-N and is
    identical across two runs."""
    import hashlib

    import pyarrow as pa

    from document_parser_private_ray.pipelines.splits import sample_stratified

    n = 60
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": pa.array(["t"] * n),
            "lang": pa.array(["en"] * n),
            "source": pa.array([f"s{i % 3}" for i in range(n)]),
            "n_chars": pa.array([1] * n, type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    # rows come in no set order
    got, again = (
        sample_stratified(str(tmp_path), n_per_source=4)
        .to_pandas()
        .sort_values(["source", "rk"], ignore_index=True)
        for _ in range(2)
    )
    assert got.equals(again)

    def hkey(i):
        return int.from_bytes(hashlib.md5(str(i).encode()).digest()[:8], "little")

    for s in ["s0", "s1", "s2"]:
        ids = [i for i in range(n) if f"s{i % 3}" == s]
        exp = sorted(ids, key=lambda i: (hkey(i), i))[:4]
        sub = got[got["source"] == s].sort_values("rk")
        assert sub["doc_id"].tolist() == exp
        assert sub["rk"].tolist() == [1, 2, 3, 4]


def test_event_gaps_edges(ray_session, tmp_path):
    """Single-event users get zero gaps; gaps are exact microseconds."""
    import datetime as dt

    import pyarrow as pa

    from document_parser_private_ray.pipelines.relational import event_gaps

    base = dt.datetime(2020, 1, 1)
    rows = [
        (1, base, 10),
        (1, base + dt.timedelta(microseconds=1500), 11),
        (1, base + dt.timedelta(seconds=2), 12),
        (2, base, 20),  # single event -> 0 gaps
    ]
    tbl = pa.table(
        {
            "event_id": pa.array([r[2] for r in rows], type=pa.int64()),
            "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_type": pa.array(["x"] * 4),
            "value": pa.array([0.0] * 4),
            "props": pa.array(["{}"] * 4),
        }
    )
    _write_tbl(tmp_path, "events", tbl)
    got = event_gaps(str(tmp_path)).to_pandas().set_index("user_id")
    assert got.loc[1, "n_events"] == 3 and got.loc[1, "n_gaps"] == 2
    assert got.loc[1, "sum_gap_us"] == 2_000_000
    assert got.loc[1, "max_gap_us"] == 2_000_000 - 1500
    assert got.loc[2, "n_events"] == 1 and got.loc[2, "n_gaps"] == 0
    assert got.loc[2, "max_gap_us"] == 0 and got.loc[2, "sum_gap_us"] == 0


def test_orders_rollup_levels(ray_session, tmp_path):
    """Hand case: fine rows, per-priority subtotals, grand total — all
    in exact integer cents."""
    import datetime as dt

    import pyarrow as pa

    from document_parser_private_ray.pipelines.relational import orders_rollup

    rows = [
        ("1-URGENT", dt.datetime(1995, 3, 1), 10.005),
        ("1-URGENT", dt.datetime(1995, 9, 9), 20.004),
        ("1-URGENT", dt.datetime(1996, 1, 1), 5.0),
        ("2-HIGH", dt.datetime(1995, 6, 6), 1.115),
    ]
    tbl = pa.table(
        {
            "o_orderpriority": pa.array([r[0] for r in rows]),
            "o_orderdate": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
            "o_totalprice": pa.array([r[2] for r in rows]),
        }
    )
    _write_tbl(tmp_path, "orders", tbl)
    got = orders_rollup(str(tmp_path)).to_pandas()
    rec = {
        (r["o_orderpriority"], r["o_year"]): (r["n_orders"], r["sum_price_cents"])
        for _, r in got.iterrows()
    }
    # cents = floor(x*100+0.5): 1001, 2000, 500, 112 (1.115*100=111.49999… -> 111)
    c95 = int(10.005 * 100 + 0.5) + int(20.004 * 100 + 0.5)
    c2h = int(1.115 * 100 + 0.5)
    assert rec[("1-URGENT", 1995)] == (2, c95)
    assert rec[("1-URGENT", 1996)] == (1, 500)
    assert rec[("1-URGENT", -1)] == (3, c95 + 500)
    assert rec[("2-HIGH", 1995)] == (1, c2h)
    assert rec[("ALL", -1)] == (4, c95 + 500 + c2h)
    assert len(got) == 6  # 3 fine + 2 priority subtotals + 1 grand total


def test_vocab_kmv_by_source(ray_session, tmp_path):
    """Exact path per small stratum; sketch replayed naively for a
    large one."""
    import hashlib
    import itertools

    import pyarrow as pa

    from document_parser_private_ray.pipelines.cardinality import vocab_kmv_by_source

    big_vocab = ["".join(p) for p in itertools.product("abcdefg", repeat=2)][:30]
    texts = ["apple pear", "pear plum", " ".join(big_vocab[:20]), " ".join(big_vocab[15:])]
    srcs = ["small", "small", "big", "big"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(4), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 4),
            "source": pa.array(srcs),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    got = vocab_kmv_by_source(str(tmp_path)).to_pandas().set_index("source")
    assert got.loc["small", "est_distinct"] == 3
    assert got.loc["small", "kth_hash"] == ""
    hashes = sorted(hashlib.md5(w.encode()).hexdigest() for w in big_vocab)[:16]
    assert got.loc["big", "kth_hash"] == hashes[-1]
    assert got.loc["big", "est_distinct"] == 15 * (1 << 48) // int(hashes[-1][:12], 16)


def test_doc_oov_rate_vs_naive(ray_session, tmp_path):
    """Integer OOV-bigram micro-rate replayed naively, including the
    empty-doc row."""
    import re
    from collections import Counter

    import pyarrow as pa

    from document_parser_private_ray.pipelines.tokenizer import doc_oov_rate

    texts = ["the cat sat", "THE THE the!", "zz qq zz", "", "a"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    got = doc_oov_rate(str(tmp_path), top_k=3).to_pandas()

    all_pairs = Counter()
    doc_pairs = []
    for t in texts:
        ws = re.findall(r"[a-z]+", t.lower())
        ps = [w[i : i + 2] for w in ws for i in range(len(w) - 1)]
        doc_pairs.append(ps)
        all_pairs.update(ps)
    top = {p for p, _ in sorted(all_pairs.items(), key=lambda kv: (-kv[1], kv[0]))[:3]}
    for i, ps in enumerate(doc_pairs):
        n_oov = sum(1 for p in ps if p not in top)
        row = got[got["doc_id"] == i].iloc[0]
        assert row["n_bigrams"] == len(ps)
        assert row["n_oov"] == n_oov
        assert row["oov_micro"] == 1_000_000 * n_oov // max(len(ps), 1)


def test_top_words_by_source_vs_naive(ray_session, tmp_path):
    import re
    from collections import Counter

    import pyarrow as pa

    from document_parser_private_ray.pipelines.text_analysis import top_words_by_source

    texts = ["cat cat dog", "dog dog cat bird", "fish fish fish cat"]
    srcs = ["a", "a", "b"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(3), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(srcs),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    # rows come in no set order
    got = top_words_by_source(str(tmp_path), k=2).to_pandas().sort_values(["source", "rk"])
    exp = []
    for s in ["a", "b"]:
        c = Counter()
        for t, ts in zip(texts, srcs):
            if ts == s:
                c.update(re.findall(r"[a-z0-9]+", t.lower()))
        ranked = sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        exp += [(s, w, n, i + 1) for i, (w, n) in enumerate(ranked)]
    assert list(zip(got["source"], got["word"], got["n"], got["rk"])) == exp


def test_length_percentiles_by_lang(ray_session, tmp_path):
    import math

    import pyarrow as pa

    from document_parser_private_ray.pipelines.text_analysis import (
        doc_length_percentiles_by_lang,
    )

    texts = ["a" * n for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]] + ["b" * 100]
    langs = ["en"] * 10 + ["fr"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(langs),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    got = doc_length_percentiles_by_lang(str(tmp_path)).to_pandas()
    rec = {(r["lang"], r["p"]): r["n_chars"] for _, r in got.iterrows()}
    # en: 10 lengths 1..10 -> PERCENTILE_DISC = ceil(p*10)
    for p in (0.5, 0.9, 0.99):
        assert rec[("en", p)] == max(1, math.ceil(p * 10))
        assert rec[("fr", p)] == 100
    assert len(got) == 6


def test_doc_letter_concentration_vs_naive(ray_session, tmp_path):
    from collections import Counter

    import pyarrow as pa

    from document_parser_private_ray.pipelines.text_analysis import (
        doc_letter_concentration,
    )

    texts = ["aaaa", "abab", "The quick brown fox!", "", "1234 --"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    got = doc_letter_concentration(str(tmp_path)).to_pandas()
    for i, t in enumerate(texts):
        c = Counter(ch for ch in t.lower() if "a" <= ch <= "z")
        tot = sum(c.values())
        ss = sum(v * v for v in c.values())
        row = got[got["doc_id"] == i].iloc[0]
        assert row["n_letters"] == tot
        assert row["conc_micro"] == 1_000_000 * ss // max(tot * tot, 1)
    # single-letter spam maxes out; mixed prose is low
    g = got.set_index("doc_id")["conc_micro"]
    assert g[0] == 1_000_000 and g[1] == 500_000 and g[2] < 200_000


def test_word_cms_estimates_vs_naive(ray_session, tmp_path):
    """CMS estimates replayed naively: min over rows of row-salted md5
    bucket sums — including collision inflation and absent words."""
    import hashlib
    import re
    from collections import Counter

    import pyarrow as pa

    from document_parser_private_ray.pipelines.cardinality import word_cms_estimates

    texts = ["data data table", "query data spark table table", "spark!"]
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    probes = ["data", "table", "zebra"]
    got = word_cms_estimates(str(tmp_path), probes=probes).to_pandas()

    def bucket(w, r):
        return int.from_bytes(
            hashlib.md5(f"{r}:{w}".encode()).digest()[:8], "little"
        ) % 1024

    counts = Counter(
        w for t in texts for w in re.findall(r"[a-z]+", t.lower())
    )
    table = Counter()
    for w, n in counts.items():
        for r in range(4):
            table[(r, bucket(w, r))] += n
    exp = {
        w: min(table.get((r, bucket(w, r)), 0) for r in range(4)) for w in probes
    }
    assert dict(zip(got["word"], got["est_count"])) == exp
    assert exp["data"] >= 3 and exp["zebra"] >= 0


def test_orders_price_bands_hand_case(ray_session, tmp_path):
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.relational import orders_price_bands

    prices = [10.0, 49_999.99, 50_000.0, 149_999.0, 150_000.0, 500_000.0]
    tbl = pa.table({"o_totalprice": pa.array(prices)})
    tmp_path.mkdir(exist_ok=True)
    pq.write_table(tbl, tmp_path / "orders.parquet")
    got = orders_price_bands(str(tmp_path)).to_pandas().set_index("band")
    assert got.loc["00_budget", "n_orders"] == 2
    assert got.loc["01_mid", "n_orders"] == 2  # boundary 50k goes up
    assert got.loc["02_high", "n_orders"] == 1
    assert got.loc["03_premium", "n_orders"] == 1
    cents = lambda x: int(x * 100 + 0.5)
    assert got.loc["00_budget", "sum_price_cents"] == cents(10.0) + cents(49_999.99)


def test_embedding_kmeans_sizes_partition(ray_session):
    """Cluster sizes sum to the corpus and every vector lands in the
    same cell ann_ivf puts it in (shared quantizer)."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.similarity import (
        embedding_kmeans_sizes,
        train_ivf_centroids,
    )

    got = embedding_kmeans_sizes(SF, n_centroids=8, train_sample=64).to_pandas()
    t = pq.read_table(f"{SF}/embeddings.parquet")
    n_total = t.num_rows
    assert got["n_vecs"].sum() == n_total
    assert got["cid"].is_unique
    # replay assignment naively
    C = train_ivf_centroids(SF, 8, 64)
    X = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    d = (X**2).sum(1, keepdims=True) - 2.0 * X @ C.T + (C**2).sum(1)[None, :]
    assign = d.argmin(1)
    import collections

    exp = collections.Counter(assign)
    rec = dict(zip(got["cid"], got["n_vecs"]))
    assert rec == {int(k): int(v) for k, v in exp.items()}
    mins = {int(c): int(ids[assign == c].min()) for c in exp}
    assert dict(zip(got["cid"], got["min_vec_id"])) == mins


def test_priority_segment_pivot_vs_duckdb(ray_session):
    import duckdb

    from document_parser_private_ray.pipelines.relational import priority_segment_pivot

    got = priority_segment_pivot(SF).to_pandas()
    exp = duckdb.sql(
        f"""SELECT o_orderpriority, COUNT(*) AS n
            FROM read_parquet('{SF}/orders.parquet') o
            JOIN read_parquet('{SF}/customer.parquet') c
              ON c.c_custkey = o.o_custkey
            GROUP BY 1 ORDER BY 1"""
    ).df()
    seg_cols = [c for c in got.columns if c.startswith("n_")]
    assert got[seg_cols].sum(axis=1).tolist() == exp["n"].tolist()
    assert got["o_orderpriority"].tolist() == exp["o_orderpriority"].tolist()


def test_dedup_against_state_statuses(ray_session, tmp_path):
    """All three classifications: dup of the persisted state (even
    ids), dup within the increment (first odd id wins), and new."""
    import pyarrow as pa

    from document_parser_private_ray.pipelines.dedup import dedup_against_state

    texts = {
        0: "alpha", 2: "beta", 4: "gamma",          # state (even)
        1: "alpha",                                  # dup_state
        3: "delta", 5: "delta", 7: "delta",          # 3 new-first then dups
        9: "unique nine",                            # new
    }
    ids = sorted(texts)
    tbl = pa.table(
        {
            "doc_id": pa.array(ids, type=pa.int64()),
            "text": pa.array([texts[i] for i in ids]),
            "lang": pa.array(["en"] * len(ids)),
            "source": pa.array(["s"] * len(ids)),
            "n_chars": pa.array([len(texts[i]) for i in ids], type=pa.int64()),
        }
    )
    _write_tbl(tmp_path, "documents", tbl)
    got = dedup_against_state(str(tmp_path)).to_pandas()
    rec = dict(zip(got["doc_id"], got["status"]))
    assert rec == {
        1: "dup_state",
        3: "new",
        5: "dup_incoming",
        7: "dup_incoming",
        9: "new",
    }


def test_char_bigram_trainer_distributed_equals_local(ray_session):
    """The distributed (partials -> ONE tiny groupby) trainer and the
    oracle-builder's driver-side numpy trainer must agree bit-for-bit:
    this equality is what lets the SQL oracle inline the LUT."""
    from document_parser_private_ray.pipelines.lm import (
        train_char_bigram_counts,
        train_char_bigram_counts_local,
    )

    assert np.array_equal(
        train_char_bigram_counts(SF), train_char_bigram_counts_local(SF)
    )


def test_doc_perplexity_vs_naive(ray_session):
    """Pipeline scores == a pure-Python per-char replay (normalization,
    LUT lookups, integer sums, keep cross-multiply) on a doc sample."""
    import re

    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.lm import (
        DEFAULT_THRESHOLD_MICRO,
        bigram_nll_lut_micro,
        doc_perplexity,
        train_char_bigram_counts_local,
    )

    lut = bigram_nll_lut_micro(train_char_bigram_counts_local(SF))
    got = doc_perplexity(SF).to_pandas().set_index("doc_id")
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    def code(ch):
        return 0 if ch == " " else ord(ch) - 96

    for doc_id, text in list(zip(t["doc_id"].to_pylist(), t["text"].to_pylist()))[:60]:
        s = re.sub(r"[^a-z]+", " ", (text or "").lower()).strip(" ")
        nll = sum(int(lut[code(a) * 27 + code(b)]) for a, b in zip(s, s[1:]))
        n = max(len(s) - 1, 0)
        row = got.loc[doc_id]
        assert int(row["n_trans"]) == n
        assert int(row["nll_micro"]) == nll
        keep = 1 if n == 0 else int(nll <= DEFAULT_THRESHOLD_MICRO * n)
        assert int(row["keep"]) == keep
    # the filter must split the corpus, not rubber-stamp it
    assert 0 < got["keep"].sum() < len(got)


def test_doc_perplexity_short_docs(ray_session, tmp_path):
    """Empty / one-letter / non-alphabetic docs have zero transitions
    and keep=1 by definition."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.lm import doc_perplexity

    rows = [
        {"doc_id": 0, "text": ""},
        {"doc_id": 1, "text": "x"},
        {"doc_id": 2, "text": "1234 !!!"},
        {"doc_id": 3, "text": "normal words here"},
    ]
    d = tmp_path / "short"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
    out = doc_perplexity(str(d)).to_pandas().set_index("doc_id")
    assert out.loc[0, "n_trans"] == 0 and out.loc[0, "keep"] == 1
    assert out.loc[1, "n_trans"] == 0 and out.loc[1, "keep"] == 1
    assert out.loc[2, "n_trans"] == 0 and out.loc[2, "keep"] == 1
    assert out.loc[3, "n_trans"] == len("normal words here") - 1


def test_embedding_pca_vs_naive(ray_session):
    """Projected values == the naive integer-quantized dot products for
    every vector and component."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.similarity import (
        embedding_pca,
        train_pca_components,
    )

    mean_q, comps_q = train_pca_components(SF)
    got = embedding_pca(SF).to_pandas().sort_values("vec_id")  # rows come in no set order
    t = pq.read_table(f"{SF}/embeddings.parquet", columns=["vec_id", "embedding"])
    ids = np.array(t["vec_id"].to_pylist(), dtype=np.int64)
    X = np.array(t["embedding"].to_pylist(), dtype=np.float64)
    q = np.floor(X * 1_000_000).astype(np.int64) - mean_q
    order = np.argsort(ids)
    assert got["vec_id"].tolist() == ids[order].tolist()
    for k in range(comps_q.shape[0]):
        exp = (q @ comps_q[k])[order]
        assert got[f"pc{k + 1}"].tolist() == exp.tolist()
    # components carry signal: top component must not be constant
    assert got["pc1"].nunique() > 1


def test_snapshot_diff_vs_naive(ray_session):
    """Full-outer diff statuses == a dict-based replay of the same
    derivation; all three statuses must occur at this scale."""
    import hashlib

    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.joins import snapshot_diff

    got = snapshot_diff(SF).to_pandas()
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])

    def md5(s):
        return hashlib.md5(s.encode("utf-8")).hexdigest()

    snap, cur = {}, {}
    for i, tx in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        i, tx = int(i), tx or ""
        snap[i] = md5(tx)
        if i % 7 != 3:
            cur[i] = md5(tx + "~edit") if i % 11 == 5 else md5(tx)
        if i % 13 == 1:
            cur[i + 10_000_000] = md5(tx + "~new")
    exp = {}
    for i in cur.keys() | snap.keys():
        if i not in snap:
            exp[i] = "added"
        elif i not in cur:
            exp[i] = "removed"
        elif cur[i] != snap[i]:
            exp[i] = "changed"
    assert dict(zip(got["doc_id"], got["status"])) == exp
    assert set(got["status"]) == {"added", "removed", "changed"}
    assert got["doc_id"].is_unique  # one row per differing doc, in no set order


def test_bucketed_join_full_outer_small(ray_session):
    """FULL OUTER bucketed join: match, left-only and right-only rows
    all surface; right-only rows recover their key via the __rk
    carry."""
    import ray.data as rd

    from document_parser_private_ray.pipelines.joins import bucketed_join

    left = rd.from_arrow(
        pa.table({"k": pa.array([1, 2], type=pa.int64()), "a": ["x", "y"]})
    )
    right = rd.from_arrow(
        pa.table({"rk": pa.array([2, 3], type=pa.int64()), "b": ["m", "n"]})
    )
    out = bucketed_join(left, right, "k", "rk", join_type="full outer").to_pandas()
    assert len(out) == 3
    rows = {tuple(r) for r in out[["a", "b"]].itertuples(index=False, name=None)}
    assert rows == {("x", None), ("y", "m"), (None, "n")}
    right_only = out[out["a"].isna()].iloc[0]
    assert right_only["rk"] == 3


def test_neardup_keep_best_paths_equivalent(ray_session, tmp_path, monkeypatch):
    """Broadcast (small label set) and co-partition-join election paths
    return identical tables."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines import pairs as pair_layer
    from document_parser_private_ray.pipelines.dedup import neardup_keep_best

    base = " ".join(f"token{i}" for i in range(120))
    rows = []
    for i in range(40):
        if i % 10 == 3:
            text = base + " extrapayload" * (i // 10 + 1)
        else:
            text = " ".join(f"doc{i}w{j}" for j in range(100))
        rows.append({"doc_id": i, "text": text})
    d = tmp_path / "paths"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))

    # rows come in no set order
    a = neardup_keep_best(str(d), threshold=0.8).to_pandas().sort_values("cluster")
    monkeypatch.setattr(pair_layer, "BROADCAST_MAX_PAIRS", 0)
    b = neardup_keep_best(str(d), threshold=0.8).to_pandas().sort_values("cluster")
    assert len(a) > 0
    assert a.values.tolist() == b.values.tolist()


def test_minhash_against_state_vs_bruteforce(ray_session):
    """Incremental near-dup statuses == brute-force cross-side Jaccard
    over all (odd, even) doc pairs at sf0.001 — LSH banding with 128
    perms / 16 bands has ~full recall at threshold 0.8, and the
    pipeline's verify step makes precision exact."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.functions.sketches import jaccard, shingles
    from document_parser_private_ray.pipelines.dedup import minhash_against_state

    got = minhash_against_state(SF).to_pandas()
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    ids = [int(i) for i in t["doc_id"].to_pylist()]
    sh = {i: shingles(tx) for i, tx in zip(ids, t["text"].to_pylist())}
    inc = sorted(i for i in ids if i % 2 == 1)
    state = [i for i in ids if i % 2 == 0]
    exp = {}
    for i in inc:
        ms = sorted(s for s in state if jaccard(sh[i], sh[s]) >= 0.8)
        exp[i] = ("neardup_state", ms[0], len(ms)) if ms else ("new", -1, 0)
    assert got["doc_id"].tolist() == inc
    for _, r in got.iterrows():
        e = exp[int(r["doc_id"])]
        assert (r["status"], int(r["match_doc_id"]), int(r["n_matches"])) == e
    # the increment must contain both classes at this scale
    assert set(got["status"]) == {"new", "neardup_state"}


def test_minhash_against_state_planted(ray_session, tmp_path):
    """Planted increment: doc 11 duplicates state doc 4 near-verbatim
    (neardup_state, match 4), doc 13 is unique (new); state-state dups
    never appear in the output."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.dedup import minhash_against_state

    base = " ".join(f"tok{i}" for i in range(150))
    rows = [
        {"doc_id": 4, "text": base},
        {"doc_id": 6, "text": base + " tail"},          # state near-dup of 4
        {"doc_id": 8, "text": " ".join(f"s8w{j}" for j in range(90))},
        {"doc_id": 11, "text": base + " extra"},        # incoming near-dup
        {"doc_id": 13, "text": " ".join(f"i13w{j}" for j in range(90))},
    ]
    d = tmp_path / "inc"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
    out = minhash_against_state(str(d)).to_pandas().set_index("doc_id")
    assert sorted(out.index.tolist()) == [11, 13]
    assert out.loc[11, "status"] == "neardup_state"
    assert out.loc[11, "match_doc_id"] == 4
    assert out.loc[11, "n_matches"] == 2
    assert out.loc[13, "status"] == "new"
    assert out.loc[13, "match_doc_id"] == -1


def test_minhash_against_state_shuffle_path(ray_session, monkeypatch):
    """Past the pair layer's broadcast gate the per-incoming match
    rollup attaches through the bucketed join, with the broadcast
    path's answer."""
    from document_parser_private_ray.pipelines import joins
    from document_parser_private_ray.pipelines import pairs as pair_layer
    from document_parser_private_ray.pipelines.dedup import minhash_against_state

    bc = minhash_against_state(SF).to_pandas()
    calls = []
    real = joins.bucketed_join
    monkeypatch.setattr(
        joins, "bucketed_join", lambda *a, **k: calls.append(1) or real(*a, **k)
    )
    monkeypatch.setattr(pair_layer, "BROADCAST_MAX_PAIRS", 0)
    sh = minhash_against_state(SF).to_pandas()
    assert calls  # the shuffle branch ran
    assert set(bc["status"]) == {"new", "neardup_state"}
    # rows come in no set order
    assert sh.sort_values("doc_id", ignore_index=True).equals(
        bc.sort_values("doc_id", ignore_index=True)
    )


def test_ppjoin_pairs_vs_bruteforce(ray_session):
    """Prefix-filtered set-similarity join == brute-force all-pairs
    Jaccard at sf0.001 — the prefix theorem guarantees full recall, the
    verify step exact precision, so the match is bit-exact."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.functions.sketches import shingles
    from document_parser_private_ray.pipelines.setjoin import ppjoin_pairs

    got = ppjoin_pairs(SF).to_pandas().sort_values(["doc_a", "doc_b"])  # rows come in no set order
    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    sh = {
        int(d): shingles(tx)
        for d, tx in zip(t["doc_id"].to_pylist(), t["text"].to_pylist())
    }
    exp = []
    ids = sorted(sh)
    for ai, a in enumerate(ids):
        for b in ids[ai + 1 :]:
            i = len(sh[a] & sh[b])
            u = len(sh[a]) + len(sh[b]) - i
            if u > 0 and i * 10 >= 7 * u:
                exp.append((a, b, i, u))
    assert [tuple(r) for r in got.values.tolist()] == exp
    assert len(exp) > 0  # the corpus must exercise the operator


def test_ppjoin_planted_and_short_docs(ray_session, tmp_path):
    """Planted corpus: an exact dup pair and a one-edit near-dup pair
    are found; a disjoint doc and sub-threshold pairs are not; docs
    shorter than the shingle width k fall back to the whole-text
    shingle (two equal short docs pair at J=1)."""
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.setjoin import ppjoin_pairs

    base = " ".join(f"tok{i}" for i in range(60))
    rows = [
        {"doc_id": 1, "text": base},
        {"doc_id": 2, "text": base},                     # exact dup of 1
        {"doc_id": 3, "text": base + " tail"},           # near-dup of 1/2
        {"doc_id": 4, "text": " ".join(f"z{j}" for j in range(60))},
        {"doc_id": 5, "text": "hi there"},               # len < k
        {"doc_id": 6, "text": "hi there"},               # equal short doc
        {"doc_id": 7, "text": ""},                       # empty: excluded
    ]
    d = tmp_path / "pp"
    d.mkdir()
    pq.write_table(pa.Table.from_pylist(rows), str(d / "documents.parquet"))
    got = ppjoin_pairs(str(d)).to_pandas()
    pairs = {(int(a), int(b)) for a, b in zip(got["doc_a"], got["doc_b"])}
    assert pairs == {(1, 2), (1, 3), (2, 3), (5, 6)}
    r12 = got[(got["doc_a"] == 1) & (got["doc_b"] == 2)].iloc[0]
    assert r12["n_common"] == r12["n_union"] == 58
    r56 = got[(got["doc_a"] == 5) & (got["doc_b"] == 6)].iloc[0]
    assert r56["n_common"] == r56["n_union"] == 1


def test_decontaminate_clean_vs_naive(ray_session):
    """Window removal == naive per-doc replay of positional shingle hits."""
    from document_parser_private_ray.functions.sketches import shingles
    from document_parser_private_ray.pipelines.decontam import (
        BENCH_MOD,
        decontaminate_clean,
    )

    sf = "/root/testdata/sf0.001"
    rows = {
        r["doc_id"]: r for r in decontaminate_clean(sf).take_all()
    }
    import pyarrow.parquet as pq

    docs = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
    bench = set()
    for i, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        if i % BENCH_MOD == 0:
            bench |= shingles(t)
    removed_any = 0
    for i, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist()):
        wo = t.split()
        wl = t.lower().split()
        if i % BENCH_MOD == 0 or not wo:
            exp = " ".join(wo)
        elif len(wl) < 3:
            from document_parser_private_ray.functions.sketches import _stable_hash64

            exp = "" if _stable_hash64(" ".join(wl)) in bench else " ".join(wo)
        else:
            covered = [False] * len(wo)
            for s in range(len(wl) - 2):
                from document_parser_private_ray.functions.sketches import _stable_hash64

                if _stable_hash64(" ".join(wl[s : s + 3])) in bench:
                    for j in range(s, s + 3):
                        covered[j] = True
            exp = " ".join(w for w, c in zip(wo, covered) if not c)
        got = rows[i]
        assert got["clean_text"] == exp, i
        assert got["n_removed"] == len(wo) - len(exp.split()), i
        removed_any += got["n_removed"] > 0
    assert removed_any > 0  # the pass actually removes something


def test_doc_normalize_unicode_semantics(ray_session, tmp_path):
    """NFC composition, control-char strip, whitespace collapse — the
    behaviors the ASCII testdata cannot exercise."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.text_analysis import doc_normalize

    decomposed = "café"  # e + combining acute -> café (NFC)
    rows = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], type=pa.int64()),
            "text": pa.array(
                [
                    f"  {decomposed}   crème\tbrûlée \n",
                    "ctrl\x00chars\x1fstripped\x7f",
                    "already clean",
                    "",
                ]
            ),
        }
    )
    pq.write_table(rows, tmp_path / "documents.parquet")
    got = {r["doc_id"]: r for r in doc_normalize(str(tmp_path)).take_all()}
    assert got[1]["norm_text"] == "café crème brûlée"
    assert got[1]["changed"] == 1 and got[1]["n_after"] == 17
    assert got[2]["norm_text"] == "ctrlcharsstripped"
    assert got[3]["norm_text"] == "already clean" and got[3]["changed"] == 0
    assert got[4]["norm_text"] == "" and got[4]["n_after"] == 0
