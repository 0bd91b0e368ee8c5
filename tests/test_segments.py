"""Segment-level curation: boilerplate removal + exact segment dedup."""

import pyarrow as pa
import pyarrow.parquet as pq


def _write_docs(tmp_path, texts, sources=None):
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * len(texts)),
            "source": pa.array(sources or ["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")


def test_remove_boilerplate_planted(ray_session, tmp_path):
    """A 4-word segment present in >= min_df docs is stripped from all
    of them; rare segments survive; counts are exact."""
    from document_parser_private_ray.pipelines.segments import remove_boilerplate

    boiler = "click here to subscribe"
    texts = [
        f"{boiler} alpha beta gamma delta",
        f"{boiler} epsilon zeta eta theta",
        "iota kappa lambda mu",
    ]
    _write_docs(tmp_path, texts)
    # rows come in no set order
    got = remove_boilerplate(str(tmp_path), min_df=2).to_pandas().sort_values("doc_id")
    assert got["n_segs"].tolist() == [2, 2, 1]
    assert got["n_removed"].tolist() == [1, 1, 0]
    assert got["clean_text"].tolist() == [
        "alpha beta gamma delta",
        "epsilon zeta eta theta",
        "iota kappa lambda mu",
    ]


def test_dedup_segments_first_occurrence_wins(ray_session, tmp_path):
    """The min-(doc_id, pos) copy of each segment survives; later copies
    (other docs AND later positions in the same doc) are dropped."""
    from document_parser_private_ray.pipelines.segments import dedup_segments

    dup = "one two three four"
    texts = [
        f"{dup} five six seven eight {dup}",   # pos 0 keeps, pos 2 drops
        f"{dup} nine ten eleven twelve",        # doc 1 copy drops
        "thirteen fourteen fifteen sixteen",
    ]
    _write_docs(tmp_path, texts)
    # rows come in no set order
    got = dedup_segments(str(tmp_path)).to_pandas().sort_values("doc_id")
    assert got["n_segs"].tolist() == [3, 2, 1]
    assert got["n_kept"].tolist() == [2, 1, 1]
    assert got["clean_text"].tolist() == [
        f"{dup} five six seven eight",
        "nine ten eleven twelve",
        "thirteen fourteen fifteen sixteen",
    ]


def test_segment_kernel_tail_and_empty(ray_session, tmp_path):
    """Short tail segments keep their residual words; an empty document
    contributes no output row (matching the SQL oracle)."""
    from document_parser_private_ray.pipelines.segments import dedup_segments

    texts = ["a b c d e", ""]
    _write_docs(tmp_path, texts)
    got = dedup_segments(str(tmp_path)).to_pandas()
    assert got["doc_id"].tolist() == [0]
    assert got["n_segs"].tolist() == [2]  # 'a b c d' + tail 'e'
    assert got["clean_text"].tolist() == ["a b c d e"]


def test_word_split_ignores_the_bytes_after_a_string():
    """pyarrow's ``utf8_split_whitespace`` reads past a string's trailing
    whitespace and, with a byte >= 0x80 there, returns the whitespace as
    a token. The shared split (segments and the shingle explode of the
    ngram / set-join family) trims first, so a document's words do not
    depend on the bytes after it in the buffer: the next document's, or
    the uninitialised padding after the last one, which gave
    whitespace-only documents a " " shingle now and then and so made
    ``ngram_jaccard_pairs`` pair them."""
    import numpy as np

    from document_parser_private_ray.pipelines.segments import (
        _segment_batch,
        _split_words,
    )
    from document_parser_private_ray.pipelines.setjoin import _explode_shingles

    # each string ends in whitespace and the bytes after it are >= 0x80
    texts = ["alpha beta ", "\u00e9 b  ", "\u4e2d ", "  "]
    raw = [t.encode() for t in texts]
    offsets = np.cumsum([0] + [len(r) for r in raw]).astype(np.int32)
    dirty = pa.StringArray.from_buffers(
        len(texts), pa.py_buffer(offsets.tobytes()), pa.py_buffer(b"".join(raw) + b"\x80" * 8)
    )
    assert [[w for w in ws if w] for ws in _split_words(dirty).to_pylist()] == [
        t.split() for t in texts
    ]
    ids = pa.array(range(len(texts)), type=pa.int64())
    clean = pa.table({"doc_id": ids, "text": pa.array(texts)})
    assert _segment_batch(pa.table({"doc_id": ids, "text": dirty}), 2).equals(
        _segment_batch(clean, 2)
    )
    assert _explode_shingles(pa.table({"doc_id": ids, "text": ["  "] * 4}), 3).num_rows == 0


def test_segment_ops_null_text_poison(ray_session, tmp_path):
    """A NULL text row is dropped (matching SQL NULL semantics: the
    oracle's len(w) > 0 filter excludes it) — no task failure."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.segments import (
        dedup_segments,
        remove_boilerplate,
    )

    tbl = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], type=pa.int64()),
            "text": pa.array(["a b c d", None, "e f g h"]),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([7, 0, 7], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    # rows come in no set order
    got_d = dedup_segments(str(tmp_path)).to_pandas().sort_values("doc_id")
    assert got_d["doc_id"].tolist() == [0, 2]
    got_b = remove_boilerplate(str(tmp_path), min_df=2).to_pandas().sort_values("doc_id")
    assert got_b["doc_id"].tolist() == [0, 2]
    assert got_b["clean_text"].tolist() == ["a b c d", "e f g h"]


def test_dedup_segments_heavy_duplication(ray_session, tmp_path):
    """A segment planted in thousands of docs survives exactly once (in
    the lowest doc), every other copy drops — the salted-election path
    under real duplication pressure."""
    from document_parser_private_ray.pipelines.segments import dedup_segments

    dup = "lorem ipsum dolor sit"
    n = 3000
    texts = [f"{dup} unique{i:05d} filler word extra" for i in range(n)]
    _write_docs(tmp_path, texts)
    got = dedup_segments(str(tmp_path)).to_pandas()
    assert len(got) == n
    # doc 0 keeps both segments; every other doc loses exactly the dup
    assert got.loc[got["doc_id"] == 0, "n_kept"].tolist() == [2]
    assert (got.loc[got["doc_id"] > 0, "n_kept"] == 1).all()
    assert got.loc[got["doc_id"] == 1, "clean_text"].tolist() == [
        "unique00001 filler word extra"
    ]


def test_dup_cluster_histogram_planted(ray_session, tmp_path):
    """Planted duplicate clusters of sizes 3, 2 and singletons land in
    the right histogram buckets."""
    from document_parser_private_ray.pipelines.dedup import dup_cluster_histogram

    texts = ["aaa", "aaa", "aaa", "bbb", "bbb", "ccc", "ddd"]
    _write_docs(tmp_path, texts)
    got = dup_cluster_histogram(str(tmp_path)).to_pandas().set_index("cluster_size")
    assert got.loc[1, "n_clusters"] == 2 and got.loc[1, "n_docs"] == 2
    assert got.loc[2, "n_clusters"] == 1 and got.loc[2, "n_docs"] == 2
    assert got.loc[3, "n_clusters"] == 1 and got.loc[3, "n_docs"] == 3


def test_dup_rate_by_source_planted(ray_session, tmp_path):
    """Non-keeper copies count against their OWN source; the keeper
    (min doc_id) does not count as a duplicate."""
    from document_parser_private_ray.pipelines.dedup import dup_rate_by_source

    texts = ["same", "same", "same", "unique1", "unique2"]
    sources = ["a", "b", "b", "a", "b"]
    _write_docs(tmp_path, texts, sources)
    got = dup_rate_by_source(str(tmp_path)).to_pandas().set_index("source")
    # doc 0 (source a) is the keeper; docs 1,2 (source b) are duplicates
    assert got.loc["a", "n_docs"] == 2 and got.loc["a", "n_duplicates"] == 0
    assert got.loc["b", "n_docs"] == 3 and got.loc["b", "n_duplicates"] == 2


def test_remove_boilerplate_all_boilerplate_batch(ray_session, tmp_path):
    """Ten copies of one 8-word text: both segments are in every
    document, so a batch keeps no segment at all and each document comes
    back empty (the kept-segment column of a table filtered to no rows
    has no chunks). Expected rows come from a naive reference."""
    from collections import defaultdict

    from document_parser_private_ray.pipelines.segments import remove_boilerplate

    texts = ["the quick brown fox jumps over the dog"] * 10
    _write_docs(tmp_path, texts)
    segs = {
        d: [" ".join(w[i : i + 4]) for i in range(0, len(w), 4)]  # 4-word segments
        for d, w in enumerate(t.split() for t in texts)
    }
    docs_of = defaultdict(set)
    for d, ss in segs.items():
        for s in ss:
            docs_of[s].add(d)
    boiler = {s for s, ds in docs_of.items() if len(ds) >= 5}
    expected = [
        (d, len(ss), sum(s in boiler for s in ss), " ".join(s for s in ss if s not in boiler))
        for d, ss in segs.items()
    ]
    got = remove_boilerplate(str(tmp_path)).to_pandas().sort_values("doc_id")
    assert list(got.itertuples(index=False, name=None)) == expected
    assert [e[3] for e in expected] == [""] * 10


def test_as_array_of_a_zero_chunk_column():
    from document_parser_private_ray.pipelines.exchange import as_array

    t = pa.table({"seg": pa.array(["a", "b"])}).filter(pa.array([False, False]))
    assert t["seg"].num_chunks == 0
    assert as_array(t["seg"]).equals(pa.array([], type=pa.string()))
    chunked = pa.chunked_array([["a"], ["b", "c"]])
    assert as_array(chunked).equals(pa.array(["a", "b", "c"]))
