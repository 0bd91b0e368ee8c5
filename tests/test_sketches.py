"""Sketch kernels: minhash accuracy vs exact Jaccard, simhash locality,
winnowing/fingerprints, shingles."""

import numpy as np

from document_parser_private_ray.functions.sketches import (
    MinHasher,
    jaccard,
    shingles,
    simhash64,
)
from document_parser_private_ray.functions.textstats import (
    bpe_token_count,
    lang_id,
    md5_fingerprint,
    winnow_fingerprints,
)


def test_shingles():
    assert shingles("a b c d") == {
        s for s in shingles("a b c d")
    }
    assert len(shingles("a b c d")) == 2  # "a b c", "b c d"
    assert shingles("") == set()
    assert len(shingles("one two")) == 1  # shorter than k -> whole text


def test_jaccard():
    a, b = {1, 2, 3}, {2, 3, 4}
    assert jaccard(a, b) == 0.5
    assert jaccard(set(), set()) == 1.0
    assert jaccard(a, set()) == 0.0


def test_minhash_estimates_jaccard():
    rng = np.random.RandomState(3)
    base = [f"w{i}" for i in range(200)]
    t1 = " ".join(base)
    t2 = " ".join(base[:150] + [f"x{i}" for i in range(50)])  # ~0.58 overlap
    s1, s2 = shingles(t1), shingles(t2)
    true_j = jaccard(s1, s2)
    h = MinHasher(n_perm=256)
    est = float(np.mean(h.signature(s1) == h.signature(s2)))
    assert abs(est - true_j) < 0.12


def test_minhash_bands_identical_for_identical_text():
    h = MinHasher()
    s = shingles("the quick brown fox jumps over the lazy dog")
    assert h.band_keys(h.signature(s)) == h.band_keys(h.signature(set(s)))


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")


def test_simhash_locality():
    t1 = " ".join(f"word{i}" for i in range(100))
    t2 = t1 + " extra"
    t3 = " ".join(f"other{i}" for i in range(100))
    d_close = hamming64(simhash64(t1), simhash64(t2))
    d_far = hamming64(simhash64(t1), simhash64(t3))
    assert d_close < d_far
    assert d_close <= 8
    assert simhash64("") == 0


def test_textstats():
    assert bpe_token_count("hello world") == 2
    assert bpe_token_count("don't stop") == 3  # don | 't | " stop"
    assert md5_fingerprint("abc") == "900150983cd24fb0d6963f7d28e17f72"


def test_lang_id():
    assert lang_id("the cat and the dog are in the house") == "en"
    assert lang_id("der Hund und die Katze sind nicht auf ein Haus") == "de"
    assert lang_id("") == "und"
    assert lang_id("zzz qqq") == "und"


def test_winnow_deterministic_and_local():
    t = " ".join(f"tok{i}" for i in range(100))
    f1 = winnow_fingerprints(t)
    f2 = winnow_fingerprints(t)
    assert f1 == f2 and len(f1) > 0
    # near-identical texts share most fingerprints
    t2 = t + " tail"
    shared = set(f1) & set(winnow_fingerprints(t2))
    assert len(shared) / len(f1) > 0.8
    assert winnow_fingerprints("") == []


def test_vocab_hll_vs_naive(ray_session, tmp_path):
    """HLL registers and the integer raw estimate match a naive
    single-process replay over the same vocabulary."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.cardinality import vocab_hll

    import itertools

    letters = "abcdefghijklmnopqrstuvwxyz"
    words = [
        "".join(t) for t in itertools.islice(itertools.product(letters, repeat=3), 300)
    ]
    texts = [" ".join(words[i::3]) for i in range(3)]  # overlapping thirds
    tbl = pa.table(
        {
            "doc_id": pa.array(range(3), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(["en"] * 3),
            "source": pa.array(["s"] * 3),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")

    regs = [0] * 64
    for w in {w for t in texts for w in t.split()}:
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")
        reg, rest = h % 64, h // 64
        rho = 59 if rest == 0 else (rest & -rest).bit_length()
        regs[reg] = max(regs[reg], rho)
    s = sum(1 << (59 - v) for v in regs)
    est = (709337 * 64 * 64 * (1 << 59)) // (1000000 * s)

    got = vocab_hll(str(tmp_path)).to_pandas()
    assert got["m"].tolist() == [64]
    assert got["n_zero_registers"].tolist() == [sum(1 for v in regs if v == 0)]
    assert got["sum_rho"].tolist() == [sum(regs)]
    assert got["est_distinct"].tolist() == [est]


def test_corpus_shuffle_exact_permutation(ray_session, tmp_path):
    """Positions form a 0..n-1 permutation equal to the rank of the
    keyed md5 hash (doc_id tiebreak) in a naive sort."""
    import hashlib

    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.splits import corpus_shuffle

    n = 257
    tbl = pa.table(
        {
            "doc_id": pa.array(range(n), type=pa.int64()),
            "text": pa.array(["x"] * n),
            "lang": pa.array(["en"] * n),
            "source": pa.array(["s"] * n),
            "n_chars": pa.array([1] * n, type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = corpus_shuffle(str(tmp_path)).to_pandas()

    def key(i):
        return (
            int.from_bytes(
                hashlib.md5(f"{i}:s42".encode()).digest()[:8], "little"
            ),
            i,
        )

    expected = {i: r for r, i in enumerate(sorted(range(n), key=key))}
    assert sorted(got["pos"].tolist()) == list(range(n))
    assert dict(zip(got["doc_id"], got["pos"])) == expected


def test_length_mad_by_lang_disc_rule(ray_session, tmp_path):
    """Median uses the discrete rule (smallest value with cum >= ceil
    (n/2)); MAD is the weighted median of absolute deviations."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.text_analysis import (
        length_mad_by_lang,
    )

    # lengths 1,3,5,9 for lang a (even count: DISC median = 3);
    # deviations |x-3| = 2,0,2,6 -> sorted 0,2,2,6 -> MAD = 2
    texts_a = ["x", "xxx", "xxxxx", "x" * 9]
    texts_b = ["yy", "yy", "yyyy"]  # median 2, deviations 0,0,2 -> MAD 0
    texts = texts_a + texts_b
    langs = ["a"] * 4 + ["b"] * 3
    tbl = pa.table(
        {
            "doc_id": pa.array(range(len(texts)), type=pa.int64()),
            "text": pa.array(texts),
            "lang": pa.array(langs),
            "source": pa.array(["s"] * len(texts)),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(tbl, tmp_path / "documents.parquet")
    got = length_mad_by_lang(str(tmp_path)).to_pandas().set_index("lang")
    assert got.loc["a", "median_n_chars"] == 3
    assert got.loc["a", "mad_n_chars"] == 2
    assert got.loc["b", "median_n_chars"] == 2
    assert got.loc["b", "mad_n_chars"] == 0


def test_source_token_gini_known_values(ray_session, tmp_path):
    """Gini of equal masses is 0; a fully-concentrated corpus
    approaches (n-1)/n."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.text_analysis import (
        source_token_gini,
    )

    def write(d, texts, sources):
        tbl = pa.table(
            {
                "doc_id": pa.array(range(len(texts)), type=pa.int64()),
                "text": pa.array(texts),
                "lang": pa.array(["en"] * len(texts)),
                "source": pa.array(sources),
                "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
            }
        )
        d.mkdir(exist_ok=True)
        pq.write_table(tbl, d / "documents.parquet")

    eq = tmp_path / "eq"
    write(eq, ["a b", "c d"], ["s1", "s2"])  # 2 tokens each
    got = source_token_gini(str(eq)).to_pandas()
    assert got["gini_micro"].tolist() == [0]

    conc = tmp_path / "conc"
    write(conc, ["a b c d e f g h", "x"], ["s1", "s2"])  # 8 vs 1
    got2 = source_token_gini(str(conc)).to_pandas()
    # exact: ordered sum = 2*7=14; denom = 2*2*9=36 -> 388888 micro
    assert got2["gini_micro"].tolist() == [14 * 1_000_000 // 36]
