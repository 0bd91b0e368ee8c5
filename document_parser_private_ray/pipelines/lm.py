"""Character-bigram language-model perplexity filter (CCNet shape).

CCNet (Wenzek'19) filters crawled text by the perplexity of a language
model trained on a clean reference corpus; FineWeb and RedPajama keep
the same design. This module is the engine's deterministic, oracle-able
instance of that operator family:

* the LM is a 27-symbol (space + a-z) character bigram model with
  add-one smoothing — 729 parameters, so the trained model broadcasts
  to every score task for free and the DuckDB oracle can inline the
  whole negative-log-likelihood table as integer literals;
* all per-document scores are SUMS of int64 micro-nat terms
  (``floor(-1e6 * ln p)`` per transition), so accumulation order can
  never change a result and the SQL replay is bit-exact;
* the keep decision is an integer cross-multiply
  (``nll_total <= threshold * n_transitions``) — no float division.

Scale shape: training is ONE corpus scan emitting 729-long count
partials per batch folded by a single tiny groupby (shuffle bounded by
batches x 729, never corpus rows); scoring is ONE independent scan with
the LUT resident per batch — no shuffle, no join. At 100 TB both
passes stream block-by-block with O(729) state anywhere.

Reference anchor: the reference repo has no corpus-level statistical
filter (it is a single-document parser); this operator extends the
engine along SURVEY §2's training-data axis like `text_analysis.py`.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import as_array

N_SYMBOLS = 27  # space + a-z
N_CODES = N_SYMBOLS * N_SYMBOLS

# Integer micro-nat threshold on average transition NLL. ln(27) ≈ 3.296
# nats is the uniform-model ceiling; prose under a corpus-trained
# bigram LM sits near 1.7 nats/transition. CCNet splits its corpus at
# perplexity terciles of the reference LM — this default sits at the
# corpus median so the filter separates head from tail rather than
# rubber-stamping everything.
DEFAULT_THRESHOLD_MICRO = 1_700_000


def _normalize(text):
    """lowercase, collapse every non [a-z] run to ONE space, trim.

    Mirrored exactly by the oracle's
    ``trim(regexp_replace(lower(text), '[^a-z]+', ' ', 'g'), ' ')``.
    """
    out = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
    )
    return pc.utf8_trim(out, " ")


def _flat_codes(norm: pa.Array):
    """(codes uint8 flat stream, per-row offsets int64) read straight
    off the Arrow string buffer — zero per-row Python. space->0,
    a..z -> 1..26."""
    norm = as_array(norm)
    nrows = len(norm)
    off_dtype = np.int64 if pa.types.is_large_string(norm.type) else np.int32
    offs = np.frombuffer(norm.buffers()[1], dtype=off_dtype)[
        norm.offset : norm.offset + nrows + 1
    ].astype(np.int64)
    chars = np.frombuffer(norm.buffers()[2], dtype=np.uint8)[offs[0] : offs[-1]]
    rel = offs - offs[0]
    codes = np.where(chars == 0x20, 0, chars.astype(np.int64) - 0x60)
    return codes, rel


def _pair_codes(codes: np.ndarray, rel: np.ndarray):
    """Adjacent-pair codes (prev*27+cur) over the flat stream with
    row-boundary pairs masked out. Returns (pair_codes aligned to char
    positions [0, n_chars), valid mask) — pairs at the last char of
    each row are invalid, so a plain per-row slice-sum over
    [rel[r], rel[r+1]) counts exactly that row's transitions."""
    n = codes.size
    pairs = np.zeros(n, dtype=np.int64)
    valid = np.zeros(n, dtype=bool)
    if n > 1:
        pairs[:-1] = codes[:-1] * N_SYMBOLS + codes[1:]
        valid[:-1] = True
    # mask the position just before each row boundary (cross-row pair)
    ends = rel[1:] - 1  # last char index of each row (== rel[r] - 1 when empty)
    ends = ends[(ends >= 0) & (ends < n)]
    valid[ends] = False
    pairs[~valid] = 0
    return pairs, valid


def train_char_bigram_counts_local(sf_dir: str) -> np.ndarray:
    """Driver-side exact transition counts (729 int64) over the whole
    documents table — the oracle-builder's trainer. One linear numpy
    pass; used by `oracle_sql` and pinned equal to the distributed
    trainer by pytest."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    norm = _normalize(t["text"].combine_chunks())
    norm = as_array(norm)
    codes, rel = _flat_codes(norm)
    pairs, valid = _pair_codes(codes, rel)
    return np.bincount(pairs[valid], minlength=N_CODES).astype(np.int64)


def train_char_bigram_counts(sf_dir: str) -> np.ndarray:
    """Distributed transition counts: per-batch 729-long partials ->
    ONE tiny groupby over codes. The exchange is bounded by
    batches x 729 rows regardless of corpus size."""
    from ..sources.readers import read_documents
    from .exchange import grouped_agg

    def partial(t: pa.Table) -> pa.Table:
        codes, rel = _flat_codes(_normalize(t["text"]))
        pairs, valid = _pair_codes(codes, rel)
        counts = np.bincount(pairs[valid], minlength=N_CODES).astype(np.int64)
        nz = np.flatnonzero(counts)
        return pa.Table.from_pydict(
            {
                "code": pa.array(nz, type=pa.int64()),
                "n": pa.array(counts[nz], type=pa.int64()),
            }
        )

    rows = grouped_agg(
        read_documents(sf_dir, columns=("text",)).map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ),
        "code",
        {"n": ("n", "sum")},
    ).take_all()  # <= 729 rows by construction
    counts = np.zeros(N_CODES, dtype=np.int64)
    for r in rows:
        counts[int(r["code"])] = int(r["n"])
    return counts


def bigram_nll_lut_micro(counts: np.ndarray) -> np.ndarray:
    """Add-one-smoothed NLL lookup table in integer micro-nats:
    lut[prev*27+cur] = floor(-1e6 * ln((n+1) / (row_total+27))).
    Pure-Python floats on 64-bit IEEE — deterministic, and shared
    verbatim by the oracle builder so both engines inline the SAME
    integers."""
    counts = counts.reshape(N_SYMBOLS, N_SYMBOLS)
    row_tot = counts.sum(axis=1)
    lut = np.zeros(N_CODES, dtype=np.int64)
    for p in range(N_SYMBOLS):
        denom = int(row_tot[p]) + N_SYMBOLS
        for c in range(N_SYMBOLS):
            prob = (int(counts[p, c]) + 1) / denom
            lut[p * N_SYMBOLS + c] = math.floor(-1e6 * math.log(prob))
    return lut


def doc_perplexity(sf_dir: str):
    """Per-document bigram-LM score: (doc_id, n_trans, nll_micro,
    keep), one row per document. nll_micro is the exact int64 sum of
    per-transition micro-nat NLLs; keep = 1 iff the integer
    cross-multiply ``nll_micro <= DEFAULT_THRESHOLD_MICRO * n_trans`` holds
    (empty/1-char docs keep by definition).

    The 729-entry LUT is trained distributed (one bounded-exchange
    scan) then broadcast inside the scoring closure; scoring itself is
    one shuffle-free pass."""
    from ..sources.readers import read_documents

    lut = bigram_nll_lut_micro(train_char_bigram_counts(sf_dir))

    def score(t: pa.Table) -> pa.Table:
        codes, rel = _flat_codes(_normalize(t["text"]))
        pairs, valid = _pair_codes(codes, rel)
        contrib = np.where(valid, lut[pairs], 0)
        csum = np.concatenate([[0], np.cumsum(contrib)])
        nll = csum[rel[1:]] - csum[rel[:-1]]
        lens = rel[1:] - rel[:-1]
        n_trans = np.maximum(lens - 1, 0)
        keep = np.where(
            n_trans == 0, 1, (nll <= DEFAULT_THRESHOLD_MICRO * n_trans).astype(np.int64)
        )
        return pa.Table.from_pydict(
            {
                "doc_id": pc.cast(t["doc_id"], pa.int64()),
                "n_trans": pa.array(n_trans, type=pa.int64()),
                "nll_micro": pa.array(nll, type=pa.int64()),
                "keep": pa.array(keep.astype(np.int64), type=pa.int64()),
            }
        )

    return (
        read_documents(sf_dir)
        .map_batches(score, batch_format="pyarrow", zero_copy_batch=True)
    )
