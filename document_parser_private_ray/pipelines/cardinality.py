"""Distributed distinct-count sketching: KMV (k-minimum-values,
Bar-Yossef'02 "Counting distinct elements in a data stream" — public
method) over the corpus vocabulary. The estimator keeps only the k
smallest distinct hash values; the k-th minimum's position in hash
space estimates the cardinality as ``(k-1) / v_k``.

Why this sketch here: it is DETERMINISTIC (md5, fixed k), so unlike
HLL-style estimators the DuckDB oracle replays the sketch value — not
just the true count — bit-exactly. And it is the canonical combinable
partial: each batch contributes its own k smallest distinct hashes, a
union of partials preserves the global k minima, so the exchange is
bounded by batches x k hashes regardless of corpus vocabulary.

Shape: one streaming scan emits per-batch partial minima -> ONE tiny
groupby-distinct over <= batches x k hashes -> sort + limit k -> the
single-row estimate. Integer arithmetic throughout: the estimate is
``(k-1) * 2^48 // int(kth_hash[:12], 16)`` (48-bit prefix), identical
in Python and DuckDB BIGINT division for positive operands.

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
LLM-training-data family the engine adds (corpus cardinality profiling
before tokenizer/vocab decisions).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import as_array, grouped_agg

K = 16  # sketch size: the K smallest distinct word hashes
_PREFIX_DIV = 1 << 48


def _batch_word_hash_minima(t: pa.Table, k: int) -> pa.Table:
    """Per-batch partial: the k smallest distinct md5(word) hex values
    over lowercase a-z words."""
    text = t["text"]
    text = as_array(text)
    cleaned = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
    )
    flat = pc.list_flatten(pc.split_pattern(cleaned, " "))
    words = pc.unique(pc.drop_null(flat)).to_pylist()
    hashes = sorted(
        {hashlib.md5(w.encode()).hexdigest() for w in words if w}
    )[:k]
    return pa.Table.from_pydict({"h": pa.array(hashes, type=pa.string())})


def vocab_kmv(sf_dir: str):
    """Single-row KMV estimate of the corpus vocabulary size:
    ``k`` (sketch size), ``kth_hash`` (the k-th minimum md5, '' when
    the vocabulary is smaller than k), ``est_distinct``."""
    from ..sources.readers import read_documents

    minima = (
        grouped_agg(  # distinct across partials
            read_documents(sf_dir), "h", {},
            rows=lambda t: _batch_word_hash_minima(t, K), batch_size=1024,
        )
        .sort("h")
        .limit(K)
        .take_all()
    )  # <= k rows by construction — the sketch, not the corpus
    hashes = [r["h"] for r in minima]
    if len(hashes) < K:
        est, kth = len(hashes), ""
    else:
        kth = hashes[-1]
        est = (K - 1) * _PREFIX_DIV // max(int(kth[:12], 16), 1)
    return pa.Table.from_pydict(
        {
            "k": pa.array([K], type=pa.int64()),
            "kth_hash": pa.array([kth], type=pa.string()),
            "est_distinct": pa.array([est], type=pa.int64()),
        }
    )


def _batch_source_hash_minima(t: pa.Table, k: int) -> pa.Table:
    """Per-batch partial: for each source present in the batch, the k
    smallest distinct md5(word) hex values — (source, h) rows, at most
    sources x k per batch."""
    srcs = t["source"].to_pylist()
    out_s, out_h = [], []
    order = {}
    for i, s in enumerate(srcs):
        order.setdefault(s, []).append(i)
    for s, idxs in order.items():
        sub = t.take(pa.array(idxs))
        part = _batch_word_hash_minima(sub, k)
        hs = part["h"].to_pylist()
        out_s += [s] * len(hs)
        out_h += hs
    return pa.Table.from_pydict(
        {
            "source": pa.array(out_s, type=pa.string()),
            "h": pa.array(out_h, type=pa.string()),
        }
    )


def vocab_kmv_by_source(sf_dir: str):
    """Per-source KMV vocabulary estimate — the grouped-sketch shape:
    each batch emits at most sources x k partial minima, ONE hash
    shuffle on source merges them (group size bounded by batches x k,
    never by the stratum's text volume), and the per-group finalizer
    dedups, sorts and keeps k. Columns: source, k, kth_hash ('' when
    the stratum vocabulary is smaller than k), est_distinct."""
    from ..sources.readers import read_documents

    ds = read_documents(sf_dir, ["doc_id", "text", "source"])
    partials = ds.map_batches(
        lambda t: _batch_source_hash_minima(t, K),
        batch_format="pyarrow",
        zero_copy_batch=True,
        batch_size=1024,
    )

    def finalize(group: pa.Table) -> pa.Table:
        src = group["source"][0].as_py()
        hashes = sorted(set(group["h"].to_pylist()))[:K]
        if len(hashes) < K:
            est, kth = len(hashes), ""
        else:
            kth = hashes[-1]
            est = (K - 1) * _PREFIX_DIV // max(int(kth[:12], 16), 1)
        return pa.Table.from_pydict(
            {
                "source": pa.array([src], type=pa.string()),
                "k": pa.array([K], type=pa.int64()),
                "kth_hash": pa.array([kth], type=pa.string()),
                "est_distinct": pa.array([est], type=pa.int64()),
            }
        )

    return (
        partials.groupby("source")
        .map_groups(finalize, batch_format="pyarrow", zero_copy_batch=True)
    )


CMS_DEPTH = 4
CMS_WIDTH = 1024


def _cms_bucket(word: str, row: int) -> int:
    """Row-salted md5 bucket — replayable in SQL as
    md5_number_upper(CONCAT(row, ':', word)) % CMS_WIDTH."""
    return int.from_bytes(
        hashlib.md5(f"{row}:{word}".encode()).digest()[:8], "little"
    ) % CMS_WIDTH


def word_cms_estimates(sf_dir: str, probes=None):
    """Count-Min sketch (Cormode-Muthukrishnan'05 — public method) of
    corpus word frequencies, probed for a fixed word list. The sketch
    is the canonical mergeable partial: each batch emits (row, bucket,
    n) partial counts — the exchange is bounded by batches x depth x
    distinct-buckets, never by tokens — and ONE groupby sums the
    counters. Deterministic row-salted md5 buckets mean the DuckDB
    oracle replays the exact estimate (min over rows of the probed
    bucket's counter), including collision inflation."""
    import numpy as np

    from ..sources.readers import read_documents

    if probes is None:
        probes = ["data", "table", "query", "spark", "zebra"]

    def partials(t: pa.Table) -> pa.Table:
        text = t["text"]
        text = as_array(text)
        cleaned = pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
        )
        flat = pc.list_flatten(pc.split_pattern(cleaned, " "))
        flat = flat.filter(pc.greater(pc.utf8_length(flat), 0))
        vc = pc.value_counts(flat)
        words = pc.struct_field(vc, "values").to_pylist()
        counts = pc.struct_field(vc, "counts").to_numpy(zero_copy_only=False)
        rows_out, buckets_out, n_out = [], [], []
        for r in range(CMS_DEPTH):
            bks = np.array([_cms_bucket(w, r) for w in words])
            # collapse same-bucket words inside the batch partial
            uniq, inv = np.unique(bks, return_inverse=True)
            sums = np.bincount(inv, weights=counts).astype(np.int64)
            rows_out.append(np.full(len(uniq), r, dtype=np.int64))
            buckets_out.append(uniq.astype(np.int64))
            n_out.append(sums)
        return pa.Table.from_pydict(
            {
                "row": pa.array(np.concatenate(rows_out), type=pa.int64()),
                "bucket": pa.array(np.concatenate(buckets_out), type=pa.int64()),
                "n": pa.array(np.concatenate(n_out), type=pa.int64()),
            }
        )

    counters = grouped_agg(
        read_documents(sf_dir), ["row", "bucket"], {"n": ("n", "sum")},
        rows=partials, batch_size=1024,
    ).take_all()  # <= CMS_DEPTH x CMS_WIDTH rows by construction — the sketch, not the corpus
    table = {(r["row"], r["bucket"]): r["n"] for r in counters}
    est = [
        min(table.get((r, _cms_bucket(w, r)), 0) for r in range(CMS_DEPTH))
        for w in probes
    ]
    return pa.Table.from_pydict(
        {
            "word": pa.array(list(probes), type=pa.string()),
            "est_count": pa.array(est, type=pa.int64()),
        }
    )


# -- HyperLogLog (Flajolet'07, public method) ------------------------------

_HLL_M = 64
_HLL_RHO_CAP = 59  # 58 usable bits after the register index; rest==0 -> 59
_ALPHA_NUM, _ALPHA_DEN = 709337, 1000000  # alpha_64 = 0.7213/(1+1.079/64)


def _hll_partial(t: pa.Table) -> pa.Table:
    """Per-batch partial: max rho per register over the batch's distinct
    lowercase words — <= 64 (register, rho) rows per batch. Hash is
    md5_number_upper-compatible (first 8 md5 bytes little-endian), so
    the DuckDB oracle replays every register bit-exactly."""
    text = t["text"]
    text = as_array(text)
    cleaned = pc.replace_substring_regex(
        pc.utf8_lower(pc.fill_null(text, "")), "[^a-z]+", " "
    )
    flat = pc.list_flatten(pc.split_pattern(cleaned, " "))
    words = pc.unique(pc.drop_null(flat)).to_pylist()
    regs: dict[int, int] = {}
    for w in words:
        if not w:
            continue
        h = int.from_bytes(hashlib.md5(w.encode()).digest()[:8], "little")
        reg = h % _HLL_M
        rest = h // _HLL_M
        rho = (
            _HLL_RHO_CAP
            if rest == 0
            else ((rest & -rest).bit_length())  # 1 + trailing zeros
        )
        if rho > regs.get(reg, 0):
            regs[reg] = rho
    items = sorted(regs.items())
    return pa.Table.from_pydict(
        {
            "register": pa.array([r for r, _ in items], type=pa.int64()),
            "rho": pa.array([v for _, v in items], type=pa.int64()),
        }
    )


def vocab_hll(sf_dir: str):
    """Single-row HyperLogLog estimate of the corpus vocabulary —
    the max-combine counterpart to the KMV sketch above: each batch
    ships <= 64 (register, max-rho) partials, ONE tiny groupby(register)
    max merges them (the HLL merge IS register-wise max, which is what
    makes the sketch distributable), and the raw-HLL estimate is
    computed in exact integer arithmetic (alpha as a rational, powers of
    two as shifts, one big-int floor division) so DuckDB HUGEINT math
    replays it bit-for-bit. No small-range linear-counting correction:
    the raw estimator is the deterministic, engine-neutral choice.
    Columns: m, n_zero_registers, sum_rho, est_distinct."""
    from ..sources.readers import read_documents

    merged = grouped_agg(
        read_documents(sf_dir), "register", {"rho": ("rho", "max")},
        rows=_hll_partial, batch_size=1024,
    ).take_all()  # <= 64 rows by construction — the sketch, not the corpus
    rho = {r["register"]: r["rho"] for r in merged}
    full = [rho.get(j, 0) for j in range(_HLL_M)]
    s = sum(1 << (_HLL_RHO_CAP - v) for v in full)
    est = (_ALPHA_NUM * _HLL_M * _HLL_M * (1 << _HLL_RHO_CAP)) // (
        _ALPHA_DEN * s
    )
    return pa.Table.from_pydict(
        {
            "m": pa.array([_HLL_M], type=pa.int64()),
            "n_zero_registers": pa.array(
                [sum(1 for v in full if v == 0)], type=pa.int64()
            ),
            "sum_rho": pa.array([sum(full)], type=pa.int64()),
            "est_distinct": pa.array([est], type=pa.int64()),
        }
    )
