"""Distributed data-integrity operators.

``table_checksum`` computes an order-free content checksum per source
(and a corpus total) without moving any row data: each batch reduces to
one (source, partial-sum) pair — the 64-bit wrapping sum of
md5-compatible row hashes — and ONE tiny groupby merges partials. The
wrapping integer sum is commutative/associative, so the result is
independent of partitioning, task order and engine; the anti-entropy /
replica-verification shape (Merkle-tree leaf level) used to compare two
100 TB copies of a table without shipping either.

Reference seed: none — the reference is a single-document CLI; this is
part of the distributed-operations family the engine adds.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

_MOD = 1 << 64


def row_hash(doc_id: int, text: str) -> int:
    """Content hash of one row: md5 of 'doc_id:text', first 8 bytes
    little-endian — md5_number_upper-compatible so DuckDB replays it."""
    return int.from_bytes(
        hashlib.md5(f"{doc_id}:{text}".encode()).digest()[:8], "little"
    )


def table_checksum(sf_dir: str):
    """(source, n_rows, checksum) per source plus an '__all__' total.
    checksum = sum of row hashes mod 2^64, reported as int64 via two's
    complement (DuckDB BIGINT overflow-free arithmetic on HUGEINT then
    cast)."""
    from ..sources.readers import read_documents
    from .exchange import grouped_agg

    ds = read_documents(sf_dir, ["doc_id", "text", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        srcs = batch["source"].to_pylist()
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        acc: dict[str, list] = {}
        for s, i, t in zip(srcs, ids, texts):
            cur = acc.setdefault(s, [0, 0])
            cur[0] += 1
            cur[1] = (cur[1] + row_hash(i, t or "")) % _MOD
        items = sorted(acc.items())
        return pa.Table.from_pydict(
            {
                "source": pa.array([k for k, _ in items], type=pa.string()),
                "n_rows": pa.array([v[0] for _, v in items], type=pa.int64()),
                # keep partials unsigned in uint64; wrap at the merge
                "partial": pa.array(
                    np.array([v[1] for _, v in items], dtype=np.uint64),
                    type=pa.uint64(),
                ),
            }
        )

    # merge per-source partials exactly: a uint64 sum would wrap, so
    # each partial splits into two int64 halves (lo 32 / hi 32 bits):
    # int64 sums of 32-bit pieces cannot overflow below ~2^31 batches.
    def split_halves(batch: pa.Table) -> pa.Table:
        p = batch["partial"].to_numpy(zero_copy_only=False).astype(np.uint64)
        return pa.Table.from_pydict(
            {
                "source": batch["source"],
                "n_rows": batch["n_rows"],
                "lo": pa.array(
                    (p & np.uint64(0xFFFFFFFF)).astype(np.int64), type=pa.int64()
                ),
                "hi": pa.array(
                    (p >> np.uint64(32)).astype(np.int64), type=pa.int64()
                ),
            }
        )

    merged = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(split_halves, batch_format="pyarrow", zero_copy_batch=True),
        "source",
        {"n_rows": ("n_rows", "sum"), "lo": ("lo", "sum"), "hi": ("hi", "sum")},
    ).take_all()  # <= #sources rows by construction
    out_s, out_n, out_c = [], [], []
    tot_n, tot_c = 0, 0
    for r in sorted(merged, key=lambda r: r["source"]):
        c = (int(r["lo"]) + (int(r["hi"]) << 32)) % _MOD
        out_s.append(r["source"])
        out_n.append(int(r["n_rows"]))
        out_c.append(c)
        tot_n += int(r["n_rows"])
        tot_c = (tot_c + c) % _MOD
    out_s.append("__all__")
    out_n.append(tot_n)
    out_c.append(tot_c)

    def signed(v: int) -> int:
        return v - _MOD if v >= 1 << 63 else v

    return pa.Table.from_pydict(
        {
            "source": pa.array(out_s, type=pa.string()),
            "n_rows": pa.array(out_n, type=pa.int64()),
            "checksum": pa.array([signed(v) for v in out_c], type=pa.int64()),
        }
    )
