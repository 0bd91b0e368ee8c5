"""Single-scan table profiling: per-column statistics for data-quality
triage over a table you cannot afford to scan once per column.

``profile_columns`` computes (column, n_rows, n_null, min_repr,
max_repr) for every selected column in ONE pass: each batch reduces to
<= n_columns partial rows, and one tiny groupby(column) merges partials
with min/max/sum — the exchange is bounded by batches x columns, never
by table rows. Values are rendered to engine-neutral strings (ints as
digits, doubles as exact integer cents, timestamps as ISO seconds,
strings verbatim) so the DuckDB oracle hash-compares byte-for-byte.

Reference seed: none — profiling belongs to the corpus-operations
family the engine adds.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

ORDERS_COLUMNS = (
    "o_orderkey",
    "o_custkey",
    "o_orderstatus",
    "o_totalprice",
    "o_orderdate",
    "o_orderpriority",
)


def _repr_scalar(val, typ: pa.DataType) -> str:
    if val is None:
        return ""
    if pa.types.is_floating(typ):
        import math

        return str(int(math.floor(float(val) * 100 + 0.5)))
    if pa.types.is_timestamp(typ):
        return val.isoformat(sep=" ", timespec="seconds")
    return str(val)


def profile_columns(sf_dir: str, table: str = "orders", columns=ORDERS_COLUMNS):
    """One-scan column profile of a table. Output: one row per column
    with exact row/null counts and engine-neutral min/max strings
    (floats profiled in integer cents)."""
    from ..sources.readers import read_table
    from .exchange import grouped_agg

    cols = list(columns)
    ds = read_table(f"{sf_dir}/{table}.parquet", cols)

    def partial(batch: pa.Table) -> pa.Table:
        names, n_null, mins, maxs = [], [], [], []
        for c in cols:
            arr = batch[c]
            names.append(c)
            n_null.append(arr.null_count)
            if arr.length() == arr.null_count:
                mins.append("")
                maxs.append("")
                continue
            mm = pc.min_max(arr)
            mins.append(_repr_scalar(mm["min"].as_py(), arr.type))
            maxs.append(_repr_scalar(mm["max"].as_py(), arr.type))
        return pa.Table.from_pydict(
            {
                "column": pa.array(names, type=pa.string()),
                "n_rows": pa.array(
                    np.full(len(cols), batch.num_rows, dtype=np.int64),
                    type=pa.int64(),
                ),
                "n_null": pa.array(n_null, type=pa.int64()),
                # cents renders can be negative: left-pad the SIGN-AWARE
                # sortable form is unnecessary — partial min/max merge
                # must compare the ORIGINAL values, so partials carry a
                # sortable key alongside the repr
                "min_repr": pa.array(mins, type=pa.string()),
                "max_repr": pa.array(maxs, type=pa.string()),
            }
        )

    # string min/max does NOT merge correctly for numeric reprs
    # ('10' < '9' lexically) — merge on fixed-width zero-padded signed
    # keys instead, then strip back to the plain repr on the driver.
    def pad_keys(batch: pa.Table) -> pa.Table:
        def key(s: str) -> str:
            if s == "":
                return ""
            # numeric reprs (ints / cents): sign-aware zero-pad to 25
            if s.lstrip("-").isdigit():
                v = int(s)
                return ("1" if v >= 0 else "0") + str(v + 10**24).zfill(25)
            return s  # timestamps (ISO) and categorical strings sort lexically

        return pa.Table.from_pydict(
            {
                "column": batch["column"],
                "n_rows": batch["n_rows"],
                "n_null": batch["n_null"],
                # an all-null batch contributes '' — push it past every
                # real key on the min side so it never wins the merge
                "min_key": pa.array(
                    [key(s) or "\x7f" for s in batch["min_repr"].to_pylist()],
                    type=pa.string(),
                ),
                "max_key": pa.array(
                    [key(s) for s in batch["max_repr"].to_pylist()],
                    type=pa.string(),
                ),
            }
        )

    merged = grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .map_batches(pad_keys, batch_format="pyarrow", zero_copy_batch=True),
        "column",
        {
            "n_rows": ("n_rows", "sum"), "n_null": ("n_null", "sum"),
            "min_key": ("min_key", "min"), "max_key": ("max_key", "max"),
        },
    ).take_all()  # <= n_columns rows by construction

    def unkey(s: str) -> str:
        if s == "\x7f":
            return ""  # every batch was all-null
        if s and s[0] in "01" and len(s) == 26 and s[1:].isdigit():
            return str(int(s[1:]) - 10**24)
        return s

    merged.sort(key=lambda r: r["column"])
    return pa.Table.from_pydict(
        {
            "column": pa.array([r["column"] for r in merged], type=pa.string()),
            "n_rows": pa.array([r["n_rows"] for r in merged], type=pa.int64()),
            "n_null": pa.array([r["n_null"] for r in merged], type=pa.int64()),
            "min_repr": pa.array(
                [unkey(r["min_key"]) for r in merged], type=pa.string()
            ),
            "max_repr": pa.array(
                [unkey(r["max_key"]) for r in merged], type=pa.string()
            ),
        }
    )
