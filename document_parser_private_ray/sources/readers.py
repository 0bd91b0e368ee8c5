"""Shared parquet reader: column-pruned read with hashable block schemas.

The sandbox testdata parquet files carry a ``pandas`` metadata blob in
their Arrow schema; pyarrow schemas with metadata are unhashable
(``hash(schema)`` -> "unhashable type: 'dict'"), which defeats Ray
Data's block-schema deduplication (transform_pyarrow.unify_schemas
falls back with a warning on every internal concat, including inside
the ReadParquet operator itself). Passing an explicit metadata-free
schema for exactly the selected columns fixes it at the source — the
read stays column-pruned and no extra operator is added.
"""

from __future__ import annotations

from typing import Optional, Sequence

import pyarrow as pa


def _clean_schema(path: str, columns: Optional[Sequence[str]]) -> Optional[pa.Schema]:
    """Metadata-free Arrow schema for the selected columns (one footer
    read on the driver). Returns None for non-file paths (directories):
    the reader unifies fragment schemas itself there."""
    import os

    import pyarrow.parquet as pq

    if not os.path.isfile(path):
        return None
    full = pq.ParquetFile(path).schema_arrow.remove_metadata()
    if columns is not None:
        full = pa.schema([full.field(c) for c in columns])
    return full


def read_table(
    path: str,
    columns: Optional[Sequence[str]] = None,
    *,
    override_num_blocks: Optional[int] = None,
    filter=None,
):
    """``ray.data.read_parquet`` with column pruning at the read,
    optional row-level predicate pushdown (``filter`` is a
    ``pyarrow.dataset`` expression evaluated inside the scan — whole
    row groups are skipped via parquet statistics before decode), and
    hashable (metadata-free) block schemas."""
    import ray.data as rd

    kwargs = {}
    if override_num_blocks is not None:
        kwargs["override_num_blocks"] = override_num_blocks
    if filter is not None:
        kwargs["filter"] = filter
    schema = _clean_schema(path, columns)
    if schema is not None:
        kwargs["schema"] = schema
    ds = rd.read_parquet(
        path, columns=list(columns) if columns else None, **kwargs
    )
    if schema is None:
        ds = ds.map_batches(
            _strip_schema_metadata, batch_format="pyarrow", zero_copy_batch=True
        )
    return ds


def read_documents(sf_dir: str, columns: Sequence[str] = ("doc_id", "text")):
    """The ``documents.parquet`` table under ``sf_dir`` through
    ``read_table`` (column-pruned, metadata-free block schemas)."""
    return read_table(f"{sf_dir}/documents.parquet", columns)


def _strip_schema_metadata(batch: pa.Table) -> pa.Table:
    if batch.schema.metadata:
        return batch.replace_schema_metadata(None)
    return batch
