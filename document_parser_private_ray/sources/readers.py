"""Shared parquet reader: one table file as ``stages.width()`` read tasks.

Every table the package scans is one parquet file, most of them one row
group. ``ray.data.read_parquet`` makes one read task per file and splits
its output (``SplitBlocks``), so a downstream map ramps up one task at a
time behind a single reader. ``read_table`` builds the tasks from the
file's footer instead: ``width()`` tasks, each reading a run of whole row
groups when the file has at least that many (nothing decoded twice,
statistics still skip row groups under ``filter``) or else one row range,
decoded batch by batch and stopped past the range end. No read task
splits its output, so each fuses with a following map that sets no
``batch_size``: one read -> map task per CPU.

Block schemas are metadata-free. The sandbox testdata files carry a
``pandas`` metadata blob in their Arrow schema, and a pyarrow schema with
metadata is unhashable (``hash(schema)`` -> "unhashable type: 'dict'"),
which defeats Ray Data's block-schema deduplication.
"""

from __future__ import annotations

import functools
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
from ray.data.block import BlockMetadata
from ray.data.datasource import Datasource, ReadTask


def _read_groups(path, columns, schema, filter, groups):
    """Whole row groups ``groups``: the fragment scan evaluates
    ``filter`` and skips row groups by their statistics."""
    import pyarrow.dataset as pads

    (frag,) = pads.dataset(path, format="parquet").get_fragments()
    frag = frag.subset(row_group_ids=groups)
    yield frag.to_table(columns=columns, filter=filter).cast(schema)


def _read_range(path, columns, schema, filter, scan, groups, start, end):
    """Rows ``[start, end)`` of the stream of row groups ``groups``,
    decoded in batches of the range's length and stopped past ``end``,
    so the task holds only its slice; ``filter`` then runs on the slice
    (``scan`` holds the columns it names)."""
    import pyarrow.parquet as pq

    kept, pos = [], 0
    if groups:
        with pq.ParquetFile(path) as pf:
            for batch in pf.iter_batches(
                batch_size=end - start, row_groups=groups, columns=scan
            ):
                lo, hi = max(start - pos, 0), min(end - pos, batch.num_rows)
                if hi > lo:
                    kept.append(batch.slice(lo, hi - lo))
                pos += batch.num_rows
                if pos >= end:
                    break
    if not kept:
        yield schema.empty_table()
        return
    t = pa.Table.from_batches(kept)
    if filter is not None:
        t = t.filter(filter)
    yield t.select(columns).cast(schema)


class ParquetSlices(Datasource):
    """One parquet file read as ``parallelism`` tasks planned from its
    footer (read once, on the driver). A task reads the ``columns``
    (all when None) of its row groups or its row range, keeps the rows
    matching ``filter`` (a ``pyarrow.dataset`` expression) and yields
    one block typed by the metadata-free schema; a task past the last
    row yields an empty one, so the read always makes exactly the tasks
    it is asked for and Ray adds no ``SplitBlocks``."""

    def __init__(self, path: str, columns: Optional[Sequence[str]] = None, filter=None):
        import pyarrow.parquet as pq

        with pq.ParquetFile(path) as pf:
            full, meta = pf.schema_arrow.remove_metadata(), pf.metadata
        self.path, self.filter = path, filter
        self.columns = list(columns) if columns is not None else full.names
        self.schema = pa.schema([full.field(c) for c in self.columns])
        self.scan = self.columns
        if filter is not None:
            try:
                self.schema.empty_table().filter(filter)
            except pa.ArrowInvalid:  # the predicate names an unselected column
                self.scan = full.names
        self.group_rows = [meta.row_group(g).num_rows for g in range(meta.num_row_groups)]
        self.size = sum(
            rg.column(j).total_uncompressed_size
            for rg in map(meta.row_group, range(meta.num_row_groups))
            for j in range(rg.num_columns)
            if rg.column(j).path_in_schema.split(".")[0] in self.columns
        )

    def get_name(self) -> str:
        # the read operator keeps its name, ``ReadParquet``
        return "Parquet"

    def estimate_inmemory_data_size(self) -> Optional[int]:
        return self.size

    def get_read_tasks(self, parallelism: int) -> List[ReadTask]:
        n, total = max(1, parallelism), sum(self.group_rows)
        args = (self.path, self.columns, self.schema, self.filter)
        if len(self.group_rows) >= n:
            parts = [
                (functools.partial(_read_groups, *args, ids.tolist()),
                 sum(self.group_rows[g] for g in ids))
                for ids in np.array_split(np.arange(len(self.group_rows)), n)
            ]
        else:
            bounds = np.cumsum([0] + self.group_rows)
            step = -(-total // n)
            parts = []
            for i in range(n):
                start, end = min(i * step, total), min((i + 1) * step, total)
                groups = [
                    g for g in range(len(self.group_rows))
                    if bounds[g] < end and bounds[g + 1] > start
                ]
                first = int(bounds[groups[0]]) if groups else start
                parts.append((
                    functools.partial(_read_range, *args, self.scan, groups,
                                      start - first, end - first),
                    end - start,
                ))
        return [
            ReadTask(
                read_fn,
                BlockMetadata(
                    num_rows=rows if self.filter is None else None,
                    size_bytes=self.size * rows // max(total, 1),
                    input_files=[self.path],
                    exec_stats=None,
                ),
                schema=self.schema,
            )
            for read_fn, rows in parts
        ]


def read_table(path: str, columns: Optional[Sequence[str]] = None, *, filter=None):
    """The parquet file ``path`` in ``stages.width()`` blocks, one read
    task each (``ParquetSlices``): column-pruned at the read, with an
    optional row predicate (``filter``, a ``pyarrow.dataset``
    expression) and hashable (metadata-free) block schemas."""
    import ray.data as rd

    from ..stages import width

    return rd.read_datasource(
        ParquetSlices(path, columns, filter), override_num_blocks=width()
    )


def read_documents(sf_dir: str, columns: Sequence[str] = ("doc_id", "text")):
    """The ``documents.parquet`` table under ``sf_dir`` through
    ``read_table`` (column-pruned, metadata-free block schemas)."""
    return read_table(f"{sf_dir}/documents.parquet", columns)
