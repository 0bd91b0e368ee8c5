"""Shared parquet reader: a table file, or the files of a corpus, as
``stages.width()`` read tasks.

Every table the package scans is one parquet file, most of them one row
group; the spans corpus is a directory of files of a few hundred rows.
``ray.data.read_parquet`` makes read tasks per file and splits their
output (``SplitBlocks``), so a downstream map ramps up one task at a time
behind a single reader, or runs uneven tasks of one to a thousand rows.
``read_table`` builds the tasks from the files' footers instead:
``width()`` tasks, each reading a run of whole row groups when one file
has at least that many (nothing decoded twice, statistics still skip row
groups under ``filter``) or else one range of the rows taken end to end
across the files, the ranges differing by at most one row, decoded batch
by batch and stopped past the range end. No read task splits its output,
so each fuses with a following map that sets no ``batch_size``: one
balanced read -> map task per CPU.

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


def _read_ranges(columns, schema, filter, scan, pieces):
    """The rows of each ``(path, groups, start, end)`` piece in turn:
    rows ``[start, end)`` of the stream of row groups ``groups`` of
    ``path``, decoded in batches of the piece's length and stopped past
    ``end``, so the task holds only its slices; ``filter`` then runs on
    them (``scan`` holds the columns it names)."""
    import pyarrow.parquet as pq

    kept = []
    for path, groups, start, end in pieces:
        pos = 0
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


def _piece(path, group_rows, start, end):
    """Rows ``[start, end)`` of one file as ``(path, groups, start,
    end)``: the row groups they touch, offsets from the first of them."""
    bounds = np.cumsum([0] + group_rows)
    groups = [
        g for g in range(len(group_rows)) if bounds[g] < end and bounds[g + 1] > start
    ]
    first = int(bounds[groups[0]])
    return path, groups, start - first, end - first


class ParquetSlices(Datasource):
    """Parquet files (one path or a list, in that order) read as
    ``parallelism`` tasks planned from their footers (read once, on the
    driver). A task reads the ``columns`` (all when None) of its rows
    and keeps those matching ``filter`` (a ``pyarrow.dataset``
    expression). One file with at least ``parallelism`` row groups is
    read as runs of whole row groups; otherwise the files' rows, end to
    end, are cut into ranges whose row counts differ by at most 1, and a
    range may span files. Each task yields one block typed by the first
    file's metadata-free schema; a task with no rows yields an empty
    one, so the read always makes exactly the tasks it is asked for and
    Ray adds no ``SplitBlocks``."""

    def __init__(self, paths, columns: Optional[Sequence[str]] = None, filter=None):
        import pyarrow.parquet as pq

        self.paths = [paths] if isinstance(paths, str) else list(paths)
        if not self.paths:
            raise ValueError("no parquet files to read")
        metas = []
        for path in self.paths:
            with pq.ParquetFile(path) as pf:
                if not metas:
                    full = pf.schema_arrow.remove_metadata()
                metas.append(pf.metadata)
        self.filter = filter
        self.columns = list(columns) if columns is not None else full.names
        self.schema = pa.schema([full.field(c) for c in self.columns])
        self.scan = self.columns
        if filter is not None:
            try:
                self.schema.empty_table().filter(filter)
            except pa.ArrowInvalid:  # the predicate names an unselected column
                self.scan = full.names
        self.group_rows = [
            [meta.row_group(g).num_rows for g in range(meta.num_row_groups)]
            for meta in metas
        ]
        self.size = sum(
            rg.column(j).total_uncompressed_size
            for meta in metas
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
        n = max(1, parallelism)
        file_rows = [sum(rows) for rows in self.group_rows]
        total = sum(file_rows)
        args = (self.columns, self.schema, self.filter)
        if len(self.paths) == 1 and len(self.group_rows[0]) >= n:
            (path,), (rows,) = self.paths, self.group_rows
            parts = [
                (functools.partial(_read_groups, path, *args, ids.tolist()),
                 sum(rows[g] for g in ids), [path])
                for ids in np.array_split(np.arange(len(rows)), n)
            ]
        else:
            offsets = np.cumsum([0] + file_rows)
            parts = []
            for i in range(n):
                start, end = i * total // n, (i + 1) * total // n
                pieces = [
                    _piece(path, rows, max(start - off, 0), min(end - off, size))
                    for path, rows, off, size in zip(
                        self.paths, self.group_rows, offsets.tolist(), file_rows
                    )
                    if max(start, off) < min(end, off + size)
                ]
                parts.append((
                    functools.partial(_read_ranges, *args, self.scan, pieces),
                    end - start,
                    [p[0] for p in pieces],
                ))
        return [
            ReadTask(
                read_fn,
                BlockMetadata(
                    num_rows=rows if self.filter is None else None,
                    size_bytes=self.size * rows // max(total, 1),
                    input_files=files,
                    exec_stats=None,
                ),
                schema=self.schema,
            )
            for read_fn, rows, files in parts
        ]


def read_table(paths, columns: Optional[Sequence[str]] = None, *, filter=None):
    """The parquet file ``paths`` (or list of files, read end to end in
    that order) in ``stages.width()`` blocks, one read task each
    (``ParquetSlices``): column-pruned at the read, with an optional row
    predicate (``filter``, a ``pyarrow.dataset`` expression) and
    hashable (metadata-free) block schemas."""
    import ray.data as rd

    from ..stages import width

    return rd.read_datasource(
        ParquetSlices(paths, columns, filter), override_num_blocks=width()
    )


def read_documents(sf_dir: str, columns: Sequence[str] = ("doc_id", "text")):
    """The ``documents.parquet`` table under ``sf_dir`` through
    ``read_table`` (column-pruned, metadata-free block schemas)."""
    return read_table(f"{sf_dir}/documents.parquet", columns)
