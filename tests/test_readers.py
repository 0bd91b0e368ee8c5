"""``sources/readers.read_table``: one parquet file read as
``stages.width()`` read tasks planned from its footer, compared with
``pyarrow.parquet.read_table`` (values, row count, metadata-free schema)."""

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest


def _table(n: int) -> pa.Table:
    # through pandas, so the file carries the ``pandas`` schema metadata
    # that makes an Arrow schema unhashable
    import pandas as pd

    return pa.Table.from_pandas(
        pd.DataFrame({
            "doc_id": range(n),
            "text": [f"doc {i} " + "w" * (i % 7) for i in range(n)],
            "score": [i * 0.5 for i in range(n)],
        }),
        preserve_index=False,
    )


@pytest.fixture
def write(tmp_path):
    def write(t: pa.Table, **kw) -> str:
        path = str(tmp_path / f"t{len(list(tmp_path.iterdir()))}.parquet")
        pq.write_table(t, path, **kw)
        assert pq.read_schema(path).metadata  # the pandas blob is there
        return path

    return write


def _blocks(ds):
    import ray

    return [ray.get(ref) for ref in ds.to_arrow_refs()]


def _check(ds, path, columns=None, filter=None):
    """``ds`` holds exactly ``pq.read_table``'s rows, as metadata-free
    blocks; returns the blocks."""
    blocks = _blocks(ds)
    want = pq.read_table(path, columns=columns, filters=filter).replace_schema_metadata(None)
    for b in blocks:
        assert b.schema.metadata is None
        assert b.schema.equals(want.schema)
    got = pa.concat_tables(blocks)
    assert got.num_rows == want.num_rows
    assert got.sort_by("doc_id").equals(want.sort_by("doc_id"))
    return blocks


def test_one_row_group_is_width_fused_read_tasks(ray_session, write):
    """A one-row-group file becomes ``width()`` read tasks with no
    ``SplitBlocks``, and each fuses with the map after it."""
    from document_parser_private_ray.sources.readers import read_table
    from document_parser_private_ray.stages import width

    path = write(_table(1000))
    assert pq.read_metadata(path).num_row_groups == 1
    blocks = _check(read_table(path), path)
    assert [b.num_rows for b in blocks] == [250] * width()

    ds = read_table(path).map_batches(lambda b: b, batch_format="pyarrow")
    _check(ds, path)
    stats = ds.stats()
    assert "SplitBlocks" not in stats
    assert f"ReadParquet->MapBatches(<lambda>): {width()} tasks executed" in stats


def test_column_subset(ray_session, write):
    from document_parser_private_ray.sources.readers import read_table

    path = write(_table(101))
    blocks = _check(read_table(path, ["score", "doc_id"]), path, ["score", "doc_id"])
    assert blocks[0].column_names == ["score", "doc_id"]


def test_filter_runs_on_each_slice(ray_session, write):
    """The predicate may name a selected column or one the read drops."""
    from document_parser_private_ray.sources.readers import read_table

    path = write(_table(1000))
    for columns, pred in (
        (["doc_id", "score"], pads.field("score") >= 123.0),
        (["doc_id", "text"], pads.field("score") < 40.0),
    ):
        _check(read_table(path, columns, filter=pred), path, columns, pred)
    nothing = pads.field("doc_id") < 0
    blocks = _check(read_table(path, ["doc_id"], filter=nothing), path, ["doc_id"], nothing)
    assert sum(b.num_rows for b in blocks) == 0


def test_zero_row_file_is_typed_and_empty(ray_session, write):
    from document_parser_private_ray.sources.readers import read_table

    path = write(_table(5).slice(0, 0))
    ds = read_table(path, ["doc_id", "text"])
    _check(ds, path, ["doc_id", "text"])
    assert ds.count() == 0
    assert ds.schema().base_schema == pa.schema(
        [("doc_id", pa.int64()), ("text", pa.string())]
    )


def test_fewer_rows_than_width(ray_session, write):
    """Every task still runs; those past the last row yield empty blocks."""
    from document_parser_private_ray.sources.readers import read_table
    from document_parser_private_ray.stages import width

    assert width() > 2
    path = write(_table(2))
    blocks = _check(read_table(path), path)
    assert len(blocks) == width()
    assert sorted(b.num_rows for b in blocks) == [0] * (width() - 2) + [1, 1]


def test_more_row_groups_than_width_reads_whole_row_groups(ray_session, write):
    """10 row groups of 7 rows on 4 tasks: runs of 3, 3, 2 and 2 whole
    groups, so no row group is split; the predicate still applies."""
    from document_parser_private_ray.sources.readers import read_table
    from document_parser_private_ray.stages import width

    assert width() == 4  # the pytest session's 4 CPUs
    path = write(_table(70), row_group_size=7)
    assert pq.read_metadata(path).num_row_groups == 10
    blocks = _check(read_table(path), path)
    assert [b.num_rows for b in blocks] == [21, 21, 14, 14]
    assert [b["doc_id"][0].as_py() for b in blocks] == [0, 21, 42, 56]
    pred = pads.field("doc_id") >= 30
    _check(read_table(path, ["doc_id"], filter=pred), path, ["doc_id"], pred)


def test_html_spans_has_no_split_blocks(ray_session, tmp_path):
    """The HTML chain is one read -> render -> extract task per CPU."""
    from document_parser_private_ray.pipelines.html import html_spans
    from document_parser_private_ray.stages import width

    pq.write_table(
        pa.table({
            "doc_id": list(range(40)),
            "text": [" ".join(f"w{i}x{j}" for j in range(60)) for i in range(40)],
            "source": ["src"] * 40,
        }),
        str(tmp_path / "documents.parquet"),
    )
    ds = html_spans(str(tmp_path)).materialize()
    assert set(ds.to_pandas()["doc_id"]) == set(range(40))
    stats = ds.stats()
    assert "SplitBlocks" not in stats
    assert (
        f"ReadParquet->MapBatches(_render_batch)->MapBatches(HtmlMainContent): "
        f"{width()} tasks executed" in stats
    )
