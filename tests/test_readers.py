"""``sources/readers.read_table``: one parquet file (or a list) read as
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


# -- the spans corpus: a list of files read as balanced row ranges ------------


def _ranges(tmp_path, sizes):
    """One parquet file per row count in ``sizes``, doc ids running on
    across the files in name order."""
    paths, start = [], 0
    for k, n in enumerate(sizes):
        paths.append(str(tmp_path / f"part-{k:03d}.parquet"))
        pq.write_table(_table(start + n).slice(start, n), paths[-1])
        start += n
    return paths


def test_file_list_is_width_balanced_row_ranges(ray_session, tmp_path):
    """Files of 5, 1, 0 and 7 rows, listed out of order: ``width()``
    blocks whose row counts differ by at most one (ranges cross file
    boundaries), holding the files' rows end to end in sorted order."""
    from document_parser_private_ray.pipelines.resume import read_corpus
    from document_parser_private_ray.stages import width

    paths = _ranges(tmp_path, [5, 1, 0, 7])
    assert [pq.read_metadata(p).num_rows for p in paths] == [5, 1, 0, 7]
    columns = ["doc_id", "text", "score"]
    blocks = _blocks(read_corpus(paths[::-1], columns))
    assert len(blocks) == width()
    rows = [b.num_rows for b in blocks]
    assert max(rows) - min(rows) <= 1
    for b in blocks:
        assert b.schema.metadata is None
    want = pa.concat_tables(
        [pq.read_table(p).replace_schema_metadata(None) for p in sorted(paths)]
    )
    got = pa.concat_tables(sorted(blocks, key=lambda b: b["doc_id"][0].as_py()))
    assert got.equals(want)


def test_directory_reads_its_parquet_files_only(ray_session, tmp_path):
    """A corpus directory's markers and caches beside its parquet files
    are not read: the directory reads as the list of its files."""
    import os

    from document_parser_private_ray.pipelines.resume import read_corpus

    paths = _ranges(tmp_path, [3, 1, 0, 6])
    (tmp_path / "_COMPLETE").write_text("ok\n")
    (tmp_path / "_warm-4.pkl").write_bytes(b"\x80\x04N.")
    assert len(os.listdir(tmp_path)) == len(paths) + 2
    columns = ["doc_id", "text", "score"]

    def rows(ds):
        return pa.concat_tables(_blocks(ds)).sort_by("doc_id")

    assert rows(read_corpus(str(tmp_path), columns)).equals(rows(read_corpus(paths, columns)))
    assert read_corpus(str(tmp_path), columns).count() == 10


def test_zero_row_corpus_parses_to_zero_rows(ray_session, tmp_path):
    """A corpus whose files all hold no rows reads as a typed empty
    dataset, and its parse writes no rows without raising."""
    import os

    from document_parser_private_ray.pipelines.resume import parse_resumes, read_corpus
    from document_parser_private_ray.schemas import INPUT_SCHEMA

    src = tmp_path / "spans"
    src.mkdir()
    for k in range(3):
        pq.write_table(INPUT_SCHEMA.empty_table(), str(src / f"part-{k}.parquet"))
    ds = read_corpus(str(src))
    assert ds.count() == 0
    assert ds.schema().base_schema == INPUT_SCHEMA.remove_metadata()

    out = tmp_path / "out"
    parse_resumes(read_corpus(str(src))).write_parquet(str(out))
    files = os.listdir(out) if out.exists() else []
    assert sum(pq.read_metadata(str(out / f)).num_rows for f in files) == 0


def test_parse_documents_slices_a_block():
    """No Ray: a block of 3 x ``batch_size`` rows, a poison document in
    the second slice, parses to the same table as three calls on its
    slices, the error row in its original position."""
    from document_parser_private_ray.schemas import INPUT_SCHEMA
    from document_parser_private_ray.sources.corpus import generate_batch
    from document_parser_private_ray.stages.parse import ParseDocuments

    step = 4
    rows = generate_batch(range(3 * step)).to_pylist()
    rows[step + 1]["spans"] = [{"kind": "text", "text": None, "media_ref": "", "offset": 0}]
    block = pa.Table.from_pylist(rows, schema=INPUT_SCHEMA)

    got = ParseDocuments(batch_size=step)(block)
    stage = ParseDocuments()
    want = pa.concat_tables([stage(block.slice(o, step)) for o in range(0, 3 * step, step)])
    assert got.num_rows == 3 * step
    assert got.equals(want)
    errors = got["error"].to_pylist()
    assert errors[step + 1].startswith("TypeError")
    assert [e for k, e in enumerate(errors) if k != step + 1] == [""] * (3 * step - 1)
    assert got["doc_id"].to_pylist() == block["doc_id"].to_pylist()
