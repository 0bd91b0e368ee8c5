"""Same-window no-Ray control for ``resume_stream``.

The identical ``ParseDocuments`` kernel runs under a plain
``multiprocessing`` pool (spawned workers) with the same warm caches and
batch size over the same corpus, in row-range chunks handed out
dynamically (the ``bench.run_mp_control`` pattern). Taken right after
the Ray run, it tells a slow machine window apart from a slow engine.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import time
from typing import Dict, List, Tuple

_STATE: Dict = {}  # per worker process: the stage and the last decoded file


def _init(warm_path: str) -> None:
    from document_parser_private_ray.stages.parse import ParseDocuments

    with open(warm_path, "rb") as f:
        caches = pickle.load(f)
    _STATE["stage"] = ParseDocuments(warm_caches=caches)


def _parse_chunk(task: Tuple[str, int, int, int]) -> int:
    import pyarrow.parquet as pq

    path, start, n, batch_size = task
    cached = _STATE.get("file")
    if cached is None or cached[0] != path:
        cached = (path, pq.read_table(path, columns=["doc_id", "spans"]))
        _STATE["file"] = cached
    table = cached[1].slice(start, n)
    stage = _STATE["stage"]
    return sum(
        stage(table.slice(off, batch_size)).num_rows
        for off in range(0, table.num_rows, batch_size)
    )


def run(files: List[str], warm_path: str, n_procs: int, batch_size: int,
        chunk: int = 125) -> Dict[str, float]:
    """Parse every row of ``files``; returns docs, wall and ms/doc, where
    ms/doc = n_procs x wall / docs (core-milliseconds per document)."""
    import pyarrow.parquet as pq

    tasks = []
    for path in files:
        rows = pq.ParquetFile(path).metadata.num_rows
        tasks.extend((path, s, min(chunk, rows - s), batch_size) for s in range(0, rows, chunk))
    ctx = mp.get_context("spawn")
    with ctx.Pool(n_procs, initializer=_init, initargs=(warm_path,)) as pool:
        # untimed lap: every worker imports, builds its stage, compiles regexes
        for _ in pool.imap_unordered(_parse_chunk, tasks[:n_procs]):
            pass
        t0 = time.perf_counter()
        docs = sum(pool.imap_unordered(_parse_chunk, tasks))
        wall = time.perf_counter() - t0
        pool.close()
        pool.join()
    return {"docs": docs, "wall_s": wall, "ms_per_doc": 1000.0 * n_procs * wall / docs}
