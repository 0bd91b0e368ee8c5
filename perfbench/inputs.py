"""Seeded benchmark inputs, cached under the benchmark's output directory.

Every input is a pure function of ``--seed``. The engine only ever sees
the files written here.

* Resume corpora use the engine's own document generator
  (``sources.corpus.generate_document``) but fix the heavy tail's
  total: the ~1% documents with 100-2000 spans are drawn until their
  span total reaches 1% x 1,050 spans per corpus document and placed at
  even intervals, so two seeds differ in which documents are huge, not
  in how much work they carry or where it sits.
* The HTML input is a ``documents`` table drawn to the measured mix of
  the sf0.1 testdata ``documents`` table (TESTDATA.md; 5,000 rows), which
  the benchmark cannot read from its checkout: ``text`` of 10-99 words
  drawn uniformly from that table's 30-word vocabulary, 5% of rows a
  copy of another row's text plus `` dup``, ``lang`` 40% ``en`` and 15%
  each ``de``/``es``/``fr``/``zh``, ``source`` ``src{doc_id % 20}``.
  ``SF01_NCHARS_DECILES`` holds that table's measured text-length
  deciles; the self-test checks a generated table against them.
  ``pipelines.html`` renders each row into a page.
"""

from __future__ import annotations

import os
import pickle
import random
import shutil
from typing import Dict, List

HUGE_SPANS = 100  # a document at or above this span count is "huge"
HUGE_DOC_SHARE = 0.01
HUGE_MEAN_SPANS = 1050  # midpoint of the generator's 100-2000 range

# measured on the sf0.1 testdata documents table (5,000 rows)
_WORDS = (
    "the a fast slow key order sort table scan merge part window small big "
    "hash join batch stream spark group query row data filter customer line "
    "value agg column vector"
).split()
_LANGS = ["en", "de", "fr", "es", "zh"]
_LANG_WEIGHTS = [0.40, 0.15, 0.15, 0.15, 0.15]
_WORDS_MIN, _WORDS_MAX = 10, 99
_DUP_SHARE = 0.05
_SOURCES = 20
SF01_NCHARS_DECILES = (103, 150, 201, 245, 295, 347, 394, 444, 493)


def _complete(path: str) -> bool:
    return os.path.exists(os.path.join(path, "_COMPLETE"))


def _mark_complete(path: str) -> None:
    with open(os.path.join(path, "_COMPLETE"), "w") as f:
        f.write("ok\n")


def select_documents(n_docs: int, seed: int) -> List[Dict]:
    """Rows of a resume corpus: ``n_docs - 1%`` ordinary documents in
    generator order, plus huge documents whose span total is fixed to
    within one huge document of ``1% x n_docs x 1,050``, interleaved at
    evenly spaced positions."""
    from document_parser_private_ray.sources.corpus import generate_document

    n_huge_target = max(1, round(n_docs * HUGE_DOC_SHARE))
    budget = n_huge_target * HUGE_MEAN_SPANS
    body: List[Dict] = []
    huge: List[Dict] = []
    huge_spans = 0
    i = 0
    limit = 50 * n_docs + 10_000
    while i < limit and (
        len(body) < n_docs - n_huge_target or budget - huge_spans >= HUGE_SPANS
    ):
        doc = generate_document(i, seed)
        i += 1
        n = len(doc["spans"])
        if n >= HUGE_SPANS:
            if huge_spans + n <= budget:
                huge.append(doc)
                huge_spans += n
        elif len(body) < n_docs - n_huge_target:
            body.append(doc)
    # evenly spaced from a seeded phase, so every file (and every job
    # partition) carries about the same share of the tail
    total = len(body) + len(huge)
    phase = random.Random(seed * 7919 + 17).random()
    slots = [int((k + phase) * total / len(huge)) for k in range(len(huge))]
    rows, b, h = [], 0, 0
    for pos in range(len(body) + len(huge)):
        if h < len(slots) and slots[h] == pos:
            rows.append(huge[h])
            h += 1
        else:
            rows.append(body[b])
            b += 1
    return rows


def resume_corpus(root: str, n_docs: int, seed: int, rows_per_file: int) -> str:
    """Parquet corpus directory (``part-*.parquet`` + ``_COMPLETE``)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.sources.corpus import CORPUS_SCHEMA

    path = os.path.join(root, f"resumes-n{n_docs}-f{rows_per_file}-s{seed}")
    if _complete(path):
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    rows = select_documents(n_docs, seed)
    for k, start in enumerate(range(0, len(rows), rows_per_file)):
        table = pa.Table.from_pylist(rows[start : start + rows_per_file], schema=CORPUS_SCHEMA)
        pq.write_table(table, os.path.join(path, f"part-{k:05d}.parquet"))
    _mark_complete(path)
    return path


def html_documents(root: str, n_docs: int, seed: int) -> str:
    """Directory holding ``documents.parquet`` for ``pipelines.html``."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = os.path.join(root, f"html-n{n_docs}-s{seed}")
    if _complete(path):
        return path
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    rng = random.Random(seed * 104729 + 3)
    texts = [
        " ".join(rng.choice(_WORDS) for _ in range(rng.randint(_WORDS_MIN, _WORDS_MAX)))
        for _ in range(n_docs)
    ]
    for i in sorted(rng.sample(range(n_docs), round(_DUP_SHARE * n_docs))):
        texts[i] = texts[rng.randrange(n_docs)] + " dup"
    langs = rng.choices(_LANGS, weights=_LANG_WEIGHTS, k=n_docs)
    sources = [f"src{i % _SOURCES}" for i in range(n_docs)]
    table = pa.table(
        {
            "doc_id": pa.array(range(n_docs), type=pa.int64()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "source": pa.array(sources, type=pa.string()),
            "n_chars": pa.array([len(t) for t in texts], type=pa.int64()),
        }
    )
    pq.write_table(table, os.path.join(path, "documents.parquet"))
    _mark_complete(path)
    return path


def corpus_files(path: str) -> List[str]:
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def _warm_files(paths: List[str]) -> Dict:
    from document_parser_private_ray.oracle.document import DocumentOracle

    oracle = DocumentOracle()
    for row in read_rows("", files=paths):
        oracle.process(*span_columns(row))
    return oracle.export_caches()


def warm_cache_file(corpus: str, files: List[str], workers: int = 1) -> str:
    """Path of the pure-function memo caches from a ``DocumentOracle``
    pass over every document of ``files`` (the ``bench.full_warm_caches``
    pattern), built on first use. With ``workers > 1`` the files are
    split over spawned processes and their caches merged: every memo
    holds a pure function of its key, so the merge equals one pass."""
    path = os.path.join(corpus, f"_warm-{len(files)}.pkl")
    if os.path.exists(path):
        return path
    groups = [g for g in (files[k::workers] for k in range(workers)) if g]
    if len(groups) > 1:
        import multiprocessing as mp

        with mp.get_context("spawn").Pool(len(groups)) as pool:
            parts = pool.map(_warm_files, groups)
    else:
        parts = [_warm_files(files)]
    caches: Dict[str, Dict] = {}
    for part in parts:
        for name, memo in part.items():
            caches.setdefault(name, {}).update(memo)
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        pickle.dump(caches, f)
    os.replace(tmp, path)
    return path


def read_rows(corpus: str, limit: int = 0, files=None) -> List[Dict]:
    """Corpus rows in file order (the first ``limit`` if non-zero)."""
    import pyarrow.parquet as pq

    rows: List[Dict] = []
    for path in files or corpus_files(corpus):
        rows.extend(pq.read_table(path, columns=["doc_id", "spans"]).to_pylist())
        if limit and len(rows) >= limit:
            return rows[:limit]
    return rows


def span_columns(row: Dict):
    """``DocumentOracle.process`` arguments for one corpus row."""
    spans = row["spans"] or []
    return (
        row["doc_id"],
        [s["kind"] for s in spans],
        [s["text"] for s in spans],
        [s["media_ref"] for s in spans],
    )
