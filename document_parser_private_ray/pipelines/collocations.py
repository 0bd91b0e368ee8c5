"""Collocation mining: top-k adjacent word bigrams ranked by LIFT
(observed/expected co-occurrence — the PMI family, Church & Hanks'90;
lift = exp(PMI)). Integer micro-units throughout: ``lift_micro =
floor(1e6 * N * n_xy / (c_x * c_y))`` evaluated in arbitrary-precision
Python ints / DuckDB HUGEINT, so no cross-engine doubles or int64
overflow ever enter.

Scale shape:

* ONE streaming scan emits tagged partial counts — per batch, unigram
  and bigram ``value_counts`` collapse to (kind, key, n) rows, so the
  exchange ships per-batch vocabularies, not tokens. Bigram strings are
  built fully vectorized: flatten the per-doc token lists, join the
  flat array with its shift-by-one via an Arrow kernel, and mask
  cross-document pairs from the list offsets;
* ONE groupby over (kind, key) produces global counts, materialized
  once (bounded by unigram+bigram vocabulary — at 100 TB checkpoint
  this table to parquet instead);
* everything after is CANDIDATE-bounded: the top ``max_candidates``
  bigrams by count (deterministic count-desc, key-asc truncation —
  replayed by the oracle), the <= 2 x max_candidates unigram rows they
  reference, and the scalar N are the only driver-side collections.

Reference seed: none — the reference is a single-document CLI
(/root/reference/main.py:138-192); this operator belongs to the
LLM-training-data family the engine adds (phrase/stopword-list mining
over a crawl).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .exchange import as_array

MIN_COUNT = 5
MAX_CANDIDATES = 200


def _token_lists(text_col) -> pa.ListArray:
    """Per-row lowercase a-z token lists (no empty tokens except the
    single [''] of a wordless row, which pairs with nothing and is
    dropped from the counts)."""
    text_col = as_array(text_col)
    cleaned = pc.utf8_trim(
        pc.replace_substring_regex(
            pc.utf8_lower(pc.fill_null(text_col, "")), "[^a-z]+", " "
        ),
        " ",
    )
    lists = pc.split_pattern(cleaned, " ")
    lists = as_array(lists)
    return lists


def _tagged_partials(t: pa.Table) -> pa.Table:
    """Per-batch (kind, key, n): kind 'u' = unigram, 'b' = bigram."""
    lists = _token_lists(t["text"])
    flat = pc.list_flatten(lists)
    nonempty = pc.not_equal(flat, "")
    keys: list = []
    kinds: list = []
    ns: list = []
    uni = pc.value_counts(flat.filter(nonempty))
    if len(uni):
        keys.append(uni.field("values"))
        kinds.append(pa.array(["u"] * len(uni)))
        ns.append(pc.cast(uni.field("counts"), pa.int64()))
    n_flat = len(flat)
    if n_flat >= 2:
        a = flat.slice(0, n_flat - 1)
        b = flat.slice(1, n_flat - 1)
        pairs = pc.binary_join_element_wise(a, b, pa.scalar(" "))
        offs = lists.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        offs = offs - offs[0]
        mask = np.ones(n_flat - 1, dtype=bool)
        # flat[i] is a doc's last token at i = offs[1..-1] - 1
        bounds = offs[1:-1] - 1
        mask[bounds[(bounds >= 0) & (bounds < n_flat - 1)]] = False
        # pairs touching an empty token (wordless doc) are invalid
        ne = nonempty.to_numpy(zero_copy_only=False)
        mask &= ne[:-1] & ne[1:]
        big = pc.value_counts(pairs.filter(pa.array(mask)))
        if len(big):
            keys.append(big.field("values"))
            kinds.append(pa.array(["b"] * len(big)))
            ns.append(pc.cast(big.field("counts"), pa.int64()))
    if not keys:
        return pa.Table.from_pydict(
            {
                "kind": pa.array([], type=pa.string()),
                "key": pa.array([], type=pa.string()),
                "n": pa.array([], type=pa.int64()),
            }
        )
    return pa.Table.from_pydict(
        {
            "kind": pa.concat_arrays([pa.array(k.to_pylist()) for k in kinds]),
            "key": pa.concat_arrays([pc.cast(k, pa.string()) for k in keys]),
            "n": pa.concat_arrays([pc.cast(x, pa.int64()) for x in ns]),
        }
    )


def word_collocations(
    sf_dir: str,
    top_k: int = 25,
    min_count: int = MIN_COUNT,
):
    """Top-k bigram collocations: ``w1``, ``w2``, ``n_xy``,
    ``lift_micro`` — ordered by lift desc, then w1, w2."""
    from ..sources.readers import read_documents
    from .exchange import grouped_agg

    counts = grouped_agg(
        read_documents(sf_dir), ["kind", "key"], {"n": ("n", "sum")},
        rows=_tagged_partials, batch_size=1024,
    ).materialize()  # bounded by vocabulary; checkpoint at 100 TB
    bigrams = counts.filter(
        expr=f"kind == 'b' and n >= {min_count}"
    )
    cand = (
        bigrams.sort(["n", "key"], descending=[True, False])
        .limit(MAX_CANDIDATES)
        .take_all()
    )
    words = set()
    for r in cand:
        w1, w2 = r["key"].split(" ")
        words |= {w1, w2}
    uni_tbl = counts.filter(expr="kind == 'u'")
    need = pa.array(sorted(words), type=pa.string())
    uni_rows = uni_tbl.map_batches(
        lambda t: t.filter(pc.is_in(t["key"], value_set=need)),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).take_all()
    c = {r["key"]: int(r["n"]) for r in uni_rows}
    n_total = int(uni_tbl.sum("n") or 0)
    scored = []
    for r in cand:
        w1, w2 = r["key"].split(" ")
        n_xy = int(r["n"])
        lift = 1_000_000 * n_total * n_xy // (c[w1] * c[w2])  # exact ints
        scored.append((lift, w1, w2, n_xy))
    scored.sort(key=lambda s: (-s[0], s[1], s[2]))
    scored = scored[:top_k]
    return pa.Table.from_pydict(
        {
            "w1": pa.array([s[1] for s in scored], type=pa.string()),
            "w2": pa.array([s[2] for s in scored], type=pa.string()),
            "n_xy": pa.array([s[3] for s in scored], type=pa.int64()),
            "lift_micro": pa.array([s[0] for s in scored], type=pa.int64()),
        }
    )
