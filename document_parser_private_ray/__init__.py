"""document_parser_private_ray — a Ray-Data-native document/resume extraction
and training-data processing engine.

Built from scratch against the *capabilities* of the reference
``amos-maganyane/document-parser-private`` (see SURVEY.md): interleaved
text+media span documents in, section detection + entity extraction +
dictionary/fuzzy normalization out — every stage expressed as
``ray.data.Dataset`` transforms (``map_batches`` over zero-copy Arrow
batches, run as Ray tasks; memo-bearing state lives in a per-process
slot), plus the corpus-scale
operators a 100 TB training-data pipeline needs (dedup, similarity
search, text analysis, multimodal plumbing).

Layout:
    functions/  pure-Python semantic core (no Ray) — one implementation,
                reused by both the single-doc oracle and the Ray UDFs
    oracle/     single-document end-to-end oracle (golden generator)
    sources/    synthetic corpus generator + table readers
    stages/     Ray Data map_batches stages (stateless fns + stage classes)
    state/      checkpoint / lineage for resumable runs
    pipelines/  end-to-end pipeline builders (resume parse, dedup, ANN,
                text analysis, relational)
"""

__version__ = "0.1.0"
