"""Ray Data stages for the parse chain (SURVEY §3.4 lifecycle).

Each stage is a callable usable in ``map_batches(..., batch_format=
"pyarrow")``; cheap column math is in stateless functions.

Both stages run as Ray tasks over a constructed instance, which
pickles as its constructor arguments only (``warm_caches`` as an
``ObjectRef``, never the resolved memo dicts). The state that carries
memos — ``ParseDocuments``'s ``DocumentOracle`` (ontologies, regex
banks, PII rules and the seeded memos) and ``DetectSectionsStage``'s
``SectionDetector`` — lives in a per-process slot (``worker_state``)
built on the first batch a worker process runs for a configuration
and reused by its later tasks, jobs and ``job.main`` partitions. A
different configuration replaces the stage's slot, so a process holds
at most one memo set per stage.

Per-row try/except inside the UDF turns a poison document into an
``error`` column value instead of a task failure (the reference's
per-stage except blocks, distributed-correctly — SURVEY §4.2).
"""

from __future__ import annotations

from typing import Optional

import pyarrow as pa
import pyarrow.compute as pc

from ..oracle.document import DocumentOracle
from ..schemas import PARSED_PII_SCHEMA, PARSED_SCHEMA

_EMPTY_RESUME = {
    "contact": {"name": "", "email": "", "phone": "", "linkedin": "", "github": "", "location": ""},
    "summary": "",
    "skills": [],
    "education": [],
    "experience": [],
    "projects": [],
    "certifications": [],
}


# stage name -> (key, state) of the last configuration this process ran
# the stage with; task workers outlive jobs, so the state outlives them too
_SLOTS: dict = {}


def worker_state(name: str, key, build):
    """This process's state for stage ``name`` under ``key``, built by
    ``build()`` on first use. A different key replaces the stage's
    state; other stages' slots are untouched."""
    held = _SLOTS.get(name)
    if held is None or held[0] != key:
        _SLOTS.pop(name, None)  # release the old state before building
        _SLOTS[name] = (key, build())
    return _SLOTS[name][1]


def _build_oracle(config: dict, warm_caches: Optional[dict]) -> DocumentOracle:
    oracle = DocumentOracle(**config)
    if warm_caches is not None:
        # broadcast warm-start: driver-warmed memo dicts (pure-function
        # caches, valid on any worker)
        oracle.seed_caches(warm_caches)
    return oracle


class ParseDocuments:
    """spans -> (out_spans, resume[, pii]) — the whole per-document chain
    in one task stage (M1-M13 + N1-N18; no intermediate shuffle: the
    chain is embarrassingly parallel per document, SURVEY §3.4).

    ``warm_caches``: a dict of memo caches (``DocumentOracle.warm``)
    gives the instance its own oracle, built here; an ObjectRef to such
    a dict, or None, takes the process slot's oracle on first use, so
    the pickled instance is only its constructor arguments."""

    def __init__(
        self,
        data_dir: Optional[str] = None,
        today=None,
        with_pii: bool = False,
        pii_config: Optional[dict] = None,
        warm_caches=None,
    ):
        self.config = dict(
            data_dir=data_dir, today=today, with_pii=with_pii, pii_config=pii_config
        )
        self.with_pii = with_pii or pii_config is not None
        self.schema = PARSED_PII_SCHEMA if self.with_pii else PARSED_SCHEMA
        self.warm_ref = None
        self._oracle = None
        if isinstance(warm_caches, dict):
            self._oracle = _build_oracle(self.config, warm_caches)
        else:
            self.warm_ref = warm_caches

    @property
    def oracle(self) -> DocumentOracle:
        if self._oracle is not None:
            return self._oracle
        ref = self.warm_ref

        def build():
            import ray

            return _build_oracle(self.config, None if ref is None else ray.get(ref))

        # keyed on the ref's id, not the ref, so the slot never pins it
        key = (self.config, None if ref is None else ref.binary())
        return worker_state("parse", key, build)

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..schemas import OUT_SPAN_TYPE, PII_ENTRY_TYPE, RESUME_TYPE

        doc_ids = batch["doc_id"].to_pylist()
        # flatten the span structs once: three flat child lists + row
        # lengths — no per-span dict materialization (to_pylist on
        # list<struct> builds a dict per span; this path is ~2.5x cheaper)
        spans_col = batch["spans"]
        flat = pc.list_flatten(spans_col)
        all_kinds = pc.struct_field(flat, "kind").to_pylist()
        all_texts = pc.struct_field(flat, "text").to_pylist()
        all_media = pc.struct_field(flat, "media_ref").to_pylist()
        lens = pc.list_value_length(spans_col).to_pylist()
        # columnar accumulators: the output table is assembled as typed
        # Arrow arrays (flat span columns + list offsets), never as
        # per-row dicts — from_pylist on the nested schema was the
        # dominant memory-traffic cost on the bandwidth-bound path
        span_kinds: list = []
        span_texts: list = []
        span_media: list = []
        offsets = np.empty(len(doc_ids) + 1, dtype=np.int32)
        offsets[0] = 0
        resumes: list = []
        errors: list = []
        anon_texts: list = []
        pii_maps: list = []
        process = self.oracle.process_columnar
        idx = 0
        for i, (doc_id, ln) in enumerate(zip(doc_ids, lens)):
            ln = ln or 0
            kinds = all_kinds[idx : idx + ln]
            texts = all_texts[idx : idx + ln]
            media = all_media[idx : idx + ln]
            idx += ln
            try:
                ks, ts, ms, resume, anon, pii_map = process(doc_id, kinds, texts, media)
                span_kinds.extend(ks)
                span_texts.extend(ts)
                span_media.extend(ms)
                resumes.append(resume)
                errors.append("")
                if self.with_pii:
                    anon_texts.append(anon)
                    pii_maps.append(pii_map)
            except Exception as e:  # poison row -> error column, not task death
                resumes.append(_EMPTY_RESUME)
                errors.append(f"{type(e).__name__}: {e}")
                if self.with_pii:
                    anon_texts.append("")
                    pii_maps.append([])
            offsets[i + 1] = len(span_kinds)
        # order = dense 0-based position within each row's span list:
        # a single arange minus each element's own list start
        n_flat = int(offsets[-1])
        starts = np.repeat(offsets[:-1], np.diff(offsets))
        orders = (np.arange(n_flat, dtype=np.int32) - starts) if n_flat else np.empty(0, dtype=np.int32)
        span_values = pa.StructArray.from_arrays(
            [
                pa.array(span_kinds, type=pa.string()),
                pa.array(span_texts, type=pa.string()),
                pa.array(span_media, type=pa.string()),
                pa.array(orders, type=pa.int32()),
            ],
            fields=list(OUT_SPAN_TYPE),
        )
        out_spans = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), span_values)
        arrays = [
            pa.array(doc_ids, type=pa.string()),
            out_spans,
            pa.array(resumes, type=RESUME_TYPE),
            pa.array(errors, type=pa.string()),
        ]
        if self.with_pii:
            arrays.append(pa.array(anon_texts, type=pa.string()))
            arrays.append(pa.array(pii_maps, type=pa.list_(PII_ENTRY_TYPE)))
        return pa.Table.from_arrays(arrays, schema=self.schema)


class DetectSectionsStage:
    """spans -> one row per document with packed section contents
    (stage 2 of the lifecycle, usable standalone for section analytics).
    The ``SectionDetector`` and its line memo live in the process slot,
    so the memo outlives a task."""

    _SCHEMA = pa.schema(
        [
            ("doc_id", pa.string()),
            ("sections", pa.list_(pa.struct([("name", pa.string()), ("content", pa.string())]))),
            ("n_sections", pa.int32()),
        ]
    )

    def __init__(self, section_patterns=None):
        """``section_patterns``: optional custom section vocabulary —
        a flat {section: [regex]} dict or a loaded parsing_rules.yaml
        (the user-editable surface; config.section_patterns_from_config
        normalizes the nested shape)."""
        if section_patterns is not None and (
            "detection_rules" in section_patterns or "patterns" in section_patterns
        ):
            from ..config import section_patterns_from_config

            section_patterns = section_patterns_from_config(section_patterns)
        self.section_patterns = section_patterns

    @property
    def detector(self):
        from ..functions.sections import SectionDetector

        patterns = self.section_patterns
        # section order is match priority, so the key is the ordered items
        key = None if patterns is None else list(patterns.items())
        return worker_state("detect_sections", key, lambda: SectionDetector(patterns))

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..functions.sections import reconstruct_raw_text

        # flatten the span structs once (no per-span dicts) and build the
        # packed output as typed arrays + offsets — the ParseDocuments
        # Arrow-native pattern
        spans_col = batch["spans"]
        flat = pc.list_flatten(spans_col)
        all_kinds = pc.struct_field(flat, "kind").to_pylist()
        all_texts = pc.struct_field(flat, "text").to_pylist()
        lens = pc.list_value_length(spans_col).to_pylist()
        n = len(batch)
        names_out: list = []
        contents_out: list = []
        offsets = np.empty(n + 1, dtype=np.int32)
        offsets[0] = 0
        n_sections = np.empty(n, dtype=np.int32)
        detect = self.detector.detect
        idx = 0
        for i, ln in enumerate(lens):
            ln = ln or 0
            raw = reconstruct_raw_text(
                all_kinds[idx : idx + ln], all_texts[idx : idx + ln]
            )
            idx += ln
            cnt = 0
            for name, content in detect(raw).items():
                if content.strip():
                    names_out.append(name)
                    contents_out.append(content)
                    cnt += 1
            offsets[i + 1] = offsets[i] + cnt
            n_sections[i] = cnt
        section_type = self._SCHEMA.field("sections").type.value_type
        struct = pa.StructArray.from_arrays(
            [
                pa.array(names_out, type=pa.string()),
                pa.array(contents_out, type=pa.string()),
            ],
            fields=list(section_type),
        )
        sections = pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), struct)
        return pa.Table.from_arrays(
            [batch["doc_id"], sections, pa.array(n_sections, type=pa.int32())],
            schema=self._SCHEMA,
        )


def add_cost_column(batch: pa.Table) -> pa.Table:
    """Vectorized skew pre-pass: est_cost = total span-text bytes per doc
    (pyarrow kernels only — no Python loop)."""
    spans = batch["spans"]
    flat = pc.list_flatten(spans)  # struct array of all spans
    flat_len = pc.binary_length(pc.struct_field(flat, "text"))
    # sum lengths back per row via parent indices
    parents = pc.list_parent_indices(spans)
    n = len(batch)
    import numpy as np

    sums = np.zeros(n, dtype=np.int64)
    if len(flat_len) > 0:
        np.add.at(sums, parents.to_numpy(zero_copy_only=False), flat_len.to_numpy(zero_copy_only=False))
    return batch.append_column("est_cost", pa.array(sums, type=pa.int64()))


def _flatten_sections(batch: pa.Table) -> pa.Table:
    """Packed sections -> one row per section (doc_id, sec_idx, name,
    content), sec_idx = position within its document's list."""
    import numpy as np

    secs = batch["sections"]
    flat = pc.list_flatten(secs)
    parents = pc.list_parent_indices(secs).to_numpy(zero_copy_only=False)
    starts = np.zeros(len(batch), dtype=np.int64)
    lens = pc.list_value_length(secs).fill_null(0).to_numpy(zero_copy_only=False)
    np.cumsum(lens[:-1], out=starts[1:])
    sec_idx = np.arange(len(flat)) - starts[parents]
    return pa.table(
        {
            "doc_id": pc.take(batch["doc_id"], pa.array(parents)),
            "sec_idx": pa.array(sec_idx.astype(np.int32)),
            "name": pc.struct_field(flat, "name"),
            "content": pc.struct_field(flat, "content"),
        }
    )


def detect_sections(spans):
    """M4 over a spans Dataset, flattened to one row per detected section
    (doc_id, sec_idx, name, content) and sorted, so a SQL oracle that
    replays the line-state machine can hash-compare it without
    nested-type stringification skew."""
    return (
        spans.map_batches(DetectSectionsStage(), batch_format="pyarrow", batch_size=64)
        .map_batches(_flatten_sections, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["doc_id", "sec_idx"])
    )


def largest_docs(spans):
    """R6: the top-20 documents of a spans Dataset by estimated span
    cost (vectorized cost column -> global sort -> limit), the skew
    diagnostic the routing threshold is tuned from."""
    return (
        spans.map_batches(add_cost_column, batch_format="pyarrow", zero_copy_batch=True)
        .select_columns(["doc_id", "est_cost"])
        .sort(["est_cost", "doc_id"], descending=[True, False])
        .limit(20)
    )


def explode_spans(batch: pa.Table) -> pa.Table:
    """One row per span (doc_id, kind, text, media_ref, offset) — the
    explode half of the R1 reassembly pair, fully vectorized."""
    spans = batch["spans"]
    parents = pc.list_parent_indices(spans)
    flat = pc.list_flatten(spans)
    doc_ids = pc.take(batch["doc_id"], parents)
    return pa.Table.from_arrays(
        [
            doc_ids,
            pc.struct_field(flat, "kind"),
            pc.struct_field(flat, "text"),
            pc.struct_field(flat, "media_ref"),
            pc.struct_field(flat, "offset"),
        ],
        names=["doc_id", "kind", "text", "media_ref", "offset"],
    )


def split_oversize_rows(max_spans: int = 256):
    """Very-wide-row mitigation (SURVEY §7.4): a document whose span list
    exceeds ``max_spans`` splits into continuation rows keyed
    (doc_id, part) so no single Arrow row (nor the batch holding it)
    blows a worker's heap. Reassemble with ``reassemble_continuations``
    (groupby doc_id) before parsing — span offsets are global within the
    doc, so order survives the round trip."""

    def fn(batch: pa.Table) -> pa.Table:
        rows = []
        for doc_id, spans in zip(batch["doc_id"].to_pylist(), batch["spans"].to_pylist()):
            spans = spans or []
            if len(spans) <= max_spans:
                rows.append({"doc_id": doc_id, "part": 0, "spans": spans})
            else:
                for p, start in enumerate(range(0, len(spans), max_spans)):
                    rows.append(
                        {"doc_id": doc_id, "part": p, "spans": spans[start : start + max_spans]}
                    )
        from ..schemas import SPAN_TYPE

        schema = pa.schema(
            [("doc_id", pa.string()), ("part", pa.int32()), ("spans", pa.list_(SPAN_TYPE))]
        )
        return pa.Table.from_pylist(rows, schema=schema)

    return fn


def reassemble_continuations(group: pa.Table) -> pa.Table:
    """groupby(doc_id).map_groups: merge continuation parts back into one
    row, parts in order, span offsets already global."""
    group = group.sort_by("part")
    spans = []
    for part_spans in group["spans"].to_pylist():
        spans.extend(part_spans or [])
    from ..schemas import INPUT_SCHEMA

    return pa.Table.from_pylist(
        [{"doc_id": group["doc_id"][0].as_py(), "spans": spans}], schema=INPUT_SCHEMA
    )


def reassemble_group(group: pa.Table) -> pa.Table:
    """groupby(doc_id).map_groups half of R1: sort the group's spans by
    offset and repack into one row (intra-document order restored even
    after any cross-block explode)."""
    group = group.sort_by("offset")
    spans = [
        {
            "kind": k,
            "text": t,
            "media_ref": m,
            "offset": o,
        }
        for k, t, m, o in zip(
            group["kind"].to_pylist(),
            group["text"].to_pylist(),
            group["media_ref"].to_pylist(),
            group["offset"].to_pylist(),
        )
    ]
    from ..schemas import INPUT_SCHEMA

    return pa.Table.from_pylist(
        [{"doc_id": group["doc_id"][0].as_py(), "spans": spans}], schema=INPUT_SCHEMA
    )
