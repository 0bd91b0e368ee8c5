"""In-process span tracer for the traced run.

The harness wraps public methods of the engine objects it created
itself (a ``ParseDocuments`` stage's ``DocumentOracle``, its
``ResumeExtractor``, normalisers, ``FuzzyIndex`` instances and
``PIIAnonymizer``) and the ``sources.html`` calls it makes. Each call
records a span (name, start, end, parent, doc id). Spans stay in memory
and are written as JSON when the run ends. A layer's self time is its
span's duration minus the time covered by its child spans.

``sections.reconstruct_raw_text`` is a module function that
``oracle.document`` calls by name, so the tracer swaps that name for a
wrapper while tracing and restores it afterwards; no engine file changes.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, List, Optional

# (object path from the oracle, method, span name)
_ORACLE_METHODS = (
    ("", "process_columnar", "oracle.process_columnar"),
    ("", "out_spans_columnar", "oracle.out_spans_columnar"),
    ("detector", "detect", "sections.detect"),
    ("extractor", "extract_resume", "extract.resume"),
    ("extractor", "extract_contact", "extract.contact"),
    ("extractor", "extract_summary", "extract.summary"),
    ("extractor", "extract_skills", "extract.skills"),
    ("extractor", "extract_education", "extract.education"),
    ("extractor", "extract_experience", "extract.experience"),
    ("extractor", "extract_projects", "extract.projects"),
    ("extractor", "extract_certifications", "extract.certifications"),
    ("extractor.skill_normalizer", "normalize", "skills.normalize"),
    ("extractor.edu_normalizer", "normalize_institution", "education.normalize"),
    ("extractor.edu_normalizer", "normalize_degree", "education.normalize"),
    ("extractor.exp_normalizer", "normalize_company", "experience.normalize"),
    ("extractor.exp_normalizer", "normalize_title", "experience.normalize"),
    ("extractor.date_normalizer", "normalize", "dates.normalize"),
    ("pii", "anonymize", "pii.anonymize"),
)
_FUZZY_INDEXES = (
    ("extractor.skill_normalizer", "_findex"),
    ("extractor.edu_normalizer", "_inst_findex"),
    ("extractor.edu_normalizer", "_deg_findex"),
    ("extractor.exp_normalizer", "_company_findex"),
    ("extractor.exp_normalizer", "_title_findex"),
)


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, doc id]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.doc = None

    def wrap(self, fn: Callable, name: str, doc_arg: bool = False) -> Callable:
        def traced(*args, **kwargs):
            if doc_arg:
                self.doc = args[0]
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.doc]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def layers(self) -> Dict[str, Dict[str, float]]:
        """name -> {calls, incl_ns, self_ns}."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["incl_ns"] += end - start
            agg["self_ns"] += end - start - child_ns[i]
        return out

    def dump(self, path: str, max_spans: int) -> None:
        """Spans as JSON records (the first ``max_spans`` of them)."""
        keep = self.spans[:max_spans]
        t0 = keep[0][1] if keep else 0
        with open(path, "w") as f:
            json.dump(
                {
                    "fields": ["id", "name", "start_us", "end_us", "parent", "doc"],
                    "n_spans_total": len(self.spans),
                    "spans": [
                        [i, n, round((s - t0) / 1e3, 1), round((e - t0) / 1e3, 1), p, d]
                        for i, (n, s, e, p, d) in enumerate(keep)
                    ],
                },
                f,
                separators=(",", ":"),
            )


def _resolve(obj, path: str):
    for part in filter(None, path.split(".")):
        obj = getattr(obj, part)
    return obj


class _TracedIndex:
    """Stands in for a ``FuzzyIndex`` (which has ``__slots__`` and so
    cannot take an instance attribute) with a traced ``extract_one``."""

    def __init__(self, index, tracer: Tracer):
        self._index = index
        self.extract_one = tracer.wrap(index.extract_one, "fuzzy.extract_one")

    def __getattr__(self, name):
        return getattr(self._index, name)


def instrument_oracle(tracer: Tracer, oracle) -> None:
    """Wrap the layer methods of one ``DocumentOracle`` instance."""
    for path, method, name in _ORACLE_METHODS:
        owner = _resolve(oracle, path)
        if owner is None:  # no PII engine
            continue
        fn = getattr(owner, method)
        setattr(owner, method, tracer.wrap(fn, name, doc_arg=name == "oracle.process_columnar"))
    for path, attr in _FUZZY_INDEXES:
        owner = _resolve(oracle, path)
        setattr(owner, attr, _TracedIndex(getattr(owner, attr), tracer))


@contextlib.contextmanager
def traced_module_functions(tracer: Tracer):
    """Route ``oracle.document``'s call of ``reconstruct_raw_text``
    through the tracer for the duration of the block."""
    from document_parser_private_ray.oracle import document

    original = document.reconstruct_raw_text
    document.reconstruct_raw_text = tracer.wrap(original, "sections.reconstruct_raw_text")
    try:
        yield
    finally:
        document.reconstruct_raw_text = original


def layer_table(layers: Dict[str, Dict[str, float]], docs: int, root: str,
                title: str, notes: Optional[List[str]] = None) -> str:
    """Markdown table: calls/doc, inclusive and self ms/doc, and each
    layer's self time as a share of the root layer's inclusive time."""
    root_ns = layers.get(root, {}).get("incl_ns", 0) or 1
    lines = [f"# {title}", ""]
    lines += notes or []
    lines += [
        "",
        "| layer | calls/doc | incl ms/doc | self ms/doc | self % of root |",
        "| --- | ---: | ---: | ---: | ---: |",
    ]
    for name, agg in sorted(layers.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(
            f"| `{name}` | {agg['calls'] / docs:.2f} | {agg['incl_ns'] / 1e6 / docs:.4f} "
            f"| {agg['self_ns'] / 1e6 / docs:.4f} | {100.0 * agg['self_ns'] / root_ns:.1f} |"
        )
    return "\n".join(lines) + "\n"
