"""Single-document end-to-end oracle (SURVEY §7.1 step 3).

One self-contained implementation of the full parse chain
(spans -> raw text -> sections -> resume + out_spans) built from the
pure functions in ``functions/``. It is BOTH the golden generator for
tests AND the core reused by the Ray stages — span-sequence equality of
the distributed pipeline against this oracle is then a test of the
distribution machinery, while the oracle itself is unit-tested against
the reference's re-encoded fixture tables (SURVEY §5).

Output span contract (north rule: per-row span-sequence equality on
(kind, text, media_ref, order)):
  * one span per detected section, in the fixed vocabulary order
    (contact, summary, skills, education, experience, projects,
    certifications; fallback "content" last), kind = section name,
    text = detected section content, media_ref = "";
  * then every media span (kind not in text/heading) passed through in
    original offset order with its kind/text/media_ref;
  * ``order`` = dense 0-based index over the whole output sequence.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from ..config import SECTION_NAMES
from ..functions.extract import ResumeExtractor
from ..functions.pii import PIIAnonymizer
from ..functions.sections import SectionDetector, reconstruct_raw_text

OUT_SPAN_FIELDS = ("kind", "text", "media_ref", "order")
_SECTION_ORDER = tuple(SECTION_NAMES) + ("content",)


class DocumentOracle:
    """Holds the per-worker state (regex banks, ontologies, PII rules);
    ``process`` is a pure function of one document's span sequence."""

    def __init__(self, with_pii: bool = False):
        self.detector = SectionDetector()
        self.extractor = ResumeExtractor()
        self.pii = PIIAnonymizer() if with_pii else None

    def detect_sections(self, raw_text: str) -> Dict[str, str]:
        return self.detector.detect(raw_text)

    # -- cache broadcast (scale path) -----------------------------------
    # Every memo below caches a PURE function of its input (frozen
    # 'today', fixed ontologies), so a cache warmed anywhere is valid
    # everywhere: warm once on the driver over a small sample, ray.put,
    # seed every worker — workers start at steady-state throughput.

    def export_caches(self) -> Dict:
        ex = self.extractor
        return {
            "lines": dict(self.detector._line_memo),
            "dates": dict(ex.date_normalizer._memo),
            "skills": dict(ex.skill_normalizer._memo),
            "skills_clean": dict(ex.skill_normalizer._memo_clean),
            "inst": dict(ex.edu_normalizer._memo_inst),
            "deg": dict(ex.edu_normalizer._memo_deg),
            "company": dict(ex.exp_normalizer._memo_company),
            "title": dict(ex.exp_normalizer._memo_title),
        }

    def warm(self, rows: Iterable[Dict]) -> Dict:
        """The driver warm pass: ``process`` every row (``doc_id`` +
        ``spans``) and return ``export_caches()``. Best-effort — a
        poison row is skipped here and handled in-stage."""
        for row in rows:
            spans = row["spans"] or []
            try:
                self.process(
                    row["doc_id"],
                    [s["kind"] for s in spans],
                    [s["text"] for s in spans],
                    [s["media_ref"] for s in spans],
                )
            except Exception:
                pass
        return self.export_caches()

    def seed_caches(self, caches: Dict) -> None:
        ex = self.extractor
        self.detector._line_memo.update(caches.get("lines", {}))
        ex.date_normalizer._memo.update(caches.get("dates", {}))
        ex.skill_normalizer._memo.update(caches.get("skills", {}))
        ex.skill_normalizer._memo_clean.update(caches.get("skills_clean", {}))
        ex.edu_normalizer._memo_inst.update(caches.get("inst", {}))
        ex.edu_normalizer._memo_deg.update(caches.get("deg", {}))
        ex.exp_normalizer._memo_company.update(caches.get("company", {}))
        ex.exp_normalizer._memo_title.update(caches.get("title", {}))

    def out_spans(
        self,
        sections: Dict[str, str],
        kinds: Sequence[str],
        texts: Sequence[str],
        media_refs: Sequence[str],
    ) -> List[Dict]:
        ks, ts, ms = self.out_spans_columnar(sections, kinds, texts, media_refs)
        return [
            {"kind": k, "text": t, "media_ref": m, "order": i}
            for i, (k, t, m) in enumerate(zip(ks, ts, ms))
        ]

    def out_spans_columnar(
        self,
        sections: Dict[str, str],
        kinds: Sequence[str],
        texts: Sequence[str],
        media_refs: Sequence[str],
    ):
        """``out_spans`` as three parallel lists (kind, text, media_ref);
        ``order`` is by construction the dense 0-based position, so the
        batch stage reconstitutes it as an arange instead of storing a
        dict per span (the Arrow-native output path)."""
        ks: List[str] = []
        ts: List[str] = []
        ms: List[str] = []
        for name in _SECTION_ORDER:
            content = sections.get(name, "")
            if content.strip():
                ks.append(name)
                ts.append(content)
                ms.append("")
        for k, t, m in zip(kinds, texts, media_refs):
            if k not in ("text", "heading"):
                ks.append(k)
                ts.append(t)
                ms.append(m)
        return ks, ts, ms

    def process_columnar(
        self,
        doc_id: str,
        kinds: Sequence[str],
        texts: Sequence[str],
        media_refs: Sequence[str],
    ):
        """Full chain for one document, span output as parallel lists
        (see ``out_spans_columnar``). Returns
        (span_kinds, span_texts, span_media, resume_dict, anonymized,
        pii_map); the last two are None without a PII engine."""
        raw_text = reconstruct_raw_text(kinds, texts)
        sections = self.detect_sections(raw_text)
        ks, ts, ms = self.out_spans_columnar(sections, kinds, texts, media_refs)
        resume = self.extractor.extract_resume(sections)
        if self.pii is not None:
            anonymized, pii_map = self.pii.anonymize(raw_text)
            return ks, ts, ms, resume, anonymized, pii_map
        return ks, ts, ms, resume, None, None

    def process(
        self,
        doc_id: str,
        kinds: Sequence[str],
        texts: Sequence[str],
        media_refs: Sequence[str],
    ) -> Dict:
        """Full chain for one document; returns Arrow-ready plain dicts
        (row-oriented view over ``process_columnar``)."""
        ks, ts, ms, resume, anonymized, pii_map = self.process_columnar(
            doc_id, kinds, texts, media_refs
        )
        out = {
            "doc_id": doc_id,
            "out_spans": [
                {"kind": k, "text": t, "media_ref": m, "order": i}
                for i, (k, t, m) in enumerate(zip(ks, ts, ms))
            ],
            "resume": resume,
        }
        if self.pii is not None:
            out["anonymized_text"] = anonymized
            out["pii_map"] = pii_map
        return out
