"""Section detector (operator M4, SURVEY.md §2.2) — the line-state
machine of /root/reference/parsing_engine/section_detector.py:31-161.

Semantics preserved exactly:
  * per stripped non-empty line, try the per-section regex banks in
    section order; first section with any ``search`` hit wins and flips
    the current-section state, with the heading line itself included in
    the section content;
  * special case: a line ending with ':' or in ALL CAPS is retried with
    the colon stripped (section_detector.py:124-131);
  * date heuristic: a non-heading line containing a date-range/month-year
    pattern flips state to "experience" unless already in experience or
    education (151-161 + 58-64);
  * other lines append to the current section (lines before any heading
    are dropped);
  * fallback: if nothing was detected, the whole raw text lands in an
    extra "content" section (93-100).

The regex banks are compiled once per process at module import (stage
T6): safe for stateless ``map_batches`` tasks.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence

from ..config import SECTION_NAMES, SECTION_PATTERNS
from .memocap import memo_put

_DATE_HINT_PATTERNS = tuple(
    re.compile(p, re.IGNORECASE)
    for p in (
        r"\b(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{4}\s*[-–]\s*"
        r"(?:(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{4}|Present|Current)\b",
        r"\b\d{4}\s*[-–]\s*(?:\d{4}|Present|Current)\b",
        r"\b(?:Jan|Feb|Mar|Apr|May|Jun|Jul|Aug|Sep|Oct|Nov|Dec)\s+\d{4}\b",
    )
)


def _compile_banks(patterns: Dict[str, List[str]]):
    """One combined alternation per section: ``search`` over
    ``(?:p1)|(?:p2)|...`` decides 'any pattern of this section matches'
    in a single regex pass — semantically identical to the reference's
    per-pattern loop (within-section pattern order is immaterial, only
    section order is), ~10x fewer regex calls on the hot line loop."""
    return {
        section: re.compile("|".join(f"(?:{p})" for p in pats), re.IGNORECASE)
        for section, pats in patterns.items()
        if pats
    }


_DEFAULT_BANKS = _compile_banks(SECTION_PATTERNS)
_DATE_HINT_COMBINED = re.compile(
    "|".join(f"(?:{p.pattern})" for p in _DATE_HINT_PATTERNS), re.IGNORECASE
)


class SectionDetector:
    """Compiled-regex section detector. Construct once per worker."""

    def __init__(self, patterns: Optional[Dict[str, List[str]]] = None):
        if patterns is None:
            self.banks = _DEFAULT_BANKS
        else:
            self.banks = _compile_banks(patterns)
        # gate: union of every section pattern — one scan rejects the
        # common case (prose/bullet lines matching nothing) before the
        # per-section priority walk runs. Lines ending ':' or ALL CAPS
        # bypass the gate (the colon-strip retry could match where the
        # raw line doesn't).
        self._gate = re.compile(
            "|".join(p.pattern for p in self.banks.values()), re.IGNORECASE
        )
        # line -> ("s", section) | ("d", None) | ("p", None); line
        # classification is state-free, and real corpora repeat lines
        # (boilerplate, headings, bullets) heavily; capped by memo_put
        self._line_memo: Dict[str, tuple] = {}

    def _classify(self, line: str) -> tuple:
        r = self._line_memo.get(line)
        if r is None:
            if (
                line.endswith(":")
                or line.isupper()
                or self._gate.search(line) is not None
            ):
                hit = self.match_section_heading(line)
            else:
                hit = None
            if hit:
                r = ("s", hit)
            elif self.contains_date_pattern(line):
                r = ("d", None)
            else:
                r = ("p", None)
            memo_put(self._line_memo, line, r)
        return r

    def match_section_heading(self, text: str) -> Optional[str]:
        if not text:
            return None
        for section, bank in self.banks.items():
            if bank.search(text):
                return section
        if text.endswith(":") or text.isupper():
            clean = text.rstrip(":")
            for section, bank in self.banks.items():
                if bank.search(clean):
                    return section
        return None

    @staticmethod
    def contains_date_pattern(text: str) -> bool:
        return bool(_DATE_HINT_COMBINED.search(text))

    def detect(self, raw_text: str) -> Dict[str, str]:
        """raw text -> {section_name: content_string} over the fixed
        vocabulary (every name present, possibly empty), plus "content"
        when the fallback fires.

        Content accumulates in per-section line lists joined once at the
        end — identical strings to the reference's repeated ``+=`` (each
        append adds ``line + "\\n"``) without its quadratic copying on
        long sections."""
        # vocabulary = THIS detector's banks (the default banks iterate
        # in SECTION_NAMES order; a user parsing_rules.yaml reshapes it)
        parts: Dict[str, list] = {name: [] for name in self.banks}
        current: Optional[str] = None

        for line in raw_text.split("\n"):
            line = line.strip()
            if not line:
                continue
            kind, hit = self._classify(line)
            if kind == "s":
                current = hit
                parts[current].append(line)
            elif kind == "d":
                if current not in ("experience", "education"):
                    current = "experience"
                parts.setdefault(current, []).append(line)
            elif current:
                parts[current].append(line)

        sections: Dict[str, str] = {
            name: ("\n".join(lines) + "\n" if lines else "")
            for name, lines in parts.items()
        }
        if not any(content.strip() for content in sections.values()):
            sections["content"] = raw_text
        return sections

    def detect_present(self, raw_text: str) -> List[str]:
        """Names of sections with non-empty content, in vocabulary order
        ("content" last when the fallback fired)."""
        detected = self.detect(raw_text)
        order = list(self.banks) + ["content"]
        return [n for n in order if detected.get(n, "").strip()]


def reconstruct_raw_text(kinds: Sequence[str], texts: Sequence[str]) -> str:
    """Rebuild the document's raw text from its span sequence: textual
    spans (kind "text"/"heading") joined by newlines in offset order.
    Media spans (image/table) carry no raw text (SURVEY §1.5 mapping)."""
    return "\n".join(t for k, t in zip(kinds, texts) if k in ("text", "heading"))
