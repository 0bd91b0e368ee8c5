"""Education normalizer (T5 + scalar functions N5-N9, SURVEY §2.3/2.4).

Mirrors /root/reference/normalization/education_normalizer.py:
  * ``normalize_institution`` (N5, :52-89): punctuation strip, indicator
    removal, exact index -> canonical, fuzzy WRatio >= 85, else "Unknown"
    (including falsy input — impl semantics, not the stale test's "").
  * ``normalize_degree`` (N6, :92-129): abbreviation expansion
    (BS/BA/MS/MA/MBA/PhD), Masters->Master, Admin->Administration,
    in->of, trailing "Degree" drop, exact -> fuzzy >= 85 -> cleaned.
  * ``normalize_field`` (N7, :145-165): CS/EE/CE/MIS expansion +
    camelCase split; the reference's fields.json is absent so the mapping
    is empty ({}) — preserved: no fields.json ships here either.
  * ``normalize_gpa`` (N8, :198-219): d.dd extraction, None when a scale
    is mentioned.
  * ``normalize`` (N9, :221-293): entry-level pass — ISO dates,
    achievements mining (markers, bullets, indicator words), guaranteed
    >= 1 achievement filler.
"""

from __future__ import annotations

import json
import os
import re
from datetime import datetime
from typing import Any, Dict, List, Optional, Tuple

from . import fuzzy
from ..config import EDUCATION_PATTERNS

_DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")

_DEGREE_EXPANSIONS = {
    "BS": "Bachelor of Science",
    "BA": "Bachelor of Arts",
    "MS": "Master of Science",
    "MA": "Master of Arts",
    "MBA": "Master of Business Administration",
    "PHD": "Doctor of Philosophy",
}

_ACHIEVEMENT_MARKERS = (
    "achievements:", "accomplishments:", "awards:", "honors:",
    "academic achievements", "notable achievements",
)
_ACHIEVEMENT_INDICATORS = (
    "awarded", "received", "achieved", "earned", "graduated",
    "dean's list", "honor roll", "distinction", "cum laude",
    "gpa", "grade", "score", "rank", "medal", "prize",
    "scholarship", "fellowship", "grant",
)
_DEFAULT_ACHIEVEMENT = "Successfully completed coursework and requirements"


def _load_mapping(path: str) -> Dict[str, List[str]]:
    try:
        with open(path, "r") as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def _index_of(mapping: Dict[str, List[str]]) -> List[str]:
    """Flat dedup index. The reference uses ``list(set(...))``
    (education_normalizer.py:44-49) whose iteration order is
    hash-randomized PER PROCESS — a distribution hazard (fuzzy ties
    would break differently on every worker). Insertion order is kept
    instead: deterministic everywhere, and tie-breaking becomes part of
    the contract (SURVEY §4.3)."""
    index: List[str] = []
    seen = set()
    for canonical, variants in mapping.items():
        for item in (canonical, *variants):
            if item not in seen:
                seen.add(item)
                index.append(item)
    return index


def _canonical_map(mapping: Dict[str, List[str]]) -> Dict[str, str]:
    rev: Dict[str, str] = {}
    for canonical, variants in mapping.items():
        rev.setdefault(canonical, canonical)
        for v in variants:
            rev.setdefault(v, canonical)
    return rev


class EducationNormalizer:
    def __init__(self):
        self.patterns = EDUCATION_PATTERNS
        self.institution_mapping = _load_mapping(os.path.join(_DATA_DIR, "institutions.json"))
        self.degree_mapping = _load_mapping(os.path.join(_DATA_DIR, "degrees.json"))
        self.field_mapping = _load_mapping(os.path.join(_DATA_DIR, "fields.json"))
        self.institution_index = _index_of(self.institution_mapping)
        self.degree_index = _index_of(self.degree_mapping)
        self._inst_findex = fuzzy.FuzzyIndex(self.institution_index)
        self._deg_findex = fuzzy.FuzzyIndex(self.degree_index)
        self._inst_canonical = _canonical_map(self.institution_mapping)
        self._deg_canonical = _canonical_map(self.degree_mapping)
        self._memo_inst: Dict[str, str] = {}
        self._memo_deg: Dict[str, str] = {}
        indicators = "|".join(self.patterns.get("institution_indicators", []))
        self._indicator_re = (
            re.compile(f"\\b({indicators})\\b\\.?", re.IGNORECASE) if indicators else None
        )

    # -- N5 ------------------------------------------------------------
    def normalize_institution(self, name: Optional[str]) -> str:
        if not name or not isinstance(name, str):
            return "Unknown"
        hit = self._memo_inst.get(name)
        if hit is not None:
            return hit
        clean = re.sub(r"[^\w\s&.,-]", "", name).replace(".", "")
        if self._indicator_re is not None:
            clean = self._indicator_re.sub("", clean).strip()
        if not clean:
            result = "Unknown"
        elif clean in self.institution_index:
            result = self._inst_canonical.get(clean, clean)
        else:
            m = self._inst_findex.extract_one(clean, score_cutoff=85)
            result = self._inst_canonical.get(m[0], m[0]) if m else "Unknown"
        from .memocap import memo_put

        memo_put(self._memo_inst, name, result)
        return result

    # -- N6 ------------------------------------------------------------
    def normalize_degree(self, degree: Optional[str]) -> str:
        if not degree or not isinstance(degree, str):
            return ""
        hit = self._memo_deg.get(degree)
        if hit is not None:
            return hit
        clean = re.sub(r"[^\w\s]", "", degree)
        for pattern in self.patterns.get("degree_indicators", []):
            clean = re.sub(
                f"\\b({pattern})\\b",
                lambda m: self._expand_abbrev(m.group()),
                clean,
                flags=re.IGNORECASE,
            )
        clean = re.sub(r"\bMasters\b", "Master", clean, flags=re.IGNORECASE)
        clean = re.sub(r"\bAdmin\b", "Administration", clean, flags=re.IGNORECASE)
        clean = re.sub(r"\bin\b", "of", clean, flags=re.IGNORECASE)
        clean = re.sub(r"\bDegree\b$", "", clean, flags=re.IGNORECASE).strip()
        if not clean:
            result = degree
        elif clean in self.degree_index:
            result = self._deg_canonical.get(clean, clean)
        else:
            m = self._deg_findex.extract_one(clean, score_cutoff=85)
            result = self._deg_canonical.get(m[0], m[0]) if m else clean
        from .memocap import memo_put

        memo_put(self._memo_deg, degree, result)
        return result

    @staticmethod
    def _expand_abbrev(abbrev: str) -> str:
        return _DEGREE_EXPANSIONS.get(re.sub(r"\.", "", abbrev.upper()), abbrev)

    # -- N7 ------------------------------------------------------------
    def normalize_field(self, field: Optional[str]) -> str:
        if not field or not isinstance(field, str):
            return ""
        clean = re.sub(r"\bCS\b", "Computer Science", field, flags=re.IGNORECASE)
        clean = re.sub(r"\bEE\b", "Electrical Engineering", clean, flags=re.IGNORECASE)
        clean = re.sub(r"\bCE\b", "Computer Engineering", clean, flags=re.IGNORECASE)
        clean = re.sub(r"\bMIS\b", "Management Information Systems", clean, flags=re.IGNORECASE)
        clean = re.sub(r"([a-z])([A-Z])", r"\1 \2", clean)
        if not clean:
            return field
        for canonical, variants in self.field_mapping.items():
            if clean.lower() == canonical.lower():
                return canonical
            if any(clean.lower() == v.lower() for v in variants):
                return canonical
        return clean

    # -- N8 ------------------------------------------------------------
    @staticmethod
    def normalize_gpa(gpa_str: Optional[str]) -> Optional[float]:
        if not gpa_str or not isinstance(gpa_str, str):
            return None
        m = re.search(r"\b(\d\.\d{1,2})\b", gpa_str)
        if not m:
            m = re.search(r"^(\d\.\d{1,2})\b|\b(\d\.\d{1,2})$", gpa_str.strip())
        if m and re.search(r"out\s+of|on|scale", gpa_str, re.IGNORECASE):
            return None
        if m:
            try:
                return float(m.group(1) or m.group(2))
            except (ValueError, TypeError, IndexError):
                return None
        return None

    # -- dates helper (ref :178-195) -----------------------------------
    @staticmethod
    def normalize_dates(
        start_date: Optional[str], end_date: Optional[str]
    ) -> Tuple[Optional[str], Optional[str]]:
        def parse(ds: Optional[str]) -> Optional[str]:
            if not ds:
                return None
            for fmt in ("%Y-%m-%d", "%Y/%m/%d", "%B %Y", "%b %Y", "%Y"):
                try:
                    return datetime.strptime(ds.strip(), fmt).strftime("%Y-%m-%d")
                except ValueError:
                    continue
            return ds

        return parse(start_date), parse(end_date)

    # -- N9 ------------------------------------------------------------
    def normalize(self, entries: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        normalized = []
        for entry in entries:
            description = entry.get("description", "")
            start_norm, end_norm = self.normalize_dates(
                entry.get("start_date", ""), entry.get("end_date", "")
            )

            achievements: List[str] = []
            other_lines: List[str] = []
            in_achievements = False
            for line in description.split("\n"):
                line = line.strip()
                if not line:
                    continue
                if any(marker in line.lower() for marker in _ACHIEVEMENT_MARKERS):
                    in_achievements = True
                    continue
                if line.startswith("•") or line.startswith("-") or re.match(r"^\d+\.", line):
                    achievement = line.lstrip("•- ").strip()
                    if achievement:
                        achievements.append(achievement)
                        continue
                if in_achievements:
                    achievements.append(line)
                else:
                    other_lines.append(line)

            if not achievements:
                achievements = [
                    line
                    for line in other_lines
                    if any(ind in line.lower() for ind in _ACHIEVEMENT_INDICATORS)
                ]
            if not achievements:
                achievements = [_DEFAULT_ACHIEVEMENT]

            normalized.append(
                {
                    "institution": entry.get("institution", ""),
                    "degree": entry.get("degree", ""),
                    "field_of_study": entry.get("field_of_study", ""),
                    "start_date": start_norm or "",
                    "end_date": end_norm or "",
                    "description": "\n".join(other_lines),
                    "achievements": achievements,
                }
            )
        return normalized
