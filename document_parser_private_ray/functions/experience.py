"""Experience normalizer (T5 + scalar functions N10-N14, SURVEY §2.3/2.4).

Mirrors /root/reference/normalization/experience_normalizer.py:
  * ``normalize_company``     (N10, :56-75): artifact strip, suffix
    removal (Inc/Corp/Co/Ltd/LLC/Group), exact -> fuzzy >= 85 -> original.
  * ``normalize_title``       (N11, :77-109): two-pass abbreviation
    expansion (compound first), match expanded -> match original ->
    return expanded. Fuzzy threshold 90.
  * ``normalize_description`` (N12, :137-154).
  * ``calculate_duration``    (N13, :163-206): months between normalized
    dates; open end -> frozen ``today``; +1 month for leftover days; 0 on
    inversion/errors. (relativedelta reimplemented — dateutil-free.)
  * ``normalize``             (N14, :228-262): entry-level pass.

Preserved quirk: ``_match_entity`` performs its *exact*-match check
against the company index regardless of which mapping is being matched
(experience_normalizer.py:211) — titles therefore only exact-match if
they happen to appear in the company index, and otherwise always take
the fuzzy path. Documented as part of the golden contract.
"""

from __future__ import annotations

import json
import os
import re
from datetime import date
from typing import Dict, List, Optional, Tuple, Union

from . import fuzzy
from .dates import DateNormalizer
from .skills import SkillNormalizer
from ..config import EXPERIENCE_PATTERNS

_DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")


def _load_mapping(path: str) -> Dict[str, List[str]]:
    try:
        with open(path, "r") as f:
            return json.load(f)
    except (FileNotFoundError, json.JSONDecodeError):
        return {}


def _index_of(mapping: Dict[str, List[str]]) -> List[str]:
    # insertion-ordered dedup: deterministic across processes (the
    # reference's set-based index order is hash-randomized per process —
    # a distribution hazard; ordering is part of the contract here)
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


def months_between(start: date, end: date) -> int:
    """relativedelta-equivalent whole months from start to end (end >=
    start), plus one if leftover days remain."""
    months = (end.year - start.year) * 12 + (end.month - start.month)
    days = end.day - start.day
    if days < 0:
        months -= 1
        days = 1  # leftover days exist within the partial month
    return months + (1 if days > 0 else 0)


class ExperienceNormalizer:
    def __init__(
        self,
        skill_normalizer: Optional[SkillNormalizer] = None,
        date_normalizer: Optional[DateNormalizer] = None,
    ):
        self.patterns = EXPERIENCE_PATTERNS
        self.date_normalizer = date_normalizer or DateNormalizer()
        self.skill_normalizer = skill_normalizer or SkillNormalizer()
        self.company_mapping = _load_mapping(os.path.join(_DATA_DIR, "companies.json"))
        self.title_mapping = _load_mapping(os.path.join(_DATA_DIR, "titles.json"))
        self.company_index = _index_of(self.company_mapping)
        self.title_index = _index_of(self.title_mapping)
        self._company_findex = fuzzy.FuzzyIndex(self.company_index)
        self._title_findex = fuzzy.FuzzyIndex(self.title_index)
        self._company_canonical = _canonical_map(self.company_mapping)
        self._title_canonical = _canonical_map(self.title_mapping)
        fm = self.patterns.get("fuzzy_match", {})
        self.company_threshold = fm.get("company_threshold", 85)
        self.title_threshold = fm.get("title_threshold", 90)
        self.cleaning = self.patterns.get("description_cleaning", {})
        # Patterns in config are full regexes (optional dots written as
        # \.?); compound = multi-token (contains whitespace class). The
        # reference's pass-2 string munging corrupts dotted abbreviations
        # (experience_normalizer.py:95 turns "Sr\.?" into an unmatchable
        # pattern); its unit tests pin the INTENDED expansion ("Sr. SWE"
        # -> "Senior Software Engineer"), which is what this implements.
        abbrevs = self.patterns.get("title_abbreviations", [])
        self._compound_abbrevs = [
            (re.compile(f"\\b{a}\\b", re.IGNORECASE), full)
            for a, full in abbrevs
            if "\\s" in a or " " in a
        ]
        self._single_abbrevs = [
            (re.compile(f"\\b{a}\\b", re.IGNORECASE), full)
            for a, full in abbrevs
            if "\\s" not in a and " " not in a
        ]
        self._memo_company: Dict[str, str] = {}
        self._memo_title: Dict[str, str] = {}

    # -- N10 -----------------------------------------------------------
    def normalize_company(self, name: Optional[str]) -> str:
        if not name:
            return ""
        hit = self._memo_company.get(name)
        if hit is not None:
            return hit
        artifacts = self.cleaning.get("artifacts", r"[^\w\s&.,-]")
        cleaned = re.sub(artifacts, "", name, flags=re.IGNORECASE)
        for suffix in self.patterns.get("company_suffixes", []):
            cleaned = re.sub(f"\\b({suffix})\\b\\.?", "", cleaned, flags=re.IGNORECASE).strip()
        result = self._match_entity(cleaned, self.company_mapping) or name
        from .memocap import memo_put

        memo_put(self._memo_company, name, result)
        return result

    # -- N11 -----------------------------------------------------------
    def normalize_title(self, title: Optional[str]) -> str:
        if not title:
            return ""
        hit = self._memo_title.get(title)
        if hit is not None:
            return hit
        expanded = title
        for pattern, full in self._compound_abbrevs:
            expanded = pattern.sub(full, expanded)
        for pattern, full in self._single_abbrevs:
            expanded = pattern.sub(full, expanded)
        result = (
            self._match_entity(expanded, self.title_mapping)
            or self._match_entity(title, self.title_mapping)
            or expanded
        )
        from .memocap import memo_put

        memo_put(self._memo_title, title, result)
        return result

    def _match_entity(self, text: str, mapping: Dict) -> Optional[str]:
        # Exact check always against the COMPANY index (reference quirk).
        if text in self.company_index:
            return self._canonical_for(text, mapping)
        is_company = mapping is self.company_mapping
        threshold = self.company_threshold if is_company else self.title_threshold
        findex = self._company_findex if is_company else self._title_findex
        result = findex.extract_one(text, score_cutoff=threshold)
        if result:
            return self._canonical_for(result[0], mapping)
        return None

    def _canonical_for(self, variant: str, mapping: Dict) -> str:
        rev = (
            self._company_canonical
            if mapping is self.company_mapping
            else self._title_canonical
        )
        return rev.get(variant, variant)

    # -- dates ---------------------------------------------------------
    def normalize_dates(
        self, start_date: str, end_date: str
    ) -> Tuple[Optional[date], Optional[date]]:
        start = self.date_normalizer.normalize(start_date) if start_date else None
        end = self.date_normalizer.normalize(end_date) if end_date else None
        return start, end

    # -- N2 over technologies -------------------------------------------
    def normalize_technologies(self, tech_list: List[str]) -> List[str]:
        return [t for t in self.skill_normalizer.normalize_list(tech_list) if t is not None]

    # -- N12 -----------------------------------------------------------
    def normalize_description(self, description: Optional[str]) -> str:
        if not description:
            return ""
        bullet = self.cleaning.get("bullet_points", r"^[\s•\-*]+")
        description = re.sub(bullet, "", description, flags=re.MULTILINE)
        ws = self.cleaning.get("whitespace", r"\s+")
        description = re.sub(ws, " ", description).strip()
        if description:
            description = description[0].upper() + description[1:]
        return description

    # -- N13 -----------------------------------------------------------
    def calculate_duration(
        self, start: Union[str, date, None], end: Union[str, date, None]
    ) -> int:
        try:
            start_dt = start if isinstance(start, date) else (
                self.date_normalizer.normalize(start) if isinstance(start, str) else None
            )
            end_dt = end if isinstance(end, date) else (
                self.date_normalizer.normalize(end) if isinstance(end, str) else None
            )
            if not end_dt:
                end_dt = self.date_normalizer.today
            if not start_dt:
                return 0
            if start_dt > end_dt:
                return 0
            return months_between(start_dt, end_dt)
        except Exception:
            return 0

    # -- N14 -----------------------------------------------------------
    def normalize(self, experience_entries: List[Dict]) -> List[Dict]:
        if not isinstance(experience_entries, list):
            return []
        normalized = []
        for entry in experience_entries:
            if not isinstance(entry, dict):
                continue
            ne = {
                "company": self.normalize_company(entry.get("company", "")),
                "position": self.normalize_title(entry.get("position", "")),
                "description": self.normalize_description(entry.get("description", "")),
                "technologies": self.normalize_technologies(entry.get("technologies", [])),
            }
            start_date = entry.get("start_date")
            end_date = entry.get("end_date")
            if start_date or end_date:
                start_norm, end_norm = self.normalize_dates(
                    start_date or "", end_date or ""
                )
                ne["start_date"] = start_norm
                ne["end_date"] = end_norm
                if start_norm and end_norm:
                    ne["duration_months"] = self.calculate_duration(start_norm, end_norm)
            normalized.append(ne)
        return normalized
