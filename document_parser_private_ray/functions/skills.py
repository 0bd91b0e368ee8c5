"""Skill ontology normalizer (T4 + scalar functions N1/N2, SURVEY §2.3/2.4).

Semantics mirror /root/reference/normalization/skill_normalizer.py:
  * ``normalize``      (N1, :47-81): strip category labels and
    parentheticals; case-insensitive exact index lookup -> canonical;
    else fuzzy WRatio over the full variant index at cutoff 80; else
    identity.
  * ``normalize_list`` (N2, :83-155): per-item cleaning, "Label: a, b"
    category splitting on the first matching delimiter of
    [',', '&', '|', '/', 'and'], bullet stripping, parenthetical
    sub-skill extraction, per-part ``normalize``, stop-word filtering,
    sorted de-dup.

State (ontology dict + flat variant index + lowercase map) is built once
per worker — hold it in the per-process slot or a module-level
singleton. All results are memoized per instance: at corpus scale the
distinct-skill vocabulary is tiny compared to row count, so fuzzy
scoring runs once per distinct string per worker.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Optional

from . import fuzzy
from ..config import SKILL_PATTERNS

_DATA_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "data")
DEFAULT_ONTOLOGY_PATH = os.path.join(_DATA_DIR, "skills_ontology.json")
# the fuzzy-match score a skill needs to map onto an ontology entry
THRESHOLD = 80

_BULLET_RE = re.compile(r"^[-•*]\s*")
_WS_RE = re.compile(r"\s+")
_PAREN_RE = re.compile(r"\([^)]*\)")
_PAREN_CAPTURE_RE = re.compile(r"\((.*?)\)")
_ALNUM_RE = re.compile(r"[a-zA-Z0-9]")


class SkillNormalizer:
    def __init__(
        self,
        ontology: Optional[Dict[str, List[str]]] = None,
    ):
        if ontology is None:
            try:
                with open(DEFAULT_ONTOLOGY_PATH, "r") as f:
                    ontology = json.load(f)
            except FileNotFoundError:
                ontology = {}
        self.ontology: Dict[str, List[str]] = ontology
        self.category_labels = SKILL_PATTERNS["category_labels"]
        self.stop_words = set(SKILL_PATTERNS["stop_words"])
        self._rebuild_index()
        self._memo: Dict[str, Optional[str]] = {}

    def _rebuild_index(self):
        # Flat index preserving ontology insertion order (first-match-wins
        # in canonical resolution is part of the contract, SURVEY §4.3).
        index: List[str] = []
        seen = set()
        for canonical, variants in self.ontology.items():
            if canonical not in seen:
                index.append(canonical)
                seen.add(canonical)
            for v in variants:
                if v not in seen:
                    index.append(v)
                    seen.add(v)
        self.skill_index = index
        self.lower_index = {s.lower(): s for s in index}
        self._findex = fuzzy.FuzzyIndex(index)
        self._memo_clean: Dict[str, Optional[str]] = {}
        # variant -> canonical reverse map (replaces the reference's O(n)
        # scan in _get_canonical, same first-wins tie-breaking)
        rev: Dict[str, str] = {}
        for canonical, variants in self.ontology.items():
            rev.setdefault(canonical, canonical)
            for v in variants:
                rev.setdefault(v, canonical)
        self._canonical_of = rev

    def _get_canonical(self, skill: str) -> str:
        return self._canonical_of.get(skill, skill)

    def normalize(self, skill: Optional[str]) -> Optional[str]:
        if skill is None or not isinstance(skill, str):
            return None
        if skill == "":
            return ""
        if not skill.strip():
            return skill  # pure-whitespace input preserved (ref :54-56)
        cached = self._memo.get(skill)
        if cached is not None or skill in self._memo:
            return cached
        result = self._normalize_uncached(skill)
        from .memocap import memo_put

        memo_put(self._memo, skill, result)
        return result

    def _normalize_uncached(self, skill: str) -> Optional[str]:
        for label in self.category_labels:
            skill = re.sub(f"^{label}:\\s*", "", skill)
        skill = _PAREN_RE.sub("", skill).strip()

        # second-level memo on the CLEANED string: raw inputs differing
        # only in stripped parentheticals/labels (e.g. date ranges) all
        # collapse to one fuzzy evaluation per worker
        if skill in self._memo_clean:
            cached = self._memo_clean[skill]
            return cached if cached is not None else skill

        hit = self.lower_index.get(skill.lower())
        if hit is not None:
            result = self._get_canonical(hit)
        else:
            m = self._findex.extract_one(skill, score_cutoff=THRESHOLD)
            result = self._get_canonical(m[0]) if m else skill
        from .memocap import memo_put

        memo_put(self._memo_clean, skill, result)
        return result

    def normalize_list(self, skills: List[Optional[str]]) -> List[str]:
        if not skills:
            return []
        out = set()
        for skill in skills:
            if not isinstance(skill, str) or not skill.strip():
                continue
            skill = skill.strip()
            if len(skill) <= 1 or not _ALNUM_RE.search(skill):
                continue

            if ":" in skill:
                _, content = skill.split(":", 1)
                parts: List[str] = []
                for delimiter in (",", "&", "|", "/", "and"):
                    if delimiter in content:
                        parts.extend(p.strip() for p in content.split(delimiter))
                        break
                if not parts:
                    parts = [content.strip()]
            else:
                parts = [skill]

            for part in parts:
                part = part.strip()
                if not part or len(part) <= 1:
                    continue
                part = _BULLET_RE.sub("", part)
                part = _WS_RE.sub(" ", part)

                if "(" in part and ")" in part:
                    main = _PAREN_RE.sub("", part).strip()
                    subs = _PAREN_CAPTURE_RE.findall(part)
                    if main:
                        n = self.normalize(main)
                        if n:
                            out.add(n)
                    for sub in subs:
                        for sp in (s.strip() for s in re.split(r"[,&]", sub)):
                            if sp and len(sp) > 1:
                                n = self.normalize(sp)
                                if n:
                                    out.add(n)
                else:
                    n = self.normalize(part)
                    if n:
                        out.add(n)

        out = {s for s in out if s.lower() not in self.stop_words}
        return sorted(out)

    def add_custom_mapping(self, variant: str, canonical: str):
        """Runtime ontology growth (extension surface, ref :163-174)."""
        self.ontology.setdefault(canonical, [])
        if variant not in self.ontology[canonical]:
            self.ontology[canonical].append(variant)
        self._rebuild_index()
        self._memo.clear()
