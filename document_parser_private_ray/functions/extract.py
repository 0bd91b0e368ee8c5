"""Entity extraction (operators M5-M11 + assembly M13, SURVEY §2.2).

Pure-Python reimplementation of the reference's EntityExtractor
(/root/reference/parsing_engine/entity_extractor.py) along the main.py
pipeline path (SURVEY §3.1 — the golden semantics), with the NER model
slot kept behind an optional hook:

  * the reference loads a HF NER pipeline (entity_extractor.py:17) whose
    output is nondeterministic across versions/hardware; every extractor
    carries a deterministic regex fallback that fires when NER returns
    nothing. Golden semantics are pinned to those fallback paths
    (SURVEY §4.3); pass ``ner=callable`` to re-enable model assistance
    (same ``[{word, entity_group}]`` contract).

Outputs are plain dicts/lists shaped for Arrow struct columns: every
string field present ("" when absent), dates as ISO-8601 strings.

Every education and experience entry runs the field-of-study and
company scans, so both are precompiled: the field patterns run only
when a cheap exact substring gate passes, and the company fallback is
three linear scans instead of one regex that is quadratic on
capitalised prose. The contact email search is likewise linear: it
looks only at the local-part runs that end at an ``@``. Answers equal
the plain regexes (``tests/test_optimization_equivalence.py``).
"""

from __future__ import annotations

import bisect
import re
from typing import Callable, Dict, List, Optional, Tuple

from .dates import DateNormalizer
from .education import EducationNormalizer
from .experience import ExperienceNormalizer
from .skills import SkillNormalizer

NerFn = Callable[[str], List[Dict[str, str]]]

# The reference's email pattern is
#   \b[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b
# found by _search_email: that one regex retries every word start of a
# long local-part run with no '@' after it and is quadratic there.
_EMAIL_LOCAL_RUN_RE = re.compile(r"[A-Za-z0-9._%+-]+")
_EMAIL_DOMAIN_RE = re.compile(r"[A-Za-z0-9.-]+\.[A-Z|a-z]{2,}\b")
_WORD_BOUNDARY_RE = re.compile(r"\b")
_PHONE_RE = re.compile(
    r"(\b\d{3}[-.\s]?\d{3}[-.\s]?\d{4}\b|\+\d{1,3}[-.\s]?\d{3,}[-.\s]?\d{4,})\b"
)
_LINKEDIN_RE = re.compile(r"(https?://)?(www\.)?linkedin\.com/(in|pub)/[a-zA-Z0-9-]+\b")
_GITHUB_RE = re.compile(r"(https?://)?(www\.)?github\.com/[a-zA-Z0-9-]+/?\b")
_NAME_RE = re.compile(r"^([A-Z][a-zA-Z\s]+)\n")
_ENTRY_SPLIT_RE = re.compile(r"\n(?=[A-Z][^a-z])")
_SKILL_DELIM_RE = re.compile(r"[\n,;•/]+")
_WS_RE = re.compile(r"\s+")

# The reference's company fallback is
#   \b([A-Z][a-zA-Z0-9\s,.-]+(?:Inc|LLC|Co|Company|Group|Corp|Corporation|Ltd|Limited))\b
# run as three linear scans (see _search_company): that one regex retries
# every capital of a suffix-free run and is quadratic on capitalised prose.
_COMPANY_SUFFIX_RE = re.compile(
    r"(?:Inc|LLC|Co|Company|Group|Corp|Corporation|Ltd|Limited)\b"
)
_COMPANY_RUN_RE = re.compile(r"[a-zA-Z0-9\s,.-]+")
_COMPANY_START_RE = re.compile(r"\b[A-Z]")
_POSITION_FALLBACK_RE = re.compile(
    r"\b(software engineer|developer|data scientist|project manager|analyst|consultant)\b",
    re.IGNORECASE,
)
_INSTITUTION_FALLBACK_RE = re.compile(
    r"(university|college|institute|school|academy)\b", re.IGNORECASE
)
_DEGREE_FALLBACK_RE = re.compile(
    r"\b(bachelor|master|phd|bsc|msc|mba|ba|bs|ms|ma)\b\.?", re.IGNORECASE
)
_FIELDS_OF_STUDY = (
    "computer science", "software engineering", "electrical engineering",
    "mechanical engineering", "civil engineering", "data science",
    "artificial intelligence", "machine learning", "information technology",
    "business administration", "finance", "marketing", "physics",
    "mathematics", "chemistry", "biology", "psychology", "history",
    "literature", "arts", "design",
)
# (field, its word-bounded case-insensitive pattern), in list order
_FIELD_PATTERNS = tuple(
    (field, re.compile(r"\b" + re.escape(field) + r"\b", re.IGNORECASE))
    for field in _FIELDS_OF_STUDY
)

# The reference splits the projects section with one alternation of
# five lookaheads:
#   \n(?=[A-Z][\w\s-]+ - [\w\s]+(?:app|system|platform|game))   titled item
#   \n(?=\d+\.\s+[A-Z][\w\s-]+)                                numbered item
#   \n(?=Project \d+:)
#   \n(?=\s*[•\-*]?\s*[A-Z][^\n:]+[:\n])                       (bulleted) line
#   \n\n(?=[A-Z])
# Its titled-item and line lookaheads rescan across lines from every
# newline, so it is quadratic on many capitalised lines and worse on a
# run of blank lines. ``_split_projects`` finds the same split points in
# linear time.
_TITLED_TAIL_RE = re.compile(r"(?= - [\w\s]+(?:app|system|platform|game))")
# the numbered-item and "Project N:" lookaheads, anchored at i
_ANCHORED_ITEM_RE = re.compile(r"\d++\.\s++[A-Z][\w\s-]|Project \d++:")
_NOT_SPACE_RE = re.compile(r"\S")
_NOT_TITLE_CHAR_RE = re.compile(r"[^\w\s-]")


def _scan_to(text: str, regex, i: int, crossed: list) -> int:
    """First index >= ``i`` where ``regex`` matches (``len(text)`` if
    none). ``crossed`` is the ``[from, to]`` of the last scan of its
    kind; scans of one kind come in nondecreasing ``i``, so one that
    starts inside that stretch has the same answer and costs nothing."""
    if not crossed[0] <= i <= crossed[1]:
        m = regex.search(text, i)
        crossed[:] = i, m.start() if m else len(text)
    return crossed[1]


def _capital_line(text: str, c: int, last_stop: int) -> bool:
    # [A-Z][^\n:]+[:\n] at c, with last_stop the last "\n" or ":"
    return (
        c + 1 < len(text) and "A" <= text[c] <= "Z"
        and text[c + 1] not in "\n:" and last_stop > c + 1
    )


def _split_projects(text: str) -> List[str]:
    r"""``re.split`` of ``text`` at the reference's project boundaries
    (above), in linear time.

    A newline at ``p`` splits off ``text[p]`` when one of the first
    four lookaheads holds at ``i = p + 1``, else ``text[p:p+2]`` when
    the fifth does. Each lookahead reduces to a check near a few
    positions. Titled item: ``text[i]`` is a capital, and a " - " tail
    (``_TITLED_TAIL_RE``) starts at some ``s >= i + 2`` inside the
    ``[\w\s-]`` run from ``i + 1`` (every character of the match lies
    in that run). Line: where the whitespace from ``i`` ends, or (past
    a bullet there) where the next whitespace ends, is a capital and a
    ``[^\n:]`` character with a ``\n`` or ``:`` somewhere after.
    Numbered and ``Project N:`` items are anchored matches whose scans
    stay on their own line (``_ANCHORED_ITEM_RE``; ``\s`` is
    ``str.isspace``). The " - " tails are found once (their
    ``[\w\s]`` stretches do not overlap), and the scans for a run's end
    are shared between the newlines inside it (``_scan_to``)."""
    n = len(text)
    last_stop = max(text.rfind("\n"), text.rfind(":"))
    tails = None
    line, bullet, title = [n + 1, n], [n + 1, n], [n + 1, n]
    pieces, start, p = [], 0, text.find("\n")
    while p != -1:
        i = p + 1
        end = 0
        if i < n:
            c = text[i]
            # the four one-newline lookaheads cut alike, so the cheap ones go first
            q = _scan_to(text, _NOT_SPACE_RE, i, line) if c.isspace() else i
            if (
                _capital_line(text, q, last_stop)
                or (q < n and text[q] in "•-*" and _capital_line(
                    text, _scan_to(text, _NOT_SPACE_RE, q + 1, bullet), last_stop))
                or _ANCHORED_ITEM_RE.match(text, i)
            ):
                end = i
            elif "A" <= c <= "Z" and " - " in text:
                if tails is None:
                    tails = [m.start() for m in _TITLED_TAIL_RE.finditer(text)]
                k = bisect.bisect_left(tails, i + 2)
                if k < len(tails) and tails[k] < _scan_to(text, _NOT_TITLE_CHAR_RE, i + 1, title):
                    end = i
            elif c == "\n" and i + 1 < n and "A" <= text[i + 1] <= "Z":
                end = i + 1
        if end:
            pieces.append(text[start:p])
            start = end
        p = text.find("\n", end or i)
    pieces.append(text[start:])
    return pieces


def _search_company(text: str) -> Optional[str]:
    """The reference's company fallback match, found in linear time.

    Every character of a match lies in one maximal ``[a-zA-Z0-9\\s,.-]``
    run, and the greedy middle backtracks to the run's LAST suffix
    ``(p, q)``. So the match is ``text[i:q]`` for the leftmost
    word-bounded capital ``i <= p - 2``, in the first run that has one.
    Suffix matches cannot overlap (only "LLC" has an inner capital), so
    one ``finditer`` finds them all.
    """
    suffixes = [m.span() for m in _COMPANY_SUFFIX_RE.finditer(text)]
    k, n = 0, len(suffixes)
    for run in _COMPANY_RUN_RE.finditer(text):
        if k == n:
            break
        run_start, run_end = run.span()
        last = None
        while k < n and suffixes[k][0] < run_end:
            last = suffixes[k]
            k += 1
        if last is not None:
            m = _COMPANY_START_RE.search(text, run_start, last[0] - 1)
            if m:
                return text[m.start():last[1]]
    return None


def _search_email(text: str) -> Optional[str]:
    """The reference's email match, found in linear time.

    The local part of a match starting at ``i`` is the rest of the
    maximal ``[A-Za-z0-9._%+-]`` run holding ``i``, so it needs an
    ``@`` right after that run, and the domain part after the ``@`` does
    not depend on ``i``. The leftmost match therefore starts at the
    first word boundary of the first run that ends at an ``@`` whose
    domain part matches. Runs are disjoint, so each is scanned once.
    """
    for run in _EMAIL_LOCAL_RUN_RE.finditer(text):
        at = run.end()
        if text[at:at + 1] != "@":
            continue
        domain = _EMAIL_DOMAIN_RE.match(text, at + 1)
        if domain is None:
            continue
        # endpos=at makes ``at`` look like the end of the text, so a
        # boundary reported there is not a real one
        start = _WORD_BOUNDARY_RE.search(text, run.start(), at)
        if start is not None and start.start() < at:
            return text[start.start():domain.end()]
    return None


def _iso(d) -> str:
    return d.isoformat() if d else ""


class ResumeExtractor:
    """Per-section extraction + normalization. Construct once per worker
    (loads ontologies, compiles banks); ``ParseDocuments`` keeps it in
    the per-process slot."""

    def __init__(
        self,
        data_dir: Optional[str] = None,
        today=None,
        ner: Optional[NerFn] = None,
    ):
        self.ner = ner
        self.date_normalizer = DateNormalizer(today=today)
        self.skill_normalizer = SkillNormalizer()
        self.edu_normalizer = EducationNormalizer(data_dir=data_dir)
        self.exp_normalizer = ExperienceNormalizer(
            data_dir=data_dir,
            skill_normalizer=self.skill_normalizer,
            date_normalizer=self.date_normalizer,
        )

    def _ner(self, text: str) -> List[Dict[str, str]]:
        return self.ner(text) if self.ner else []

    # -- M5 (entity_extractor.py:49-84) ---------------------------------
    def extract_contact(self, contact_text: str) -> Dict[str, str]:
        contact = {"name": "", "email": "", "phone": "", "linkedin": "", "github": "", "location": ""}
        m = _NAME_RE.match(contact_text)
        if m:
            contact["name"] = m.group(1).strip()
            contact_text = contact_text[m.end():].strip()
        email = _search_email(contact_text)
        if email:
            contact["email"] = email
        phones = _PHONE_RE.findall(contact_text)
        if phones:
            contact["phone"] = phones[0] if isinstance(phones[0], str) else "".join(phones[0])
        m = _LINKEDIN_RE.search(contact_text)
        if m:
            contact["linkedin"] = m.group(0)
        m = _GITHUB_RE.search(contact_text)
        if m:
            contact["github"] = m.group(0)
        if contact_text.strip():
            locations = [e["word"] for e in self._ner(contact_text) if e.get("entity_group") == "LOC"]
            if locations:
                contact["location"] = locations[0]
        return contact

    # -- M6 (:86-91) -----------------------------------------------------
    @staticmethod
    def extract_summary(summary_text: str) -> str:
        cleaned = _WS_RE.sub(" ", summary_text).strip()
        if len(cleaned) > 500:
            last_period = cleaned[:500].rfind(".")
            return cleaned[: last_period + 1] if last_period > 0 else cleaned[:497] + "..."
        return cleaned

    # -- M7 (:93-126) ----------------------------------------------------
    def extract_skills(self, skills_text: str) -> List[str]:
        if not skills_text.strip():
            return []
        ner = self.ner
        skills = set()
        for phrase in _SKILL_DELIM_RE.split(skills_text):
            phrase = phrase.strip()
            if not phrase:
                continue
            found_ner = False
            # no hook, no call: this runs once per phrase of every entry
            for entity in ner(phrase) if ner else ():
                group = entity.get("entity_group", "")
                word = entity.get("word", "")
                if group in ("MISC", "ORG", "LOC", "PROD") or "skill" in word.lower():
                    skills.add(word)
                    found_ner = True
            if not found_ner:
                skills.add(phrase)
        normalize = self.skill_normalizer.normalize
        normalized = set()
        for skill in skills:
            if len(skill) <= 1 or skill.isdigit():
                continue
            n = normalize(skill)
            if n:
                normalized.add(n)
        return sorted(normalized)

    # -- M8 (:128-157, 288-327) ------------------------------------------
    def extract_education(self, education_text: str) -> List[Dict]:
        if not education_text.strip():
            return []
        entries = []
        for entry_text in _ENTRY_SPLIT_RE.split(education_text):
            entry_text = entry_text.strip()
            if not entry_text:
                continue
            institution = self._extract_institution(entry_text)
            degree = self._extract_degree(entry_text)
            field = self._extract_field_of_study(entry_text)
            start, end = self.date_normalizer.extract_period(entry_text)
            entries.append(
                {
                    "institution": self.edu_normalizer.normalize_institution(institution or ""),
                    "degree": self.edu_normalizer.normalize_degree(degree or ""),
                    "field_of_study": field or "",
                    "start_date": _iso(start),
                    "end_date": _iso(end),
                    "description": entry_text,
                    "achievements": [],
                }
            )
        return entries

    def _extract_institution(self, text: str) -> Optional[str]:
        for entity in self._ner(text):
            if entity.get("entity_group") == "ORG":
                return entity["word"]
        m = _INSTITUTION_FALLBACK_RE.search(text)
        return m.group(0) if m else None

    def _extract_degree(self, text: str) -> Optional[str]:
        for entity in self._ner(text):
            word = entity.get("word", "")
            if "degree" in word.lower() or "certificate" in word.lower():
                return word
        m = _DEGREE_FALLBACK_RE.search(text)
        return m.group(0) if m else None

    @staticmethod
    def _extract_field_of_study(text: str) -> Optional[str]:
        # On ASCII text a case-insensitive match needs the field as a
        # substring of the lowered text, a cheap exact gate. Non-ASCII
        # text goes straight to the regex: IGNORECASE also folds
        # characters such as "ſ" and the Kelvin sign onto ASCII letters.
        lowered = text.lower() if text.isascii() else None
        for field, pattern in _FIELD_PATTERNS:
            if lowered is not None and field not in lowered:
                continue
            if pattern.search(text):
                return field
        return None

    # -- M9 (:159-215) ---------------------------------------------------
    def extract_experience(self, experience_text: str) -> List[Dict]:
        if not experience_text.strip():
            return []
        entries = []
        for entry_text in _ENTRY_SPLIT_RE.split(experience_text):
            entry_text = entry_text.strip()
            if not entry_text:
                continue
            company = self._extract_company(entry_text)
            position = self._extract_position(entry_text)
            start, end = self.date_normalizer.extract_period(entry_text)
            technologies = self.extract_skills(entry_text)
            entries.append(
                {
                    "company": self.exp_normalizer.normalize_company(company or ""),
                    "position": self.exp_normalizer.normalize_title(position or ""),
                    "start_date": _iso(start),
                    "end_date": _iso(end),
                    "description": entry_text,
                    "technologies": technologies,
                    # additive enrichment (N13); reference main path stores
                    # no duration — deterministic fn of the two dates
                    "duration_months": (
                        self.exp_normalizer.calculate_duration(start, end)
                        if start and end
                        else 0
                    ),
                }
            )
        return entries

    def _extract_company(self, text: str) -> Optional[str]:
        for entity in self._ner(text):
            if entity.get("entity_group") == "ORG":
                return entity["word"]
        return _search_company(text)

    def _extract_position(self, text: str) -> Optional[str]:
        for entity in self._ner(text):
            group = entity.get("entity_group", "")
            word = entity.get("word", "")
            if group == "JOB_TITLE":
                return word
            if group == "MISC" and ("developer" in word.lower() or "engineer" in word.lower()):
                return word
        m = _POSITION_FALLBACK_RE.search(text)
        return m.group(0) if m else None

    # -- M10 (:217-271) --------------------------------------------------
    def extract_projects(self, projects_text: str) -> List[Dict]:
        if not projects_text.strip():
            return []
        projects = []
        for entry in _split_projects(projects_text):
            entry = entry.strip()
            if not entry:
                continue
            name, description, technologies = self._parse_project_entry(entry)
            if name:
                projects.append(
                    {"name": name, "description": description or "", "technologies": technologies}
                )
        return projects

    def _parse_project_entry(self, text: str) -> Tuple[str, Optional[str], List[str]]:
        parts = text.split("\n", 1)
        name = parts[0].strip()
        description = parts[1].strip() if len(parts) > 1 else None
        name = re.sub(r"^[\s•\-*]+\s*", "", name)
        name = re.sub(r":\s*", "", name)
        technologies = self.extract_skills(description) if description else []
        return name, description, technologies

    # -- M11 (:273-286) --------------------------------------------------
    @staticmethod
    def extract_certifications(certifications_text: str) -> List[str]:
        if not certifications_text.strip():
            return []
        return [e.strip() for e in _ENTRY_SPLIT_RE.split(certifications_text) if e.strip()]

    # -- M13: assemble the resume struct (main.py:103-136) ---------------
    def extract_resume(self, sections: Dict[str, str]) -> Dict:
        return {
            "contact": self.extract_contact(sections.get("contact", "")),
            "summary": self.extract_summary(sections.get("summary", "")),
            "skills": self.extract_skills(sections.get("skills", "")),
            "education": self.extract_education(sections.get("education", "")),
            "experience": self.extract_experience(sections.get("experience", "")),
            "projects": self.extract_projects(sections.get("projects", "")),
            "certifications": self.extract_certifications(sections.get("certifications", "")),
        }
