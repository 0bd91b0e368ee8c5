"""Date normalization (scalar functions N3/N4 of SURVEY.md §2.4).

Semantics follow /root/reference/normalization/date_normalizer.py:33-144,
with two deliberate engineering differences documented in SURVEY §4.3/§7.4:

* ``dateparser`` (unavailable offline, and nondeterministic across
  versions) is replaced by an explicit strptime format list covering the
  same resume-relevant shapes; everything else goes through the same
  fallback cascade the reference carries (quarters, month-name/number +
  year patterns, bare year).
* ``date.today()`` leaks into the reference's output for "Present"-style
  dates (date_normalizer.py:39-40) — a reproducibility hazard at corpus
  scale, so ``today`` is a frozen constructor parameter here (one value
  per job).

Fallback-cascade quirks preserved on purpose (golden = current reference
impl, not its stale tests — SURVEY §5.2):
  * each fallback pattern gets a single ``re.search`` attempt; a failed
    month lookup moves to the NEXT pattern, not the next match position,
    so "software engineer ... 2019" resolves via the bare-year pattern
    to Jan 1 even though a month name appears later in the string;
  * "13/2022" -> 2022-01-01 (month 13 rejected, year-only pattern wins);
  * "Q1 2023" -> 2023-01-01 (quarter support).

Cost: ``extract_period`` runs on every education and experience entry
with the whole entry text, so its scans are precompiled and gated on
the literal each delimiter needs, and the month-year fallback search
is linear in the input (``_search_month_year``) where the plain regex
is quadratic on digit-free prose. Answers are those of the plain
regexes (``tests/test_optimization_equivalence.py``).
"""

from __future__ import annotations

import re
from datetime import date, datetime
from typing import Optional, Tuple

#: Frozen "today" used for Present/Current/Ongoing/Now; override per job.
DEFAULT_TODAY = date(2026, 1, 1)

_MONTHS = {
    "jan": 1, "january": 1, "feb": 2, "february": 2, "mar": 3, "march": 3,
    "apr": 4, "april": 4, "may": 5, "jun": 6, "june": 6, "jul": 7,
    "july": 7, "aug": 8, "august": 8, "sep": 9, "september": 9, "oct": 10,
    "october": 10, "nov": 11, "november": 11, "dec": 12, "december": 12,
}

_PRESENT_RE = re.compile(r"\b(present|current|ongoing|now)\b", re.IGNORECASE)
_QUARTER_RE = re.compile(r"\bQ([1-4])\s*(\d{4})\b", re.IGNORECASE)

# Stand-in for the reference's dateparser call: the strict formats it is
# relied on for in the reference's own test table (ISO, "January 15, 2020",
# "15-Jan-2023", "02/28/2022"), then the reference's explicit format list
# (date_normalizer.py:24-31).
_STRPTIME_FORMATS = (
    "%Y-%m-%d",
    "%d-%m-%Y",
    "%m/%d/%Y",
    "%B %d, %Y",
    "%b %d, %Y",
    "%d %B %Y",
    "%d %b %Y",
    "%d-%b-%Y",
    "%d-%B-%Y",
    "%B %d %Y",
    "%b %d %Y",
    "%B %Y",
    "%b %Y",
    "%Y",
    "%Y-%m-%dT%H:%M:%SZ",
)

_MONTH_YEAR_RE = re.compile(r"(?P<month>[a-z]+)[^\d]*(?P<year>\d{4})", re.IGNORECASE)
_NUM_RE = re.compile(r"\d+")


def _search_month_year(text: str):
    """``_MONTH_YEAR_RE.search(text)`` in linear time.

    ``[^\\d]*`` cannot cross a digit, so a match starting at ``i`` ends
    4 characters into the first digit run after ``i``, and only if that
    run is at least 4 long. Searching each such run's window (from the
    end of the previous run to the run's 4th digit) returns the same
    match; the plain search retries every start on digit-free prose and
    is quadratic there.
    """
    prev_end = 0
    for run in _NUM_RE.finditer(text):
        start, end = run.span()
        if end - start >= 4:
            m = _MONTH_YEAR_RE.search(text, prev_end, start + 4)
            if m:
                return m
        prev_end = end
    return None


_FALLBACK_SEARCHES = (
    _search_month_year,
    re.compile(r"(?P<month>\d{1,2})[^\d]*(?P<year>\d{4})", re.IGNORECASE).search,
    re.compile(r"(?P<year>\d{4})", re.IGNORECASE).search,
)

# (required literal, compiled delimiter), tried in the reference's order
_PERIOD_DELIMITERS = tuple(
    (literal, re.compile(pattern))
    for literal, pattern in (
        ("to", r"\s+to\s+"),
        ("-", r"\s+-\s+"),
        ("–", r"\s*–\s*"),
        ("—", r"\s*—\s*"),
    )
)


class DateNormalizer:
    """Normalize free-form date strings to ``datetime.date`` (or None)."""

    def __init__(self, today: Optional[date] = None):
        self.today = today or DEFAULT_TODAY
        self._memo: dict = {}

    def normalize(self, date_str: Optional[str]) -> Optional[date]:
        if not date_str:
            return None
        hit = self._memo.get(date_str)
        if hit is not None or date_str in self._memo:
            return hit
        result = self._normalize_uncached(date_str)
        from .memocap import memo_put

        memo_put(self._memo, date_str, result)
        return result

    def _normalize_uncached(self, date_str: str) -> Optional[date]:
        if _PRESENT_RE.search(date_str):
            return self.today
        parsed = self._parse_with_formats(date_str.strip())
        if parsed:
            return parsed
        return self._fallback_parse(date_str)

    def _parse_with_formats(self, date_str: str) -> Optional[date]:
        # strict formats only apply to short, digit-bearing strings;
        # whole-entry prose (extract_period feeds entire lowercased entry
        # halves) skips straight to the fallback cascade
        if len(date_str) > 24 or not any(c.isdigit() for c in date_str):
            return None
        for fmt in _STRPTIME_FORMATS:
            try:
                return datetime.strptime(date_str, fmt).date()
            except ValueError:
                continue
        return None

    def _fallback_parse(self, date_str: str) -> Optional[date]:
        q = _QUARTER_RE.search(date_str)
        if q:
            quarter, year = q.groups()
            try:
                return date(int(year), (int(quarter) - 1) * 3 + 1, 1)
            except ValueError:
                return None

        for search in _FALLBACK_SEARCHES:
            m = search(date_str)
            if not m:
                continue
            data = m.groupdict()
            year = data.get("year")
            month = 1
            if "month" in data:
                month_str = data["month"].lower()
                if month_str.isdigit():
                    month_num = int(month_str)
                    if 1 <= month_num <= 12:
                        month = month_num
                    else:
                        continue  # single attempt per pattern (reference quirk)
                else:
                    month = _MONTHS.get(month_str) or _MONTHS.get(month_str[:3])
                    if not month:
                        continue
            if not year or not year.isdigit() or len(year) != 4:
                continue
            try:
                return date(int(year), month, 1)
            except ValueError:
                continue

        nums = _NUM_RE.findall(date_str)
        if len(nums) == 1 and len(nums[0]) == 4:
            try:
                return date(int(nums[0]), 1, 1)
            except ValueError:
                pass
        return None

    def extract_period(self, text: str) -> Tuple[Optional[date], Optional[date]]:
        """Split ``text`` on the first delimiter producing exactly two parts
        and normalize both halves (date_normalizer.py:128-144: the WHOLE
        lowercased entry text is fed in, so month words drowned in prose
        degrade to year-only resolution — preserved).

        A delimiter whose literal is absent cannot split, so it is
        skipped without a regex pass; ``maxsplit=2`` stops at the second
        match, which already rules out "exactly two parts"."""
        text = text.lower()
        for literal, delimiter in _PERIOD_DELIMITERS:
            if literal not in text:
                continue
            parts = delimiter.split(text, 2)
            if len(parts) == 2:
                return self.normalize(parts[0].strip()), self.normalize(parts[1].strip())
        single = self.normalize(text)
        return single, single
