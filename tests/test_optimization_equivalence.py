"""Property tests: every performance shortcut must be semantics-free.

* section matcher: combined-alternation + union-gate + memo path ==
  naive per-pattern loop (the reference's literal algorithm);
* FuzzyIndex.extract_one with ceiling pruning == unpruned scan with the
  plain wratio scorer.
"""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from document_parser_private_ray.config import SECTION_NAMES, SECTION_PATTERNS
from document_parser_private_ray.functions import fuzzy
from document_parser_private_ray.functions.sections import SectionDetector

# -- naive reference matcher (per-pattern loop, section_detector.py:109-133)

_NAIVE_BANKS = {
    s: [re.compile(p, re.IGNORECASE) for p in pats]
    for s, pats in SECTION_PATTERNS.items()
}


def naive_match(text):
    if not text:
        return None
    for section in SECTION_NAMES:
        for p in _NAIVE_BANKS[section]:
            if p.search(text):
                return section
    if text.endswith(":") or text.isupper():
        clean = text.rstrip(":")
        for section in SECTION_NAMES:
            for p in _NAIVE_BANKS[section]:
                if p.search(clean):
                    return section
    return None


_WORDS = [
    "experience", "skills", "education", "summary", "profile", "contact",
    "projects", "portfolio", "Developer", "Engineer", "Manager", "the",
    "built", "Python", "SKILLS", "EDUCATION", "Senior", "apps", "system",
    "platform", "123-456-7890", "a@b.com", "2020", "Jan", "•", "-", ":",
    "WORK", "history", "objective", "linkedin.com/in/x", "Certified",
]

line_strategy = st.lists(
    st.sampled_from(_WORDS), min_size=0, max_size=8
).map(lambda ws: " ".join(ws))


@settings(max_examples=400, deadline=None)
@given(line_strategy)
def test_section_matcher_equivalence(line):
    det = SectionDetector()
    line = line.strip()
    assert det.match_section_heading(line) == naive_match(line)
    # the memoized classify agrees with a fresh classification
    kind1 = det._classify(line)
    kind2 = det._classify(line)
    assert kind1 == kind2


def naive_extract_one(query, choices, cutoff):
    best = None
    for i, c in enumerate(choices):
        s = fuzzy.wratio(query, c)
        if s < cutoff:
            continue
        if best is None or s > best[1]:
            best = (c, s, i)
            if s >= 100.0:
                break
    return best


_VOCAB = [
    "Python", "Pythn", "Java", "JavaScript", "Machine Learning",
    "Docker Compose", "Senior Software Engineer", "K8s", "Go",
    "Built data pipelines processing millions of records",
    "Continuous Integration", "ab ab ab ab ab", "x", "",
    "Acme Software Inc (9", "2016 - Q3 2023)",
]

from document_parser_private_ray.functions.skills import SkillNormalizer

_INDEX = SkillNormalizer().skill_index
_FINDEX = fuzzy.FuzzyIndex(_INDEX)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_VOCAB),
        st.text(alphabet="abcdefgP ython+/().0123456789", min_size=0, max_size=40),
    ),
    st.sampled_from([80, 85, 90]),
)
def test_fuzzy_pruning_equivalence(query, cutoff):
    got = _FINDEX.extract_one(query, score_cutoff=cutoff)
    exp = naive_extract_one(query, _INDEX, cutoff)
    if exp is None:
        assert got is None
    else:
        assert got is not None
        assert got[0] == exp[0] and got[2] == exp[2]
        assert abs(got[1] - exp[1]) < 1e-9


def test_memo_cap_is_semantics_free():
    """A full memo skips inserts but lookups and return values are
    unchanged — memoization stays a pure-function shortcut."""
    from document_parser_private_ray.functions import memocap
    from document_parser_private_ray.functions.memocap import memo_put

    memo = {}
    old_cap = memocap.MEMO_CAP
    try:
        memocap.MEMO_CAP = 2
        assert memo_put(memo, "a", 1) == 1
        assert memo_put(memo, "b", 2) == 2
        assert memo_put(memo, "c", 3) == 3  # over cap: value still returned
        assert memo == {"a": 1, "b": 2}     # ...but not inserted
    finally:
        memocap.MEMO_CAP = old_cap

    from document_parser_private_ray.functions.dates import DateNormalizer

    n = DateNormalizer()
    a = n.normalize("Jan 2020")
    memocap.MEMO_CAP = 0
    try:
        b = DateNormalizer().normalize("Jan 2020")  # nothing memoized
    finally:
        memocap.MEMO_CAP = old_cap
    assert a == b

    # the section detector's line memo follows the same cap: it keeps
    # its first entries (no wholesale clear) and detect() is unchanged
    text = (
        "SKILLS\nPython, SQL\nEXPERIENCE\nJan 2020 - Present\n"
        "Built pipelines\nEDUCATION:\nBSc Computer Science\nBuilt pipelines"
    )
    want = SectionDetector().detect(text)
    det = SectionDetector()
    memocap.MEMO_CAP = 2
    try:
        got = det.detect(text)
        assert len(det._line_memo) == 2
        assert det.detect(text) == got
    finally:
        memocap.MEMO_CAP = old_cap
    assert got == want
