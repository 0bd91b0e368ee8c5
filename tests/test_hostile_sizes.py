"""Hostile-size budget for the regex-heavy resume functions.

One 300 KB input per construct goes through each entry scan on a fresh,
cold instance (empty memos), and each call must return inside a wall
bound. A linear scan takes well under a second here; a super-linear one
(the old month-year and company fallbacks, the unguarded job-title
section patterns) takes minutes to hours on the same input, so the
bound separates the two without being tight. The bound is enforced with
an interval timer, which also interrupts a running regex search.
"""

import signal
import time

import pytest

from document_parser_private_ray.functions.dates import DateNormalizer
from document_parser_private_ray.functions.extract import ResumeExtractor
from document_parser_private_ray.functions.sections import SectionDetector

SIZE = 300_000
WALL_BOUND_S = 5.0

_WORDS = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()


def _fill(unit: str) -> str:
    return (unit * (SIZE // len(unit) + 1))[:SIZE]


INPUTS = {
    # no digit anywhere: the month-year fallback finds no year
    "digit_free_prose": _fill(" ".join(_WORDS) + " "),
    # capital words, no company suffix
    "capitalised_no_suffix": _fill(" ".join(w.capitalize() for w in _WORDS) + " "),
    # 10k period delimiters, the four kinds in turn: no split yields
    # exactly two parts, so the whole text is normalized as one string
    "ten_k_delimiters": "".join(
        f"{_WORDS[i % 10]:<26}{(' to ', ' - ', ' – ', ' — ')[i % 4]}" for i in range(10_000)
    ),
    # "to" with no spaces around it: the gate passes, the split finds nothing
    "to_without_spaces": _fill("ato"),
}

# "Class.method" -> the class a fresh instance is made from
_CALLS = {
    "DateNormalizer.extract_period": DateNormalizer,
    "DateNormalizer.normalize": DateNormalizer,
    "ResumeExtractor._extract_company": ResumeExtractor,
    "ResumeExtractor._extract_field_of_study": ResumeExtractor,
    "SectionDetector.detect": SectionDetector,
    "ResumeExtractor.extract_skills": ResumeExtractor,
}


class _OverBudget(Exception):
    pass


def _raise_over_budget(signum, frame):
    raise _OverBudget()


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("call_name", sorted(_CALLS))
def test_single_construct_input_within_wall_bound(call_name, input_name):
    text = INPUTS[input_name]
    # construction (ontology loads) is outside the bound
    call = getattr(_CALLS[call_name](), call_name.split(".")[1])
    previous = signal.signal(signal.SIGALRM, _raise_over_budget)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, WALL_BOUND_S)
        call(text)
    except _OverBudget:
        pytest.fail(f"{call_name} on {input_name} ({len(text)} chars) ran past {WALL_BOUND_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < WALL_BOUND_S
