"""Hostile-size budget for the regex-heavy resume functions and the
PDF, HTML and DOCX file extractors.

One 300 KB input per construct goes through each entry scan on a fresh,
cold instance (empty memos), and each call must return inside a wall
bound. A linear scan takes well under a second here; a super-linear one
(the old month-year, company, email and project-split regexes, the
unguarded job-title section patterns) takes minutes to hours on the same input, so the
bound separates the two without being tight. The bound is enforced with
an interval timer, which also interrupts a running regex search.
"""

import io
import signal
import time
import zipfile

import pytest

from doc_writers import write_minimal_docx
from document_parser_private_ray.functions.dates import DateNormalizer
from document_parser_private_ray.functions.extract import ResumeExtractor
from document_parser_private_ray.functions.sections import SectionDetector
from document_parser_private_ray.sources.docx import W_NS, extract_docx_blocks
from document_parser_private_ray.sources.html import extract_html_blocks, extract_links
from document_parser_private_ray.sources.pdf import extract_pdf_blocks

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
    # one email local-part run with a word boundary every character and
    # no "@": the reference's email regex retries every one of them
    "dotted_run_no_at": _fill("a.b."),
    # the same run, and one "@" far from it
    "dotted_run_far_at": _fill("a.b.") + " me@example.org",
    # capitalised lines with no " - " tail: every line starts a titled-item
    # look-ahead of the reference's project split that runs to the end
    "capitalised_lines": _fill("Alpha beta gamma\n"),
    # blank lines before one capitalised word: the project split's line
    # look-ahead retries, from every newline, each way of sharing the run
    # between its two whitespace loops
    "blank_lines": _fill("\n")[:-10] + "Alpha beta",
}

# "Class.method" -> the class a fresh instance is made from
_CALLS = {
    "DateNormalizer.extract_period": DateNormalizer,
    "DateNormalizer.normalize": DateNormalizer,
    "ResumeExtractor._extract_company": ResumeExtractor,
    "ResumeExtractor._extract_field_of_study": ResumeExtractor,
    "SectionDetector.detect": SectionDetector,
    "ResumeExtractor.extract_skills": ResumeExtractor,
    "ResumeExtractor.extract_contact": ResumeExtractor,
    "ResumeExtractor.extract_projects": ResumeExtractor,
}


class _OverBudget(Exception):
    pass


def _raise_over_budget(signum, frame):
    raise _OverBudget()


def _call_within_bound(call, arg, label: str):
    previous = signal.signal(signal.SIGALRM, _raise_over_budget)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, WALL_BOUND_S)
        call(arg)
    except _OverBudget:
        pytest.fail(f"{label} ({len(arg)} chars) ran past {WALL_BOUND_S} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - t0 < WALL_BOUND_S


@pytest.mark.parametrize("input_name", sorted(INPUTS))
@pytest.mark.parametrize("call_name", sorted(_CALLS))
def test_single_construct_input_within_wall_bound(call_name, input_name):
    # construction (ontology loads) is outside the bound
    call = getattr(_CALLS[call_name](), call_name.split(".")[1])
    _call_within_bound(call, INPUTS[input_name], f"{call_name} on {input_name}")


_OBJ_NO_END = b"1 0 obj << /Length 5 >> "
# pages both HTML extractors must walk in linear time
_PAGES = {
    "one_text_node": "<p>" + _fill("lorem ipsum ") + "</p>",
    "nested_divs": "<div>" * 30_000 + "x" + "</div>" * 30_000,
    "attribute_run": "<p " + _fill('a="b" ') + ">x</p>",
    # runs of unterminated constructs: the stdlib parser's close()
    # rescans the rest of the page for each of them
    "lt_run": "<p>x</p>" + _fill("a<b "),
    "comment_then_lt_run": "<p>x</p><!--" + _fill("a<b "),
    "comment_runs": _fill("<!-- x "),
    "open_quote_runs": _fill('<b a="x '),
    "pi_runs": _fill("<?x "),
    "end_tag_runs": _fill("</ x "),
    # start tags whose quoted values hold the next ">", the last one unclosed
    "crossing_tag_runs": _fill('<b a="x>y" ') + 'c="z',
    # one tag name holding every later "<"
    "tag_name_run": _fill("<a"),
    # one raw-text body with no close: searched once
    "script_close_fragments": "<script>" + _fill("</scr "),
}


def _docx(body: str) -> bytes:
    """A .docx holding only ``word/document.xml`` with this body."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_DEFLATED) as z:
        z.writestr(
            "word/document.xml",
            f'<w:document xmlns:w="{W_NS}"><w:body>{body}</w:body></w:document>',
        )
    return buf.getvalue()


# (extractor, input): shapes a file extractor must scan in linear time
FILE_INPUTS = {
    # object heads with no endobj anywhere: the object-table regex used
    # to rescan to the end of the file from each of them
    "pdf_objects_without_endobj": (
        extract_pdf_blocks, b"%PDF-1.4\n" + _OBJ_NO_END * (SIZE // len(_OBJ_NO_END)),
    ),
    **{f"html_{name}": (extract_html_blocks, page) for name, page in _PAGES.items()},
    **{f"links_{name}": (extract_links, page) for name, page in _PAGES.items()},
    "docx_one_paragraph": (
        extract_docx_blocks, write_minimal_docx([{"kind": "text", "text": _fill("lorem ipsum ")}]),
    ),
    "docx_many_paragraphs": (
        extract_docx_blocks,
        write_minimal_docx([{"kind": "text", "text": f"para {i}"} for i in range(30_000)]),
    ),
    "docx_many_runs": (
        extract_docx_blocks, _docx("<w:p>" + "<w:r><w:t>x </w:t></w:r>" * 30_000 + "</w:p>"),
    ),
    "docx_deep_runs": (
        extract_docx_blocks,
        _docx("<w:p>" + "<w:r>" * 20_000 + "<w:t>x</w:t>" + "</w:r>" * 20_000 + "</w:p>"),
    ),
    "docx_wide_table_row": (
        extract_docx_blocks,
        write_minimal_docx([{"kind": "table", "data": [[f"c{i}" for i in range(4_000)]]}]),
    ),
}


@pytest.mark.parametrize("input_name", sorted(FILE_INPUTS))
def test_file_extractor_single_construct_within_wall_bound(input_name):
    call, data = FILE_INPUTS[input_name]
    _call_within_bound(call, data, input_name)
