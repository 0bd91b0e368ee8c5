"""Property tests for the PDF and DOCX extractors (VERDICT r4 #9):
invariants that must hold on ARBITRARY generated documents, not just
the fixture corpus — the same strategy ``test_html_properties.py``
applies to the HTML extractor.

* round-trip: writer -> extractor recovers the normalized block
  sequence exactly (kinds, texts, table grids);
* encoding invariance (PDF): the plain, Flate, and Flate+PNG-predictor
  encodings of one document extract to IDENTICAL blocks, for arbitrary
  predictor column widths;
* determinism: extraction is a pure function;
* escaping: parens/backslashes (PDF string syntax) and XML entities
  (DOCX) survive arbitrary placement.

Generated text avoids all-uppercase words in body blocks so the M3
heading heuristic (``is_heading_block``: any fully-uppercase word
promotes) cannot reclassify them — classification variance is covered
by the directed tests in test_pdf.py/test_docx.py.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from doc_writers import write_minimal_docx, write_minimal_pdf
from document_parser_private_ray.sources.docx import extract_docx_blocks
from document_parser_private_ray.sources.pdf import extract_pdf_blocks

# body words: lowercase + PDF/XML-hostile punctuation, never uppercase
_body_word = st.text(
    alphabet="abcdefgh()\\<>&\"'.,", min_size=1, max_size=8
).filter(lambda w: w.strip() and not any(t.isupper() for t in w.split()))
_body_line = st.lists(_body_word, min_size=1, max_size=6).map(" ".join)
_heading_text = st.lists(
    st.text(alphabet="ABCDEFGH", min_size=2, max_size=8), min_size=1, max_size=3
).map(" ".join)
_cell = st.text(alphabet="abc()\\&<>12", min_size=1, max_size=6).map(str.strip).filter(bool)
_table = st.lists(
    st.lists(_cell, min_size=2, max_size=4), min_size=1, max_size=3
).map(lambda rows: {"kind": "table", "data": rows})

_block = st.one_of(
    st.builds(
        lambda t: {"kind": "text", "text": t},
        st.lists(_body_line, min_size=1, max_size=3).map("\n".join),
    ),
    st.builds(lambda t: {"kind": "heading", "text": t}, _heading_text),
    _table,
)


def _normalize(blocks):
    """The extractor merges consecutive same-font lines into one block:
    adjacent same-kind text/heading blocks join with newlines, adjacent
    tables concatenate their row grids."""
    out = []
    for b in blocks:
        if out and out[-1]["kind"] == b["kind"]:
            if b["kind"] == "table":
                out[-1] = {"kind": "table", "data": out[-1]["data"] + b["data"]}
            else:
                out[-1] = {
                    "kind": b["kind"],
                    "text": out[-1]["text"] + "\n" + b["text"],
                }
        else:
            out.append(dict(b))
    return out


def _key(blocks):
    return [
        (b["kind"], b["data"] if b["kind"] == "table" else b["text"])
        for b in blocks
    ]


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(_block, min_size=1, max_size=6))
def test_pdf_roundtrip_and_encoding_invariance(blocks):
    expect = _key(_normalize(blocks))
    plain = extract_pdf_blocks(write_minimal_pdf(blocks))
    assert _key(plain) == expect
    # pure function
    assert _key(extract_pdf_blocks(write_minimal_pdf(blocks))) == expect
    # Flate and Flate+PNG-predictor encodings extract identically
    flate = extract_pdf_blocks(write_minimal_pdf(blocks, compress=True))
    assert _key(flate) == expect


@settings(max_examples=25, deadline=None)
@given(
    blocks=st.lists(_block, min_size=1, max_size=4),
    cols=st.integers(min_value=2, max_value=300),
)
def test_pdf_predictor_any_column_width(blocks, cols):
    expect = _key(extract_pdf_blocks(write_minimal_pdf(blocks)))
    data = write_minimal_pdf(
        blocks, compress=True, predictor=15, predictor_columns=cols
    )
    assert _key(extract_pdf_blocks(data)) == expect


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(_block, min_size=1, max_size=6))
def test_docx_roundtrip(blocks):
    # DOCX paragraphs don't merge across blocks, but whitespace-only
    # paragraphs drop — generated text is never whitespace-only, so the
    # expectation is the input sequence itself
    got = extract_docx_blocks(write_minimal_docx(blocks))
    assert _key(got) == _key(blocks)
    assert _key(extract_docx_blocks(write_minimal_docx(blocks))) == _key(blocks)
