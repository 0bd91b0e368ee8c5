"""Property tests for the HTML extractor: invariants that must hold on
ARBITRARY (generated) DOM trees, not just the fixture corpus.

* no leakage: text under script/style/title/template never appears in
  any extracted block;
* provenance: every extracted block's text is assembled from data that
  was actually in the document (token-level subset);
* order: extracted blocks preserve document order (their texts appear
  in the source in the same sequence);
* determinism: extraction is a pure function;
* renderer round-trip: for any word soup, the generated page's
  extracted text spans reconstruct the normalized input exactly
  (the closed-form oracle property, fuzzed).
"""

from html import escape
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from doc_writers import HookLog, StdlibWalk
from document_parser_private_ray.sources.html import (
    extract_html_blocks,
    render_html_page,
)

# paragraphs long enough to self-classify (>= 25 chars: 6 words x >=4
# chars + 5 spaces); the script alphabet is disjoint from the para
# alphabet so leakage is directly observable
_word = st.text(alphabet="abcdefghij", min_size=4, max_size=8)
_para = st.lists(_word, min_size=6, max_size=20).map(" ".join)


def _page(paras, scripts, navs):
    parts = ["<html><head><title>t</title>"]
    for s in scripts:
        parts.append(f"<script>{s}</script>")
    parts.append("</head><body>")
    for n in navs:
        parts.append(f"<nav><a href='/x'>{escape(n)}</a></nav>")
    for p in paras:
        parts.append(f"<p>{escape(p)}</p>")
    parts.append("</body></html>")
    return "".join(parts)


@settings(max_examples=60, deadline=None)
@given(
    paras=st.lists(_para, min_size=1, max_size=6),
    scripts=st.lists(st.text(alphabet="klmnop qz", max_size=30), max_size=3),
    navs=st.lists(_para, max_size=3),
)
def test_no_leakage_and_order(paras, scripts, navs):
    html = _page(paras, scripts, navs)
    got = extract_html_blocks(html)
    texts = [b["text"] for b in got]
    # script bodies never leak (alphabets disjoint, so direct check)
    out_tokens = set(" ".join(texts).split())
    for s in scripts:
        assert not (set(s.split()) & out_tokens)
    # provenance + order: the extracted paragraph texts are exactly the
    # input paragraphs (normalized), in order
    norm = [" ".join(p.split()) for p in paras]
    assert texts == [p for p in norm if p]
    # determinism
    assert [b["text"] for b in extract_html_blocks(html)] == texts


@settings(max_examples=40, deadline=None)
@given(
    doc_id=st.integers(min_value=0, max_value=10_000),
    words=st.lists(_word, min_size=10, max_size=120),
)
def test_renderer_roundtrip_fuzzed(doc_id, words):
    """The closed-form oracle property on arbitrary word soup: main
    text spans reconstruct the normalized input; media iff
    doc_id % 5 == 0; heading first."""
    text = " ".join(words)
    got = extract_html_blocks(render_html_page(doc_id, text))
    assert got[0] == {
        "kind": "heading",
        "text": f"Document {doc_id}",
        "media_ref": "",
    }
    main = " ".join(b["text"] for b in got if b["kind"] == "text")
    assert main == text
    media = [b for b in got if b["kind"] == "media"]
    if doc_id % 5 == 0:
        assert [m["media_ref"] for m in media] == [f"media://{doc_id}/0"]
        assert got[2]["kind"] == "media"
    else:
        assert media == []


# -- differential: tokenizer vs stdlib walker on tag soup ---------------------

from document_parser_private_ray.sources import html as html_mod  # noqa: E402

_TAG_NAMES = [
    "p", "DIV", "Section", "li", "td", "h1", "H3",  # block / heading
    "Title", "noscript", "svg",  # skip (script/style: _raw_body)
    "nav", "Footer", "aside", "HEADER",  # boiler
    "a", "A", "img", "IMG", "br", "b", "B", "link", "meta",
]
_ATTR_NAMES = ["href", "SRC", "alt", "class", "rel", "Name", "content", "data-x"]
_value = st.text(alphabet="ab /x>=&;#'\"", max_size=6) | st.sampled_from(
    ["canonical", "description", "&amp;x", "a&lt;b&gt;", "&#62;", "/x?a=1&b=2"]
)


@st.composite
def _attr(draw):
    name = draw(st.sampled_from(_ATTR_NAMES))
    value = draw(_value)
    form = draw(st.sampled_from(["dq", "sq", "bare", "none"]))
    if form == "dq":
        return f' {name}="{value.replace(chr(34), "")}"'
    if form == "sq":
        return f" {name}='{value.replace(chr(39), '')}'"
    if form == "bare":
        bare = "".join(c for c in value if c not in " >'\"")
        return f" {name}={bare}"
    return f" {name}"


@st.composite
def _start_tag(draw):
    tag = draw(st.sampled_from(_TAG_NAMES))
    attrs = "".join(draw(st.lists(_attr(), max_size=3)))
    return f"<{tag}{attrs}{draw(st.sampled_from(['', '/', ' /']))}>"


_end_tag = st.builds(
    lambda t, pad: f"</{t}{pad}>", st.sampled_from(_TAG_NAMES),
    st.sampled_from(["", " ", " x='>'"]),
)
_raw_body = st.builds(
    lambda tag, attrs, body, close: f"<{tag}{''.join(attrs)}>{body}</{close(tag)}>",
    st.sampled_from(["script", "style", "SCRIPT", "Style"]),
    st.lists(_attr(), max_size=2),
    st.lists(
        st.sampled_from(["a<b", "</div>", "</scriptx>", "x", " ", "</ styl", "<p>"]),
        max_size=4,
    ).map("".join),
    st.sampled_from([str.lower, str.upper, lambda t: f" {t} "]),
)
_text = st.text(alphabet="ab cd\n&;#>", max_size=12) | st.sampled_from(
    ["&amp;", "&lt;", "&copy", "&#65;", "&#x42;", "&bogus;", "&nbsp;x",
     "long enough words for a content block"]
)
_clean = st.one_of(
    _start_tag(), _end_tag, _raw_body, _text,
    st.sampled_from(["<!-- c <p> -->", "<!--x--  >", "<!DOCTYPE html>", "<!doctype x>"]),
)
_hostile = st.sampled_from([
    "<![CDATA[x<y]]>", "<?xml version='1.0'?>", "<", "a < b", "<3", "</ p>",
    "</>", "<!x>", "</1>", "&", "<!--", "<script>", '<p class="',
    # the shapes the stdlib's close() is quadratic on
    "a<b ", '<b a="x ', "<!-- x ", "<?x ", "</ x ", "</scr ", '<b a="x>y" ',
])


def _equal_to_stdlib(page):
    log = HookLog()
    html_mod._tokenize(page, log)
    assert log.events == StdlibWalk(HookLog(), page).walker.events
    blocks, labels = html_mod.classify_html_blocks(page)
    p = StdlibWalk(html_mod._BlockParser(), page).walker
    p._flush()
    assert blocks == p.blocks
    assert labels == html_mod.classify_blocks(p.blocks)
    q = StdlibWalk(html_mod._LinkParser(), page).walker
    q.close()
    assert html_mod.extract_links(page) == {
        "canonical": q.canonical,
        "title": " ".join(q.title.split()),
        "description": " ".join(q.description.split()),
        "links": q.links,
    }


@settings(max_examples=300, deadline=None)
@given(pieces=st.lists(_clean, max_size=30))
def test_tokenizer_equals_stdlib_without_fallback(pieces):
    """Tag soup built only from constructs the master pattern takes:
    equal events, and the page never leaves the master pattern for the
    general walk."""
    left = AssertionError("left the master pattern")
    with mock.patch.object(html_mod, "_walk", side_effect=left):
        _equal_to_stdlib("".join(pieces))


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(st.one_of(_clean, _hostile), max_size=30),
    cut=st.none() | st.integers(min_value=0, max_value=400),
)
def test_tokenizer_equals_stdlib_on_hostile_soup(pieces, cut):
    """Hostile constructs and truncation at any offset: equal events."""
    page = "".join(pieces)
    _equal_to_stdlib(page if cut is None else page[:cut])
