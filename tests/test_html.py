"""HTML boilerplate strip + DOM heuristics (north-rule extraction
surface; no reference counterpart — the reference has no HTML reader).
Covers the classifier rules (subtree pruning, DOM-role pruning, link
density, short-block smoothing, heading lookahead), exact text recovery
through entities/inline markup/comments, media spans with media_ref and
order, renderer round-trips across all templates, and the raw-file
source path."""

import pytest

from doc_writers import HookLog, StdlibWalk
from document_parser_private_ray.sources.html import (
    classify_html_blocks,
    extract_html_blocks,
    render_html_page,
)


def _expected_spans(doc_id: int, text: str, wpp: int = 40):
    words = text.split()
    paras = [" ".join(words[i : i + wpp]) for i in range(0, len(words), wpp)]
    exp = [("heading", f"Document {doc_id}", "")]
    for k, p in enumerate(paras):
        exp.append(("text", p, ""))
        if k == 0 and doc_id % 5 == 0:
            exp.append(("media", f"fig-{doc_id}", f"media://{doc_id}/0"))
    return exp


@pytest.mark.parametrize("doc_id", [0, 1, 2, 5, 10, 11])  # all templates ± img
@pytest.mark.parametrize("nwords", [10, 40, 41, 100])
def test_render_roundtrip(doc_id, nwords):
    text = " ".join(f"word{i}" for i in range(nwords))
    got = extract_html_blocks(render_html_page(doc_id, text))
    assert [(b["kind"], b["text"], b["media_ref"]) for b in got] == _expected_spans(
        doc_id, text
    )


def test_script_style_title_never_leak():
    html = (
        "<html><head><title>Leaky Title</title><style>p{color:red}</style>"
        "<script>var x = 'script text';</script></head><body>"
        "<p>real content paragraph long enough to classify</p></body></html>"
    )
    got = extract_html_blocks(html)
    assert [b["text"] for b in got] == [
        "real content paragraph long enough to classify"
    ]


def test_dom_role_pruning_and_link_density():
    html = (
        "<body><nav><a href='/a'>Alpha</a> <a href='/b'>Beta</a></nav>"
        "<div><a href='/x'>Only links here in this div</a></div>"
        "<p>this paragraph is genuine main content for sure</p>"
        "<footer>Copyright legal text long enough to self-classify but "
        "inside footer so it must be dropped anyway</footer></body>"
    )
    got = extract_html_blocks(html)
    assert [b["text"] for b in got] == [
        "this paragraph is genuine main content for sure"
    ]


def test_short_block_inherits_preceding_context():
    html = (
        "<body><nav><a>L1</a> <a>L2</a> <a>L3</a> <a>L4</a></nav>"
        "<div>short one</div>"  # short after boilerplate -> dropped
        "<p>a long enough genuine content paragraph right here</p>"
        "<div>tail</div>"  # short after content -> kept
        "</body>"
    )
    got = [b["text"] for b in extract_html_blocks(html)]
    assert got == [
        "a long enough genuine content paragraph right here",
        "tail",
    ]


def test_heading_lookahead():
    good = (
        "<body><h2>Title</h2><p>content paragraph long enough to be good"
        "</p></body>"
    )
    bad = (
        "<body><h2>Title</h2><footer>only boilerplate follows this heading "
        "so the heading itself is boilerplate too</footer></body>"
    )
    assert [b["kind"] for b in extract_html_blocks(good)] == ["heading", "text"]
    assert extract_html_blocks(bad) == []


def test_entities_inline_markup_comments_exact():
    html = (
        "<body><p>AT&amp;T <b>bought</b> a &lt;thing&gt; <!-- hidden --> "
        "for &quot;cheap&quot; money yesterday</p></body>"
    )
    got = extract_html_blocks(html)
    assert got[0]["text"] == 'AT&T bought a <thing> for "cheap" money yesterday'


def test_media_span_order_and_ref():
    html = (
        "<body><p>first paragraph with plenty of real words here</p>"
        '<img src="s3://bucket/img1.png" alt="diagram one">'
        "<p>second paragraph also has plenty of real words</p></body>"
    )
    got = extract_html_blocks(html)
    assert [(b["kind"], b["media_ref"]) for b in got] == [
        ("text", ""),
        ("media", "s3://bucket/img1.png"),
        ("text", ""),
    ]
    assert got[1]["text"] == "diagram one"


def test_media_in_boilerplate_dropped():
    html = (
        "<body><header><img src='/logo.png' alt='logo'></header>"
        "<p>content paragraph long enough to classify as good</p></body>"
    )
    got = extract_html_blocks(html)
    assert [b["kind"] for b in got] == ["text"]


def test_degenerate_tiny_page_extracts_nothing():
    # a 1-word doc's only paragraph cannot self-classify and nothing
    # good precedes it: honest link-farm behavior. The testdata corpus
    # guarantees n_chars >= 44, so the closed-form oracle never hits
    # this branch.
    got = extract_html_blocks(render_html_page(3, "w0"))
    assert got == []
    assert extract_html_blocks("") == []


def test_malformed_html_no_crash():
    html = "<body><p>unclosed paragraph content that is long enough<div>also " \
           "a stray div with enough text to classify</body></html></p>"
    got = extract_html_blocks(html)
    assert len(got) == 2


def test_bytes_input_and_classifier_features():
    blocks, labels = classify_html_blocks(
        "<body><nav><a>X</a></nav><p>long enough content paragraph to be "
        "good</p></body>".encode()
    )
    assert labels == ["bad", "good"]
    assert blocks[0]["boiler_tag"] and not blocks[1]["boiler_tag"]


def test_from_html_files_e2e(ray_session, tmp_path):
    from document_parser_private_ray.sources.files import from_html_files

    p1 = tmp_path / "a.html"
    p1.write_text(render_html_page(5, " ".join(f"w{i}" for i in range(50))))
    p2 = tmp_path / "bad.html"
    p2.write_bytes(b"\xff\xfe not utf8 \xff")
    rows = {
        r["file_name"]: r
        for r in from_html_files([str(p1), str(p2)]).take_all()
    }
    a = rows["a.html"]
    assert a["error"] == "" and a["parse_stage"] == "minimal"
    kinds = [s["kind"] for s in a["spans"]]
    assert kinds == ["heading", "text", "media", "text"]
    assert a["spans"][2]["media_ref"] == "media://5/0"
    assert [s["offset"] for s in a["spans"]] == [0, 1, 2, 3]
    bad = rows["bad.html"]
    assert bad["error"] != "" and bad["spans"] == []


# -- link graph / URL canonicalization --------------------------------------

from document_parser_private_ray.sources.html import (  # noqa: E402
    extract_links,
    extract_outlinks,
    normalize_url,
)


@pytest.mark.parametrize(
    "raw,expect",
    [
        ("HTTP://Ex.COM:80//a/b/?utm_x=1&z=2&a=1#frag", "http://ex.com/a/b?a=1&z=2"),
        ("https://Ex.com:443/", "https://ex.com"),
        ("https://ex.com:8443/x", "https://ex.com:8443/x"),
        ("https://ex.com/x?fbclid=abc&gclid=1", "https://ex.com/x"),
        ("https://ex.com/x?b=2&a=1&a=0", "https://ex.com/x?a=0&a=1&b=2"),
    ],
)
def test_normalize_url(raw, expect):
    assert normalize_url(raw) == expect


def test_normalize_url_relative_base():
    assert (
        normalize_url("/rel?ref=nav", base="https://ex.com/dir/page")
        == "https://ex.com/rel"
    )
    assert (
        normalize_url("sib", base="https://ex.com/dir/page")
        == "https://ex.com/dir/sib"
    )


def test_extract_links_metadata():
    m = extract_links(render_html_page(7, "a b c d e f g h i j", "news"))
    assert m["title"] == "Document 7 — news"
    assert m["description"] == "Summary of document 7 from news."
    assert normalize_url(m["canonical"]) == "https://example.com/doc/7"
    hrefs = {a["href"] for a in m["links"]}
    assert "/doc/8?utm_source=feed&ref=home" in hrefs  # entity-decoded attr
    anchor = next(a for a in m["links"] if a["href"] == "/home")
    assert anchor["text"] == "Home & more"


def test_extract_outlinks_self_and_fragments_drop():
    page, links = extract_outlinks(render_html_page(10, "a b c d e f g h i j"))
    # doc 10 % 7 == 3: canonical points at the predecessor URL
    assert page == "https://example.com/doc/9"
    assert f"https://example.com/doc/11" in links
    assert all(not u.endswith("#main") for u in links)
    assert page not in links  # fragment-only anchors fold into self
    assert len(links) == 15 and links == sorted(set(links))


def test_canonical_twist_only_on_mod7():
    assert extract_outlinks(render_html_page(4, "a b c"))[0] == (
        "https://example.com/doc/4"
    )
    assert extract_outlinks(render_html_page(3, "a b c"))[0] == (
        "https://example.com/doc/2"
    )


def test_html_to_parse_chain_e2e(ray_session, tmp_path):
    """Interop: HTML input flows through the SAME downstream parse chain
    as text/PDF/DOCX — boilerplate-stripped blocks become spans, the
    section detector and normalizers run unchanged, and the result
    matches the single-doc golden oracle over those spans."""
    from document_parser_private_ray.oracle.document import DocumentOracle
    from document_parser_private_ray.pipelines.resume import parse_resumes
    from document_parser_private_ray.sources.files import from_html_files

    html = (
        "<html><head><title>cv</title></head><body>"
        "<nav><a href='/jobs'>Jobs</a> <a href='/about'>About</a></nav>"
        "<article>"
        "<h2>SUMMARY</h2>"
        "<p>seasoned engineer who ships reliable systems.</p>"
        "<h2>SKILLS</h2>"
        "<p>Python, Docker, Kubernetes</p>"
        "<h2>EDUCATION</h2>"
        "<p>BSc Computer Science, MIT (2015 - 2019)</p>"
        "</article>"
        "<footer><a href='/privacy'>Privacy</a> <a href='/terms'>Terms</a>"
        "</footer></body></html>"
    )
    p = tmp_path / "cv.html"
    p.write_text(html)
    ds = from_html_files([str(p)])
    rows = ds.take_all()
    assert rows[0]["error"] == ""
    spans = rows[0]["spans"]
    assert [s["kind"] for s in spans] == [
        "heading", "text", "heading", "text", "heading", "text"
    ]  # nav/footer stripped before the chain

    spans_ds = ds.map_batches(
        lambda t: t.select(["doc_id", "spans"]), batch_format="pyarrow"
    )
    got = parse_resumes(spans_ds).take_all()[0]
    oracle = DocumentOracle()
    out = oracle.process(
        rows[0]["doc_id"],
        [s["kind"] for s in spans],
        [s["text"] for s in spans],
        [s["media_ref"] for s in spans],
    )
    assert got["error"] == ""
    assert got["out_spans"] == out["out_spans"]  # span-sequence equality
    assert got["resume"]["skills"] == out["resume"]["skills"]
    assert "python" in [s.lower() for s in got["resume"]["skills"]]


# -- adversarial / hostile input resilience ---------------------------------


def test_deeply_nested_divs():
    depth = 2000  # far past any sane DOM; parser must not recurse
    html = (
        "<body>" + "<div>" * depth
        + "<p>surviving content paragraph with enough characters</p>"
        + "</div>" * depth + "</body>"
    )
    got = extract_html_blocks(html)
    assert [b["text"] for b in got] == [
        "surviving content paragraph with enough characters"
    ]


def test_link_farm_page():
    farm = "".join(
        f'<a href="/spam/{i}">click here now {i}</a> ' for i in range(5000)
    )
    html = f"<body><div>{farm}</div><p>one genuine paragraph of real writing here</p></body>"
    got = extract_html_blocks(html)
    assert [b["text"] for b in got] == [
        "one genuine paragraph of real writing here"
    ]


def test_unterminated_script_swallows_tail_not_crash():
    html = "<body><p>good paragraph long enough to classify well</p><script>var x=1;"
    got = extract_html_blocks(html)
    assert [b["text"] for b in got] == [
        "good paragraph long enough to classify well"
    ]


def test_outlinks_dedupe_and_cap_on_farm():
    from document_parser_private_ray.sources.html import extract_outlinks

    farm = "".join(f'<a href="/spam/{i % 7}?utm_k={i}">x</a>' for i in range(1000))
    html = (
        '<head><link rel="canonical" href="https://ex.com/page"></head>'
        f"<body>{farm}</body>"
    )
    page, links = extract_outlinks(html)
    assert page == "https://ex.com/page"
    # 1000 anchors, 7 distinct normalized targets (tracking params strip)
    assert links == [f"https://ex.com/spam/{i}" for i in range(7)]


# -- charset sniffing ---------------------------------------------------------

from document_parser_private_ray.sources.html import (  # noqa: E402
    extract_html_blocks_sniffed,
    sniff_decode,
)


def test_sniff_decode_paths():
    assert sniff_decode("héllo".encode("utf-8")) == "héllo"
    assert sniff_decode(b"\xef\xbb\xbf" + "bom page".encode("utf-8")) == "bom page"
    assert sniff_decode("utf16 page".encode("utf-16")) == "utf16 page"
    meta = b'<meta charset="windows-1252"><p>caf\xe9 cr\x92me</p>'
    assert "café cr’me" in sniff_decode(meta)
    assert sniff_decode(b"plain \xe9 latin1") == "plain é latin1"


def test_staged_sniff_backend(ray_session, tmp_path):
    from document_parser_private_ray.sources.files import from_html_files

    latin = tmp_path / "latin.html"
    latin.write_bytes(
        "<body><p>café paragraph long enough to classify as content"
        "</p></body>".encode("latin-1")
    )
    utf8 = tmp_path / "utf8.html"
    utf8.write_text(
        "<body><p>plain utf8 paragraph long enough to classify</p></body>"
    )
    rows = {
        r["file_name"]: r
        for r in from_html_files([str(latin), str(utf8)]).take_all()
    }
    assert rows["utf8.html"]["parse_stage"] == "minimal"
    assert rows["latin.html"]["parse_stage"] == "sniff"
    assert rows["latin.html"]["error"] == ""
    assert "café" in rows["latin.html"]["spans"][0]["text"]


def test_sniffed_garbage_still_errors_when_no_content():
    # latin-1 always decodes, but a page with no classifiable content
    # still yields zero blocks -> the staged chain records the failure
    assert extract_html_blocks_sniffed(b"\xff\xfe junk \xff") == []


def test_self_closing_tags():
    html = (
        "<body><p>first part of a paragraph long enough<br/>second line "
        "continues here</p><div/><p>another genuine paragraph follows "
        "directly after</p></body>"
    )
    got = [b["text"] for b in extract_html_blocks(html)]
    assert got == [
        "first part of a paragraph long enough second line continues here",
        "another genuine paragraph follows directly after",
    ]


def test_normalize_url_hostile_inputs():
    assert normalize_url("https://EX.com:notaport/x") == "https://ex.com/x"
    assert normalize_url("https://[2001:DB8::1]:8080/x") == (
        "https://[2001:db8::1]:8080/x"
    )
    assert normalize_url("https://[::1]:443/x") == "https://[::1]/x"


def test_unclosed_anchor_farm_bounded_and_emitted():
    """ADVICE r4: unclosed <a> tags must implicitly close (browser
    behavior) — the open-anchor stack stays depth-1 (no quadratic
    handle_data fan-out) and every anchor is still emitted."""
    from document_parser_private_ray.sources.html import extract_links

    farm = "".join(f'<a href="/l{i}">text {i} ' for i in range(3000))
    got = extract_links(f"<body>{farm}</body>")
    assert len(got["links"]) == 3000
    assert got["links"][0] == {"href": "/l0", "text": "text 0"}
    assert got["links"][-1] == {"href": "/l2999", "text": "text 2999"}
    # nested anchors: outer closes when inner opens; trailing text after
    # the explicit close belongs to no anchor
    nested = extract_links('<a href="/a">one <a href="/b">two</a> tail')
    assert nested["links"] == [
        {"href": "/a", "text": "one"},
        {"href": "/b", "text": "two"},
    ]
    # anchor left open at EOF still flushes on close()
    eof = extract_links('<body><a href="/only">dangling text')
    assert eof["links"] == [{"href": "/only", "text": "dangling text"}]


def test_extract_slot_on_task_path(ray_session, tmp_path):
    """A custom ``extract=`` callable ships with the stage instance to
    the task workers: html_spans and html_main_content both reflect it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.html import (
        html_main_content,
        html_spans,
    )

    words = "alpha beta gamma delta epsilon zeta eta theta".split()
    n = 12  # doc_ids 0, 5, 10 carry a media span
    pq.write_table(
        pa.table({
            "doc_id": list(range(n)),
            "text": [" ".join(words[(i + j) % 8] for j in range(30 + 7 * i)) for i in range(n)],
            "source": [f"src{i % 3}" for i in range(n)],
        }),
        str(tmp_path / "documents.parquet"),
    )
    sf = str(tmp_path)

    def shout(page):
        return [
            {**b, "text": b["text"].upper()} for b in extract_html_blocks(page)
        ]

    def spans(**kw):
        return html_spans(sf, **kw).to_pandas().sort_values(
            ["doc_id", "span_offset"]).reset_index(drop=True)

    def summary(**kw):
        return html_main_content(sf, **kw).to_pandas().sort_values(
            "doc_id").reset_index(drop=True)

    plain, loud = spans(), spans(extract=shout)
    assert len(plain) > 0 and (plain["text"] != loud["text"]).any()
    assert loud["text"].tolist() == plain["text"].str.upper().tolist()
    assert loud.drop(columns="text").equals(plain.drop(columns="text"))

    plain, loud = summary(), summary(extract=shout)
    assert len(plain) > 0
    assert loud["main_text"].tolist() == plain["main_text"].str.upper().tolist()
    assert loud["doc_id"].tolist() == plain["doc_id"].tolist()


def test_extract_chains_lift_reservation_on_own_context(ray_session, tmp_path):
    """html_spans and html_main_content turn Ray Data's per-operator
    resource reservation off on their own dataset context only; the
    caller's DataContext keeps its setting."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from ray.data import DataContext

    from document_parser_private_ray.pipelines.html import (
        html_main_content,
        html_spans,
    )

    pq.write_table(
        pa.table({"doc_id": [0], "text": ["alpha beta gamma"], "source": ["src0"]}),
        str(tmp_path / "documents.parquet"),
    )
    before = DataContext.get_current().op_resource_reservation_enabled
    for build in (html_spans, html_main_content):
        assert build(str(tmp_path)).context.op_resource_reservation_enabled is False
    assert DataContext.get_current().op_resource_reservation_enabled == before


# ``<![`` followed by a non-name token: the stdlib's ``_markupbase``
# raises ``AssertionError: expected name token`` on it
_STDLIB_KILLER = "<p>hello world</p><![ 1"


@pytest.mark.parametrize(
    "page,blocks",
    [
        # no ">" after it: unterminated, so "<" and the rest are text
        (_STDLIB_KILLER, ["hello world", "<![ 1"]),
        # a ">" after it: a bogus comment up to that ">", as "<!x ...>"
        (_STDLIB_KILLER + " ><p>after</p>", ["hello world", "after"]),
        # an unknown keyword (the stdlib raises on it too)
        ("<p>hello world</p><![foo x]><p>after</p>", ["hello world", "after"]),
    ],
)
def test_marked_section_the_stdlib_raises_on_is_a_bogus_comment(page, blocks):
    """The one construct where the tokenizer differs from the stdlib:
    ``<![`` + a non-name token or an unknown keyword, on which the stdlib
    raises, is a bogus comment (``<!x``) here, in both walkers."""
    from document_parser_private_ray.sources.html import extract_links

    with pytest.raises(AssertionError):
        StdlibWalk(HookLog(), page)
    assert [b["text"] for b in classify_html_blocks(page)[0]] == blocks
    assert extract_links(page) == extract_links(page.replace("<![", "<!x"))


def test_failing_page_does_not_fail_its_batch(ray_session, tmp_path):
    """Through html_spans on a 3-page table, the page ending in the
    stdlib killer gives its defined spans: every page's spans equal
    direct extraction, and no page comes back empty."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from document_parser_private_ray.pipelines.html import html_spans

    texts = ["alpha beta gamma " * 20, "delta epsilon zeta " * 15, "eta theta iota " * 25]
    pq.write_table(
        pa.table({"doc_id": [0, 1, 2], "text": texts, "source": ["s0", "s1", "s2"]}),
        str(tmp_path / "documents.parquet"),
    )

    def poisoned(page):
        if "<h1>Document 1</h1>" in page:
            page += _STDLIB_KILLER
        return extract_html_blocks(page)

    rows = html_spans(str(tmp_path), extract=poisoned).take_all()
    got = {}
    for r in sorted(rows, key=lambda r: (r["doc_id"], r["span_offset"])):
        got.setdefault(r["doc_id"], []).append((r["kind"], r["text"], r["media_ref"]))
    want = {
        i: [
            (b["kind"], b["text"], b["media_ref"])
            for b in poisoned(render_html_page(i, texts[i], f"s{i}"))
        ]
        for i in (0, 1, 2)
    }
    assert all(want.values())
    assert got == want


# -- tokenizer vs stdlib walker ------------------------------------------------

import random  # noqa: E402
import time  # noqa: E402
from unittest import mock  # noqa: E402

from document_parser_private_ray.sources import html as html_mod  # noqa: E402

# the sf0.1 ``documents`` table's 30-word vocabulary, which the
# html_extract benchmark draws its 10-99 word pages from
_BENCH_WORDS = (
    "the a fast slow key order sort table scan merge part window small big "
    "hash join batch stream spark group query row data filter customer line "
    "value agg column vector"
).split()


def _stdlib_blocks(page):
    p = StdlibWalk(html_mod._BlockParser(), page).walker
    p._flush()
    return p.blocks


def _stdlib_links(page):
    p = StdlibWalk(html_mod._LinkParser(), page).walker
    p.close()
    return p.links, p.canonical, p.title, p.description


def _parsed(page):
    """(blocks, links) through the tokenizer."""
    blocks, _ = classify_html_blocks(page)
    q = html_mod._LinkParser()
    html_mod._tokenize(page, q)
    q.close()
    return blocks, (q.links, q.canonical, q.title, q.description)


def test_benchmark_mix_never_falls_back():
    """The benchmark's pages equal the stdlib walker and never leave the
    master pattern for the general walk."""
    rng = random.Random(7)
    left = AssertionError("left the master pattern")
    with mock.patch.object(html_mod, "_walk", side_effect=left):
        for doc_id in range(3000):  # doc_id % 3 = template, % 5 = image
            text = " ".join(
                rng.choice(_BENCH_WORDS) for _ in range(rng.randint(10, 99))
            )
            page = render_html_page(doc_id, text, f"src{doc_id % 20}")
            blocks, labels = classify_html_blocks(page)
            expected = _stdlib_blocks(page)
            assert blocks == expected
            assert labels == html_mod.classify_blocks(expected)


_BODY = "<p>genuine content paragraph that is long enough</p>"


def _run(unit):
    """2 KB of ``unit``: the shapes the stdlib's close() takes quadratic
    time on, at a size it finishes (tests/test_hostile_sizes.py times
    them at 300 KB)."""
    return (unit * (2_000 // len(unit) + 1))[:2_000]


@pytest.mark.parametrize(
    "name,page",
    [
        ("comment", f"<body><!-- x <p>y</p> --  >{_BODY}</body>"),
        ("doctype", f"<!DocType html><body>{_BODY}</body>"),
        ("entities", "<p>a &amp; b &lt;c&gt; &copy d & e &#65;&#x42;&bogus; "
                     "long enough text</p>"),
        ("quoted_gt_attr", '<p><a title="a>b" href=\'x>y\'>see</a> and '
                           "more words to be long</p>"),
        ("attr_forms", "<P CLASS=x Data-A=\"&amp;1\" hidden><IMG SRC=a.png "
                       "alt='&lt;t&gt;'/><br/>long enough text here</P>"),
        ("mixed_case_end", f"<DIV>{_BODY}</Div ><div>tail x</DIV junk='>'>"),
        ("script_body", "<script>if (a<b) {x='</div>'} </scriptx></SCRIPT >"
                        + _BODY),
        ("style_body", f"<style>p > a{{}}</ style >{_BODY}"),
        ("cdata", f"<body><![CDATA[x<y]]>{_BODY}</body>"),
        ("ms_section", f"<body><![if !IE]>{_BODY}<![endif]></body>"),
        ("processing_instruction", f"<?xml version='1.0'?><body>{_BODY}"),
        ("bogus_comment", f"<!ELEMENT x><body>{_BODY}</body>"),
        ("unterminated_tag", f'<body>{_BODY}<p class="x'),
        ("unterminated_comment", f"<body>{_BODY}<!-- never closed"),
        ("unterminated_script", f"<body>{_BODY}<script>var x = 1;"),
        ("unterminated_section", f"<body>{_BODY}<![CDATA[x<y"),
        ("script_casefold_close", f"<script>x</\u017fcript>y</script>{_BODY}"),
        ("stray_lt", "<p>a < b and 3<4 long enough text here</p>"),
        ("end_tag_space", f"<body><p>{_BODY}</ p></body>"),
        ("end_tag_empty", f"<body>{_BODY}</></body>"),
        ("end_tag_bogus", f"<body>{_BODY}</1 x></body>"),
        ("start_tag_nul", f"<body>{_BODY}<p\x00x>y</p></body>"),
        ("start_tag_junk_end", f"<body><a b='c'/d>{_BODY}</body>"),
        ("tag_crosses_gt", f'<body>{_BODY}<b a="x>y" c="z'),
        ("lt_run", "<p>x</p>" + _run("a<b ")),
        ("comment_then_lt_run", "<p>x</p><!--" + _run("a<b ")),
        ("comment_runs", _BODY + _run("<!-- x ")),
        ("open_quote_runs", _BODY + _run('<b a="x ')),
        ("pi_runs", _BODY + _run("<?x ")),
        ("end_tag_runs", _BODY + _run("</ x ")),
        ("script_close_fragments", _BODY + "<script>" + _run("</scr ")),
        ("crossing_tag_runs", _BODY + _run('<b a="x>y" ') + 'c="z'),
        ("tag_name_run", _BODY + _run("<a")),
    ],
)
def test_hostile_construct_equal_to_stdlib(name, page):
    log = HookLog()
    html_mod._tokenize(page, log)
    assert log.events == StdlibWalk(HookLog(), page).walker.events
    blocks, links = _parsed(page)
    assert blocks == _stdlib_blocks(page)
    assert links == _stdlib_links(page)


# -- heading lookahead ---------------------------------------------------------


def _labels_quadratic(blocks):
    """``classify_blocks`` with its original per-heading tail rescan."""
    labels = []
    for b in blocks:
        if b["boiler_tag"]:
            labels.append("bad")
        elif b["chars"] > 0 and b["link_chars"] / b["chars"] > html_mod.MAX_LINK_DENSITY:
            labels.append("bad")
        elif b["kind"] == "media":
            labels.append("short")
        elif b["kind"] == "heading":
            labels.append("heading")
        elif b["chars"] < html_mod.SHORT_LEN:
            labels.append("short")
        else:
            labels.append("good")
    for i, lab in enumerate(labels):
        if lab != "heading":
            continue
        labels[i] = "bad"
        for nxt in labels[i + 1:]:
            if nxt in ("good", "bad"):
                labels[i] = nxt
                break
    last_solid = "bad"
    for i, lab in enumerate(labels):
        if lab in ("good", "bad"):
            last_solid = lab
        else:
            labels[i] = last_solid
    return labels


def _block(kind, chars, link_chars=0, boiler=False):
    return {"kind": kind, "text": "x" * chars, "media_ref": "", "chars": chars,
            "link_chars": link_chars, "boiler_tag": boiler}


def test_heading_lookahead_matches_tail_rescan():
    rng = random.Random(3)
    kinds = [
        lambda: _block("heading", 5),
        lambda: _block("heading", 30, boiler=True),
        lambda: _block("text", 40),
        lambda: _block("text", 10),
        lambda: _block("text", 40, link_chars=30),
        lambda: _block("text", 40, boiler=True),
        lambda: _block("media", 3),
    ]
    for _ in range(2000):
        blocks = [rng.choice(kinds)() for _ in range(rng.randint(0, 12))]
        assert html_mod.classify_blocks(blocks) == _labels_quadratic(blocks)


def test_heading_only_page_classifies_in_linear_time():
    blocks = [_block("heading", 5) for _ in range(50_000)]
    t0 = time.perf_counter()
    labels = html_mod.classify_blocks(blocks)
    assert time.perf_counter() - t0 < 1.0
    assert labels == ["bad"] * 50_000
