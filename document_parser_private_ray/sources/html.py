"""HTML main-content extraction: boilerplate strip via DOM heuristics.

The north rule names "HTML boilerplate strip, PDF/layout parse, DOM
heuristics" as the main-content extraction surface. The reference repo
has no HTML reader (resume inputs are text/PDF), so — like the DOCX
reader — this module EXCEEDS the reference by closing that part of the
source matrix with stdlib-only parsing. One regex tokenizer
(``_tokenize``) walks each page and calls the walkers'
``html.parser.HTMLParser`` hooks with the events the stdlib parser
would emit; a page holding a construct it does not handle (CDATA,
``<?...>``, an unterminated tag, comment or script, a stray ``<``) is
re-parsed whole by the stdlib parser and counted in
``FALLBACK_PAGES``; one the stdlib parser raises on yields nothing and
is counted in ``FAILED_PAGES``.

The classifier is the published shape shared by jusText (Pomikálek
2011) and the Boilerpipe/Kohlschütter (WSDM 2010) features — all
public methods:

- subtree pruning: ``script/style/noscript/template/svg/iframe/title``
  content never reaches a block;
- DOM-role pruning: any block with a ``nav/aside/footer/header``
  ancestor is boilerplate (semantic-HTML rule);
- link density: blocks whose anchor-text share exceeds a threshold are
  boilerplate (nav bars, share widgets, link farms) wherever they sit;
- short-block context smoothing: a block too short to classify on its
  own (cookie notices, stray labels, trailing one-word paragraphs,
  media tags) inherits the label of the nearest preceding full-length
  block, with the document edge counting as boilerplate;
- headings classify by LOOKAHEAD: a heading is content iff the next
  full-length block after it is content (a heading above boilerplate
  is boilerplate).

Output is the engine's typed block stream ({"kind": heading|text|media,
"text", "media_ref"}), so ``files._blocks_to_spans`` and the whole
downstream parse chain are shared unchanged, and ``<img>`` elements in
retained content become interleaved media spans carrying ``media_ref``
— the north rule's (kind, text, media_ref, order) span tuple.

``render_html_page`` is the deterministic in-sandbox page generator
(the HTML analogue of the tests' PDF and DOCX fixture writers): it
wraps a document's text in realistic chrome (nav, cookie banner,
share widget, aside, footer, inline markup, entities, comments) so
extraction is verifiable CLOSED-FORM —
the DuckDB oracle reconstructs the exact expected span sequence from
the raw text alone, making any leak of boilerplate or loss of content
a hash mismatch.
"""

from __future__ import annotations

import re
from html import escape, unescape
from html.parser import HTMLParser, attrfind_tolerant, tagfind_tolerant
from typing import Dict, List, Optional, Tuple
from urllib.parse import parse_qsl, urlencode, urljoin, urlsplit, urlunsplit

# content under these tags never reaches a block
SKIP_TAGS = {"script", "style", "noscript", "template", "svg", "iframe", "title"}
# a block with one of these ancestors is boilerplate by DOM role
BOILER_TAGS = {"nav", "aside", "footer", "header"}
HEADING_TAGS = {"h1", "h2", "h3", "h4", "h5", "h6"}
# tags that delimit text blocks (flush the running buffer)
BLOCK_TAGS = {
    "p", "div", "section", "article", "main", "body", "ul", "ol", "li",
    "td", "th", "tr", "table", "blockquote", "pre", "figure", "figcaption",
    "form", "button", "dl", "dt", "dd", "address",
} | HEADING_TAGS | BOILER_TAGS

SHORT_LEN = 25  # chars below which a block cannot self-classify
MAX_LINK_DENSITY = 0.4


# -- tokenizer ----------------------------------------------------------------
#
# One master pattern walks the page and calls the walkers' HTMLParser
# hooks directly. Each alternative is the CPython 3.11 ``html.parser``
# rule for that construct (``locatestarttagend_tolerant`` in an atomic
# group, ``endtagfind``, the ``--\s*>`` comment close, the
# ``set_cdata_mode`` raw-text end; attributes split by the stdlib's own
# ``tagfind_tolerant`` / ``attrfind_tolerant``), so the hook calls are
# the stdlib's by construction. Anything else (CDATA, ``<?...>``, a
# bogus ``<!...>`` comment, an unterminated tag/comment/script, a ``<``
# that opens no construct, ``</`` + non-letter) raises ``_Fallback``,
# and ``_parse`` re-parses the whole page with a fresh stdlib walker.

_TOKEN = re.compile(
    r"""
    (?P<text>[^<]+)
  | <(?:
        !--.*?--\s*>                                    # comment
      | ![dD][oO][cC][tT][yY][pP][eE][^>]*>             # doctype
      | /(?:(?P<end>[a-zA-Z][-.a-zA-Z0-9:_]*)\s*>       # endtagfind
          | (?P<endx>[a-zA-Z][^\t\n\r\f\ />\x00]*)[^>]*>)  # tolerant end tag
      | (?>(?P<tag>[a-zA-Z][^\t\n\r\f\ />\x00]*)      # locatestarttagend
          (?P<attrs>(?:[\s/]*
            (?:(?<=['"\s/])[^\s/>][^\s/=>]*
              (?:\s*=+\s*(?:'[^']*'|"[^"]*"|(?!['"])[^>\s]*)\s*)?
              (?:\s|/(?!>))*
            )*
          )?\s*))
        (?P<close>/?)>
    )
    """,
    re.S | re.X,
)
# raw-text end of a script/style body (stdlib set_cdata_mode)
_RAW_END = {
    t: re.compile(r"</\s*(%s)\s*>" % t, re.I) for t in HTMLParser.CDATA_CONTENT_ELEMENTS
}

# pages the tokenizer handed to the stdlib walker, in this process
FALLBACK_PAGES = 0
# fallback pages the stdlib walker raised on (no blocks, no links), in
# this process
FAILED_PAGES = 0


class _Fallback(Exception):
    """The page holds a construct the tokenizer does not handle."""


def _start_attrs(data: str, i: int, endpos: int):
    """stdlib ``parse_starttag`` attribute split of the tag at
    ``data[i:endpos]`` -> (attrs, self_closing)."""
    k = tagfind_tolerant.match(data, i + 1).end()
    attrs = []
    while k < endpos:
        m = attrfind_tolerant.match(data, k)
        if not m:
            break
        name, rest, value = m.group(1, 2, 3)
        if not rest:
            value = None
        elif value[:1] == "'" == value[-1:] or value[:1] == '"' == value[-1:]:
            value = value[1:-1]
        if value and "&" in value:
            value = unescape(value)
        attrs.append((name.lower(), value))
        k = m.end()
    end = data[k:endpos].strip()
    if end not in (">", "/>"):
        raise _Fallback
    return attrs, end == "/>"


def _tokenize(data: str, handler) -> None:
    """Walk ``data`` once, calling ``handler``'s HTMLParser hooks with
    the events the stdlib parser would emit; raises ``_Fallback`` on any
    construct outside the handled set."""
    match = _TOKEN.match
    on_data = handler.handle_data
    on_start = handler.handle_starttag
    on_end = handler.handle_endtag
    pos, n = 0, len(data)
    while pos < n:
        m = match(data, pos)
        if m is None:
            raise _Fallback
        i, pos = pos, m.end()
        kind = m.lastindex
        if kind == 1:  # text
            text = m.group(1)
            on_data(unescape(text) if "&" in text else text)
        elif kind == 6:  # start tag
            tag, attrs, close = m.group(4, 5, 6)
            tag = tag.lower()
            if attrs:
                attrs, closed = _start_attrs(data, i, pos)
            else:  # bare ``<name>`` / ``<name/>``
                attrs, closed = [], close == "/"
            if closed:
                handler.handle_startendtag(tag, attrs)
                continue
            on_start(tag, attrs)
            raw_end = _RAW_END.get(tag)
            if raw_end is not None:
                e = raw_end.search(data, pos)
                # re.I also folds e.g. "ſ" to "s"; the stdlib's endtagfind
                # then keeps the body open, so such a close falls back
                if e is None or e.group(1).lower() != tag:
                    raise _Fallback
                if e.start() > pos:
                    on_data(data[pos : e.start()])
                on_end(tag)
                pos = e.end()
        elif kind is not None:  # end tag (endtagfind / tolerant)
            on_end(m.group(kind).lower())
        # comment / doctype: no event


def _parse(walker_cls, data: str):
    """A closed ``walker_cls`` instance that has seen ``data``: through
    ``_tokenize``, or — counted in ``FALLBACK_PAGES`` — through a fresh
    walker's stdlib ``feed``. A page the stdlib walker raises on (its
    ``_markupbase`` asserts on ``<![`` + a non-name token) is counted in
    ``FAILED_PAGES`` and comes back as an empty walker: no blocks, no
    links, and the rest of its batch goes on."""
    global FALLBACK_PAGES, FAILED_PAGES
    walker = walker_cls()
    try:
        _tokenize(data, walker)
    except _Fallback:
        FALLBACK_PAGES += 1
        walker = walker_cls()
        try:
            walker.feed(data)
            walker.close()
        except AssertionError:  # the stdlib parser's one failure type
            FAILED_PAGES += 1
            return walker_cls()
        return walker
    walker.close()
    return walker


class _BlockParser(HTMLParser):
    """DOM walk -> ordered raw blocks with classification features."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.blocks: List[Dict] = []
        self._buf: List[str] = []
        self._link_chars = 0
        self._boiler = False
        self._skip = 0  # depth inside SKIP_TAGS subtrees
        self._link = 0  # depth inside <a>
        self._heading = 0  # depth inside h1..h6
        self._boiler_depth = 0  # depth inside BOILER_TAGS subtrees

    # -- block assembly ---------------------------------------------------
    def _flush(self):
        if not self._buf:  # link chars and the boiler flag come with data
            return
        raw = "".join(self._buf)
        self._buf = []
        link = self._link_chars
        self._link_chars = 0
        boiler = self._boiler
        self._boiler = False
        text = " ".join(raw.split())
        if not text:
            return
        self.blocks.append(
            {
                "kind": "heading" if self._heading > 0 else "text",
                "text": text,
                "media_ref": "",
                "chars": len(text),
                "link_chars": min(link, len(text)),
                "boiler_tag": boiler,
            }
        )

    def _media(self, attrs):
        if self._skip:
            return
        self._flush()
        a = dict(attrs)
        alt = " ".join((a.get("alt") or "").split())
        self.blocks.append(
            {
                "kind": "media",
                "text": alt,
                "media_ref": a.get("src") or "",
                "chars": len(alt),
                "link_chars": 0,
                "boiler_tag": self._boiler_depth > 0,
            }
        )

    # -- HTMLParser hooks ---------------------------------------------------
    def handle_starttag(self, tag, attrs):
        if tag in SKIP_TAGS:
            self._skip += 1
            return
        if self._skip:
            return
        if tag == "img":
            self._media(attrs)
            return
        if tag == "br":
            self._buf.append(" ")
            return
        if tag == "a":
            self._link += 1
        if tag in BLOCK_TAGS:
            self._flush()
            if tag in BOILER_TAGS:
                self._boiler_depth += 1
            if tag in HEADING_TAGS:
                self._heading += 1

    def handle_startendtag(self, tag, attrs):
        if tag == "img":
            if not self._skip:
                self._media(attrs)
            return
        # other self-closed tags (<br/>, XHTML-style <div/>) behave as
        # an immediate open+close
        self.handle_starttag(tag, attrs)
        self.handle_endtag(tag)

    def handle_endtag(self, tag):
        if tag in SKIP_TAGS:
            self._skip = max(0, self._skip - 1)
            return
        if self._skip:
            return
        if tag == "a":
            self._link = max(0, self._link - 1)
            return
        if tag in BLOCK_TAGS:
            self._flush()
            if tag in BOILER_TAGS:
                self._boiler_depth = max(0, self._boiler_depth - 1)
            if tag in HEADING_TAGS:
                self._heading = max(0, self._heading - 1)

    def handle_data(self, data):
        if self._skip or not data:
            return
        self._buf.append(data)
        if self._boiler_depth > 0:
            self._boiler = True
        if self._link > 0:
            self._link_chars += len(data.strip())


def classify_blocks(
    blocks: List[Dict],
    short_len: int = SHORT_LEN,
    max_link_density: float = MAX_LINK_DENSITY,
) -> List[str]:
    """Label each raw block 'good' (main content) or 'bad' (boilerplate)
    with the context-smoothing rules documented in the module header."""
    labels: List[str] = []
    for b in blocks:
        if b["boiler_tag"]:
            labels.append("bad")
        elif b["chars"] > 0 and b["link_chars"] / b["chars"] > max_link_density:
            labels.append("bad")
        elif b["kind"] == "media":
            labels.append("short")
        elif b["kind"] == "heading":
            labels.append("heading")
        elif b["chars"] < short_len:
            labels.append("short")
        else:
            labels.append("good")
    # headings look FORWARD to the first full-length block (edge = bad):
    # one reverse pass carrying the next full-length label
    nxt = "bad"
    for i in range(len(labels) - 1, -1, -1):
        lab = labels[i]
        if lab == "heading":
            labels[i] = nxt
        elif lab != "short":
            nxt = lab
    # shorts inherit the nearest preceding full-length label (edge = bad)
    last_solid = "bad"
    for i, lab in enumerate(labels):
        if lab in ("good", "bad"):
            last_solid = lab
        else:  # 'short'
            labels[i] = last_solid
    return labels


def classify_html_blocks(data) -> Tuple[List[Dict], List[str]]:
    """Parse + classify, returning (raw blocks with features, labels) —
    for diagnostics, block-level stats and tests."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8")
    p = _parse(_BlockParser, data)
    p._flush()
    return p.blocks, classify_blocks(p.blocks)


def extract_html_blocks(data) -> List[Dict]:
    """bytes/str HTML -> main-content typed block stream (boilerplate
    stripped), the shared ``files._blocks_to_spans`` input shape.
    Bytes must be UTF-8 (raises otherwise) — the staged file source
    falls back to ``extract_html_blocks_sniffed`` for everything else."""
    blocks, labels = classify_html_blocks(data)
    return [
        {"kind": b["kind"], "text": b["text"], "media_ref": b["media_ref"]}
        for b, lab in zip(blocks, labels)
        if lab == "good"
    ]


# -- charset sniffing (the non-UTF-8 web) -----------------------------------

_META_CHARSET = re.compile(rb"charset=[\"']?([A-Za-z0-9_.:-]+)", re.I)


def sniff_decode(data: bytes) -> str:
    """Crawl-grade charset detection, strictest first: BOM (UTF-8-sig /
    UTF-16), UTF-8 strict, the <meta charset=...> declaration in the
    first 2 KiB, then the latin-1 total function (every byte string
    decodes) — the standard browser/crawler degradation, never an
    exception."""
    if data.startswith(b"\xef\xbb\xbf"):
        return data[3:].decode("utf-8", "replace")
    if data.startswith(b"\xff\xfe") or data.startswith(b"\xfe\xff"):
        try:
            return data.decode("utf-16")
        except UnicodeDecodeError:
            pass
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    m = _META_CHARSET.search(data[:2048])
    if m:
        try:
            return data.decode(m.group(1).decode("ascii"), "replace")
        except (LookupError, UnicodeDecodeError):
            pass
    return data.decode("latin-1")


def extract_html_blocks_sniffed(data) -> List[Dict]:
    """Charset-sniffing variant for the staged fallback chain."""
    if isinstance(data, (bytes, bytearray)):
        data = sniff_decode(bytes(data))
    return extract_html_blocks(data)


# -- link / metadata extraction + URL normalization ------------------------

# tracking parameters stripped during normalization (the CommonCrawl /
# SURT-style canonicalization everyone's URL-dedup pass applies)
_TRACKING_KEYS = {"ref", "fbclid", "gclid", "mc_cid", "mc_eid", "igshid"}
_MULTI_SLASH = re.compile(r"/{2,}")


def normalize_url(url: str, base: Optional[str] = None) -> str:
    """RFC 3986-style canonicalization: resolve against ``base``,
    lowercase scheme+host, drop default ports, collapse duplicate
    slashes, strip the trailing slash and the fragment, drop tracking
    query parameters (utm_* and the usual click ids) and sort the
    survivors. Pure string work — vectorizes per batch as a plain map."""
    if base:
        url = urljoin(base, url)
    p = urlsplit(url)
    scheme = p.scheme.lower()
    host = (p.hostname or "").lower()
    if ":" in host:  # IPv6 literal: hostname strips the brackets
        host = f"[{host}]"
    try:
        port = p.port
    except ValueError:  # crawl-grade input: non-numeric port -> drop it
        port = None
    if port and not (
        (scheme == "http" and port == 80)
        or (scheme == "https" and port == 443)
    ):
        host = f"{host}:{port}"
    path = _MULTI_SLASH.sub("/", p.path)
    if path.endswith("/"):
        path = path[:-1]
    q = sorted(
        (k, v)
        for k, v in parse_qsl(p.query, keep_blank_values=True)
        if not k.startswith("utm_") and k not in _TRACKING_KEYS
    )
    return urlunsplit((scheme, host, path, urlencode(q), ""))


class _LinkParser(HTMLParser):
    """Collect <a href> anchors (with anchor text) and head metadata
    (<title>, <meta name=description>, <link rel=canonical>)."""

    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.links: List[Dict] = []
        self.canonical = ""
        self.title = ""
        self.description = ""
        self._a_stack: List[Dict] = []
        self._in_title = False

    def _emit_open_anchor(self):
        a = self._a_stack.pop()
        self.links.append(
            {"href": a["href"], "text": " ".join("".join(a["text"]).split())}
        )

    def handle_starttag(self, tag, attrs):
        a = dict(attrs)
        if tag == "a":
            # browsers implicitly close an open <a> when another starts
            # (anchors cannot nest): emit it now, so the stack is bounded
            # at depth 1 even on link farms of unclosed anchors — and
            # handle_data never fans one chunk out to many open anchors
            if self._a_stack:
                self._emit_open_anchor()
            self._a_stack.append({"href": a.get("href") or "", "text": []})
        elif tag == "link" and (a.get("rel") or "").lower() == "canonical":
            self.canonical = a.get("href") or ""
        elif tag == "meta" and (a.get("name") or "").lower() == "description":
            self.description = a.get("content") or ""
        elif tag == "title":
            self._in_title = True

    def handle_startendtag(self, tag, attrs):
        self.handle_starttag(tag, attrs)

    def handle_endtag(self, tag):
        if tag == "a" and self._a_stack:
            self._emit_open_anchor()
        elif tag == "title":
            self._in_title = False

    def close(self):
        super().close()
        # an anchor left open at EOF still counts (browser behavior)
        while self._a_stack:
            self._emit_open_anchor()

    def handle_data(self, data):
        if self._in_title:
            self.title += data
        for a in self._a_stack:
            a["text"].append(data)


def extract_links(data) -> Dict:
    """HTML -> {'canonical', 'title', 'description', 'links': [{href,
    text}]} — raw, un-normalized (normalization is a separate pure
    function so real crawl URLs can flow through the same path)."""
    if isinstance(data, (bytes, bytearray)):
        data = bytes(data).decode("utf-8")
    p = _parse(_LinkParser, data)
    return {
        "canonical": p.canonical,
        "title": " ".join(p.title.split()),
        "description": " ".join(p.description.split()),
        "links": p.links,
    }


def extract_outlinks(data) -> Tuple[str, List[str]]:
    """(normalized canonical page URL, sorted distinct normalized
    outlinks) — anchors resolve against the canonical URL; fragment-only
    anchors and self-links drop out after normalization."""
    meta = extract_links(data)
    base_raw = meta["canonical"]
    page = normalize_url(base_raw) if base_raw else ""
    out = set()
    for a in meta["links"]:
        href = a["href"]
        if not href:
            continue
        u = normalize_url(href, base=base_raw or None)
        if u and u != page and urlsplit(u).scheme in ("http", "https"):
            out.add(u)
    return page, sorted(out)


# -- deterministic page generator (test/bench corpus) ----------------------

_NAV_ITEMS = ["Home", "World", "Business", "Technology", "Science"]
_ASIDE_ITEMS = ["Most read this week", "Editor picks today", "From the archive"]


def render_html_page(
    doc_id: int,
    text: str,
    source: str = "web",
    words_per_para: int = 40,
) -> str:
    """Wrap a document's text in deterministic page chrome. The main
    content is the text split into ``words_per_para``-word paragraphs
    under an ``<h1>Document {doc_id}</h1>``; every fifth doc embeds an
    ``<img src="media://{doc_id}/0" alt="fig-{doc_id}">`` after the
    first paragraph. Everything else on the page is boilerplate the
    extractor must strip: skip link, header+nav, cookie banner, share
    widget, aside, footer. Three template variants (by ``doc_id % 3``)
    vary the container markup (semantic / div-soup / inline-marked) so
    the heuristics, not the template, decide."""
    words = (text or "").split()
    paras = [
        " ".join(words[i : i + words_per_para])
        for i in range(0, len(words), words_per_para)
    ]
    tmpl = doc_id % 3
    has_img = doc_id % 5 == 0 and len(paras) > 0

    def para_html(k: int, p: str) -> str:
        if tmpl == 1:
            return f'<div class="para">{escape(p)}</div>'
        if tmpl == 2:
            # inline markup + comment: must not perturb extracted text
            ew = [escape(x) for x in p.split(" ")]
            if len(ew) >= 4:
                ew[2] = f"<b>{ew[2]}</b>"
            return f'<!-- para {k} --><p>{" ".join(ew)}</p>'
        return f"<p>{escape(p)}</p>"

    main: List[str] = [f"<h1>Document {doc_id}</h1>"]
    for k, p in enumerate(paras):
        main.append(para_html(k, p))
        if k == 0 and has_img:
            main.append(f'<img src="media://{doc_id}/0" alt="fig-{doc_id}">')
    # link-dense in-content recirculation block: boilerplate by the
    # density rule, but its hrefs are the page's real outlinks
    read_also = " ".join(
        f'<a href="/doc/{doc_id + k}?utm_source=feed&amp;ref=home">'
        f"Read also {k}</a>"
        for k in (1, 2, 3)
    )
    main.append(f'<div class="read-also">{read_also}</div>')
    if tmpl == 1:
        main.append(
            '<div class="share"><a href="#t">Tweet</a> <a href="#f">Share</a></div>'
        )
        content = '<div id="main"><div class="post">' + "".join(main) + "</div></div>"
    elif tmpl == 2:
        content = '<section id="main">' + "".join(main) + "</section>"
    else:
        content = '<main id="main"><article>' + "".join(main) + "</article></main>"

    nav = "".join(
        f'<li><a href="/{w.lower()}">{w} &amp; more</a></li>' for w in _NAV_ITEMS
    )
    aside = "".join(f'<li><a href="/top/{i}">{t}</a></li>' for i, t in enumerate(_ASIDE_ITEMS))
    footer_links = "".join(
        f'<li><a href="/legal/{w.lower()}">{w}</a></li>'
        for w in ("About", "Privacy", "Terms", "Contact")
    )
    # every 7th doc (doc_id % 7 == 3) declares its predecessor's URL as
    # canonical — the "same page crawled under two URLs" case URL-level
    # dedup exists to catch
    cid = doc_id - 1 if doc_id % 7 == 3 else doc_id
    return (
        "<!DOCTYPE html><html><head>"
        f"<title>Document {doc_id} — {escape(source)}</title>"
        f'<link rel="canonical" href="https://Example.COM:443/doc/{cid}/'
        '?utm_campaign=sync">'
        f'<meta name="description" content="Summary of document {doc_id} '
        f'from {escape(source)}.">'
        "<style>body{margin:0;font:16px serif}.share a{color:red}</style>"
        f"<script>var docId={doc_id};trackPageView(docId);</script>"
        "</head><body>"
        '<div class="skip"><a href="#main">Skip to main content</a></div>'
        '<header><div class="logo">ExampleSite Daily</div>'
        f"<nav><ul>{nav}</ul></nav></header>"
        '<div class="cookie-banner">We use cookies <a href="#ok">OK</a></div>'
        f"{content}"
        f"<aside><h3>Related</h3><ul>{aside}</ul></aside>"
        "<footer><p>&copy; 2026 ExampleSite. All rights reserved. "
        "Reproduction of this page in whole or in part without written "
        "permission is strictly prohibited by applicable law.</p>"
        f"<ul>{footer_links}</ul></footer>"
        "</body></html>"
    )
