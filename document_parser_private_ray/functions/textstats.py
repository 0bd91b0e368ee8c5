"""Text-analysis scalar kernels for training-data pipelines: language ID,
quality scoring, token counting, fingerprinting.

All kernels are vectorized (pandas/numpy string ops or single-pass
Python per document) and deterministic. Quality metrics are designed
to be SQL-expressible so the DuckDB oracle can verify them exactly
(see __ray_entry__.oracle_sql).
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List

import numpy as np

# --- language ID (n-gram/stopword heuristic) ---------------------------

_LANG_STOPWORDS: Dict[str, frozenset] = {
    "en": frozenset("the and of to in is was for with that on as are this".split()),
    "de": frozenset("der die das und ist von mit für nicht auf ein eine".split()),
    "fr": frozenset("le la les et de des est dans pour avec une sur".split()),
    "es": frozenset("el la los las y de en es para con una por".split()),
    "af": frozenset("die en van is het nie vir met aan wat".split()),
}
_WORD_RE = re.compile(r"[a-zA-Z']+")


def lang_id(text: str) -> str:
    """Best-scoring language by stopword hit rate; 'und' (undetermined)
    when nothing scores."""
    words = [w.lower() for w in _WORD_RE.findall(text or "")]
    if not words:
        return "und"
    best_lang, best_hits = "und", 0
    for lang, stops in _LANG_STOPWORDS.items():
        hits = sum(1 for w in words if w in stops)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


# --- token counting ----------------------------------------------------

#: GPT2-style pretokenizer shape: contractions, letter runs, digit runs,
#: punctuation runs (public BPE pretokenization pattern family).
#: Deliberately lookahead-free (RE2-compatible) so the DuckDB oracle can
#: run the IDENTICAL pattern via regexp_extract_all — trailing-space
#: token boundaries differ from the GPT-2 original, counts are still a
#: valid pretoken upper bound.
_BPE_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?\d+| ?[^\sA-Za-z\d]+|\s+"
)


def bpe_token_count(text: str) -> int:
    """Count of BPE-ish pretokens (upper-bounds real BPE token count)."""
    return len(_BPE_RE.findall(text or ""))


# --- fingerprinting ----------------------------------------------------

def md5_fingerprint(text: str) -> str:
    return hashlib.md5((text or "").encode("utf-8")).hexdigest()


def winnow_fingerprints(text: str, k: int = 5, window: int = 4) -> List[int]:
    """Winnowing (Schleimer et al., SIGMOD'03): rolling word k-gram
    hashes, minimum per sliding window, deduplicated in order — a
    compact local fingerprint set for near-dup detection."""
    words = (text or "").lower().split()
    if len(words) < k:
        return [_hash64(" ".join(words))] if words else []
    grams = [_hash64(" ".join(words[i : i + k])) for i in range(len(words) - k + 1)]
    if len(grams) <= window:
        return [min(grams)]
    out: List[int] = []
    last = -1
    for i in range(len(grams) - window + 1):
        j = i + int(np.argmin(grams[i : i + window]))
        if j != last:
            out.append(grams[j])
            last = j
    # preserve first-occurrence order, dedupe
    seen = set()
    uniq = []
    for h in out:
        if h not in seen:
            seen.add(h)
            uniq.append(h)
    return uniq


def _hash64(s: str) -> int:
    """First 8 bytes of md5, big-endian — chosen (over blake2b) so the
    DuckDB oracle reproduces it exactly:
    ``('0x' || substr(md5(s), 1, 16))::UBIGINT``."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")
