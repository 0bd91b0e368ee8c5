"""Pure-Python fuzzy string scorers.

The reference normalizers decide canonical-vs-variant matches with
rapidfuzz ``fuzz.WRatio`` at cutoffs 80/85/90 (see
/root/reference/normalization/skill_normalizer.py:70-75,
education_normalizer.py:77-82, experience_normalizer.py:216-221).
rapidfuzz is not installable in this sandbox, so this module implements
the same scorer family from its public definition:

* ``ratio``            — normalized Indel similarity: 200*LCS/(|a|+|b|)
* ``partial_ratio``    — best ratio of the shorter string against any
                         equal-length window of the longer
* ``token_sort_ratio`` — ratio over whitespace-tokenized, sorted strings
* ``token_set_ratio``  — max ratio over intersection/difference joins
* ``wratio``           — rapidfuzz's weighted combination (UNBASE_SCALE
                         0.95, partial scale 0.9 / 0.6 at length ratio
                         1.5 / 8 breakpoints)
* ``extract_one``      — first-strictly-best scan over choices, mirroring
                         ``process.extractOne`` ordering semantics

Scores are floats in [0, 100]. No preprocessing is applied (rapidfuzz
>=2 default: ``processor=None``). These functions are called inside
memoised normalizers that live in each worker process, so at corpus
scale each distinct raw string is scored once per worker.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple


def _char_masks(a: str):
    """Per-character position bitmasks of ``a`` (bit-parallel LCS prep)."""
    pm: dict = {}
    for i, c in enumerate(a):
        pm[c] = pm.get(c, 0) | (1 << i)
    return pm


def _lcs_from_masks(pm: dict, m: int, b: str) -> int:
    mask = (1 << m) - 1
    v = mask
    get = pm.get
    for c in b:
        u = v & get(c, 0)
        v = ((v + u) | (v - u)) & mask
    return (~v & mask).bit_count()


def _lcs_len(a: str, b: str) -> int:
    """Longest-common-subsequence length, bit-parallel (Allison-Dix /
    Crochemore et al. formulation): O(|b| * |a|/wordsize) via Python
    big-int ops — verified identical to the O(nm) DP."""
    if not a or not b:
        return 0
    if len(b) < len(a):
        a, b = b, a
    return _lcs_from_masks(_char_masks(a), len(a), b)


def ratio(a: str, b: str) -> float:
    """Normalized Indel similarity, identical to rapidfuzz ``fuzz.ratio``."""
    if not a and not b:
        return 100.0
    total = len(a) + len(b)
    if total == 0:
        return 100.0
    if not a or not b:
        return 0.0
    return 200.0 * _lcs_len(a, b) / total


def partial_ratio(a: str, b: str) -> float:
    """Best ``ratio`` of the shorter string vs. any window of the longer
    (shorter's char masks built once, reused per window).

    A rolling char-multiset intersection bounds each window's LCS from
    above in O(1) per slide, so the bit-parallel LCS only runs on
    windows that could still beat the current best — exact pruning, the
    returned score is identical to the unpruned scan."""
    shorter, longer = (a, b) if len(a) <= len(b) else (b, a)
    if not shorter:
        return 100.0 if not longer else 0.0
    n = len(shorter)
    pm = _char_masks(shorter)
    # rolling window histogram vs the shorter string's histogram
    need: dict = {}
    for c in shorter:
        need[c] = need.get(c, 0) + 1
    win: dict = {}
    common = 0
    for c in longer[:n]:
        w = win.get(c, 0) + 1
        win[c] = w
        if w <= need.get(c, 0):
            common += 1
    best = 0
    last = len(longer) - n
    for i in range(last + 1):
        if common > best:
            lcs = _lcs_from_masks(pm, n, longer[i : i + n])
            if lcs > best:
                best = lcs
                if best == n:
                    break
        if i < last:
            out_c = longer[i]
            w = win[out_c]
            if w <= need.get(out_c, 0):
                common -= 1
            win[out_c] = w - 1
            in_c = longer[i + n]
            w = win.get(in_c, 0) + 1
            win[in_c] = w
            if w <= need.get(in_c, 0):
                common += 1
    return 100.0 * best / n


def _sorted_tokens(s: str) -> str:
    return " ".join(sorted(s.split()))


def token_sort_ratio(a: str, b: str) -> float:
    return ratio(_sorted_tokens(a), _sorted_tokens(b))


def token_set_ratio(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    if not ta and not tb:
        return 100.0
    inter = " ".join(sorted(ta & tb))
    sect_a = (inter + " " + " ".join(sorted(ta - tb))).strip()
    sect_b = (inter + " " + " ".join(sorted(tb - ta))).strip()
    return max(ratio(inter, sect_a), ratio(inter, sect_b), ratio(sect_a, sect_b))


def partial_token_sort_ratio(a: str, b: str) -> float:
    return partial_ratio(_sorted_tokens(a), _sorted_tokens(b))


def partial_token_set_ratio(a: str, b: str) -> float:
    ta, tb = set(a.split()), set(b.split())
    if ta & tb:  # any shared token -> perfect partial alignment
        return 100.0
    return partial_ratio(" ".join(sorted(ta)), " ".join(sorted(tb)))


_UNBASE_SCALE = 0.95


def _common_chars(a: str, b: str) -> int:
    """Multiset character intersection size — an O(n) upper bound on any
    LCS between (reorderings/reductions of) the two strings."""
    ca: dict = {}
    for c in a:
        ca[c] = ca.get(c, 0) + 1
    common = 0
    for c in b:
        v = ca.get(c, 0)
        if v:
            ca[c] = v - 1
            common += 1
    return common


def wratio_ceiling(a: str, b: str) -> float:
    """Cheap upper bound on ``wratio(a, b)``, from two independent
    bounds:

    * length-ratio scaling: WRatio's branch structure caps the score at
      100 (len_ratio < 1.5), 90 (partial scale 0.9), or 60 (partial
      scale 0.6 at len_ratio >= 8) — ratio itself is <= 200*min/(l1+l2)
      in those branches, below the cap;
    * char-multiset intersection (+ slack for token-join space
      rewrites) bounds any LCS-based score when NO whitespace token is
      shared (a shared token lets token_set reach its branch cap).

    Used to skip hopeless choices in ``extract_one`` with a further
    10-point safety margin."""
    la, lb = len(a), len(b)
    n_min = la if la <= lb else lb
    if n_min == 0:
        return 0.0
    len_ratio = (la if la >= lb else lb) / n_min
    if len_ratio >= 8.0:
        len_ceiling = 60.0
    elif len_ratio >= 1.5:
        len_ceiling = 90.0
    else:
        len_ceiling = 100.0
    if set(a.split()) & set(b.split()):
        return len_ceiling
    common = _common_chars(a, b)
    return min(len_ceiling, 100.0 * (common + 4) / n_min)


def wratio(a: str, b: str) -> float:
    """rapidfuzz ``fuzz.WRatio``: weighted max over the scorer family."""
    if not a or not b:
        return 0.0
    la, lb = len(a), len(b)
    len_ratio = max(la, lb) / min(la, lb)
    end = ratio(a, b)
    if len_ratio < 1.5:
        tok = max(token_sort_ratio(a, b), token_set_ratio(a, b))
        end = max(end, tok * _UNBASE_SCALE)
    else:
        partial_scale = 0.9 if len_ratio < 8.0 else 0.6
        end = max(end, partial_ratio(a, b) * partial_scale)
        # token_set first: a shared token short-circuits to 100 cheaply
        ptok = partial_token_set_ratio(a, b)
        if ptok < 100.0:
            ptok = max(ptok, partial_token_sort_ratio(a, b))
        end = max(end, ptok * _UNBASE_SCALE * partial_scale)
    return end


class FuzzyIndex:
    """Prebuilt scoring index over a fixed choice list: per-choice token
    sets, char histograms and lengths are computed once (per worker), so
    the WRatio ceiling check costs a dict-walk instead of re-tokenizing
    the choice on every query. Build once per worker process, e.g. in
    a stage's ``__init__``."""

    __slots__ = ("choices", "lens", "token_sets", "histograms")

    def __init__(self, choices: Sequence[str]):
        self.choices = list(choices)
        self.lens = [len(c) for c in self.choices]
        self.token_sets = [set(c.split()) for c in self.choices]
        self.histograms = []
        for c in self.choices:
            h: dict = {}
            for ch in c:
                h[ch] = h.get(ch, 0) + 1
            self.histograms.append(h)

    def extract_one(
        self, query: str, score_cutoff: float = 0.0
    ) -> Optional[Tuple[str, float, int]]:
        """``process.extractOne`` semantics with exact ceiling pruning
        (the ceiling is a sound upper bound — see ``wratio_ceiling``)."""
        lq = len(query)
        if lq == 0:
            return None
        q_tokens = set(query.split())
        q_hist: dict = {}
        for ch in query:
            q_hist[ch] = q_hist.get(ch, 0) + 1
        best: Optional[Tuple[str, float, int]] = None
        floor = score_cutoff
        for i, choice in enumerate(self.choices):
            lc = self.lens[i]
            if lc == 0:
                continue
            n_min, n_max = (lq, lc) if lq <= lc else (lc, lq)
            len_ratio = n_max / n_min
            if len_ratio >= 8.0:
                ceiling = 60.0
            elif len_ratio >= 1.5:
                ceiling = 90.0
            else:
                ceiling = 100.0
            if ceiling < floor:
                continue
            if not (q_tokens & self.token_sets[i]):
                common = 0
                hist = self.histograms[i]
                for ch, n in q_hist.items():
                    m = hist.get(ch)
                    if m:
                        common += m if m < n else n
                char_bound = 100.0 * (common + 4) / n_min
                if char_bound < ceiling:
                    ceiling = char_bound
                if ceiling < floor:
                    continue
            s = wratio(query, choice)
            if s < score_cutoff:
                continue
            if best is None or s > best[1]:
                best = (choice, s, i)
                if s >= 100.0:
                    break
                floor = s
        return best


def extract_one(
    query: str,
    choices: Sequence[str],
    score_cutoff: float = 0.0,
) -> Optional[Tuple[str, float, int]]:
    """First strictly-best match over ``choices`` (``process.extractOne``
    semantics: iteration order breaks ties, early exit on a perfect 100).
    Returns ``(choice, score, index)`` or ``None`` if nothing reaches
    ``score_cutoff``."""
    best: Optional[Tuple[str, float, int]] = None
    prune = score_cutoff > 10
    floor = score_cutoff
    for i, choice in enumerate(choices):
        if prune and wratio_ceiling(query, choice) < floor - 10:
            continue
        s = wratio(query, choice)
        if s < score_cutoff:
            continue
        if best is None or s > best[1]:
            best = (choice, s, i)
            if s >= 100.0:
                break
            floor = s
    return best
