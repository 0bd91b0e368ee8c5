"""Shared memo-cache cap (scale hygiene).

Memoization here is always a pure-function shortcut, so capping is
semantics-free: once a cache holds MEMO_CAP entries, new keys skip
insertion (lookups keep working and the Zipf-head hit rate persists).
Without a cap a long-lived worker process streaming billions of distinct
documents grows its caches — and its GC pressure — without bound.
"""

MEMO_CAP = 500_000


def memo_put(memo: dict, key, value):
    if len(memo) < MEMO_CAP:
        memo[key] = value
    return value
