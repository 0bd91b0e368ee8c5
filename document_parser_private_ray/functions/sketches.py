"""Dedup sketches: shingling, MinHash, SimHash, Jaccard.

Vectorized numpy implementations designed for per-batch use inside
``map_batches`` (sketch per row) with merge/groupby downstream — the
standard MinHash-LSH construction (Broder '97; Leskovec et al., MMDS
ch.3) and SimHash (Charikar '02).
"""

from __future__ import annotations

import hashlib
from typing import List, Set

import numpy as np

# Smallest prime > 2^32: the MMDS ch.3 universal-hash modulus for
# MinHash over a 32-bit shingle universe. a, x < 2^32 keeps a*x + b
# < 2^64 (exact uint64, and exact UBIGINT in a DuckDB oracle), while
# ~2^32 wraps of the modulus make (a*x+b) mod p effectively uniform —
# unlike a 2^61-1 modulus, where only ~8 wraps leave the hash
# correlated with x and the min biased toward small shingle hashes.
_MINHASH_PRIME = 4294967311
# seed of MinHasher's coefficient draws (the minhash SQL oracles inline the draws)
MINHASH_SEED = 7


def _stable_hash64(s: str) -> int:
    """First 8 bytes of md5, big-endian — chosen (over blake2b) so a SQL
    oracle can recompute every shingle hash:
    ``('0x' || substr(md5(s), 1, 16))::UBIGINT`` in DuckDB. The MinHash
    signature then becomes SQL-reproducible end-to-end (the
    dedup_minhash oracle inlines the permutation coefficients)."""
    return int.from_bytes(hashlib.md5(s.encode("utf-8")).digest()[:8], "big")


# words per shingle
SHINGLE_K = 3


def shingles(text: str) -> Set[int]:
    """Word ``SHINGLE_K``-gram shingle hash set (lowercased, whitespace
    tokens)."""
    words = (text or "").lower().split()
    if not words:
        return set()
    if len(words) < SHINGLE_K:
        return {_stable_hash64(" ".join(words))}
    return {
        _stable_hash64(" ".join(words[i : i + SHINGLE_K]))
        for i in range(len(words) - SHINGLE_K + 1)
    }


class MinHasher:
    """n_perm universal-hash MinHash over shingle sets. Deterministic
    (seeded coefficient matrix); construct once per stage.

    The hash family is (a*x + b) mod p with p = 4294967311 (smallest
    prime > 2^32) over the 32-bit TRUNCATED shingle universe: a, b, x
    all fit in 32 bits, so a*x + b < 2^64 and the uint64 arithmetic is
    EXACT (no silent mod-2^64 wraparound before the reduction) — in
    numpy here and in UBIGINT inside the dedup_minhash SQL oracle.
    Truncating shingle hashes to 32 bits adds ~n²/2^33 spurious
    collisions per document — negligible for per-doc shingle sets."""

    def __init__(self, n_perm: int = 128):
        rng = np.random.RandomState(MINHASH_SEED)
        self.a = rng.randint(1, 1 << 32, size=n_perm, dtype=np.uint64)
        self.b = rng.randint(0, 1 << 32, size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm

    def signature(self, shingle_set: Set[int]) -> np.ndarray:
        if not shingle_set:
            return np.full(self.n_perm, np.iinfo(np.uint64).max, dtype=np.uint64)
        x = np.fromiter(shingle_set, dtype=np.uint64, count=len(shingle_set))
        x &= 0xFFFFFFFF  # 32-bit universe: keeps a*x+b exact in uint64
        vals = (np.outer(x, self.a) + self.b) % _MINHASH_PRIME
        return vals.min(axis=0).astype(np.uint64)

    def band_keys(self, sig: np.ndarray, n_bands: int = 16) -> List[int]:
        """LSH band hashes: split the signature into n_bands rows-per-band
        groups; equal band hash => candidate pair."""
        rows = self.n_perm // n_bands
        keys = []
        for band in range(n_bands):
            chunk = sig[band * rows : (band + 1) * rows]
            h = hashlib.blake2b(chunk.tobytes(), digest_size=8).digest()
            keys.append(int.from_bytes(h, "big"))
        return keys


def simhash64(text: str) -> int:
    """64-bit SimHash over word features (Charikar '02). Word features
    hash with md5 (not blake2b) so the DuckDB oracle can recompute the
    signature bit-for-bit (see __ray_entry__.oracle_sql['dedup_simhash'])."""
    words = (text or "").lower().split()
    if not words:
        return 0
    raw = b"".join(hashlib.md5(w.encode("utf-8")).digest()[:8] for w in words)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(-1, 8), axis=1)
    # acc[i] = (#words with bit i set) - (#words without) , bit i = 63-i pos
    acc = bits.sum(axis=0, dtype=np.int64) * 2 - len(words)
    out = 0
    for i, v in enumerate(acc):
        if v > 0:
            out |= 1 << (63 - i)
    return out


def jaccard(a: Set[int], b: Set[int]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)
