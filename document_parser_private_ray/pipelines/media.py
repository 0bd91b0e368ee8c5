"""Multimodal column plumbing: image/audio payloads as opaque binary
columns with typed metadata, processed by task map stages.

The decode kernels (PIL/ffmpeg-class work) are STUBBED — the libraries
are not installed — by deterministic fakes, so the Ray-side plumbing
(schema, batch sizing for large binaries, stage signature, output
layout) is real and tested.

Memory notes for binary columns: batches stay small (batch_size 32) so
batch x concurrent tasks fits worker heaps; blocks of wide binary rows
should also get a larger ``DataContext.target_max_block_size`` rather
than absurdly-small split blocks (ray guide: object-store pressure).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..state import exported
from .exchange import co_partition


MEDIA_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),       # "image" | "audio" | "video"
        ("payload", pa.binary()),
        ("meta_width", pa.int32()),  # typed metadata carried alongside
        ("meta_height", pa.int32()),
        ("meta_sample_rate", pa.int32()),
        ("meta_n_frames", pa.int32()),  # video only; 0 otherwise
    ]
)

FEATURE_SCHEMA = pa.schema(
    [
        ("media_ref", pa.string()),
        ("kind", pa.string()),
        ("n_bytes", pa.int64()),
        ("checksum", pa.string()),
        ("feature", pa.list_(pa.float32())),  # decoded feature vector
        ("decode_error", pa.string()),
    ]
)


# synth_media_batch: the salt of every fake payload digest
SEED = 42


def synth_media_batch(refs, with_video: bool = False) -> pa.Table:
    """Deterministic fake media rows for tests/benches: payload bytes are
    a function of the media_ref. ``with_video=True`` adds a video kind
    (with frame-count metadata) for the frame-sampling stage."""
    rows = []
    for ref in refs:
        h = hashlib.blake2b(f"{SEED}:{ref}".encode(), digest_size=32).digest()
        if with_video:
            kind = ("image", "audio", "video")[h[0] % 3]
        else:
            kind = "image" if (h[0] & 1) == 0 else "audio"
        payload = (h * ((h[1] % 7) + 1))  # 32..224 bytes
        rows.append(
            {
                "media_ref": ref,
                "kind": kind,
                "payload": payload,
                "meta_width": 64 + h[2] if kind in ("image", "video") else 0,
                "meta_height": 64 + h[3] if kind in ("image", "video") else 0,
                "meta_sample_rate": 16000 if kind == "audio" else 0,
                "meta_n_frames": 8 + (h[4] % 25) if kind == "video" else 0,
            }
        )
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


# MediaResize's target, FrameSample's stride, MediaFeatures' vector size
WIDTH, HEIGHT = 32, 32
EVERY_K = 4
DIM = 8


def _fake_resize(payload: bytes) -> bytes:
    """Deterministic stand-in for an image resize kernel: output bytes
    derived from (payload, target) with size proportional to the target
    area."""
    h = hashlib.blake2b(payload + f":{WIDTH}x{HEIGHT}".encode(), digest_size=32).digest()
    return h * max(1, (WIDTH * HEIGHT) // 512)


class MediaResize:
    """Task stage: resize image payloads to ``WIDTH`` x ``HEIGHT``
    (video/audio rows pass through untouched) with the deterministic
    fake kernel, so the plumbing — schema, pass-through, metadata
    update — is real and tested."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # Arrow-native path: only IMAGE payloads are materialized for the
        # kernel call; audio/video rows pass through as zero-copy arrays
        # (the r2 row-dict loop copied every binary payload twice).
        mask = pc.equal(batch["kind"], "image")
        np_mask = mask.to_numpy(zero_copy_only=False)
        if not np_mask.any():
            return batch
        img_payloads = batch["payload"].filter(mask).to_pylist()
        resized = iter(_fake_resize(p or b"") for p in img_payloads)
        scattered = pa.array(
            [next(resized) if m else None for m in np_mask], type=pa.binary()
        )
        out = batch.set_column(
            batch.schema.get_field_index("payload"),
            "payload",
            pc.if_else(mask, scattered, batch["payload"]),
        )
        out = out.set_column(
            out.schema.get_field_index("meta_width"),
            "meta_width",
            pc.if_else(mask, pa.scalar(WIDTH, pa.int32()), out["meta_width"]),
        )
        return out.set_column(
            out.schema.get_field_index("meta_height"),
            "meta_height",
            pc.if_else(mask, pa.scalar(HEIGHT, pa.int32()), out["meta_height"]),
        )


def _fake_frame(payload: bytes, idx: int) -> bytes:
    h = hashlib.blake2b(payload + f":frame{idx}".encode(), digest_size=32).digest()
    return h * 2


class FrameSample:
    """Task stage: explode each video row into one IMAGE row per
    sampled frame (every ``EVERY_K``-th of ``meta_n_frames``) — the
    flat-map shape: output rows != input rows is native to map_batches.
    Non-video rows pass through. ``_fake_frame`` stands in for the
    (ffmpeg-class) frame decode."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # Arrow-native flat-map: non-video rows pass through as a
        # zero-copy filter; only video rows (the minority) materialize
        # for the per-frame kernel, and the frame rows assemble as typed
        # arrays (no per-row dicts).
        mask = pc.equal(batch["kind"], "video")
        passthrough = batch.filter(pc.invert(mask))
        vids = batch.filter(mask)
        if vids.num_rows == 0:
            return passthrough
        refs_out: list = []
        payloads_out: list = []
        w_out: list = []
        h_out: list = []
        for ref, p, nf, w, h in zip(
            vids["media_ref"].to_pylist(),
            vids["payload"].to_pylist(),
            vids["meta_n_frames"].to_pylist(),
            vids["meta_width"].to_pylist(),
            vids["meta_height"].to_pylist(),
        ):
            for idx in range(0, nf or 0, EVERY_K):
                refs_out.append(f"{ref}#frame{idx}")
                payloads_out.append(_fake_frame(p or b"", idx))
                w_out.append(w)
                h_out.append(h)
        n = len(refs_out)
        frames = pa.Table.from_arrays(
            [
                pa.array(refs_out, type=pa.string()),
                pa.array(["image"] * n, type=pa.string()),
                pa.array(payloads_out, type=pa.binary()),
                pa.array(w_out, type=pa.int32()),
                pa.array(h_out, type=pa.int32()),
                pa.array([0] * n, type=pa.int32()),
                pa.array([0] * n, type=pa.int32()),
            ],
            schema=MEDIA_SCHEMA,
        )
        if passthrough.num_rows == 0:
            return frames
        return pa.concat_tables([passthrough.cast(MEDIA_SCHEMA), frames])


def _fake_decode(payload: bytes) -> np.ndarray:
    """Deterministic stand-in for image-decode/audio-feature extraction:
    a ``DIM``-vector derived from the payload digest."""
    h = hashlib.blake2b(payload, digest_size=4 * DIM).digest()
    return (
        np.frombuffer(h, dtype=np.uint32).astype(np.float32) / np.float32(2**32)
    )


class MediaFeatures:
    """Task stage: binary payload -> feature vector (``_fake_decode``,
    the stand-in for a PIL/torchvision model) + integrity info. The
    stub decodes every payload, so ``decode_error`` is empty."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # Arrow-native: ref/kind columns pass through zero-copy, n_bytes
        # is a pyarrow kernel, and the feature lists assemble as one
        # flat float32 array + offsets (the ParseDocuments pattern) —
        # only the unavoidable per-row digest/decode touches Python.
        payloads = batch["payload"].to_pylist()
        n = len(payloads)
        checksum: list = []
        feats: list = []
        offsets = np.empty(n + 1, dtype=np.int32)
        offsets[0] = 0
        for i, p in enumerate(payloads):
            p = p or b""
            # integrity checksum over the payload hex encoding: the
            # same value is computable in ANSI SQL (sha256(hex(payload))),
            # which lets the driver oracle gate this stage end-to-end
            checksum.append(hashlib.sha256(p.hex().upper().encode()).hexdigest())
            f = _fake_decode(p)
            feats.append(f)
            offsets[i + 1] = offsets[i] + len(f)
        flat = np.concatenate(feats) if feats else np.zeros(0, dtype=np.float32)
        feature = pa.ListArray.from_arrays(
            pa.array(offsets, type=pa.int32()), pa.array(flat, type=pa.float32())
        )
        n_bytes = pc.cast(
            pc.binary_length(pc.fill_null(batch["payload"], b"")), pa.int64()
        )
        return pa.Table.from_arrays(
            [
                batch["media_ref"],
                batch["kind"],
                n_bytes,
                pa.array(checksum, type=pa.string()),
                feature,
                pa.array([""] * n, type=pa.string()),
            ],
            schema=FEATURE_SCHEMA,
        )


def _synth_media(n_items: int, with_video: bool = False):
    """``n_items`` synthetic media rows (``synth_media_batch``) as a
    Dataset."""
    import ray.data as rd

    refs = rd.from_items([{"ref": f"media://synth/{i}"} for i in range(n_items)])
    return refs.map_batches(
        lambda b: synth_media_batch(b["ref"], with_video=with_video),
        batch_format="numpy",
        batch_size=64,
    )


def media_full_pipeline(export: str, n_items: int = 256):
    """The full multimodal chain: synthesize (image/audio/video) ->
    frame-sample videos into image rows -> resize images -> decode/
    feature. Every stage is a task map_batches over binary columns with
    small batches. ``export``: the resized rows go through an atomic
    parquet export there before the feature stage, so a SQL oracle
    recomputes the byte accounting and checksum from the same payloads."""
    resized = (
        _synth_media(n_items, with_video=True)
        .map_batches(FrameSample(), batch_format="pyarrow", batch_size=32)
        .map_batches(MediaResize(), batch_format="pyarrow", batch_size=32)
    )
    return exported(resized, export).map_batches(
        MediaFeatures(), batch_format="pyarrow", batch_size=32
    )


def media_pipeline(export: str, n_items: int = 256):
    """End-to-end media stage demo: synthesize refs -> decode/feature
    task map -> features table. Small batches on purpose (binary
    payload sizing). ``export``: the synthesized rows go through an
    atomic parquet export there first (see ``media_full_pipeline``)."""
    return exported(_synth_media(n_items), export).map_batches(
        MediaFeatures(), batch_format="pyarrow", batch_size=32
    )


# synth_aliased_media: items, and distinct payloads among them
N_ITEMS, ALIAS_MOD = 256, 200


def synth_aliased_media():
    """Synthetic media corpus WITH planted byte-duplicates: ``N_ITEMS``
    refs whose payloads derive from ``ref mod ALIAS_MOD`` while
    media_ref stays unique, so refs >= ``ALIAS_MOD`` are byte-identical
    copies of earlier ones."""
    import ray.data as rd

    refs = rd.from_items(
        [
            {"ref": f"media://synth/{i % ALIAS_MOD}", "media_ref": f"media://synth/{i}"}
            for i in range(N_ITEMS)
        ]
    )

    def synth_aliased(b) -> pa.Table:
        t = synth_media_batch(b["ref"])
        return t.set_column(
            t.schema.get_field_index("media_ref"),
            "media_ref",
            pa.array(list(b["media_ref"]), type=pa.string()),
        )

    return refs.map_batches(synth_aliased, batch_format="numpy", batch_size=64)


def media_dedup(export: str):
    """Exact dedup over BINARY media payloads — the ``dedup_exact``
    shape applied to a multimodal column: each payload collapses to its
    md5 digest BEFORE the shuffle (the exchange ships (digest, ref)
    rows, never payload bytes), one groupby keeps the min media_ref
    per distinct payload (lexicographic min, = DuckDB MIN(VARCHAR)).
    The digest is md5 over the UPPERCASE-HEX payload encoding — DuckDB's
    md5() is VARCHAR-only, so the oracle's ``md5(hex(payload))``
    recomputes it from the same exported bytes (the MediaFeatures
    checksum convention).

    The input is the planted-duplicate synthetic corpus
    (``synth_aliased_media``). ``export``: the media rows go through an
    atomic parquet export there first, so the oracle digests the same
    bytes.

    Output: (payload_md5, keep_ref, n_copies), one row per payload."""
    import hashlib

    media = exported(
        synth_aliased_media().select_columns(["media_ref", "payload"]),
        export,
    )

    def digest(batch: pa.Table) -> pa.Table:
        payloads = batch["payload"].to_pylist()
        return pa.Table.from_pydict(
            {
                "payload_md5": pa.array(
                    [
                        hashlib.md5((p or b"").hex().upper().encode()).hexdigest()
                        for p in payloads
                    ],
                    type=pa.string(),
                ),
                "media_ref": batch["media_ref"],
            }
        )

    def reduce_bucket(group: pa.Table) -> pa.Table:
        # bucketed vectorized reduce: keys = distinct payloads
        # (unbounded at corpus scale), so one Arrow group_by per hash
        # bucket instead of a per-distinct-group Ray aggregate
        g = group.group_by("payload_md5").aggregate(
            [("media_ref", "min"), ("media_ref", "count")]
        )
        return g.rename_columns(["payload_md5", "keep_ref", "n_copies"])

    digests = media.map_batches(
        digest, batch_format="pyarrow", zero_copy_batch=True, batch_size=64
    )
    return co_partition(
        {"digests": (digests, None)}, "payload_md5", reduce_bucket
    )
