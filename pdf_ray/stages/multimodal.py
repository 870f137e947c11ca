"""Multimodal stages over opaque ``binary`` payload columns.

Pattern (system brief): media payloads are ``large_binary`` columns with
typed metadata; decode / feature-extract / resize / frame-sample run as
``map_batches`` stages. Each stage is stateless or holds only its
settings, so it is passed as an instance and runs as Ray Data tasks. In
this container:

- **images**: fully real — the engine's own PNG codec decodes blobs and
  the stage computes vectorized features (no external image lib needed)
- **audio**: REAL for uncompressed WAV/PCM (the engine's own RIFF parser,
  pdfcore/wav.py); compressed codecs surface as explicit
  ``codec='unknown'`` rows (no decoder library exists here)
- **video**: REAL for MJPEG-in-AVI — the engine's own RIFF walk
  (pdfcore/avi.py) extracts per-frame JPEG chunks and the from-scratch
  JPEG codec decodes the sampled frames; other codecs surface as
  explicit ``codec='unknown'`` rows (no H.264/VP9 decoder exists here).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from ..pdfcore.images import decode_png


class ImageFeatureStage:
    """(media_ref, png: binary) -> (media_ref, width, height, mean_r/g/b).

    Use: ``blobs.map_batches(ImageFeatureStage(), batch_format="pyarrow",
    batch_size=B)`` — small batches for large blobs (batch bytes x
    concurrent tasks must fit the worker heap)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        widths, heights, mr, mg, mb = [], [], [], [], []
        for blob in batch.column("png").to_pylist():
            w, h, pixels = decode_png(blob)
            arr = np.frombuffer(pixels, dtype=np.uint8).reshape(-1, 3)
            mean = arr.mean(axis=0)
            widths.append(w)
            heights.append(h)
            mr.append(int(mean[0]))
            mg.append(int(mean[1]))
            mb.append(int(mean[2]))
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
                "mean_r": pa.array(mr, pa.int32()),
                "mean_g": pa.array(mg, pa.int32()),
                "mean_b": pa.array(mb, pa.int32()),
            }
        )


class ImageResizeStage:
    """Nearest-neighbor resize to (target_w, target_h) -> re-encoded PNG.
    Pure-numpy (real); shows the decode-transform-encode stage shape."""

    def __init__(self, target_w: int = 32, target_h: int = 32):
        self.tw = target_w
        self.th = target_h

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..pdfcore.images import encode_png

        refs = batch.column("media_ref").to_pylist()
        out = []
        for blob in batch.column("png").to_pylist():
            w, h, pixels = decode_png(blob)
            arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
            yi = (np.arange(self.th) * h // self.th).clip(0, h - 1)
            xi = (np.arange(self.tw) * w // self.tw).clip(0, w - 1)
            small = arr[yi][:, xi]
            out.append(encode_png(self.tw, self.th, small.tobytes()))
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "png": pa.array(out, pa.large_binary()),
            }
        )


PHASH_GRID_W = 9  # dHash samples per row (8 horizontal-gradient bits)
PHASH_GRID_H = 8


def dhash63(w: int, h: int, rgb: np.ndarray) -> int:
    """63-bit dHash (difference hash) of an RGB image: integer luma
    (299r+587g+114b)//1000, center-sampled onto a 9x8 grid
    (row_j = (2j+1)h//16, col_i = (2i+1)w//18, clamped), bit j*8+i set
    when grid[j][i] < grid[j][i+1]. Top bit masked off so the value fits
    int64 (same convention as the text SimHash). Deterministic for any
    image size >= 1x1."""
    g = (
        rgb[:, :, 0].astype(np.int64) * 299
        + rgb[:, :, 1].astype(np.int64) * 587
        + rgb[:, :, 2].astype(np.int64) * 114
    ) // 1000
    rows = np.minimum((2 * np.arange(PHASH_GRID_H) + 1) * h // 16, h - 1)
    cols = np.minimum((2 * np.arange(PHASH_GRID_W) + 1) * w // 18, w - 1)
    grid = g[rows][:, cols]
    bits = (grid[:, :-1] < grid[:, 1:]).astype(np.uint64)  # (8, 8)
    shifts = (
        np.arange(PHASH_GRID_H, dtype=np.uint64)[:, None] * np.uint64(8)
        + np.arange(8, dtype=np.uint64)[None, :]
    )
    return int((bits << shifts).sum()) & ((1 << 63) - 1)


class ImagePHashStage:
    """(media_ref, png: binary) -> (media_ref, phash:int64) — the
    perceptual-hash step of image near-dup detection. Decode happens
    with the engine's own PNG codec; the hash is dhash63 (resize- and
    re-encode-invariant by construction of the sampling grid)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        refs = batch.column("media_ref").to_pylist()
        hashes = []
        for blob in batch.column("png").to_pylist():
            w, h, pixels = decode_png(blob)
            arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
            hashes.append(dhash63(w, h, arr))
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "phash": pa.array(hashes, pa.int64()),
            }
        )


class AudioFeatureStage:
    """(media_ref, audio: binary) -> per-clip audio features.

    REAL for uncompressed audio: WAV/PCM (8/16/24/32-bit int + IEEE
    float) decodes with the engine's own RIFF parser (pdfcore/wav.py) and
    features are computed vectorized from the samples. Compressed codecs
    (MP3/AAC/...) have no decoder in this container — those rows surface
    as ``codec='unknown'`` with -1 features (explicit, NEVER fake values).
    Integer feature outputs (µs, milli-units) keep hashes engine-stable."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..pdfcore.wav import decode_wav

        refs = batch.column("media_ref").to_pylist()
        codec, dur, rate, ch, rms, peak, zcr = [], [], [], [], [], [], []
        for blob in batch.column("audio").to_pylist():
            try:
                r, c, samples = decode_wav(blob)
            except Exception:
                codec.append("unknown")
                dur.append(-1)
                rate.append(-1)
                ch.append(-1)
                rms.append(-1)
                peak.append(-1)
                zcr.append(-1)
                continue
            mono = samples.mean(axis=1)
            n = len(mono)
            codec.append("pcm_wav")
            dur.append(int(n * 1_000_000 // max(1, r)))
            rate.append(r)
            ch.append(c)
            rms.append(
                int(round(float(np.sqrt(np.mean(mono**2))) * 1000)) if n else 0
            )
            peak.append(int(round(float(np.abs(mono).max()) * 1000)) if n else 0)
            zcr.append(int(np.count_nonzero(np.diff(np.signbit(mono)))))
        return pa.table(
            {
                "media_ref": pa.array(refs, pa.string()),
                "codec": pa.array(codec, pa.string()),
                "duration_us": pa.array(dur, pa.int64()),
                "sample_rate": pa.array(rate, pa.int32()),
                "channels": pa.array(ch, pa.int32()),
                "rms_milli": pa.array(rms, pa.int32()),
                "peak_milli": pa.array(peak, pa.int32()),
                "zero_crossings": pa.array(zcr, pa.int64()),
            }
        )


class VideoFrameSampleStage:
    """(media_ref, video: binary) -> sampled decoded frames.

    REAL for MJPEG-in-AVI: the RIFF walk (pdfcore/avi.py) extracts the
    per-frame JPEG chunks and the engine's own JPEG codec decodes the
    sampled frames to pixels; ``frame_ref`` is the decoded-PIXEL content
    hash (identical frames collapse, like image media_refs). Codecs with
    no decoder in this container (H.264, VP9, ...) surface as one
    ``codec='unknown'`` row with -1 sentinels — explicit, never fake
    values (same convention as compressed audio)."""

    def __init__(self, n_frames: int = 4):
        self.n_frames = n_frames

    def __call__(self, batch: pa.Table) -> pa.Table:
        import numpy as np

        from ..pdfcore.avi import parse_avi
        from ..pdfcore.images import media_ref_for_pixels
        from ..pdfcore.jpeg import decode_jpeg

        refs_out: list[str] = []
        codec: list[str] = []
        frame_idx: list[int] = []
        n_total: list[int] = []
        frame_refs: list[str | None] = []
        widths: list[int] = []
        heights: list[int] = []
        for ref, blob in zip(
            batch.column("media_ref").to_pylist(),
            batch.column("video").to_pylist(),
        ):
            try:
                _, _, frames = parse_avi(blob)
                k = min(self.n_frames, len(frames))
                picks = [i * len(frames) // k for i in range(k)]
                decoded = []
                for i in picks:
                    w, h, nc, px = decode_jpeg(frames[i])
                    if nc == 1:
                        px = np.repeat(
                            np.frombuffer(px, np.uint8), 3
                        ).tobytes()
                    decoded.append((i, w, h, px))
            except Exception:
                refs_out.append(ref)
                codec.append("unknown")
                frame_idx.append(-1)
                n_total.append(-1)
                frame_refs.append(None)
                widths.append(-1)
                heights.append(-1)
                continue
            for i, w, h, px in decoded:
                refs_out.append(ref)
                codec.append("mjpeg_avi")
                frame_idx.append(i)
                n_total.append(len(frames))
                frame_refs.append(media_ref_for_pixels(w, h, px))
                widths.append(w)
                heights.append(h)
        return pa.table(
            {
                "media_ref": pa.array(refs_out, pa.string()),
                "codec": pa.array(codec, pa.string()),
                "frame_index": pa.array(frame_idx, pa.int32()),
                "n_frames_total": pa.array(n_total, pa.int32()),
                "frame_ref": pa.array(frame_refs, pa.string()),
                "width": pa.array(widths, pa.int32()),
                "height": pa.array(heights, pa.int32()),
            }
        )
