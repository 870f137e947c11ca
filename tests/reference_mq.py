"""Frozen copy of the pure-Python MQ decoder and the two per-pixel loops
that ``pdf_ray/pdfcore/mq.c`` replaced: ``MQDecoder`` (T.88 Annex E),
JPX tier-1 code-block decoding (``_decode_cblk`` with its ``_RawBits``
reader, plus the per-block numpy conversion that ``jpx.py`` ran on its
result) and JBIG2 generic-region decoding (``decode_generic_region`` /
``_decode_bitmap``).

It is the oracle of ``tests/test_mq_diff.py``: the kernel must give the
same integers, bitmaps and errors as this code. Do not edit it to follow
the engine; nothing in ``pdf_ray`` imports it. Only the GB template
tables (``GB_TEMPLATES``, ``TPGD_CTX``) come from the engine.
"""

from __future__ import annotations

import numpy as np

from pdf_ray.pdfcore.jbig2 import GB_TEMPLATES, TPGD_CTX
from pdf_ray.pdfcore.objects import PdfParseError

# T.88 Table E.1: (Qe, NMPS, NLPS, SWITCH)
QE = [
    (0x5601, 1, 1, 1), (0x3401, 2, 6, 0), (0x1801, 3, 9, 0),
    (0x0AC1, 4, 12, 0), (0x0521, 5, 29, 0), (0x0221, 38, 33, 0),
    (0x5601, 7, 6, 1), (0x5401, 8, 14, 0), (0x4801, 9, 14, 0),
    (0x3801, 10, 14, 0), (0x3001, 11, 17, 0), (0x2401, 12, 18, 0),
    (0x1C01, 13, 20, 0), (0x1601, 29, 21, 0), (0x5601, 15, 14, 1),
    (0x5401, 16, 14, 0), (0x5101, 17, 15, 0), (0x4801, 18, 16, 0),
    (0x3801, 19, 17, 0), (0x3401, 20, 18, 0), (0x3001, 21, 19, 0),
    (0x2801, 22, 19, 0), (0x2401, 23, 20, 0), (0x2201, 24, 21, 0),
    (0x1C01, 25, 22, 0), (0x1801, 26, 23, 0), (0x1601, 27, 24, 0),
    (0x1401, 28, 25, 0), (0x1201, 29, 26, 0), (0x1101, 30, 27, 0),
    (0x0AC1, 31, 28, 0), (0x09C1, 32, 29, 0), (0x08A1, 33, 30, 0),
    (0x0521, 34, 31, 0), (0x0441, 35, 32, 0), (0x02A1, 36, 33, 0),
    (0x0221, 37, 34, 0), (0x0141, 38, 35, 0), (0x0111, 39, 36, 0),
    (0x0085, 40, 37, 0), (0x0049, 41, 38, 0), (0x0025, 42, 39, 0),
    (0x0015, 43, 40, 0), (0x0009, 44, 41, 0), (0x0005, 45, 42, 0),
    (0x0001, 45, 43, 0), (0x5601, 46, 46, 0),
]


class MQDecoder:
    """T.88 Annex E arithmetic decoder (software conventions, E.3)."""

    __slots__ = ("data", "bp", "c", "a", "ct")

    def __init__(self, data: bytes):
        self.data = data
        self.bp = 0
        b0 = data[0] if data else 0xFF
        self.c = b0 << 16
        self._bytein()
        self.c = (self.c << 7) & 0xFFFFFFFF
        self.ct -= 7
        self.a = 0x8000

    def _bytein(self) -> None:
        d, bp = self.data, self.bp
        b = d[bp] if bp < len(d) else 0xFF
        if b == 0xFF:
            b1 = d[bp + 1] if bp + 1 < len(d) else 0xFF
            if b1 > 0x8F:  # marker: feed 1-bits forever
                self.c += 0xFF00
                self.ct = 8
            else:
                self.bp = bp + 1
                self.c += b1 << 9
                self.ct = 7
        else:
            self.bp = bp + 1
            b1 = d[self.bp] if self.bp < len(d) else 0xFF
            self.c += b1 << 8
            self.ct = 8

    def decode(self, cx: int, idx, mps) -> int:
        """Decode one bit in context ``cx`` (state arrays idx/mps —
        any int-indexable mutable sequence; bytearray is fastest)."""
        i = idx[cx]
        qe, nmps, nlps, switch = QE[i]
        self.a -= qe
        if ((self.c >> 16) & 0xFFFF) < qe:
            # LPS decoding path (with conditional exchange)
            if self.a < qe:
                d = mps[cx]
                idx[cx] = nmps
            else:
                d = 1 - mps[cx]
                if switch:
                    mps[cx] = 1 - mps[cx]
                idx[cx] = nlps
            self.a = qe
        else:
            self.c -= qe << 16
            if self.a & 0x8000:
                return int(mps[cx])
            if self.a < qe:
                d = 1 - mps[cx]
                if switch:
                    mps[cx] = 1 - mps[cx]
                idx[cx] = nlps
            else:
                d = mps[cx]
                idx[cx] = nmps
        # renormalize
        while True:
            if self.ct == 0:
                self._bytein()
            self.a = (self.a << 1) & 0xFFFF
            self.c = (self.c << 1) & 0xFFFFFFFF
            self.ct -= 1
            if self.a & 0x8000:
                break
        return int(d)


# -- context allocation (T.800 Annex D): 9 ZC, 5 SC, 3 MR, RL, UNIFORM --
_CTX_SC0 = 9
_CTX_MR0 = 14
_CTX_RL = 17
_CTX_UNI = 18
_N_CTX = 19


# -- tier-1 context tables ---------------------------------------------------


def _build_zc_tables() -> dict[str, list[int]]:
    """Zero-coding context (Table D.1) indexed by h*15+v*5+d clamped."""
    tabs = {}
    for orient in ("LL", "LH", "HL", "HH"):
        tab = [0] * (3 * 3 * 5)
        for h in range(3):
            for v in range(3):
                for d in range(5):
                    if orient == "HL":
                        hh, vv = v, h  # HL swaps horizontal/vertical
                    else:
                        hh, vv = h, v
                    if orient == "HH":
                        s = hh + vv
                        if d >= 3:
                            c = 8
                        elif d == 2:
                            c = 7 if s >= 1 else 6
                        elif d == 1:
                            c = 5 if s >= 2 else (4 if s == 1 else 3)
                        else:
                            c = 2 if s >= 2 else (1 if s == 1 else 0)
                    else:
                        if hh == 2:
                            c = 8
                        elif hh == 1:
                            c = 7 if vv >= 1 else (6 if d >= 1 else 5)
                        else:
                            if vv == 2:
                                c = 4
                            elif vv == 1:
                                c = 3
                            else:
                                c = 2 if d >= 2 else (1 if d == 1 else 0)
                    tab[h * 15 + v * 5 + d] = c
        tabs[orient] = tab
    return tabs


_ZC_TABLES = _build_zc_tables()

# Sign-coding (Tables D.2/D.3): index (hc+1)*3 + (vc+1) -> (ctx, xorbit)
_SC_TABLE = [
    (_CTX_SC0 + 4, 1),  # hc=-1 vc=-1
    (_CTX_SC0 + 3, 1),  # hc=-1 vc=0
    (_CTX_SC0 + 2, 1),  # hc=-1 vc=1
    (_CTX_SC0 + 1, 1),  # hc=0  vc=-1
    (_CTX_SC0 + 0, 0),  # hc=0  vc=0
    (_CTX_SC0 + 1, 0),  # hc=0  vc=1
    (_CTX_SC0 + 2, 0),  # hc=1  vc=-1
    (_CTX_SC0 + 3, 0),  # hc=1  vc=0
    (_CTX_SC0 + 4, 0),  # hc=1  vc=1
]


def _pass_type(t: int) -> int:
    """Coding-pass type by global pass index: 0=SPP, 1=MRP, 2=CUP.
    Pass 0 is the first cleanup; then (SPP, MRP, CUP) per bitplane."""
    return 2 if t == 0 else (t - 1) % 3


def _seg_end(t: int, cbstyle: int) -> bool:
    """Does a codeword segment terminate after global pass t (D.4.1 +
    D.6)? TERMALL (0x04) terminates every pass. Selective bypass (0x01)
    terminates the cleanup preceding the first raw pass (t=9) and, once
    lazy, every raw MRP and every MQ cleanup."""
    if cbstyle & 0x04:
        return True
    if cbstyle & 0x01:
        return t >= 9 and _pass_type(t) != 0
    return False


def _is_raw(t: int, cbstyle: int) -> bool:
    """Raw (bypass) passes: SPP/MRP from the 11th coding pass on."""
    return bool(cbstyle & 0x01) and t >= 10 and _pass_type(t) != 2


class _RawBits:
    """Raw (arithmetic-bypass) bit reader with 0xFF unstuffing: the byte
    after an 0xFF carries only 7 bits (D.6). Reads past the end return
    zero bits (never consulted on well-formed streams)."""

    __slots__ = ("data", "pos", "c", "ct")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0
        self.c = 0
        self.ct = 0

    def bit(self) -> int:
        if self.ct == 0:
            prev = self.c
            self.c = (
                self.data[self.pos] if self.pos < len(self.data) else 0
            )
            self.pos += 1
            self.ct = 7 if prev == 0xFF else 8
        self.ct -= 1
        return (self.c >> self.ct) & 1


def _decode_cblk(
    segs: list,
    w: int,
    h: int,
    numbps: int,
    npasses: int,
    orient: str,
    cbstyle: int,
) -> tuple[list[int], list[int]]:
    """EBCOT tier-1 decode of one code-block (D.3/D.4) -> (mags, signs)
    as flat row-major lists. ``segs`` is the list of codeword segments
    as (bytes, npasses) — one segment in the default code-block style,
    several under TERMALL/bypass. Honors cbstyle bits: 0x01 selective
    bypass (raw SPP/MRP), 0x02 context reset per pass, 0x04 TERMALL,
    0x08 vertically-causal contexts, 0x10 predictable termination
    (encoder-side only — nothing to do), 0x20 segmentation symbols."""
    n = w * h
    sig = bytearray(n)
    visited = bytearray(n)
    refined = bytearray(n)
    sgn = bytearray(n)
    mag = [0] * n
    idx = bytearray(_N_CTX)
    mps = bytearray(_N_CTX)
    zc = _ZC_TABLES[orient]
    causal = bool(cbstyle & 0x08)
    segsym = bool(cbstyle & 0x20)

    def init_ctx() -> None:
        for i in range(_N_CTX):
            idx[i] = 0
            mps[i] = 0
        idx[_CTX_UNI] = 46
        idx[_CTX_RL] = 3
        idx[0] = 4

    init_ctx()
    mq = None
    rb = None
    seg_i = 0

    def start_segment(t: int) -> None:
        nonlocal mq, rb, seg_i
        data = segs[seg_i][0] if seg_i < len(segs) else b""
        seg_i += 1
        if _is_raw(t, cbstyle):
            rb = _RawBits(bytes(data))
            mq = None
        else:
            mq = MQDecoder(bytes(data))
            rb = None

    def nbr_counts(pos: int, x: int, y: int) -> tuple[int, int, int]:
        hh = vv = dd = 0
        below = y + 1 < h and not (causal and (y & 3) == 3)
        if x > 0 and sig[pos - 1]:
            hh += 1
        if x + 1 < w and sig[pos + 1]:
            hh += 1
        if y > 0 and sig[pos - w]:
            vv += 1
        if below and sig[pos + w]:
            vv += 1
        if x > 0 and y > 0 and sig[pos - w - 1]:
            dd += 1
        if x + 1 < w and y > 0 and sig[pos - w + 1]:
            dd += 1
        if x > 0 and below and sig[pos + w - 1]:
            dd += 1
        if x + 1 < w and below and sig[pos + w + 1]:
            dd += 1
        return hh, vv, dd

    def decode_sign(pos: int, x: int, y: int) -> int:
        hc = vc = 0
        below = y + 1 < h and not (causal and (y & 3) == 3)
        if x > 0 and sig[pos - 1]:
            hc += -1 if sgn[pos - 1] else 1
        if x + 1 < w and sig[pos + 1]:
            hc += -1 if sgn[pos + 1] else 1
        if y > 0 and sig[pos - w]:
            vc += -1 if sgn[pos - w] else 1
        if below and sig[pos + w]:
            vc += -1 if sgn[pos + w] else 1
        hc = max(-1, min(1, hc))
        vc = max(-1, min(1, vc))
        ctx, xorbit = _SC_TABLE[(hc + 1) * 3 + (vc + 1)]
        return mq.decode(ctx, idx, mps) ^ xorbit

    def spp(p: int) -> None:
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            for x in range(w):
                for y in range(k0, k1):
                    pos = y * w + x
                    if sig[pos]:
                        continue
                    hh, vv, dd = nbr_counts(pos, x, y)
                    if hh == 0 and vv == 0 and dd == 0:
                        continue
                    visited[pos] = 1
                    if mq.decode(zc[hh * 15 + vv * 5 + min(dd, 4)], idx, mps):
                        sig[pos] = 1
                        sgn[pos] = decode_sign(pos, x, y)
                        mag[pos] |= bit

    def spp_raw(p: int) -> None:
        # D.6: significance decision and sign are raw bits, no contexts
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            for x in range(w):
                for y in range(k0, k1):
                    pos = y * w + x
                    if sig[pos]:
                        continue
                    hh, vv, dd = nbr_counts(pos, x, y)
                    if hh == 0 and vv == 0 and dd == 0:
                        continue
                    visited[pos] = 1
                    if rb.bit():
                        sig[pos] = 1
                        sgn[pos] = rb.bit()
                        mag[pos] |= bit

    def mrp(p: int) -> None:
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            for x in range(w):
                for y in range(k0, k1):
                    pos = y * w + x
                    if not sig[pos] or visited[pos]:
                        continue
                    if refined[pos]:
                        ctx = _CTX_MR0 + 2
                    else:
                        hh, vv, dd = nbr_counts(pos, x, y)
                        ctx = _CTX_MR0 + (1 if hh + vv + dd else 0)
                    if mq.decode(ctx, idx, mps):
                        mag[pos] |= bit
                    refined[pos] = 1

    def mrp_raw(p: int) -> None:
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            for x in range(w):
                for y in range(k0, k1):
                    pos = y * w + x
                    if not sig[pos] or visited[pos]:
                        continue
                    if rb.bit():
                        mag[pos] |= bit
                    refined[pos] = 1

    def cup(p: int) -> None:
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            full = k1 - k0 == 4
            for x in range(w):
                start = k0
                if full:
                    # run-length mode: whole column uncoded + all-zero
                    # neighborhoods (D.4.4)
                    rl = True
                    for y in range(k0, k1):
                        pos = y * w + x
                        if sig[pos] or visited[pos]:
                            rl = False
                            break
                        hh, vv, dd = nbr_counts(pos, x, y)
                        if hh or vv or dd:
                            rl = False
                            break
                    if rl:
                        if not mq.decode(_CTX_RL, idx, mps):
                            continue  # all four stay insignificant
                        r = (
                            mq.decode(_CTX_UNI, idx, mps) << 1
                        ) | mq.decode(_CTX_UNI, idx, mps)
                        pos = (k0 + r) * w + x
                        sig[pos] = 1
                        sgn[pos] = decode_sign(pos, x, k0 + r)
                        mag[pos] |= bit
                        start = k0 + r + 1
                for y in range(start, k1):
                    pos = y * w + x
                    if sig[pos] or visited[pos]:
                        continue
                    hh, vv, dd = nbr_counts(pos, x, y)
                    if mq.decode(zc[hh * 15 + vv * 5 + min(dd, 4)], idx, mps):
                        sig[pos] = 1
                        sgn[pos] = decode_sign(pos, x, y)
                        mag[pos] |= bit
        if segsym:
            s = 0
            for _ in range(4):
                s = (s << 1) | mq.decode(_CTX_UNI, idx, mps)
            if s != 0xA:
                raise PdfParseError("JPX: segmentation symbol mismatch")

    t = 0
    reset = bool(cbstyle & 0x02)
    for p in range(numbps - 1, -1, -1):
        for kind in (2,) if p == numbps - 1 else (0, 1, 2):
            if t >= npasses:
                return mag, sgn
            if t == 0 or _seg_end(t - 1, cbstyle):
                start_segment(t)
            if kind == 0:
                (spp_raw if _is_raw(t, cbstyle) else spp)(p)
            elif kind == 1:
                (mrp_raw if _is_raw(t, cbstyle) else mrp)(p)
            else:
                cup(p)
            if reset:
                init_ctx()
            t += 1
        for i in range(n):
            visited[i] = 0
    return mag, sgn


# -- JBIG2 generic region --------------------------------------------------


def decode_generic_region(
    data: bytes,
    w: int,
    h: int,
    template: int,
    at: list[tuple[int, int]],
    tpgdon: bool,
) -> np.ndarray:
    """MQ-coded generic region decoding procedure (T.88 6.2.5.7) ->
    (h, w) uint8 bitmap, 1 = black. Correctness-first scalar loop: the
    arithmetic coder is inherently serial per pixel; at pipeline level
    the parallelism axis is images-per-actor, not pixels."""
    if template not in GB_TEMPLATES:
        raise PdfParseError(f"JBIG2 bad GB template {template}")
    nbits = len(GB_TEMPLATES[template]) + len(at)
    # bytearrays, not numpy: per-element numpy indexing returns numpy
    # scalars with real overhead in this serial per-pixel loop
    idx = bytearray(1 << nbits)
    mps = bytearray(1 << nbits)
    mq = MQDecoder(data)
    return _decode_bitmap(mq, idx, mps, w, h, template, at, tpgdon)


def _decode_bitmap(
    mq: MQDecoder,
    idx: bytearray,
    mps: bytearray,
    w: int,
    h: int,
    template: int,
    at: list[tuple[int, int]],
    tpgdon: bool,
    skip=None,
) -> np.ndarray:
    """Core generic-region bitmap decode over a CALLER-owned MQ decoder
    and GB context state — the symbol dictionary decodes every symbol
    bitmap through one shared decoder/stats set (T.88 6.5.8.2.1).
    ``skip`` (USESKIP, 6.2.5.7): pixels flagged in the skip bitmap are
    not coded and decode as 0 (they still feed neighbour contexts)."""
    tmpl = sorted(GB_TEMPLATES[template] + list(at), key=lambda p: (p[1], p[0]))
    skip_rows = (
        None if skip is None else [[int(v) for v in r] for r in skip]
    )
    # rows as plain Python int lists: per-pixel numpy scalar indexing is
    # ~10x slower than list indexing in this inherently-serial loop
    zero_row = [0] * w
    rows: list[list[int]] = []
    ltp = 0
    for y in range(h):
        if tpgdon:
            if mq.decode(TPGD_CTX[template], idx, mps):
                ltp ^= 1
            if ltp:
                rows.append(list(rows[y - 1]) if y > 0 else [0] * w)
                continue
        r2 = rows[y - 2] if y >= 2 else zero_row
        r1 = rows[y - 1] if y >= 1 else zero_row
        row = [0] * w
        rows.append(row)
        srow = skip_rows[y] if skip_rows is not None else None
        for x in range(w):
            if srow is not None and srow[x]:
                continue  # skipped pixel stays 0, nothing coded
            ctx = 0
            for dx, dy in tmpl:
                xx = x + dx
                if 0 <= xx < w:
                    if dy == 0:
                        ctx = (ctx << 1) | row[xx]
                    elif dy == -1:
                        ctx = (ctx << 1) | r1[xx]
                    elif dy == -2:
                        ctx = (ctx << 1) | r2[xx]
                    else:  # exotic AT row (dy < -2)
                        yy = y + dy
                        ctx = (ctx << 1) | (rows[yy][xx] if yy >= 0 else 0)
                else:
                    ctx <<= 1
            row[x] = mq.decode(ctx, idx, mps)
    return np.array(rows, np.uint8).reshape(h, w)


def cblk_ints(segs, w, h, numbps, npasses, orient, cbstyle, roi=0):
    """One code-block as ``jpx.py`` stored it before the kernel: signed,
    ROI-unshifted int64 samples of shape (h, w)."""
    mags, sgns = _decode_cblk(segs, w, h, numbps, npasses, orient, cbstyle)
    mags_i = np.array(mags, np.int64)
    if roi:
        mags_i = np.where(mags_i >= (1 << roi), mags_i >> roi, mags_i)
    sg = np.frombuffer(bytes(sgns), np.uint8).astype(np.int64)
    return np.where(sg == 1, -mags_i, mags_i).reshape(h, w)
