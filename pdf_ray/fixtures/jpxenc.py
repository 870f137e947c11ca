"""Minimal deterministic JPEG 2000 encoder (fixture-side only).

Produces spec-conformant Part-1 codestreams / JP2 containers so fixtures
and tests can exercise the decode path (pdfcore/jpx.py) without any
external codec: 5/3 reversible coding is lossless, so decode(encode(x))
must equal x bit-for-bit; the 9/7 path is validated by error bounds.

Mirrors the decoder structure: forward 5/3 + 9/7 lifting DWT (scaling
convention validated against the published analysis taps), EBCOT tier-1
pass encoder over the shared T.88/T.800 MQ coder (jbig2enc.MQEncoder),
tag-tree + packet-header writers with 0xFF bit stuffing, all five
progression orders (LRCP/RLCP comprehensions; RPCL/PCRL/CPRL via
precinct-anchor sorting — deliberately a different formulation than the
decoder's B.12 grid walk), multiple quality layers (single arithmetic
codeword per code-block, byte-split across layer contributions), PPM/PPT
packed packet headers (split into small Z-ordered marker segments).
"""

from __future__ import annotations

import struct

import numpy as np

from ..pdfcore.jpx import (
    _build_zc_tables,
    _Cod,
    _pass_type,
    _Qcd,
    _Resolution,
    _ceil_div,
    _reflect,
    _seg_end,
)
from .jbig2enc import MQEncoder

# -- tier-1 contexts (T.800 Annex D): 9 ZC, 5 SC, 3 MR, RL, UNIFORM ----------
_CTX_SC0 = 9
_CTX_MR0 = 14
_CTX_RL = 17
_CTX_UNI = 18
_N_CTX = 19
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


def _is_raw(t: int, cbstyle: int) -> bool:
    """Raw (bypass) passes: SPP/MRP from the 11th coding pass on."""
    return bool(cbstyle & 0x01) and t >= 10 and _pass_type(t) != 2


class _RawWriter:
    """Raw (arithmetic-bypass) bit writer with 0xFF stuffing: a byte
    following an 0xFF carries only 7 bits (D.6 — the MSB stays 0, so no
    0xFF 0x9x marker can appear inside a raw segment)."""

    def __init__(self):
        self.out = bytearray()
        self.c = 0
        self.ct = 8
        self.start = 8

    def bit(self, v: int) -> None:
        self.ct -= 1
        self.c |= v << self.ct
        if self.ct == 0:
            self.out.append(self.c)
            self.start = self.ct = 7 if self.c == 0xFF else 8
            self.c = 0

    def finish(self) -> bytes:
        if self.ct < self.start:
            self.out.append(self.c)
        if self.out and self.out[-1] == 0xFF:
            # a codeword segment must not end with 0xFF (B.10.7)
            self.out.append(0)
        return bytes(self.out)

_K97 = 1.230174104914001
_A97 = -1.586134342059924
_B97 = -0.052980118572961
_G97 = 0.882911075530934
_D97 = 0.443506852043971
_EXT = 4


# -- forward DWT (exact mirror of jpx._sr_1d_rows / _sr_2d) ------------------


def _sd_1d_rows(A: np.ndarray, i0: int, reversible: bool) -> np.ndarray:
    n = A.shape[1]
    if n == 0:
        return A
    if n == 1:
        if i0 % 2:
            return (A << 1) if reversible else (A * 2.0)
        return A.copy()
    i1 = i0 + n
    m = _EXT
    take = np.array(
        [_reflect(j, i0, i1) - i0 for j in range(i0 - m, i1 + m)], np.intp
    )
    E = A[:, take].astype(np.int64 if reversible else np.float64)
    L = E.shape[1]
    s = i0 - m
    ev0 = 0 if s % 2 == 0 else 1
    od0 = 1 - ev0
    ev = slice(ev0 if ev0 >= 1 else 2, L - 1, 2)
    od = slice(od0 if od0 >= 1 else 2, L - 1, 2)

    def nbrs(sl: slice) -> tuple[slice, slice]:
        return (
            slice(sl.start - 1, sl.stop - 1, 2),
            slice(sl.start + 1, sl.stop + 1, 2),
        )

    if reversible:
        lo, hi = nbrs(od)
        E[:, od] -= (E[:, lo] + E[:, hi]) >> 1
        lo, hi = nbrs(ev)
        E[:, ev] += (E[:, lo] + E[:, hi] + 2) >> 2
    else:
        for coef, sl in ((_A97, od), (_B97, ev), (_G97, od), (_D97, ev)):
            lo, hi = nbrs(sl)
            E[:, sl] += coef * (E[:, lo] + E[:, hi])
        E[:, ev0::2] *= 1.0 / _K97
        E[:, od0::2] *= _K97
    return E[:, m : m + n]


def _sd_2d(
    A: np.ndarray, u0: int, u1: int, v0: int, v1: int, reversible: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward 2D subband decomposition: VER_SD then HOR_SD then
    deinterleave (the exact inverse order of jpx._sr_2d)."""
    Y = _sd_1d_rows(np.ascontiguousarray(A.T), v0, reversible).T
    Y = _sd_1d_rows(np.ascontiguousarray(Y), u0, reversible)
    re = v0 % 2
    ce = u0 % 2
    ll = Y[re::2, ce::2]
    hl = Y[re::2, 1 - ce :: 2]
    lh = Y[1 - re :: 2, ce::2]
    hh = Y[1 - re :: 2, 1 - ce :: 2]
    return ll, hl, lh, hh


# -- tier-1 encoder ----------------------------------------------------------


def _encode_cblk(
    coefs: np.ndarray, numbps: int, orient: str, cbstyle: int = 0
) -> tuple[list[tuple[bytes, int]], int]:
    """EBCOT tier-1 encode of one code-block holding signed integer
    quantizer indices; returns (codeword segments as (bytes, npasses),
    total passes). One segment in the default style; TERMALL/bypass
    terminate at the boundaries jpx._seg_end defines."""
    h, w = coefs.shape
    n = w * h
    flat = coefs.reshape(-1)
    mag = [int(abs(v)) for v in flat]
    sgn = bytearray(1 if v < 0 else 0 for v in flat)
    sig = bytearray(n)
    visited = bytearray(n)
    refined = bytearray(n)
    idx = np.zeros(_N_CTX, np.uint8)
    mps = np.zeros(_N_CTX, np.uint8)
    causal = bool(cbstyle & 0x08)
    segsym = bool(cbstyle & 0x20)
    reset = bool(cbstyle & 0x02)
    zc = _ZC_TABLES[orient]

    def init_ctx():
        idx[:] = 0
        mps[:] = 0
        idx[_CTX_UNI] = 46
        idx[_CTX_RL] = 3
        idx[0] = 4

    init_ctx()
    segs = []
    enc = None
    rw = None

    def start_segment(t):
        nonlocal enc, rw
        if _is_raw(t, cbstyle):
            rw = _RawWriter()
            enc = None
        else:
            enc = MQEncoder()
            rw = None

    def end_segment(npass):
        segs.append((enc.finish() if enc else rw.finish(), npass))

    def nbr_counts(pos, x, y):
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

    def encode_sign(pos, x, y):
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
        enc.encode(sgn[pos] ^ xorbit, ctx, idx, mps)

    def spp(p):
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
                    d = 1 if mag[pos] & bit else 0
                    enc.encode(d, zc[hh * 15 + vv * 5 + min(dd, 4)], idx, mps)
                    if d:
                        sig[pos] = 1
                        encode_sign(pos, x, y)

    def spp_raw(p):
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
                    d = 1 if mag[pos] & bit else 0
                    rw.bit(d)
                    if d:
                        sig[pos] = 1
                        rw.bit(sgn[pos])

    def mrp(p):
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
                    enc.encode(1 if mag[pos] & bit else 0, ctx, idx, mps)
                    refined[pos] = 1

    def mrp_raw(p):
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            for x in range(w):
                for y in range(k0, k1):
                    pos = y * w + x
                    if not sig[pos] or visited[pos]:
                        continue
                    rw.bit(1 if mag[pos] & bit else 0)
                    refined[pos] = 1

    def cup(p):
        bit = 1 << p
        for k0 in range(0, h, 4):
            k1 = min(k0 + 4, h)
            full = k1 - k0 == 4
            for x in range(w):
                start = k0
                if full:
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
                        r = -1
                        for y in range(k0, k1):
                            if mag[y * w + x] & bit:
                                r = y - k0
                                break
                        if r < 0:
                            enc.encode(0, _CTX_RL, idx, mps)
                            continue
                        enc.encode(1, _CTX_RL, idx, mps)
                        enc.encode((r >> 1) & 1, _CTX_UNI, idx, mps)
                        enc.encode(r & 1, _CTX_UNI, idx, mps)
                        pos = (k0 + r) * w + x
                        sig[pos] = 1
                        encode_sign(pos, x, k0 + r)
                        start = k0 + r + 1
                for y in range(start, k1):
                    pos = y * w + x
                    if sig[pos] or visited[pos]:
                        continue
                    hh, vv, dd = nbr_counts(pos, x, y)
                    d = 1 if mag[pos] & bit else 0
                    enc.encode(d, zc[hh * 15 + vv * 5 + min(dd, 4)], idx, mps)
                    if d:
                        sig[pos] = 1
                        encode_sign(pos, x, y)
        if segsym:
            for b in (1, 0, 1, 0):
                enc.encode(b, _CTX_UNI, idx, mps)

    t = 0
    seg_start = 0
    for p in range(numbps - 1, -1, -1):
        for kind in (2,) if p == numbps - 1 else (0, 1, 2):
            if t == seg_start:
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
            if _seg_end(t - 1, cbstyle):
                end_segment(t - seg_start)
                seg_start = t
        for i in range(n):
            visited[i] = 0
    if t > seg_start:
        end_segment(t - seg_start)
    return segs, t


# -- tier-2 writers ----------------------------------------------------------


class _HdrWriter:
    """Packet-header bit writer with 0xFF stuffing (B.10.1)."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def _cap(self) -> int:
        return 7 if self.buf and self.buf[-1] == 0xFF else 8

    def bit(self, v: int) -> None:
        self.acc = (self.acc << 1) | (v & 1)
        self.n += 1
        if self.n == self._cap():
            self.buf.append(self.acc)
            self.acc = 0
            self.n = 0

    def bits(self, v: int, k: int) -> None:
        for i in range(k - 1, -1, -1):
            self.bit((v >> i) & 1)

    def finish(self) -> bytes:
        while self.n:
            self.bit(0)
        if self.buf and self.buf[-1] == 0xFF:
            self.buf.append(0)  # stuffed terminator byte
        return bytes(self.buf)


class _TagTreeEnc:
    """Tag tree encoder (mirror of jpx._TagTree)."""

    def __init__(self, w: int, h: int, leaf_values: list[int]):
        self.dims = []
        while True:
            self.dims.append((w, h))
            if w <= 1 and h <= 1:
                break
            w = _ceil_div(w, 2)
            h = _ceil_div(h, 2)
        self.value = [leaf_values]
        for lvl in range(1, len(self.dims)):
            pw, ph = self.dims[lvl - 1]
            cw, ch = self.dims[lvl]
            vals = []
            for y in range(ch):
                for x in range(cw):
                    mn = None
                    for dy in (0, 1):
                        for dx in (0, 1):
                            yy, xx = 2 * y + dy, 2 * x + dx
                            if yy < ph and xx < pw:
                                v = self.value[lvl - 1][yy * pw + xx]
                                mn = v if mn is None else min(mn, v)
                    vals.append(mn)
            self.value.append(vals)
        self.low = [[0] * len(v) for v in self.value]
        self.known = [[False] * len(v) for v in self.value]

    def encode(self, wr: _HdrWriter, x: int, y: int, threshold: int) -> None:
        path = []
        for lvl, (dw, _dh) in enumerate(self.dims):
            path.append((lvl, y * dw + x))
            x >>= 1
            y >>= 1
        low = 0
        for lvl, idx in reversed(path):
            if self.low[lvl][idx] < low:
                self.low[lvl][idx] = low
            while not self.known[lvl][idx] and self.low[lvl][idx] < threshold:
                if self.low[lvl][idx] < self.value[lvl][idx]:
                    wr.bit(0)
                    self.low[lvl][idx] += 1
                else:
                    wr.bit(1)
                    self.known[lvl][idx] = True
            low = self.low[lvl][idx]
            if not self.known[lvl][idx]:
                return


def _write_numpasses(wr: _HdrWriter, np_: int) -> None:
    if np_ == 1:
        wr.bit(0)
        return
    wr.bit(1)
    if np_ == 2:
        wr.bit(0)
        return
    wr.bit(1)
    if np_ <= 5:
        wr.bits(np_ - 3, 2)
        return
    wr.bits(3, 2)
    if np_ <= 36:
        wr.bits(np_ - 6, 5)
        return
    wr.bits(31, 5)
    wr.bits(np_ - 37, 7)


# -- top-level encoder -------------------------------------------------------


def encode_jpx(
    img: np.ndarray,
    levels: int = 2,
    reversible: bool = True,
    mct: bool | None = None,
    cb_exp: tuple[int, int] = (6, 6),
    precincts: list[tuple[int, int]] | None = None,
    tile_size: tuple[int, int] | None = None,
    origin: tuple[int, int] = (0, 0),
    tile_origin: tuple[int, int] | None = None,
    sop: bool = False,
    eph: bool = False,
    ppm: bool = False,
    ppt: bool = False,
    segsym: bool = False,
    cbstyle: int = 0,
    prog: int = 0,
    layers: int = 1,
    depth: int = 8,
    guard: int = 2,
    qstyle: int | None = None,
    jp2: bool = False,
    poc: list[tuple] | None = None,
    subsampling: list[tuple[int, int]] | None = None,
    roi: int | None = None,
) -> bytes:
    """Encode (h, w) or (h, w, 3) samples of the given bit depth into a
    JPEG 2000 codestream (or JP2 container when ``jp2``). ``poc`` is a
    list of (RSpoc, CSpoc, LYEpoc, REpoc, CEpoc, Ppoc) progression-order
    changes; together the entries must cover every packet.
    ``subsampling`` gives per-component (XRsiz, YRsiz); the input is
    supplied on the full reference grid and the encoder keeps the
    samples at grid points that are multiples of the factors (B.3).
    ``roi`` applies maxshift ROI scaling (E.1) with SPrgn=roi to every
    component over a fixed deterministic coefficient mask; the shift
    must exceed every background coefficient's bit length (validated
    per tile) so the decoder can separate ROI by magnitude alone."""
    if img.ndim == 2:
        comps = [img.astype(np.int64)]
    else:
        comps = [img[:, :, c].astype(np.int64) for c in range(img.shape[2])]
    ncomp = len(comps)
    if mct is None:
        mct = ncomp == 3
    ih, iw = comps[0].shape
    xo, yo = origin
    xsiz, ysiz = xo + iw, yo + ih
    subs = list(subsampling) if subsampling else [(1, 1)] * ncomp
    if len(subs) != ncomp:
        raise ValueError("subsampling must name every component")
    if mct and ncomp >= 3 and len(set(subs[:3])) != 1:
        raise ValueError("MCT requires equal subsampling on components 0-2")
    # component-domain arrays: samples at grid multiples of the factors,
    # indexed from the component origin ceil(origin / factor)
    corigins = []
    for c in range(ncomp):
        a, b = subs[c]
        cx0, cx1 = _ceil_div(xo, a), _ceil_div(xsiz, a)
        cy0, cy1 = _ceil_div(yo, b), _ceil_div(ysiz, b)
        if cx1 <= cx0 or cy1 <= cy0:
            raise ValueError("subsampling leaves an empty component")
        cols = np.arange(cx0, cx1) * a - xo
        rows = np.arange(cy0, cy1) * b - yo
        comps[c] = comps[c][rows][:, cols]
        corigins.append((cx0, cy0))
    if tile_size is None:
        xt, yt = xsiz, ysiz
        xto = yto = 0
    else:
        xt, yt = tile_size
        xto, yto = tile_origin if tile_origin is not None else (0, 0)
    ntx = _ceil_div(xsiz - xto, xt)
    nty = _ceil_div(ysiz - yto, yt)

    cod = _Cod.__new__(_Cod)
    cod.prog = prog
    cod.layers = layers
    cod.mct = 1 if mct else 0
    cod.levels = levels
    cod.xcb, cod.ycb = cb_exp
    cod.cbstyle = cbstyle | (0x20 if segsym else 0)
    cod.transform = 1 if reversible else 0
    cod.precincts = (
        list(precincts) if precincts else [(15, 15)] * (levels + 1)
    )
    cod.sop = sop
    cod.eph = eph

    qcd = _Qcd.__new__(_Qcd)
    qcd.guard = guard
    if qstyle is None:
        qstyle = 0 if reversible else 2
    qcd.style = qstyle

    # -- markers: SOC, SIZ, COD, QCD -----------------------------------------
    out = bytearray(b"\xff\x4f")

    def seg(marker: int, body: bytes) -> None:
        out.extend(struct.pack(">HH", marker, len(body) + 2) + body)

    siz = struct.pack(
        ">HIIIIIIIIH", 0, xsiz, ysiz, xo, yo, xt, yt, xto, yto, ncomp
    )
    for c in range(ncomp):
        siz += bytes([depth - 1, subs[c][0], subs[c][1]])
    seg(0xFF51, siz)

    scod = (1 if precincts else 0) | (2 if sop else 0) | (4 if eph else 0)
    cod_body = bytes(
        [scod, prog]
    ) + struct.pack(">H", layers) + bytes(
        [cod.mct, levels, cod.xcb - 2, cod.ycb - 2, cod.cbstyle,
         cod.transform]
    )
    if precincts:
        cod_body += bytes(px | (py << 4) for px, py in cod.precincts)
    seg(0xFF52, cod_body)

    if poc:
        poc_body = b"".join(
            struct.pack(">BBHBBB", rs, cs, lye, re_, ce, p)
            for rs, cs, lye, re_, ce, p in poc
        )
        seg(0xFF5F, poc_body)

    if roi:
        for c in range(ncomp):  # RGN, maxshift (Srgn=0), per component
            seg(0xFF5E, bytes([c, 0, roi]))

    # quantization values in band sequence order: LL, then per
    # resolution r=1..levels: HL, LH, HH (level nb = levels - r + 1)
    band_gains = [("LL", 0)] + [
        (o, g)
        for r in range(1, levels + 1)
        for o, g in (("HL", 1), ("LH", 1), ("HH", 2))
    ]
    band_levs = [levels] + [
        levels - r + 1 for r in range(1, levels + 1) for _ in range(3)
    ]
    deltas = []
    if qcd.style == 0:
        vals = []
        qbody = bytes([qcd.guard << 5])
        for (o, g), _lev in zip(band_gains, band_levs):
            eps = depth + g
            vals.append((eps, 0))
            qbody += bytes([eps << 3])
            deltas.append(1.0)
    elif qcd.style == 2:
        vals = []
        qbody = bytes([2 | (qcd.guard << 5)])
        for (o, g), _lev in zip(band_gains, band_levs):
            # fine quantizer: delta = 2^(Rb-eps) with eps = Rb + 4
            eps = depth + g + 4
            mu = 0
            vals.append((eps, mu))
            qbody += struct.pack(">H", (eps << 11) | mu)
            deltas.append(2.0 ** (-4))
    else:  # style 1: scalar derived from a single (eps, mu)
        eps0 = depth + 4
        vals = [(eps0, 0)]
        qbody = bytes([1 | (qcd.guard << 5)]) + struct.pack(
            ">H", eps0 << 11
        )
        for (o, g), lev in zip(band_gains, band_levs):
            eps = eps0 if o == "LL" else eps0 - levels + lev
            deltas.append((2.0 ** (depth + g - eps)))
    qcd.vals = vals
    seg(0xFF5C, qbody)

    # -- per-tile encode -----------------------------------------------------
    if ppm and ppt:
        raise ValueError("PPM and PPT are mutually exclusive")
    tile_blobs = []
    for q in range(nty):
        for p in range(ntx):
            isot = q * ntx + p
            tx0 = max(xto + p * xt, xo)
            tx1 = min(xto + (p + 1) * xt, xsiz)
            ty0 = max(yto + q * yt, yo)
            ty1 = min(yto + (q + 1) * yt, ysiz)
            tdata, hdrs = _encode_tile(
                comps, cod, qcd, deltas, depth, mct, reversible,
                tx0, tx1, ty0, ty1, subs, corigins,
                packed=ppm or ppt, poc=poc, roi=roi,
            )
            tile_blobs.append((isot, tdata, hdrs))
    if ppm:
        # one (Nppm, group) per tile-part; split the stream into small
        # PPM segments to exercise Zppm-ordered reassembly
        stream = b"".join(
            struct.pack(">I", len(h)) + h for _, _, h in tile_blobs
        )
        for z, off in enumerate(range(0, len(stream), 199)):
            seg(0xFF60, bytes([z]) + stream[off : off + 199])
    for isot, tdata, hdrs in tile_blobs:
        ppt_bytes = b""
        if ppt:
            for z, off in enumerate(range(0, len(hdrs), 199)):
                chunk = hdrs[off : off + 199]
                ppt_bytes += struct.pack(
                    ">HH", 0xFF61, len(chunk) + 3
                ) + bytes([z]) + chunk
        # Psot: SOT marker(2) + Lsot seg(10) + [PPT] + SOD(2) + data
        sot = struct.pack(
            ">HIBB", isot, 14 + len(ppt_bytes) + len(tdata), 0, 1
        )
        seg(0xFF90, sot)
        out += ppt_bytes + b"\xff\x93" + tdata
    out += b"\xff\xd9"
    cs = bytes(out)
    if not jp2:
        return cs
    return _wrap_jp2(cs, iw, ih, ncomp, depth)


def _encode_tile(
    comps, cod, qcd, deltas, depth, mct, reversible,
    tx0, tx1, ty0, ty1, subs, corigins, packed=False, poc=None, roi=None,
):
    levels = cod.levels
    # per-component tile rectangles on the component domain (B.3)
    tc_rects = [
        (
            _ceil_div(tx0, a), _ceil_div(tx1, a),
            _ceil_div(ty0, b), _ceil_div(ty1, b),
        )
        for a, b in subs
    ]
    tiles = [
        comps[c][
            tc_rects[c][2] - corigins[c][1] : tc_rects[c][3] - corigins[c][1],
            tc_rects[c][0] - corigins[c][0] : tc_rects[c][1] - corigins[c][0],
        ].astype(np.int64 if reversible else np.float64)
        for c in range(len(comps))
    ]
    # DC level shift + component transform
    half = 1 << (depth - 1)
    tiles = [t - half for t in tiles]
    if mct and len(tiles) >= 3:
        r, g, b = tiles[0], tiles[1], tiles[2]
        if reversible:  # RCT
            y0 = (r + 2 * g + b) >> 2
            u = b - g
            v = r - g
        else:  # ICT
            y0 = 0.299 * r + 0.587 * g + 0.114 * b
            u = -0.168736 * r - 0.331264 * g + 0.5 * b
            v = 0.5 * r - 0.418688 * g - 0.081312 * b
        tiles[0], tiles[1], tiles[2] = y0, u, v

    # per-component resolution/band structures (shared with the decoder)
    all_resolutions = []
    band_arrays = []  # per comp: {(r, orient): quantized int array}
    for c, t in enumerate(tiles):
        tcx0, tcx1, tcy0, tcy1 = tc_rects[c]
        resolutions = [
            _Resolution(r, levels, tcx0, tcx1, tcy0, tcy1, cod)
            for r in range(levels + 1)
        ]
        all_resolutions.append(resolutions)
        arrays = {}
        a = t
        u0, v0, u1, v1 = tcx0, tcy0, tcx1, tcy1
        coords = []
        for lev in range(1, levels + 1):
            coords.append((u0, u1, v0, v1))
            ll, hl, lh, hh = _sd_2d(a, u0, u1, v0, v1, reversible)
            r = levels - lev + 1
            arrays[(r, "HL")] = hl
            arrays[(r, "LH")] = lh
            arrays[(r, "HH")] = hh
            a = ll
            u0, v0 = _ceil_div(u0, 2), _ceil_div(v0, 2)
            u1, v1 = _ceil_div(u1, 2), _ceil_div(v1, 2)
        arrays[(0, "LL")] = a
        # quantize
        bi = 0
        for r, res in enumerate(resolutions):
            for b in res.bands:
                arr = arrays[(r, b.orient)]
                if reversible:
                    qarr = arr.astype(np.int64)
                else:
                    delta = deltas[bi]
                    qarr = (
                        np.sign(arr) * np.floor(np.abs(arr) / delta)
                    ).astype(np.int64)
                eps, mu = (
                    qcd.vals[bi] if qcd.style != 1 else qcd.vals[0]
                )
                if qcd.style == 1 and b.orient != "LL":
                    eps = qcd.vals[0][0] - levels + b.lev
                b.mb = eps + qcd.guard - 1
                if roi:
                    # maxshift ROI over a fixed deterministic mask —
                    # mixes ROI and background inside code-blocks
                    mask = (
                        np.indices(qarr.shape).sum(axis=0) % 3 == 0
                    )
                    bg = np.abs(qarr[~mask])
                    if bg.size and int(bg.max()) >= (1 << roi):
                        raise ValueError(
                            "roi shift too small for background"
                        )
                    qarr = qarr.copy()
                    qarr[mask] <<= roi
                    b.mb += roi
                b.coefs = qarr
                bi += 1
        band_arrays.append(arrays)

    # tier-1 encode all code-blocks, then emit packets over the full
    # (layer, resolution, component, precinct) progression
    layers = cod.layers
    maxres = levels + 1
    prec_states = {}  # (c, r, pidx) -> _PrecState
    for c in range(len(tiles)):
        for r in range(maxres):
            res = all_resolutions[c][r]
            for pidx, per_band in enumerate(res.precincts):
                prec_states[(c, r, pidx)] = _PrecState(
                    res, per_band, layers, cod.cbstyle
                )
    def build_order(prog, rs=0, re_=None, cs_=0, ce=None, lye=None):
        """Packet order for one progression, restricted to the POC-style
        sub-ranges res [rs, re_), comp [cs_, ce), layer [0, lye)."""
        hi_r = maxres if re_ is None else min(maxres, re_)
        hi_c = len(tiles) if ce is None else min(len(tiles), ce)
        nl = layers if lye is None else min(layers, lye)
        if prog == 0:  # LRCP
            return [
                (c, r, pidx, layer)
                for layer in range(nl)
                for r in range(rs, hi_r)
                for c in range(cs_, hi_c)
                for pidx in range(len(all_resolutions[c][r].precincts))
            ]
        if prog == 1:  # RLCP
            return [
                (c, r, pidx, layer)
                for r in range(rs, hi_r)
                for layer in range(nl)
                for c in range(cs_, hi_c)
                for pidx in range(len(all_resolutions[c][r].precincts))
            ]
        # Position-based orders (RPCL/PCRL/CPRL): sort every precinct by
        # its spatial anchor — the precinct origin mapped onto the tile
        # sample grid and clamped to the tile origin. This is a different
        # formulation than the decoder's B.12 grid walk, so lossless
        # roundtrips cross-check both against each other.
        keyed = []
        for c in range(cs_, hi_c):
            xr_, yr_ = subs[c]
            for r in range(rs, hi_r):
                res = all_resolutions[c][r]
                nb = levels - r
                for pidx in range(len(res.precincts)):
                    pi = pidx % res.npx
                    pj = pidx // res.npx
                    ax = max(
                        tx0,
                        (((res.x0 >> res.ppx) + pi) << (res.ppx + nb)) * xr_,
                    )
                    ay = max(
                        ty0,
                        (((res.y0 >> res.ppy) + pj) << (res.ppy + nb)) * yr_,
                    )
                    keyed.append((c, r, pidx, ax, ay))
        if prog == 2:  # RPCL: res > position > comp
            keyed.sort(key=lambda t: (t[1], t[4], t[3], t[0]))
        elif prog == 3:  # PCRL: position > comp > res
            keyed.sort(key=lambda t: (t[4], t[3], t[0], t[1]))
        elif prog == 4:  # CPRL: comp > position > res
            keyed.sort(key=lambda t: (t[0], t[4], t[3], t[1]))
        else:
            raise ValueError(f"unsupported progression {prog}")
        return [
            (c, r, pidx, layer)
            for c, r, pidx, _ax, _ay in keyed
            for layer in range(nl)
        ]

    if poc:
        order, seen = [], set()
        for rs, cs_, lye, re_, ce, p in poc:
            for t in build_order(p, rs, re_, cs_, ce, lye):
                if t not in seen:
                    seen.add(t)
                    order.append(t)
        if len(order) != len(build_order(cod.prog)):
            raise ValueError("POC entries do not cover every packet")
    else:
        order = build_order(cod.prog)
    body = bytearray()
    hdrs = bytearray()
    for c, r, pidx, layer in order:
        hdr, pkt = prec_states[(c, r, pidx)].emit_layer(layer, cod)
        if cod.sop:
            body += b"\xff\x91" + struct.pack(">HH", 4, 0)
        if packed:
            hdrs += hdr
        else:
            body += hdr
        body += pkt
    return bytes(body), bytes(hdrs)


class _PrecState:
    """Per-precinct packet-emission state carried across quality layers:
    tier-1 results, incremental inclusion/zero-bitplane tag trees, and
    per-code-block Lblock / data-offset / pass-plan bookkeeping.

    Layer plan: a code-block with data first appears in layer
    ``ci % layers`` (late inclusions exercise the decoder's deferred
    tag-tree thresholds) and spreads its coding passes evenly over the
    remaining layers. In the default style the single MQ codeword is
    byte-split proportionally to cumulative passes (legal — lengths are
    explicit in the packet headers, and tier-1 decodes the
    concatenation); under TERMALL/bypass the codeword segments are
    distributed whole, one group of consecutive segments per layer."""

    def __init__(self, res, per_band, layers: int, cbstyle: int):
        self.res = res
        self.per_band = per_band
        self.results = []  # per band: list over cbs of None | dict
        for bi, band in enumerate(res.bands):
            bp = per_band[bi]
            if bp.nw == 0:
                self.results.append([])
                continue
            results = []
            for ci, cb in enumerate(bp.cbs):
                sub = band.coefs[
                    cb.y0 - band.y0 : cb.y1 - band.y0,
                    cb.x0 - band.x0 : cb.x1 - band.x0,
                ]
                maxmag = int(np.max(np.abs(sub))) if sub.size else 0
                if maxmag == 0:
                    results.append(None)
                    continue
                numbps = maxmag.bit_length()
                zbp = band.mb - numbps
                if zbp < 0:
                    raise ValueError(
                        f"guard bits too small: mb={band.mb} "
                        f"numbps={numbps}"
                    )
                segs, npasses = _encode_cblk(
                    sub, numbps, band.orient, cbstyle
                )
                il = ci % layers
                nlay = layers - il
                if len(segs) == 1:
                    # default style: byte-split the single codeword;
                    # passes per contributing layer (first layers get
                    # the extras); zero-pass layers don't contribute
                    data, _ = segs[0]
                    base, extra = divmod(npasses, nlay)
                    plan_np = [
                        base + (1 if j < extra else 0)
                        for j in range(nlay)
                    ]
                    bounds, cum = [0], 0
                    for np_j in plan_np:
                        cum += np_j
                        bounds.append(len(data) * cum // npasses)
                    bounds[-1] = len(data)
                    plan = [
                        [(data[bounds[j] : bounds[j + 1]], plan_np[j])]
                        if plan_np[j]
                        else []
                        for j in range(nlay)
                    ]
                else:
                    # TERMALL/bypass: whole segments, contiguous
                    # near-even groups per layer
                    base, extra = divmod(len(segs), nlay)
                    plan, k = [], 0
                    for j in range(nlay):
                        cnt = base + (1 if j < extra else 0)
                        plan.append(segs[k : k + cnt])
                        k += cnt
                results.append(
                    {
                        "zbp": zbp,
                        "il": il,
                        "plan": plan,
                        "lblock": 3,
                        "included": False,
                    }
                )
            self.results.append(results)
        self.incl = []
        self.zbps = []
        for bi, band in enumerate(res.bands):
            bp = per_band[bi]
            results = self.results[bi]
            if bp.nw == 0:
                self.incl.append(None)
                self.zbps.append(None)
                continue
            self.incl.append(
                _TagTreeEnc(
                    bp.nw, bp.nh,
                    [
                        r["il"] if r is not None else layers
                        for r in results
                    ],
                )
            )
            self.zbps.append(
                _TagTreeEnc(
                    bp.nw, bp.nh,
                    [r["zbp"] if r is not None else 0 for r in results],
                )
            )

    def _contrib(self, r: dict, layer: int) -> list | None:
        """This block's layer contribution as [(bytes, npasses), ...]
        codeword-segment chunks, or None."""
        j = layer - r["il"]
        if j < 0 or j >= len(r["plan"]) or not r["plan"][j]:
            return None
        return r["plan"][j]

    def emit_layer(self, layer: int, cod) -> tuple[bytes, bytes]:
        """One packet for this layer -> (header bytes incl. EPH, body
        bytes); the caller interleaves or packs them (PPM/PPT)."""
        wr = _HdrWriter()
        chunks = []
        any_data = any(
            r is not None and self._contrib(r, layer) is not None
            for results in self.results
            for r in results
        )
        if not any_data:
            wr.bit(0)
            return wr.finish() + (b"\xff\x92" if cod.eph else b""), b""
        wr.bit(1)
        for bi, _band in enumerate(self.res.bands):
            bp = self.per_band[bi]
            if bp.nw == 0:
                continue
            results = self.results[bi]
            incl, zbps = self.incl[bi], self.zbps[bi]
            for ci, r in enumerate(results):
                x, y = ci % bp.nw, ci // bp.nw
                contrib = (
                    self._contrib(r, layer) if r is not None else None
                )
                if r is None or not r["included"]:
                    # first-inclusion signalling via the tag tree
                    incl.encode(wr, x, y, layer + 1)
                    if contrib is None:
                        continue
                    t = 1
                    while True:
                        zbps.encode(wr, x, y, t)
                        if zbps.known[0][y * bp.nw + x]:
                            break
                        t += 1
                    r["included"] = True
                else:
                    wr.bit(1 if contrib is not None else 0)
                    if contrib is None:
                        continue
                np_total = sum(p for _, p in contrib)
                _write_numpasses(wr, np_total)
                # one Lblock signalling covers every segment length in
                # this packet (B.10.7.1)
                while any(
                    len(d).bit_length() > r["lblock"] + p.bit_length() - 1
                    for d, p in contrib
                ):
                    wr.bit(1)
                    r["lblock"] += 1
                wr.bit(0)
                for d, p in contrib:
                    wr.bits(len(d), r["lblock"] + p.bit_length() - 1)
                    chunks.append(d)
        hdr = wr.finish()
        if cod.eph:
            hdr += b"\xff\x92"
        return hdr, b"".join(chunks)


def _wrap_jp2(cs: bytes, w: int, h: int, ncomp: int, depth: int) -> bytes:
    def box(tag: bytes, payload: bytes) -> bytes:
        return struct.pack(">I", len(payload) + 8) + tag + payload

    sig = box(b"jP  ", b"\x0d\x0a\x87\x0a")
    ftyp = box(b"ftyp", b"jp2 " + struct.pack(">I", 0) + b"jp2 ")
    ihdr = box(
        b"ihdr",
        struct.pack(">IIHBBBB", h, w, ncomp, depth - 1, 7, 0, 0),
    )
    colr = box(
        b"colr",
        bytes([1, 0, 0]) + struct.pack(">I", 16 if ncomp == 3 else 17),
    )
    jp2h = box(b"jp2h", ihdr + colr)
    return sig + ftyp + jp2h + box(b"jp2c", cs)
