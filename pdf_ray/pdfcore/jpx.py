"""JPEG 2000 Part-1 decoder (ISO/IEC 15444-1 / ITU-T T.800) from scratch.

The reference ``todo!()``s JPXDecode entirely (src/filter/mod.rs:54);
this implements the codestream subset that PDF-embedded JPX images use:

- JP2 container boxes (jP/ftyp/jp2h/jp2c) and raw codestreams
- main/tile-part headers: SIZ, COD, COC, QCD, QCC, COM, multiple tiles
  and tile-parts, PPM/PPT packed packet headers (Z-ordered segment
  reassembly, one Nppm group per tile-part); TLM/PLM/PLT/CRG skipped;
  RGN rejected
- tier-2: packet headers with tag trees (inclusion + zero-bitplanes),
  Lblock, single-segment lengths, precincts, SOP/EPH markers,
  all five progression orders (LRCP/RLCP/RPCL/PCRL/CPRL — the
  position-based walks per B.12.1.3-5), multiple quality layers (per-
  code-block segments accumulate across layers into one MQ codeword),
  POC progression-order changes (main + tile-part headers, packet
  dedupe across overlapping progression segments per B.12)
- tier-1: EBCOT block decoding — significance-propagation, magnitude-
  refinement and cleanup passes with the T.88/T.800 MQ coder (the two
  specs define the identical coder), run-length mode, and every Part-1
  code-block style: selective arithmetic bypass (raw SPP/MRP segments
  with 0xFF unstuffing), per-pass context reset, TERMALL per-pass
  termination, vertically-causal contexts, predictable termination
  (decode no-op), segmentation symbols. Tier-1 runs in the compiled
  kernel (mq.c, loaded by mq.py), which writes each block's signed
  integers straight into its band; everything else here is Python
- dequantization: reversible (no quant), scalar derived and expounded
- inverse DWT: 5/3 reversible (exact integer lifting) and 9/7
  irreversible (scaling convention validated against the published
  analysis taps: forward low x= 1/K, high x= K, K=1.230174104914001)
- multiple-component transforms RCT (reversible) and ICT (YCbCr)

- component subsampling (XRsiz/YRsiz per B.3: tile-component rectangles
  divided per component, position-based walks stepped by
  XRsiz*2^(PPx+nb), sample-replication upsample onto the image grid)
- maxshift ROI (RGN, Srgn=0 per E.1: SPrgn extra bitplanes; any decoded
  magnitude >= 2^SPrgn is ROI and is scaled back down — no mask needed)

Out of scope (explicit PdfParseError, row-level poison like JBIG2's
unsupported variants): >38-bit precision (the T.800 Ssiz ceiling; the
int64/float64 sample path covers 1-38 bit exactly) and the reserved
non-maxshift RGN styles.

Coordinate conventions follow T.800 Annex B verbatim: all rectangles are
half-open [x0, x1) x [y0, y1) on the absolute reference grid; band,
precinct and code-block partitions are anchored at 0, so odd origins
exercise the ceil/floor parity paths (tested over many origins).
"""

from __future__ import annotations

import struct

import numpy as np

from .mq import ffi, lib
from .objects import PdfParseError

# Decode budget, same rationale as jbig2.MAX_REGION_PIXELS: a corrupt SIZ
# must not allocate gigabytes or burn minutes before failing the row.
MAX_JPX_PIXELS = 16_000_000


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class _HdrReader:
    """Packet-header bit reader with 0xFF bit-stuffing (B.10.1): a byte
    following 0xFF carries only 7 payload bits (MSB is a stuffed 0)."""

    __slots__ = ("d", "pos", "acc", "n", "last")

    def __init__(self, data: bytes, pos: int):
        self.d = data
        self.pos = pos
        self.acc = 0
        self.n = 0
        self.last = 0

    def bit(self) -> int:
        if self.n == 0:
            if self.pos >= len(self.d):
                raise PdfParseError("JPX: packet header past end of data")
            b = self.d[self.pos]
            self.pos += 1
            self.n = 7 if self.last == 0xFF else 8
            self.acc = b
            self.last = b
        self.n -= 1
        return (self.acc >> self.n) & 1

    def bits(self, k: int) -> int:
        v = 0
        for _ in range(k):
            v = (v << 1) | self.bit()
        return v

    def align(self) -> None:
        """End-of-header alignment: drop in-byte bits; a header whose
        final byte is 0xFF is followed by a stuffed 0x00 byte that
        belongs to the header (B.10.1)."""
        self.n = 0
        if self.last == 0xFF:
            self.pos += 1
            self.last = 0


class _TagTree:
    """T.800 B.10.2 tag tree decoder over a w x h leaf grid."""

    def __init__(self, w: int, h: int):
        self.dims: list[tuple[int, int]] = []
        while True:
            self.dims.append((w, h))
            if w <= 1 and h <= 1:
                break
            w = _ceil_div(w, 2)
            h = _ceil_div(h, 2)
        self.low = [[0] * (dw * dh) for dw, dh in self.dims]
        self.known = [[False] * (dw * dh) for dw, dh in self.dims]

    def _path(self, x: int, y: int) -> list[tuple[int, int]]:
        p = []
        for lvl, (dw, _dh) in enumerate(self.dims):
            p.append((lvl, y * dw + x))
            x >>= 1
            y >>= 1
        return p  # leaf .. root

    def decode(self, rd: _HdrReader, x: int, y: int, threshold: int) -> bool:
        """Advance the tree state; True iff leaf value < threshold."""
        path = self._path(x, y)
        low = 0
        for lvl, idx in reversed(path):
            if self.low[lvl][idx] < low:
                self.low[lvl][idx] = low
            while not self.known[lvl][idx] and self.low[lvl][idx] < threshold:
                if rd.bit():
                    self.known[lvl][idx] = True
                else:
                    self.low[lvl][idx] += 1
            low = self.low[lvl][idx]
            if not self.known[lvl][idx]:
                return False  # subtree minimum already >= threshold
        lvl, idx = path[0]
        return self.low[lvl][idx] < threshold

    def value(self, rd: _HdrReader, x: int, y: int) -> int:
        """Fully resolve a leaf (zero-bitplanes use: raise threshold
        until the leaf is known) and return its value."""
        t = 1
        while not self.decode(rd, x, y, t):
            t += 1
            if t > 128:
                raise PdfParseError("JPX: runaway tag tree value")
        lvl, idx = self._path(x, y)[0]
        return self.low[lvl][idx]


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


def _kernel_zc_tables() -> dict[str, object]:
    """The zero-coding tables re-indexed by the kernel's incremental
    neighbourhood count nb = h | v << 2 | d << 4 (h, v <= 2, d <= 4)."""
    tabs = {}
    for orient, zc in _build_zc_tables().items():
        tab = [0] * 128
        for h in range(3):
            for v in range(3):
                for d in range(5):
                    tab[h | v << 2 | d << 4] = zc[h * 15 + v * 5 + d]
        tabs[orient] = ffi.new("uint8_t[128]", tab)
    return tabs


_ZC_NB = _kernel_zc_tables()


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


def _decode_cblk(
    segs: list,
    w: int,
    h: int,
    numbps: int,
    npasses: int,
    orient: str,
    cbstyle: int,
    roi: int,
    out: np.ndarray,
    y0: int,
    x0: int,
) -> None:
    """EBCOT tier-1 decode of one code-block (D.3/D.4) into
    ``out[y0:y0+h, x0:x0+w]`` (a C-contiguous int64 band) as signed
    integers, with maxshift ROI magnitudes (>= 2**roi) scaled back down.
    ``segs`` is the list of codeword segments as (bytes, npasses) — one
    segment in the default code-block style, several under TERMALL/
    bypass. Honors cbstyle bits: 0x01 selective bypass (raw SPP/MRP),
    0x02 context reset per pass, 0x04 TERMALL, 0x08 vertically-causal
    contexts, 0x10 predictable termination (encoder-side only — nothing
    to do), 0x20 segmentation symbols. Runs in the kernel (mq.c)."""
    rows, stride = out.shape
    if not (
        out.dtype == np.int64 and out.flags.c_contiguous and x0 >= 0
        and y0 >= 0 and x0 + w <= stride and y0 + h <= rows
    ):
        raise ValueError("JPX: code-block outside its int64 band")
    data = b"".join(seg[0] for seg in segs)
    rc = lib.t1_decode_cblk(
        ffi.from_buffer("uint8_t[]", data), [len(seg[0]) for seg in segs],
        len(segs), w, h, numbps, npasses, _ZC_NB[orient], cbstyle, roi,
        ffi.from_buffer("int64_t[]", out) + (y0 * stride + x0), stride,
    )
    if rc == -1:
        raise PdfParseError("JPX: segmentation symbol mismatch")
    if rc == -2:
        # a magnitude bit at bitplane >= 63 (numbps > 63): the error the
        # int64 conversion of the arbitrary-precision Python magnitudes
        # gave before tier-1 was compiled
        raise OverflowError("Python int too large to convert to C long")
    if rc == -3:
        raise MemoryError("JPX: code-block buffers")


# -- inverse DWT (Annex F) ---------------------------------------------------

_K97 = 1.230174104914001
_A97 = -1.586134342059924
_B97 = -0.052980118572961
_G97 = 0.882911075530934
_D97 = 0.443506852043971
_EXT = 4  # symmetric-extension margin (covers the 4 lifting steps of 9/7)


def _reflect(j: int, i0: int, i1: int) -> int:
    """Whole-sample symmetric extension of [i0, i1) (F.3.7)."""
    n = i1 - i0
    if n == 1:
        return i0
    per = 2 * (n - 1)
    t = (j - i0) % per
    if t >= n:
        t = per - t
    return i0 + t


def _sr_1d_rows(A: np.ndarray, i0: int, reversible: bool) -> np.ndarray:
    """Inverse 1D subband recomposition applied to every row of ``A``,
    whose columns hold absolute indices [i0, i0+A.shape[1])."""
    n = A.shape[1]
    if n == 0:
        return A
    if n == 1:
        # single-sample interval (F.3.4): identity at even origin; the
        # matched forward transform doubles a lone odd sample
        if i0 % 2:
            return (A >> 1) if reversible else (A * 0.5)
        return A.copy()
    i1 = i0 + n
    m = _EXT
    take = np.array(
        [_reflect(j, i0, i1) - i0 for j in range(i0 - m, i1 + m)], np.intp
    )
    E = A[:, take].astype(np.int64 if reversible else np.float64)
    L = E.shape[1]
    s = i0 - m  # absolute index of E[:, 0]
    ev0 = 0 if s % 2 == 0 else 1  # local offset of absolute-even samples
    od0 = 1 - ev0
    # updatable positions of each parity within [1, L-1); each lifting
    # step shrinks the valid region by one, the margin m=4 covers the
    # four steps of 9/7 so locals [m, L-m) come out exact
    ev = slice(ev0 if ev0 >= 1 else 2, L - 1, 2)
    od = slice(od0 if od0 >= 1 else 2, L - 1, 2)

    def nbrs(sl: slice) -> tuple[slice, slice]:
        return (
            slice(sl.start - 1, sl.stop - 1, 2),
            slice(sl.start + 1, sl.stop + 1, 2),
        )

    if reversible:
        lo, hi = nbrs(ev)
        E[:, ev] -= (E[:, lo] + E[:, hi] + 2) >> 2
        lo, hi = nbrs(od)
        E[:, od] += (E[:, lo] + E[:, hi]) >> 1
    else:
        E[:, ev0::2] *= _K97
        E[:, od0::2] *= 1.0 / _K97
        for coef, sl in ((-_D97, ev), (-_G97, od), (-_B97, ev), (-_A97, od)):
            lo, hi = nbrs(sl)
            E[:, sl] += coef * (E[:, lo] + E[:, hi])
    return E[:, m : m + n]


def _sr_2d(
    ll: np.ndarray,
    hl: np.ndarray,
    lh: np.ndarray,
    hh: np.ndarray,
    u0: int,
    u1: int,
    v0: int,
    v1: int,
    reversible: bool,
) -> np.ndarray:
    """2D_SR (F.3.2): interleave the four bands onto the resolution grid
    [u0,u1) x [v0,v1), then inverse-filter rows and columns."""
    dtype = np.int64 if reversible else np.float64
    Y = np.zeros((v1 - v0, u1 - u0), dtype)
    re = v0 % 2  # local row offset of absolute-even rows
    ce = u0 % 2
    Y[re::2, ce::2] = ll
    Y[re::2, 1 - ce :: 2] = hl
    Y[1 - re :: 2, ce::2] = lh
    Y[1 - re :: 2, 1 - ce :: 2] = hh
    Y = _sr_1d_rows(Y, u0, reversible)
    Y = _sr_1d_rows(np.ascontiguousarray(Y.T), v0, reversible).T
    return Y


# -- codestream structures ---------------------------------------------------


class _Cod:
    """Coding-style parameters (COD/COC)."""

    __slots__ = (
        "prog", "layers", "mct", "levels", "xcb", "ycb", "cbstyle",
        "transform", "precincts", "sop", "eph",
    )

    def copy(self) -> "_Cod":
        c = _Cod.__new__(_Cod)
        for s in self.__slots__:
            setattr(c, s, getattr(self, s))
        return c


class _Qcd:
    """Quantization parameters (QCD/QCC)."""

    __slots__ = ("style", "guard", "vals")


class _CodeBlock:
    __slots__ = (
        "x0", "x1", "y0", "y1", "included", "lblock", "zbp", "npasses",
        "segs",
    )

    def __init__(self, x0, x1, y0, y1):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.included = False
        self.lblock = 3
        self.zbp = 0
        self.npasses = 0
        # codeword segments as [bytearray, npasses]; exactly one in the
        # default code-block style, several under TERMALL/bypass
        self.segs = []


class _BandPrecinct:
    __slots__ = ("cbs", "nw", "nh", "incl", "zbps")

    def __init__(self, band, px0, px1, py0, py1, cbw, cbh):
        x0 = max(band.x0, px0)
        x1 = min(band.x1, px1)
        y0 = max(band.y0, py0)
        y1 = min(band.y1, py1)
        if x0 >= x1 or y0 >= y1:
            self.nw = self.nh = 0
            self.cbs = []
            self.incl = self.zbps = None
            return
        ci0, ci1 = x0 // cbw, _ceil_div(x1, cbw)
        cj0, cj1 = y0 // cbh, _ceil_div(y1, cbh)
        self.nw, self.nh = ci1 - ci0, cj1 - cj0
        self.cbs = [
            _CodeBlock(
                max(x0, ci * cbw), min(x1, (ci + 1) * cbw),
                max(y0, cj * cbh), min(y1, (cj + 1) * cbh),
            )
            for cj in range(cj0, cj1)
            for ci in range(ci0, ci1)
        ]
        self.incl = _TagTree(self.nw, self.nh)
        self.zbps = _TagTree(self.nw, self.nh)


class _Band:
    __slots__ = ("orient", "x0", "x1", "y0", "y1", "gain", "lev", "coefs",
                 "mb", "delta")

    def __init__(self, orient, x0, x1, y0, y1, lev):
        self.orient = orient
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.gain = {"LL": 0, "HL": 1, "LH": 1, "HH": 2}[orient]
        self.lev = lev
        self.coefs = None
        self.mb = 0
        self.delta = 1.0


def _band_rect(tcx0, tcx1, tcy0, tcy1, nb, xob, yob):
    if nb == 0:  # zero decomposition levels: LL is the tile itself
        return tcx0, tcx1, tcy0, tcy1
    sh = 1 << nb
    half = 1 << (nb - 1)
    return (
        _ceil_div(tcx0 - half * xob, sh), _ceil_div(tcx1 - half * xob, sh),
        _ceil_div(tcy0 - half * yob, sh), _ceil_div(tcy1 - half * yob, sh),
    )


class _Resolution:
    __slots__ = ("r", "x0", "x1", "y0", "y1", "ppx", "ppy", "bands",
                 "npx", "npy", "precincts")

    def __init__(self, r, n_levels, tcx0, tcx1, tcy0, tcy1, cod):
        self.r = r
        sh = n_levels - r
        self.x0 = _ceil_div(tcx0, 1 << sh)
        self.x1 = _ceil_div(tcx1, 1 << sh)
        self.y0 = _ceil_div(tcy0, 1 << sh)
        self.y1 = _ceil_div(tcy1, 1 << sh)
        self.ppx, self.ppy = cod.precincts[r]
        if r == 0:
            self.bands = [
                _Band(
                    "LL",
                    *_band_rect(tcx0, tcx1, tcy0, tcy1, n_levels, 0, 0),
                    n_levels,
                )
            ]
        else:
            nb = n_levels - r + 1
            self.bands = [
                _Band(o, *_band_rect(tcx0, tcx1, tcy0, tcy1, nb, xo, yo), nb)
                for o, xo, yo in (("HL", 1, 0), ("LH", 0, 1), ("HH", 1, 1))
            ]
        if self.x1 > self.x0 and self.y1 > self.y0:
            self.npx = _ceil_div(self.x1, 1 << self.ppx) - (
                self.x0 >> self.ppx
            )
            self.npy = _ceil_div(self.y1, 1 << self.ppy) - (
                self.y0 >> self.ppy
            )
        else:
            self.npx = self.npy = 0
        # code-block size clamped to the precinct (B.7)
        xcb = min(cod.xcb, self.ppx - 1 if r else self.ppx)
        ycb = min(cod.ycb, self.ppy - 1 if r else self.ppy)
        cbw, cbh = 1 << xcb, 1 << ycb
        self.precincts = []
        for pj in range(self.npy):
            for pi in range(self.npx):
                # precinct rect on the resolution grid, then mapped into
                # each band's domain (halved for r>0)
                rx0 = ((self.x0 >> self.ppx) + pi) << self.ppx
                ry0 = ((self.y0 >> self.ppy) + pj) << self.ppy
                rx1, ry1 = rx0 + (1 << self.ppx), ry0 + (1 << self.ppy)
                per_band = []
                for b in self.bands:
                    if r == 0:
                        bx0, bx1, by0, by1 = rx0, rx1, ry0, ry1
                    else:
                        bx0, bx1, by0, by1 = (
                            rx0 >> 1, rx1 >> 1, ry0 >> 1, ry1 >> 1,
                        )
                    per_band.append(
                        _BandPrecinct(b, bx0, bx1, by0, by1, cbw, cbh)
                    )
                self.precincts.append(per_band)


def _numpasses(rd: _HdrReader) -> int:
    if not rd.bit():
        return 1
    if not rd.bit():
        return 2
    v = rd.bits(2)
    if v < 3:
        return 3 + v
    v = rd.bits(5)
    if v < 31:
        return 6 + v
    return 37 + rd.bits(7)


def _grid_positions(lo: int, hi: int, steps) -> list[int]:
    """Candidate packet positions on [lo, hi): the tile origin plus every
    multiple of each precinct step (T.800 B.12's position walks only fire
    at these points, so iterating them is equivalent to the spec's
    per-sample loops without the O(samples) cost). A step is
    XRsiz_c * 2**(PPx + nb) — not a power of two when the component is
    subsampled."""
    pos = {lo}
    for step in set(steps):
        first = ((lo + step - 1) // step) * step
        pos.update(range(first, hi, step))
    return sorted(p for p in pos if lo <= p < hi)


def _precinct_at(x, y, tx0, ty0, res, nb, xr=1, yr=1):
    """B.12.1.3 inclusion test: does reference-grid position (x, y)
    anchor a precinct of resolution ``res`` (nb = levels - r) for a
    component subsampled by (xr, yr)? Returns the precinct index or
    None. The precinct grid on the reference grid has period
    xr * 2**(PPx + nb); the tile-origin special case fires when the
    first precinct is not grid-aligned (res.x0 not a PPx multiple)."""
    stepx = xr << (res.ppx + nb)
    stepy = yr << (res.ppy + nb)
    if not (
        x % stepx == 0
        or (x == tx0 and res.x0 % (1 << res.ppx) != 0)
    ):
        return None
    if not (
        y % stepy == 0
        or (y == ty0 and res.y0 % (1 << res.ppy) != 0)
    ):
        return None
    pi = x // stepx - (res.x0 >> res.ppx)
    pj = y // stepy - (res.y0 >> res.ppy)
    if not (0 <= pi < res.npx and 0 <= pj < res.npy):
        return None
    return pj * res.npx + pi


def _packet_order(comps, cods, layers, prog, rs=0, re_=None, cs=0, ce=None,
                  rect=None, subs=None):
    """Packet sequence for one tile as (c, r, pidx, layer) tuples, in
    the codestream order mandated by the progression (T.800 B.12.1.1-5).
    ``comps[c]`` is the per-component resolution list (its length may
    differ per component via COC levels). The optional bounds restrict
    resolutions to [rs, re_), components to [cs, ce) and layers to
    [0, layers) — the sub-ranges a POC entry names (B.12.1.2).
    ``rect`` is the tile rectangle (tx0, tx1, ty0, ty1) on the reference
    grid and ``subs`` the per-component (XRsiz, YRsiz) — both needed by
    the position-based walks when components are subsampled."""
    ncomp = len(comps)
    if subs is None:
        subs = [(1, 1)] * ncomp
    maxres = max(len(r_) for r_ in comps)
    if re_ is not None:
        maxres = min(maxres, re_)
    if ce is not None:
        ncomp = min(ncomp, ce)
    if prog == 0:  # LRCP: layer > res > comp > precinct
        return [
            (c, r, p, layer)
            for layer in range(layers)
            for r in range(rs, maxres)
            for c in range(cs, ncomp)
            if r < len(comps[c])
            for p in range(len(comps[c][r].precincts))
        ]
    if prog == 1:  # RLCP: res > layer > comp > precinct
        return [
            (c, r, p, layer)
            for r in range(rs, maxres)
            for layer in range(layers)
            for c in range(cs, ncomp)
            if r < len(comps[c])
            for p in range(len(comps[c][r].precincts))
        ]
    # Position-based orders walk the tile on the reference grid; each
    # component's precinct period is XRsiz_c * 2**(PPx + nb).
    if rect is not None:
        tx0, tx1, ty0, ty1 = rect
    else:
        tx0, tx1 = comps[0][-1].x0, comps[0][-1].x1
        ty0, ty1 = comps[0][-1].y0, comps[0][-1].y1
    out = []
    if prog == 2:  # RPCL: res > position > comp > layer
        for r in range(rs, maxres):
            crs = [
                (c, comps[c][r], len(comps[c]) - 1 - r, subs[c])
                for c in range(cs, ncomp)
                if r < len(comps[c])
            ]
            ys = _grid_positions(
                ty0, ty1, [yr << (res.ppy + nb) for _, res, nb, (_, yr) in crs]
            )
            xs = _grid_positions(
                tx0, tx1, [xr << (res.ppx + nb) for _, res, nb, (xr, _) in crs]
            )
            for y in ys:
                for x in xs:
                    for c, res, nb, (xr, yr) in crs:
                        p = _precinct_at(x, y, tx0, ty0, res, nb, xr, yr)
                        if p is not None:
                            out.extend(
                                (c, r, p, la) for la in range(layers)
                            )
        return out
    if prog == 3:  # PCRL: position > comp > res > layer
        sty, stx = [], []
        for c in range(cs, ncomp):
            xr, yr = subs[c]
            for r in range(rs, min(len(comps[c]), maxres)):
                res = comps[c][r]
                nb = len(comps[c]) - 1 - r
                sty.append(yr << (res.ppy + nb))
                stx.append(xr << (res.ppx + nb))
        for y in _grid_positions(ty0, ty1, sty):
            for x in _grid_positions(tx0, tx1, stx):
                for c in range(cs, ncomp):
                    xr, yr = subs[c]
                    for r in range(rs, min(len(comps[c]), maxres)):
                        res = comps[c][r]
                        nb = len(comps[c]) - 1 - r
                        p = _precinct_at(x, y, tx0, ty0, res, nb, xr, yr)
                        if p is not None:
                            out.extend(
                                (c, r, p, la) for la in range(layers)
                            )
        return out
    if prog == 4:  # CPRL: comp > position > res > layer
        for c in range(cs, ncomp):
            xr, yr = subs[c]
            rr = range(rs, min(len(comps[c]), maxres))
            steps = [
                (yr << (comps[c][r].ppy + len(comps[c]) - 1 - r),
                 xr << (comps[c][r].ppx + len(comps[c]) - 1 - r))
                for r in rr
            ]
            ys = _grid_positions(ty0, ty1, [s[0] for s in steps])
            xs = _grid_positions(tx0, tx1, [s[1] for s in steps])
            for y in ys:
                for x in xs:
                    for r in rr:
                        res = comps[c][r]
                        nb = len(comps[c]) - 1 - r
                        p = _precinct_at(x, y, tx0, ty0, res, nb, xr, yr)
                        if p is not None:
                            out.extend(
                                (c, r, p, la) for la in range(layers)
                            )
        return out
    raise PdfParseError(f"JPX: unsupported progression order {prog}")


def _parse_poc(body: bytes, ncomp: int) -> list[tuple]:
    """Parse a POC marker body into (RSpoc, CSpoc, LYEpoc, REpoc, CEpoc,
    Ppoc) tuples (T.800 A.6.6). Component fields are 8-bit when the image
    has fewer than 257 components, else 16-bit."""
    csz = 1 if ncomp < 257 else 2
    step = 5 + 2 * csz
    if not body or len(body) % step:
        raise PdfParseError("JPX: bad POC length")
    entries = []
    for off in range(0, len(body), step):
        rs = body[off]
        if csz == 1:
            cs_, lye, re_, ce = struct.unpack(
                ">BHBB", body[off + 1 : off + 6]
            )
        else:
            cs_, lye, re_, ce = struct.unpack(
                ">HHBH", body[off + 1 : off + 7]
            )
        p = body[off + step - 1]
        if p > 4:
            raise PdfParseError(f"JPX: POC progression {p} out of range")
        if re_ <= rs or ce <= cs_ or lye == 0:
            raise PdfParseError("JPX: empty POC progression range")
        entries.append((rs, cs_, lye, re_, ce, p))
    return entries


class _TileDecoder:
    """One tile: packet parsing + per-component reconstruction."""

    def __init__(self, siz, cods, qcds, tx0, tx1, ty0, ty1, rgns=None):
        self.siz = siz
        self.cods = cods  # per component
        self.qcds = qcds
        self.rgns = rgns or [0] * siz["ncomp"]  # per-comp SPrgn (E.1)
        self.tx0, self.tx1, self.ty0, self.ty1 = tx0, tx1, ty0, ty1
        self.data = bytearray()
        self.ppt = []  # (Zppt, bytes) packed-header segments (PPT)
        self.pkthdr = None  # packed packet-header stream (PPM/PPT)
        self.poc = None  # progression-order changes (A.6.6), else None
        self.subs = list(zip(siz["xr"], siz["yr"]))
        self.comps = []
        self.tc_rects = []  # per comp: (tcx0, tcx1, tcy0, tcy1), B.3
        for c in range(siz["ncomp"]):
            cod = cods[c]
            n = cod.levels
            xr_, yr_ = self.subs[c]
            tc = (
                _ceil_div(tx0, xr_), _ceil_div(tx1, xr_),
                _ceil_div(ty0, yr_), _ceil_div(ty1, yr_),
            )
            self.tc_rects.append(tc)
            resolutions = [
                _Resolution(r, n, tc[0], tc[1], tc[2], tc[3], cod)
                for r in range(n + 1)
            ]
            self.comps.append(resolutions)

    def decode_packets(self) -> None:
        data = bytes(self.data)
        pos = 0
        if self.ppt:
            # PPT: headers are the Zppt-ordered segment concatenation
            self.pkthdr = b"".join(
                b for _, b in sorted(self.ppt, key=lambda t: t[0])
            )
        hdr = bytes(self.pkthdr) if self.pkthdr is not None else None
        hpos = 0
        cod0 = self.cods[0]
        if self.poc:
            # POC overrides the COD progression: the codestream is the
            # concatenation of the named progression segments, each
            # packet appearing exactly once (first segment that names
            # it wins, B.12). Later segments re-cover earlier ranges;
            # the seen-set drops those repeats.
            rect = (self.tx0, self.tx1, self.ty0, self.ty1)
            order, seen = [], set()
            for rs, cs_, lye, re_, ce, p in self.poc:
                for t in _packet_order(
                    self.comps, self.cods, min(lye, cod0.layers), p,
                    rs, re_, cs_, ce, rect=rect, subs=self.subs,
                ):
                    if t not in seen:
                        seen.add(t)
                        order.append(t)
        else:
            order = _packet_order(
                self.comps, self.cods, cod0.layers, cod0.prog,
                rect=(self.tx0, self.tx1, self.ty0, self.ty1),
                subs=self.subs,
            )
        for c, r, pidx, layer in order:
            res = self.comps[c][r]
            cod = self.cods[c]
            pos, hpos = self._read_packet(
                data, pos, hdr, hpos, res, cod, layer, pidx
            )

    def _read_packet(self, data, pos, hdr, hpos, res, cod, layer, pidx):
        """Read one packet. Header bits come from the packed-header
        stream ``hdr`` when PPM/PPT is in use, else inline from
        ``data``; SOP markers and packet bodies always live in
        ``data``, EPH in whichever stream holds the headers (A.8)."""
        if cod.sop:
            if data[pos : pos + 2] == b"\xff\x91":
                pos += 6  # SOP marker + Lsop(4 bytes incl Nsop)
        packed = hdr is not None
        rd = _HdrReader(hdr if packed else data, hpos if packed else pos)
        incl_cbs = []
        if rd.bit():  # non-empty packet
            for bi, band in enumerate(res.bands):
                bp = res.precincts[pidx][bi]
                if bp.nw == 0:
                    continue
                for ci, cb in enumerate(bp.cbs):
                    x, y = ci % bp.nw, ci // bp.nw
                    if not cb.included:
                        inc = bp.incl.decode(rd, x, y, layer + 1)
                    else:
                        inc = rd.bit()
                    if not inc:
                        continue
                    if not cb.included:
                        cb.zbp = bp.zbps.value(rd, x, y)
                        cb.included = True
                    np_new = _numpasses(rd)
                    while rd.bit():
                        cb.lblock += 1
                    # split this packet's passes at codeword-segment
                    # boundaries (style-deterministic): one length per
                    # segment chunk (B.10.7)
                    t0 = cb.npasses
                    chunks = []
                    cnt = 0
                    for t in range(t0, t0 + np_new):
                        cnt += 1
                        if _seg_end(t, cod.cbstyle):
                            chunks.append(cnt)
                            cnt = 0
                    if cnt:
                        chunks.append(cnt)
                    lens = []
                    for ch in chunks:
                        nbits = cb.lblock + ch.bit_length() - 1
                        lens.append((ch, rd.bits(nbits)))
                    cb.npasses += np_new
                    incl_cbs.append((cb, t0, lens))
        rd.align()
        end = rd.pos
        if cod.eph:
            src = hdr if packed else data
            if src[end : end + 2] == b"\xff\x92":
                end += 2
        if packed:
            hpos = end
        else:
            pos = end
        for cb, t0, lens in incl_cbs:
            cont = t0 > 0 and not _seg_end(t0 - 1, cod.cbstyle)
            for i, (ch, seglen) in enumerate(lens):
                if pos + seglen > len(data):
                    raise PdfParseError("JPX: packet body past end of data")
                chunk = data[pos : pos + seglen]
                pos += seglen
                if i == 0 and cont and cb.segs:
                    cb.segs[-1][0] += chunk
                    cb.segs[-1][1] += ch
                else:
                    cb.segs.append([bytearray(chunk), ch])
        return pos, hpos

    def reconstruct(self, c: int) -> np.ndarray:
        """Tier-1 decode + dequantize + inverse DWT one tile-component;
        returns float64/int64 samples on [ty0,ty1) x [tx0,tx1)."""
        cod = self.cods[c]
        qcd = self.qcds[c]
        reversible = cod.transform == 1
        depth = self.siz["depth"][c]
        resolutions = self.comps[c]
        n = cod.levels
        # quantization exponents per band in codestream order:
        # LL, then per level (HL, LH, HH) from level n down to 1
        band_seq = []
        for res in resolutions:
            band_seq.extend(res.bands)
        for i, b in enumerate(band_seq):
            if qcd.style == 1:
                # scalar derived (E.1.1): eps_b = eps_0 - n + nb
                eps0, mu = qcd.vals[0]
                eps = eps0 if b.orient == "LL" else eps0 - n + b.lev
            else:
                if i >= len(qcd.vals):
                    raise PdfParseError("JPX: QCD has too few subband values")
                eps, mu = qcd.vals[i]
            mb = eps + qcd.guard - 1
            if mb <= 0 or mb > 40:
                raise PdfParseError(f"JPX: bad Mb={mb}")
            # maxshift ROI (E.1): scaled ROI coefficients occupy SPrgn
            # extra bitplanes above every background coefficient
            mb += self.rgns[c]
            if mb > 60:
                raise PdfParseError("JPX: Mb too large with RGN shift")
            if reversible:
                delta = 1.0
            else:
                rb = depth + b.gain
                delta = (2.0 ** (rb - eps)) * (1.0 + mu / 2048.0)
            # tier-1 writes quantized integers; the irreversible
            # midpoint x delta step runs once per band below
            b.coefs = np.zeros((b.y1 - b.y0, b.x1 - b.x0), np.int64)
            b.mb = mb
            b.delta = delta
        # tier-1 every included code-block
        for res in resolutions:
            for per_band in res.precincts:
                for bi, bp in enumerate(per_band):
                    band = res.bands[bi]
                    for cb in bp.cbs:
                        if not cb.included or cb.npasses == 0:
                            continue
                        numbps = band.mb - cb.zbp
                        if numbps <= 0:
                            continue
                        _decode_cblk(
                            cb.segs, cb.x1 - cb.x0, cb.y1 - cb.y0, numbps,
                            cb.npasses, band.orient, cod.cbstyle,
                            self.rgns[c], band.coefs, cb.y0 - band.y0,
                            cb.x0 - band.x0,
                        )
        if not reversible:
            # midpoint reconstruction of the quantized magnitudes
            for b in band_seq:
                q = b.coefs
                b.coefs = q + np.sign(q) * 0.5
                b.coefs *= b.delta
        # inverse DWT
        a = resolutions[0].bands[0].coefs
        for r in range(1, n + 1):
            res = resolutions[r]
            hl, lh, hh = (b.coefs for b in res.bands)
            a = _sr_2d(
                a, hl, lh, hh, res.x0, res.x1, res.y0, res.y1, reversible
            )
        return a


def _parse_cod(body: bytes) -> _Cod:
    cod = _Cod.__new__(_Cod)
    scod = body[0]
    cod.sop = bool(scod & 2)
    cod.eph = bool(scod & 4)
    cod.prog = body[1]
    cod.layers = struct.unpack(">H", body[2:4])[0]
    cod.mct = body[4]
    cod.levels = body[5]
    if cod.levels > 32:
        raise PdfParseError("JPX: too many decomposition levels")
    cod.xcb = (body[6] & 0x0F) + 2
    cod.ycb = (body[7] & 0x0F) + 2
    if cod.xcb + cod.ycb > 12:
        raise PdfParseError("JPX: code-block size exceeds 4096")
    cod.cbstyle = body[8]
    if cod.cbstyle & ~0x3F:
        raise PdfParseError(
            f"JPX: unsupported code-block style 0x{cod.cbstyle:02x}"
        )
    cod.transform = body[9]
    if cod.transform not in (0, 1):
        raise PdfParseError("JPX: unknown wavelet transform")
    if scod & 1:
        pr = []
        for i in range(cod.levels + 1):
            b = body[10 + i]
            pr.append((b & 0x0F, b >> 4))
        cod.precincts = pr
    else:
        cod.precincts = [(15, 15)] * (cod.levels + 1)
    return cod


def _parse_coc_tail(cod: _Cod, body: bytes, off: int) -> _Cod:
    """COC: Scoc byte + SPcoc (same layout as SPcod minus SGcod)."""
    c = cod.copy()
    scoc = body[off]
    c.levels = body[off + 1]
    c.xcb = (body[off + 2] & 0x0F) + 2
    c.ycb = (body[off + 3] & 0x0F) + 2
    c.cbstyle = body[off + 4]
    if c.cbstyle & ~0x3F:
        raise PdfParseError("JPX: unsupported code-block style (COC)")
    c.transform = body[off + 5]
    if scoc & 1:
        c.precincts = [
            (body[off + 6 + i] & 0x0F, body[off + 6 + i] >> 4)
            for i in range(c.levels + 1)
        ]
    else:
        c.precincts = [(15, 15)] * (c.levels + 1)
    return c


def _parse_qcd(body: bytes) -> _Qcd:
    q = _Qcd.__new__(_Qcd)
    sq = body[0]
    q.style = sq & 0x1F
    q.guard = sq >> 5
    if q.style not in (0, 1, 2):
        raise PdfParseError(f"JPX: unknown quantization style {q.style}")
    vals = []
    if q.style == 0:
        for b in body[1:]:
            vals.append((b >> 3, 0))
    else:
        for i in range(1, len(body) - 1, 2):
            v = struct.unpack(">H", body[i : i + 2])[0]
            vals.append((v >> 11, v & 0x7FF))
    q.vals = vals
    return q


_SKIPPABLE = {0xFF55, 0xFF57, 0xFF58, 0xFF63, 0xFF64}  # TLM PLM PLT CRG COM


def _parse_rgn(body: bytes, ncomp: int) -> tuple[int, int]:
    """Parse an RGN marker body (A.6.4) -> (component, SPrgn). Only the
    maxshift style (Srgn=0) exists in Part 1; the decoder needs no ROI
    mask — any coefficient >= 2**SPrgn is ROI-scaled (E.1)."""
    csz = 1 if ncomp < 257 else 2
    if len(body) != csz + 2:
        raise PdfParseError("JPX: bad RGN length")
    c = body[0] if csz == 1 else struct.unpack(">H", body[:2])[0]
    if c >= ncomp:
        raise PdfParseError("JPX: RGN component out of range")
    srgn, sprgn = body[csz], body[csz + 1]
    if srgn != 0:
        raise PdfParseError(f"JPX: RGN style {srgn} unsupported")
    if sprgn > 37:
        raise PdfParseError("JPX: RGN shift too large")
    return c, sprgn


def decode_codestream(data: bytes):
    """Decode a raw JPEG 2000 codestream -> (w, h, list of per-component
    int32 planes on the image grid, depths, signed flags, mct, reversible).
    """
    if data[:2] != b"\xff\x4f":
        raise PdfParseError("JPX: missing SOC")
    pos = 2
    siz = None
    main_cod = None
    main_coc: dict[int, bytes] = {}
    main_qcd = None
    main_qcc: dict[int, _Qcd] = {}
    main_poc: list[tuple] | None = None
    main_rgn: dict[int, int] = {}
    ppm_segs: list[tuple[int, bytes]] = []
    tiles: dict[int, _TileDecoder] = {}
    tile_params: dict[int, tuple] = {}

    def read_seg():
        nonlocal pos
        if pos + 4 > len(data):
            raise PdfParseError("JPX: truncated marker segment")
        marker = struct.unpack(">H", data[pos : pos + 2])[0]
        ln = struct.unpack(">H", data[pos + 2 : pos + 4])[0]
        if ln < 2 or pos + 2 + ln > len(data):
            raise PdfParseError("JPX: bad marker segment length")
        body = data[pos + 4 : pos + 2 + ln]
        pos += 2 + ln
        return marker, body

    # main header
    while True:
        if pos + 2 > len(data):
            raise PdfParseError("JPX: no tile-parts")
        marker = struct.unpack(">H", data[pos : pos + 2])[0]
        if marker == 0xFF90:  # SOT
            break
        marker, body = read_seg()
        if marker == 0xFF51:  # SIZ
            (
                _rsiz, xsiz, ysiz, xo, yo, xt, yt, xto, yto, ncomp
            ) = struct.unpack(">HIIIIIIIIH", body[:36])
            if ncomp == 0 or len(body) < 36 + 3 * ncomp:
                raise PdfParseError("JPX: SIZ too short for Csiz")
            depth, signed, xr, yr = [], [], [], []
            for c in range(ncomp):
                s = body[36 + 3 * c]
                depth.append((s & 0x7F) + 1)
                signed.append(bool(s & 0x80))
                xr.append(body[37 + 3 * c])
                yr.append(body[38 + 3 * c])
            if any(v < 1 for v in xr) or any(v < 1 for v in yr):
                raise PdfParseError("JPX: zero component subsampling")
            if any(d > 38 for d in depth):
                # T.800 Ssiz ceiling; the sample path is int64/float64
                # throughout, so 17-38 bit needs no special casing
                raise PdfParseError("JPX: precision > 38 unsupported")
            if (xsiz - xo) * (ysiz - yo) > MAX_JPX_PIXELS:
                raise PdfParseError("JPX: image exceeds pixel budget")
            if xsiz <= xo or ysiz <= yo or xt == 0 or yt == 0:
                raise PdfParseError("JPX: bad SIZ geometry")
            if any(
                _ceil_div(xsiz, a) <= _ceil_div(xo, a)
                or _ceil_div(ysiz, b) <= _ceil_div(yo, b)
                for a, b in zip(xr, yr)
            ):
                raise PdfParseError("JPX: subsampling leaves empty component")
            siz = {
                "xsiz": xsiz, "ysiz": ysiz, "xo": xo, "yo": yo,
                "xt": xt, "yt": yt, "xto": xto, "yto": yto,
                "ncomp": ncomp, "depth": depth, "signed": signed,
                "xr": xr, "yr": yr,
            }
        elif marker == 0xFF52:
            main_cod = _parse_cod(body)
        elif marker == 0xFF53:  # COC
            if siz is None:
                raise PdfParseError("JPX: COC before SIZ")
            ci = body[0] if siz["ncomp"] < 257 else struct.unpack(
                ">H", body[:2]
            )[0]
            main_coc[ci] = body
        elif marker == 0xFF5C:
            main_qcd = _parse_qcd(body)
        elif marker == 0xFF5D:  # QCC
            if siz is None:
                raise PdfParseError("JPX: QCC before SIZ")
            if siz["ncomp"] < 257:
                main_qcc[body[0]] = _parse_qcd(body[1:])
            else:
                main_qcc[struct.unpack(">H", body[:2])[0]] = _parse_qcd(
                    body[2:]
                )
        elif marker == 0xFF60:  # PPM: packed packet headers, main header
            if len(body) < 1:
                raise PdfParseError("JPX: empty PPM")
            ppm_segs.append((body[0], body[1:]))
        elif marker == 0xFF5F:  # POC, main header
            if siz is None:
                raise PdfParseError("JPX: POC before SIZ")
            main_poc = _parse_poc(body, siz["ncomp"])
        elif marker == 0xFF5E:  # RGN, main header
            if siz is None:
                raise PdfParseError("JPX: RGN before SIZ")
            ci, sp = _parse_rgn(body, siz["ncomp"])
            main_rgn[ci] = sp
        elif marker in _SKIPPABLE:
            pass
        else:
            raise PdfParseError(f"JPX: unknown marker 0x{marker:04x}")
    if siz is None or main_cod is None or main_qcd is None:
        raise PdfParseError("JPX: missing SIZ/COD/QCD")

    # PPM: concatenate payloads in Zppm order, then parse the stream of
    # (Nppm, packed-header) groups — one group per tile-part, consumed in
    # codestream tile-part order (A.7.4; Ippm may split across segments)
    ppm_groups = []
    if ppm_segs:
        buf = b"".join(b for _, b in sorted(ppm_segs, key=lambda t: t[0]))
        p = 0
        while p < len(buf):
            if p + 4 > len(buf):
                raise PdfParseError("JPX: truncated PPM group length")
            glen = struct.unpack(">I", buf[p : p + 4])[0]
            p += 4
            if p + glen > len(buf):
                raise PdfParseError("JPX: PPM group past end")
            ppm_groups.append(buf[p : p + glen])
            p += glen
        ppm_groups.reverse()  # consume with pop()

    ntx = _ceil_div(siz["xsiz"] - siz["xto"], siz["xt"])
    nty = _ceil_div(siz["ysiz"] - siz["yto"], siz["yt"])
    ntiles = ntx * nty
    if ntiles > 65535:
        raise PdfParseError("JPX: too many tiles")

    def tile_cods(isot, tile_cod, tile_coc, tile_qcd, tile_qcc, tile_rgn):
        cods, qcds, rgns = [], [], []
        for c in range(siz["ncomp"]):
            base = tile_cod or main_cod
            if c in tile_coc:
                body = tile_coc[c]
                off = 1 if siz["ncomp"] < 257 else 2
                cod = _parse_coc_tail(base, body, off)
            elif tile_cod is None and c in main_coc:
                body = main_coc[c]
                off = 1 if siz["ncomp"] < 257 else 2
                cod = _parse_coc_tail(main_cod, body, off)
            else:
                cod = base.copy()
            cods.append(cod)
            qcds.append(tile_qcc.get(c, tile_qcd or main_qcc.get(c, main_qcd)))
            rgns.append(tile_rgn.get(c, main_rgn.get(c, 0)))
        return cods, qcds, rgns

    # tile-parts
    while pos + 2 <= len(data):
        marker = struct.unpack(">H", data[pos : pos + 2])[0]
        if marker == 0xFFD9:  # EOC
            break
        if marker != 0xFF90:
            raise PdfParseError(
                f"JPX: expected SOT/EOC, found 0x{marker:04x}"
            )
        sot_start = pos
        _m, body = read_seg()
        isot, psot, _tpsot, _tnsot = struct.unpack(">HIBB", body[:8])
        if isot >= ntiles:
            raise PdfParseError("JPX: tile index out of range")
        if psot == 0:
            psot = len(data) - sot_start  # last tile-part may signal 0
        tile_cod = None
        tile_coc: dict[int, bytes] = {}
        tile_qcd = None
        tile_qcc: dict[int, _Qcd] = {}
        tile_poc: list[tuple] = []
        tile_rgn: dict[int, int] = {}
        ppt_here: list[tuple[int, bytes]] = []
        # tile-part header up to SOD
        while True:
            if pos + 2 > len(data):
                raise PdfParseError("JPX: tile-part without SOD")
            m2 = struct.unpack(">H", data[pos : pos + 2])[0]
            if m2 == 0xFF93:  # SOD
                pos += 2
                break
            m2, b2 = read_seg()
            if m2 == 0xFF52:
                tile_cod = _parse_cod(b2)
            elif m2 == 0xFF53:
                ci = b2[0] if siz["ncomp"] < 257 else struct.unpack(
                    ">H", b2[:2]
                )[0]
                tile_coc[ci] = b2
            elif m2 == 0xFF5C:
                tile_qcd = _parse_qcd(b2)
            elif m2 == 0xFF5D:
                if siz["ncomp"] < 257:
                    tile_qcc[b2[0]] = _parse_qcd(b2[1:])
                else:
                    tile_qcc[struct.unpack(">H", b2[:2])[0]] = _parse_qcd(
                        b2[2:]
                    )
            elif m2 == 0xFF61:  # PPT: packed packet headers, this tile
                if len(b2) < 1:
                    raise PdfParseError("JPX: empty PPT")
                ppt_here.append((b2[0], b2[1:]))
            elif m2 == 0xFF5F:  # POC, tile-part header (overrides main)
                tile_poc.extend(_parse_poc(b2, siz["ncomp"]))
            elif m2 == 0xFF5E:  # RGN, tile-part header (overrides main)
                ci, sp = _parse_rgn(b2, siz["ncomp"])
                tile_rgn[ci] = sp
            elif m2 in _SKIPPABLE:
                pass
            else:
                raise PdfParseError(
                    f"JPX: unknown tile-header marker 0x{m2:04x}"
                )
        body_end = sot_start + psot
        if body_end > len(data):
            raise PdfParseError("JPX: Psot past end of data")
        if isot not in tiles:
            p, q = isot % ntx, isot // ntx
            tx0 = max(siz["xto"] + p * siz["xt"], siz["xo"])
            tx1 = min(siz["xto"] + (p + 1) * siz["xt"], siz["xsiz"])
            ty0 = max(siz["yto"] + q * siz["yt"], siz["yo"])
            ty1 = min(siz["yto"] + (q + 1) * siz["yt"], siz["ysiz"])
            cods, qcds, rgns = tile_cods(isot, tile_cod, tile_coc, tile_qcd,
                                         tile_qcc, tile_rgn)
            tiles[isot] = _TileDecoder(
                siz, cods, qcds, tx0, tx1, ty0, ty1, rgns
            )
            tiles[isot].poc = main_poc
        if tile_poc:
            # A tile-part POC replaces the main-header one for this tile;
            # entries across this tile's tile-parts concatenate (A.6.6).
            if tiles[isot].poc is main_poc:
                tiles[isot].poc = list(tile_poc)
            else:
                tiles[isot].poc = (tiles[isot].poc or []) + tile_poc
        if ppt_here:
            if ppm_segs:
                raise PdfParseError("JPX: both PPM and PPT present")
            tiles[isot].ppt.extend(ppt_here)
        if ppm_segs:
            # one packed-header group per tile-part, codestream order
            if not ppm_groups:
                raise PdfParseError("JPX: fewer PPM groups than tile-parts")
            grp = ppm_groups.pop()
            if tiles[isot].pkthdr is None:
                tiles[isot].pkthdr = bytearray()
            tiles[isot].pkthdr += grp
        tiles[isot].data += data[pos:body_end]
        pos = body_end

    if not tiles:
        raise PdfParseError("JPX: no tile data")

    # decode + compose onto per-component grids (B.3: component domain
    # is the reference grid divided by its subsampling factors)
    w = siz["xsiz"] - siz["xo"]
    h = siz["ysiz"] - siz["yo"]
    comp_rects = [
        (
            _ceil_div(siz["xo"], a), _ceil_div(siz["xsiz"], a),
            _ceil_div(siz["yo"], b), _ceil_div(siz["ysiz"], b),
        )
        for a, b in zip(siz["xr"], siz["yr"])
    ]
    planes = [
        np.zeros((cy1 - cy0, cx1 - cx0), np.float64)
        for cx0, cx1, cy0, cy1 in comp_rects
    ]
    for t in tiles.values():
        t.decode_packets()
        comps = [t.reconstruct(c) for c in range(siz["ncomp"])]
        tcod = t.cods[0]
        if tcod.mct == 1 and siz["ncomp"] >= 3:
            if len({t.subs[c] for c in range(3)}) != 1:
                raise PdfParseError(
                    "JPX: MCT requires equal subsampling on components 0-2"
                )
            y0c, y1c, y2c = comps[0], comps[1], comps[2]
            if tcod.transform == 1:  # RCT (G.2)
                g = y0c - ((y1c + y2c) >> 2)
                r = y2c + g
                b = y1c + g
            else:  # ICT (G.3)
                r = y0c + 1.402 * y2c
                g = y0c - 0.344136 * y1c - 0.714136 * y2c
                b = y0c + 1.772 * y1c
            comps[0], comps[1], comps[2] = r, g, b
        for c in range(siz["ncomp"]):
            cx0, _cx1, cy0, _cy1 = comp_rects[c]
            tcx0, tcx1, tcy0, tcy1 = t.tc_rects[c]
            planes[c][
                tcy0 - cy0 : tcy1 - cy0, tcx0 - cx0 : tcx1 - cx0
            ] = comps[c]
    # upsample subsampled components onto the full image grid by sample
    # replication: reference point x belongs to component sample
    # floor(x / XRsiz), clamped into the component domain
    for c in range(siz["ncomp"]):
        a, b = siz["xr"][c], siz["yr"][c]
        if a == 1 and b == 1:
            continue
        cx0, cx1, cy0, cy1 = comp_rects[c]
        xs = np.clip(
            np.arange(siz["xo"], siz["xsiz"]) // a - cx0, 0, cx1 - cx0 - 1
        )
        ys = np.clip(
            np.arange(siz["yo"], siz["ysiz"]) // b - cy0, 0, cy1 - cy0 - 1
        )
        planes[c] = planes[c][ys][:, xs]
    return w, h, planes, siz["depth"], siz["signed"]


def _parse_jp2_boxes(data: bytes) -> bytes:
    """Walk JP2 boxes and return the first jp2c codestream payload."""
    pos = 0
    while pos + 8 <= len(data):
        lbox = struct.unpack(">I", data[pos : pos + 4])[0]
        tbox = data[pos + 4 : pos + 8]
        hdr = 8
        if lbox == 1:
            if pos + 16 > len(data):
                break
            lbox = struct.unpack(">Q", data[pos + 8 : pos + 16])[0]
            hdr = 16
        if lbox == 0:
            end = len(data)
        else:
            end = pos + lbox
        if end > len(data) or end <= pos:
            raise PdfParseError("JPX: bad JP2 box length")
        if tbox == b"jp2c":
            return data[pos + hdr : end]
        pos = end
    raise PdfParseError("JPX: no jp2c codestream box")


def decode_jpx(data: bytes) -> tuple[int, int, int, bytes]:
    """Decode JPXDecode payload (raw codestream or JP2 container) ->
    (width, height, ncomp, samples) with ncomp in {1, 3} and samples
    interleaved 8-bit (gray or RGB), mirroring jpeg.decode_jpeg."""
    if len(data) < 4:
        raise PdfParseError("JPX: short data")
    if data[:2] == b"\xff\x4f":
        cs = data
    elif data[:8] == b"\x00\x00\x00\x0cjP  ":
        cs = _parse_jp2_boxes(data)
    else:
        raise PdfParseError("JPX: neither codestream nor JP2 container")
    w, h, planes, depths, signed = decode_codestream(cs)
    out_planes = []
    for c, p in enumerate(planes):
        d = depths[c]
        if signed[c]:
            # signed components: shift into unsigned range
            p = np.asarray(p, np.float64) + (1 << (d - 1))
        else:
            p = np.asarray(p, np.float64) + (1 << (d - 1))  # DC level shift
        maxv = (1 << d) - 1
        p = np.clip(np.rint(p), 0, maxv)
        if d != 8:
            p = np.rint(p * (255.0 / maxv))
        out_planes.append(p.astype(np.uint8))
    if len(out_planes) == 1:
        return w, h, 1, out_planes[0].tobytes()
    if len(out_planes) >= 3:
        rgb = np.stack(out_planes[:3], axis=-1)  # extra comps (alpha) dropped
        return w, h, 3, rgb.tobytes()
    raise PdfParseError(f"JPX: unsupported component count {len(planes)}")
