"""Minimal deterministic JBIG2 encoder (fixture-side only).

Produces spec-conformant PDF-embedded JBIG2 streams — page-information
segment + immediate generic region segments — with either MQ arithmetic
coding (T.88 Annex E encoder, templates 0-3, optional TPGDON) or MMR=1
(T.6/G4 via ccittenc). Exists so fixtures and tests can exercise the
decode path (pdfcore/jbig2.py) with pixel-exact goldens: JBIG2 generic
coding is lossless, so the decoded bitmap must equal the encoder's input
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from ..pdfcore.jbig2 import GB_AT_NOMINAL, GB_TEMPLATES, TPGD_CTX
from ..pdfcore.mq import QE


class MQEncoder:
    """T.88 Annex E.2 arithmetic encoder (software conventions)."""

    def __init__(self):
        self.a = 0x8000
        self.c = 0
        self.ct = 12
        # dummy first byte per E.2.8 (BP starts at BPST-1); stripped in
        # finish() — carries into it are absorbed there
        self.out = bytearray([0])

    def _byteout(self) -> None:
        if self.out[-1] == 0xFF:
            self.out.append((self.c >> 20) & 0xFF)
            self.c &= 0xFFFFF
            self.ct = 7
        elif self.c < 0x8000000:
            self.out.append((self.c >> 19) & 0xFF)
            self.c &= 0x7FFFF
            self.ct = 8
        else:
            self.out[-1] += 1
            if self.out[-1] == 0xFF:
                self.c &= 0x7FFFFFF
                self.out.append((self.c >> 20) & 0xFF)
                self.c &= 0xFFFFF
                self.ct = 7
            else:
                self.out.append((self.c >> 19) & 0xFF)
                self.c &= 0x7FFFF
                self.ct = 8

    def _renorm(self) -> None:
        while True:
            self.a = (self.a << 1) & 0xFFFF
            self.c = self.c << 1
            self.ct -= 1
            if self.ct == 0:
                self._byteout()
            if self.a & 0x8000:
                break

    def encode(self, d: int, cx: int, idx: np.ndarray, mps: np.ndarray):
        qe, nmps, nlps, switch = QE[idx[cx]]
        if d == mps[cx]:  # CODEMPS (E.6)
            self.a -= qe
            if self.a & 0x8000:
                self.c += qe
                return
            if self.a < qe:
                self.a = qe
            else:
                self.c += qe
            idx[cx] = nmps
            self._renorm()
        else:  # CODELPS (E.7)
            self.a -= qe
            if self.a < qe:
                self.c += qe
            else:
                self.a = qe
            if switch:
                mps[cx] = 1 - mps[cx]
            idx[cx] = nlps
            self._renorm()

    def finish(self) -> bytes:
        # FLUSH (E.11): SETBITS picks the code value with the most
        # trailing 1-bits still inside the final interval [C, C+A)
        tempc = self.c + self.a
        self.c |= 0xFFFF
        if self.c >= tempc:
            self.c -= 0x8000
        self.c <<= self.ct
        self._byteout()
        self.c <<= self.ct
        self._byteout()
        out = self.out[1:]  # strip the dummy byte
        while out and out[-1] == 0xFF:  # T.88 E.2.9: trailing FFs optional
            out = out[:-1]
        return bytes(out)


def encode_generic_region_data(
    bitmap: np.ndarray,
    template: int = 0,
    at: list[tuple[int, int]] | None = None,
    tpgdon: bool = False,
) -> bytes:
    """MQ-coded generic-region bit data (no segment headers) — the exact
    inverse of pdfcore.jbig2.decode_generic_region."""
    h, w = bitmap.shape
    if at is None:
        at = GB_AT_NOMINAL[template]
    tmpl = sorted(GB_TEMPLATES[template] + list(at), key=lambda p: (p[1], p[0]))
    nbits = len(tmpl)
    idx = np.zeros(1 << nbits, np.uint8)
    mps = np.zeros(1 << nbits, np.uint8)
    enc = MQEncoder()
    ltp = 0
    for y in range(h):
        if tpgdon:
            typical = (y > 0 and bool((bitmap[y] == bitmap[y - 1]).all())) or (
                y == 0 and not bitmap[y].any()
            )
            enc.encode(1 if typical != bool(ltp) else 0, TPGD_CTX[template],
                       idx, mps)
            ltp = 1 if typical else 0
            if ltp:
                continue
        for x in range(w):
            ctx = 0
            for dx, dy in tmpl:
                xx, yy = x + dx, y + dy
                if 0 <= xx < w and yy >= 0:
                    ctx = (ctx << 1) | int(bitmap[yy, xx])
                else:
                    ctx <<= 1
            enc.encode(int(bitmap[y, x]), ctx, idx, mps)
    return enc.finish()


def _segment(num: int, seg_type: int, payload: bytes, page: int = 1) -> bytes:
    head = num.to_bytes(4, "big")
    head += bytes([seg_type & 0x3F])  # page-assoc 1 byte, no deferred
    head += bytes([0])  # 0 referred-to segments
    head += bytes([page])
    head += len(payload).to_bytes(4, "big")
    return head + payload


def _page_info(w: int, h: int, default_pixel: int = 0) -> bytes:
    return (
        w.to_bytes(4, "big")
        + h.to_bytes(4, "big")
        + (0).to_bytes(4, "big")  # x resolution
        + (0).to_bytes(4, "big")  # y resolution
        + bytes([(default_pixel & 1) << 2])
        + (0).to_bytes(2, "big")  # striping
    )


def _region_segment_payload(
    bitmap: np.ndarray,
    x: int,
    y: int,
    comb_op: int,
    mmr: bool,
    template: int,
    at: list[tuple[int, int]] | None,
    tpgdon: bool,
) -> bytes:
    h, w = bitmap.shape
    out = bytearray()
    out += w.to_bytes(4, "big") + h.to_bytes(4, "big")
    out += x.to_bytes(4, "big") + y.to_bytes(4, "big")
    out += bytes([comb_op & 7])
    flags = (1 if mmr else 0) | ((template & 3) << 1) | ((1 if tpgdon else 0) << 3)
    out += bytes([flags])
    if mmr:
        from .ccittenc import encode_g4

        # encode_g4 takes 1=black input — already JBIG2's convention
        out += encode_g4(bitmap.astype(np.uint8))
    else:
        if at is None:
            at = GB_AT_NOMINAL[template]
        for dx, dy in at:
            out += dx.to_bytes(1, "big", signed=True)
            out += dy.to_bytes(1, "big", signed=True)
        out += encode_generic_region_data(bitmap, template, at, tpgdon)
    return bytes(out)


def encode_jbig2_embedded(
    regions: list[dict],
    page_w: int,
    page_h: int,
    default_pixel: int = 0,
) -> bytes:
    """PDF-embedded JBIG2 stream: page info + one immediate generic
    region segment per entry. Each region dict: ``bitmap`` (h,w uint8,
    1=black) plus optional ``x``/``y``/``comb_op``/``mmr``/``template``/
    ``at``/``tpgdon``."""
    out = bytearray()
    out += _segment(0, 48, _page_info(page_w, page_h, default_pixel))
    for i, r in enumerate(regions):
        payload = _region_segment_payload(
            np.asarray(r["bitmap"], np.uint8),
            r.get("x", 0),
            r.get("y", 0),
            r.get("comb_op", 0),
            r.get("mmr", False),
            r.get("template", 0),
            r.get("at"),
            r.get("tpgdon", False),
        )
        out += _segment(i + 1, 38, payload)  # immediate generic region
    out += _segment(len(regions) + 1, 49, b"")  # end of page
    return bytes(out)


# -- symbol dictionary + text region encoding (T.88 6.5 / 6.4) ---------------


class IntEncoder:
    """Inverse of pdfcore.jbig2.IntDecoder (T.88 Annex A), same PREV
    context tree; one instance per IAx statistic set."""

    def __init__(self):
        self.idx = bytearray(512)
        self.mps = bytearray(512)

    def encode(self, mq: MQEncoder, v) -> None:
        prev = 1

        def bit(b: int) -> None:
            nonlocal prev
            mq.encode(b, prev, self.idx, self.mps)
            prev = (
                (prev << 1) | b
                if prev < 256
                else ((((prev << 1) | b) & 511) | 256)
            )

        def bits(val: int, n: int) -> None:
            for i in range(n - 1, -1, -1):
                bit((val >> i) & 1)

        if v is None:  # OOB: S=1, range-0 prefix, V=0
            bit(1)
            bit(0)
            bits(0, 2)
            return
        s = 1 if v < 0 else 0
        a = -v if v < 0 else v
        bit(s)
        if a < 4:
            bit(0)
            bits(a, 2)
        elif a < 20:
            bit(1), bit(0)
            bits(a - 4, 4)
        elif a < 84:
            bit(1), bit(1), bit(0)
            bits(a - 20, 6)
        elif a < 340:
            bit(1), bit(1), bit(1), bit(0)
            bits(a - 84, 8)
        elif a < 4436:
            bit(1), bit(1), bit(1), bit(1), bit(0)
            bits(a - 340, 12)
        else:
            bit(1), bit(1), bit(1), bit(1), bit(1)
            bits(a - 4436, 32)


class IaidEncoder:
    def __init__(self, symcodelen: int):
        self.symcodelen = symcodelen
        self.idx = bytearray(1 << (symcodelen + 1))
        self.mps = bytearray(1 << (symcodelen + 1))

    def encode(self, mq: MQEncoder, sym_id: int) -> None:
        prev = 1
        for i in range(self.symcodelen - 1, -1, -1):
            b = (sym_id >> i) & 1
            mq.encode(b, prev, self.idx, self.mps)
            prev = (prev << 1) | b


def _encode_bitmap_shared(
    enc: MQEncoder, idx, mps, bitmap: np.ndarray, template: int, at,
    skip=None,
) -> None:
    """Generic-region bitmap encode over a caller-owned encoder + GB
    stats (the symbol-dictionary sharing rule), TPGDON off. ``skip``
    pixels are not coded (they must be 0 in ``bitmap`` — the decoder
    forces 0 and uses it in neighbour contexts)."""
    h, w = bitmap.shape
    tmpl = sorted(GB_TEMPLATES[template] + list(at), key=lambda p: (p[1], p[0]))
    rows = [[int(v) for v in r] for r in bitmap]
    skip_rows = None if skip is None else [[int(v) for v in r] for r in skip]
    zero = [0] * w
    for y in range(h):
        r1 = rows[y - 1] if y >= 1 else zero
        r2 = rows[y - 2] if y >= 2 else zero
        row = rows[y]
        srow = skip_rows[y] if skip_rows is not None else None
        for x in range(w):
            if srow is not None and srow[x]:
                continue
            ctx = 0
            for dx, dy in tmpl:
                xx = x + dx
                if 0 <= xx < w:
                    if dy == 0:
                        ctx = (ctx << 1) | row[xx]
                    elif dy == -1:
                        ctx = (ctx << 1) | r1[xx]
                    else:
                        ctx = (ctx << 1) | r2[xx]
                else:
                    ctx <<= 1
            enc.encode(row[x], ctx, idx, mps)


def encode_symbol_dict_and_text(
    symbols: list[np.ndarray],
    placements: list[tuple[int, int, int]],
    region_w: int,
    region_h: int,
    template: int = 0,
    refcorner: int = 1,
    log_strips: int = 0,
    transposed: bool = False,
) -> bytes:
    """PDF-embedded JBIG2: page info + symbol dictionary (all symbols
    exported) + one immediate text region placing ``placements`` =
    [(sym_id, s, t_top), ...] instances (t_top = desired TOP row; for
    bottom reference corners the encoded T pins the bottom edge and is
    derived per instance), 1 strip per distinct T via strips=1, OR
    composition. Symbols must be sorted by ascending height."""
    at = GB_AT_NOMINAL[template]

    # --- symbol dictionary segment payload
    mq = MQEncoder()
    iadh, iadw, iaex = IntEncoder(), IntEncoder(), IntEncoder()
    nbits = len(GB_TEMPLATES[template]) + len(at)
    gb_idx = bytearray(1 << nbits)
    gb_mps = bytearray(1 << nbits)
    hcheight = 0
    i = 0
    nsyms = len(symbols)
    while i < nsyms:
        hgt = symbols[i].shape[0]
        iadh.encode(mq, hgt - hcheight)
        hcheight = hgt
        symwidth = 0
        while i < nsyms and symbols[i].shape[0] == hcheight:
            wdt = symbols[i].shape[1]
            iadw.encode(mq, wdt - symwidth)
            symwidth = wdt
            _encode_bitmap_shared(mq, gb_idx, gb_mps, symbols[i], template, at)
            i += 1
        iadw.encode(mq, None)  # OOB ends the height class
    iaex.encode(mq, 0)       # run of 0 non-exported
    iaex.encode(mq, nsyms)   # export all
    sd_data = mq.finish()

    sd = bytearray()
    flags = (template & 3) << 10
    sd += flags.to_bytes(2, "big")
    for dx, dy in at:
        sd += dx.to_bytes(1, "big", signed=True)
        sd += dy.to_bytes(1, "big", signed=True)
    sd += nsyms.to_bytes(4, "big")  # SDNUMEXSYMS
    sd += nsyms.to_bytes(4, "big")  # SDNUMNEWSYMS
    sd += sd_data

    # --- text region segment payload
    mq = MQEncoder()
    iadt, iafs, iads, iait = (
        IntEncoder(), IntEncoder(), IntEncoder(), IntEncoder(),
    )
    symcodelen = max(1, (max(1, nsyms) - 1).bit_length())
    iaid = IaidEncoder(symcodelen)
    # instance refinement (SBREFINE): placements may be
    # (sym_id, s, t, refined_bitmap, rdx, rdy)
    sbrefine = any(len(p) > 3 for p in placements)
    iari, iardw, iardh, iardx, iardy = (
        IntEncoder(), IntEncoder(), IntEncoder(), IntEncoder(),
        IntEncoder(),
    )
    gr_stats = None
    if sbrefine:
        from ..pdfcore.jbig2 import GR_TEMPLATES as _GRT

        c_t, r_t = _GRT[0]
        gr_nbits = len(c_t) + len(r_t) + 2
        gr_stats = (bytearray(1 << gr_nbits), bytearray(1 << gr_nbits))
    # group placements into strips; bottom corners (0=BL, 2=BR) pin T to
    # the instance's BOTTOM edge; right corners pin T's horizontal twin
    # when transposed. With strips > 1 each strip holds STRIPT..+strips-1
    # and per-instance CURT carries the offset (IAIT-coded).
    n_strips = 1 << log_strips
    strips: dict[int, list[tuple]] = {}
    for pl in placements:
        sym_id, s, t = pl[0], pl[1], pl[2]
        refine = pl[3:] if len(pl) > 3 else None
        if transposed:
            # S runs vertically, T horizontally; swap roles on entry
            s, t = t, s
            if refcorner in (2, 3):  # *RIGHT pins t to the right edge
                t = t + symbols[sym_id].shape[1] - 1
        else:
            if refcorner in (0, 2):
                t = t + symbols[sym_id].shape[0] - 1
        base = (t // n_strips) * n_strips
        strips.setdefault(base, []).append((s, sym_id, t - base, refine))
    iadt.encode(mq, 0)  # initial STRIPT = -0
    stript = 0
    firsts = 0  # FIRSTS accumulates ACROSS strips (6.4.5 step 3b)
    for base in sorted(strips):
        assert (base - stript) % n_strips == 0
        iadt.encode(mq, (base - stript) // n_strips)
        stript = base
        insts = sorted(strips[base], key=lambda e: e[:3])
        curs = 0
        for j, (s, sym_id, curt, refine) in enumerate(insts):
            if j == 0:
                iafs.encode(mq, s - firsts)
                firsts = s
                curs = s
            else:
                iads.encode(mq, s - curs)
                curs = s
            if n_strips > 1:
                iait.encode(mq, curt)
            iaid.encode(mq, sym_id)
            inst_bm = symbols[sym_id]
            if sbrefine:
                if refine is None:
                    iari.encode(mq, 0)
                else:
                    rbm, rdx, rdy = refine
                    rdw = rbm.shape[1] - inst_bm.shape[1]
                    rdh = rbm.shape[0] - inst_bm.shape[0]
                    iari.encode(mq, 1)
                    iardw.encode(mq, rdw)
                    iardh.encode(mq, rdh)
                    iardx.encode(mq, rdx)
                    iardy.encode(mq, rdy)
                    encode_refinement_region_data(
                        rbm, inst_bm, 0, GR_AT_NOMINAL, False,
                        (rdw >> 1) + rdx, (rdh >> 1) + rdy,
                        enc=mq, stats=gr_stats,
                    )
                    inst_bm = rbm
            adv = inst_bm.shape[0] if transposed else inst_bm.shape[1]
            curs += adv - 1
        iads.encode(mq, None)  # OOB ends the strip
    tr_data = mq.finish()

    tr = bytearray()
    tr += region_w.to_bytes(4, "big") + region_h.to_bytes(4, "big")
    tr += (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
    tr += bytes([0])  # region comb op OR
    # SBFLAGS: huff=0; refine/logstrips/refcorner/transposed as given,
    # combop=OR, defpixel=0, dsoffset=0, rtemplate=0
    flags = (
        ((1 if sbrefine else 0) << 1)
        | ((log_strips & 3) << 2)
        | ((refcorner & 3) << 4)
        | ((1 if transposed else 0) << 6)
    )
    tr += flags.to_bytes(2, "big")
    if sbrefine:  # rtemplate 0: refinement AT pixels
        for dx, dy in GR_AT_NOMINAL:
            tr += dx.to_bytes(1, "big", signed=True)
            tr += dy.to_bytes(1, "big", signed=True)
    tr += len(placements).to_bytes(4, "big")
    tr += tr_data

    out = bytearray()
    out += _segment(0, 48, _page_info(region_w, region_h))
    out += _segment_ref(1, 0, [], sd)          # symbol dictionary
    out += _segment_ref(2, 6, [1], bytes(tr))  # immediate text region
    out += _segment(3, 49, b"")
    return bytes(out)


def _segment_ref(
    num: int, seg_type: int, referred: list[int], payload: bytes,
    page: int = 1,
) -> bytes:
    head = num.to_bytes(4, "big")
    head += bytes([seg_type & 0x3F])
    head += bytes([len(referred) << 5])
    for r in referred:
        head += bytes([r])  # num <= 256 -> 1-byte referred numbers
    head += bytes([page])
    head += len(payload).to_bytes(4, "big")
    return head + payload


# -- refinement region encoding (T.88 6.3) -----------------------------------

from ..pdfcore.jbig2 import GR_AT_NOMINAL, GR_TEMPLATES  # noqa: E402


def encode_refinement_region_data(
    target: np.ndarray,
    reference: np.ndarray,
    template: int = 0,
    at: list[tuple[int, int]] | None = None,
    tpgron: bool = False,
    ref_dx: int = 0,
    ref_dy: int = 0,
    enc: "MQEncoder | None" = None,
    stats: tuple | None = None,
) -> bytes | None:
    """MQ-coded refinement data — exact inverse of
    pdfcore.jbig2.decode_refinement_region. With TPGRON a row may only
    be flagged typical (LTP) when every typical-position pixel already
    equals its reference value — the encoder checks and flags greedily."""
    from ..pdfcore.jbig2 import TPGR_CTX, _ref_typical

    h, w = target.shape
    if at is None:
        at = GR_AT_NOMINAL
    coding, ref_tmpl = GR_TEMPLATES[template]
    if template == 0:
        coding = sorted(coding + [tuple(at[0])], key=lambda p: (p[1], p[0]))
        ref_tmpl = sorted(
            ref_tmpl + [tuple(at[1])], key=lambda p: (p[1], p[0])
        )
    nbits = len(coding) + len(ref_tmpl)
    if stats is not None:
        idx, mps = stats
    else:
        idx = bytearray(1 << nbits)
        mps = bytearray(1 << nbits)
    own_encoder = enc is None
    if own_encoder:
        enc = MQEncoder()
    rh, rw = reference.shape
    tgt = [[int(v) for v in r] for r in target]
    ref = [[int(v) for v in r] for r in reference]
    ltp = 0
    for y in range(h):
        if tpgron:
            # row may be typical only if all uniform-neighborhood pixels
            # already match their reference values
            ok = all(
                (not t) or tgt[y][x] == v
                for x in range(w)
                for t, v in [
                    _ref_typical(ref, rw, rh, x - ref_dx, y - ref_dy)
                ]
            )
            enc.encode(1 if ok != bool(ltp) else 0, TPGR_CTX[template],
                       idx, mps)
            ltp = 1 if ok else 0
        for x in range(w):
            if tpgron and ltp:
                typical, _v = _ref_typical(
                    ref, rw, rh, x - ref_dx, y - ref_dy
                )
                if typical:
                    continue
            ctx = 0
            for dx, dy in coding:
                xx, yy = x + dx, y + dy
                if 0 <= xx < w and 0 <= yy < h and (
                    yy < y or (yy == y and xx < x)
                ):
                    ctx = (ctx << 1) | tgt[yy][xx]
                else:
                    ctx <<= 1
            for dx, dy in ref_tmpl:
                xx, yy = x + dx - ref_dx, y + dy - ref_dy
                if 0 <= xx < rw and 0 <= yy < rh:
                    ctx = (ctx << 1) | ref[yy][xx]
                else:
                    ctx <<= 1
            enc.encode(tgt[y][x], ctx, idx, mps)
    return enc.finish() if own_encoder else None


def refinement_region_segment_payload(
    target: np.ndarray,
    x: int,
    y: int,
    comb_op: int = 4,
    template: int = 0,
    reference: np.ndarray | None = None,
) -> bytes:
    """Refinement region segment payload; ``reference`` must equal the
    page content under the region at decode time (REPLACE comb_op is
    the usual choice for refinement)."""
    h, w = target.shape
    out = bytearray()
    out += w.to_bytes(4, "big") + h.to_bytes(4, "big")
    out += x.to_bytes(4, "big") + y.to_bytes(4, "big")
    out += bytes([comb_op & 7])
    out += bytes([template & 1])  # TPGRON off
    if template == 0:
        for dx, dy in GR_AT_NOMINAL:
            out += dx.to_bytes(1, "big", signed=True)
            out += dy.to_bytes(1, "big", signed=True)
    out += encode_refinement_region_data(target, reference, template)
    return bytes(out)


# -- pattern dictionary + halftone region encoding (T.88 6.7 / 6.6) ----------


def encode_pattern_dictionary(
    patterns: list[np.ndarray], template: int = 0
) -> bytes:
    """Pattern dictionary payload: the collective side-by-side bitmap
    generic-encoded with the special AT1 = (-HDPW, 0)."""
    hdph, hdpw = patterns[0].shape
    collective = np.concatenate(patterns, axis=1).astype(np.uint8)
    at = (
        [(-hdpw, 0)] + GB_AT_NOMINAL[0][1:]
        if template == 0
        else [(-hdpw, 0)]
    )
    out = bytearray()
    out += bytes([(template & 3) << 1])  # HDMMR=0
    out += bytes([hdpw, hdph])
    out += (len(patterns) - 1).to_bytes(4, "big")  # GRAYMAX
    out += encode_generic_region_data(collective, template, at, False)
    return bytes(out)


def encode_halftone_region(
    values: np.ndarray,
    patterns: list[np.ndarray],
    region_w: int,
    region_h: int,
    hgx: int = 0,
    hgy: int = 0,
    hrx: int | None = None,
    hry: int = 0,
    template: int = 0,
    comb_op: int = 0,
    mmr: bool = False,
    enable_skip: bool = False,
) -> bytes:
    """Halftone region payload: per-cell gray values Gray-coded into
    bitplanes, each generic-encoded through ONE shared encoder/stats
    (C.5) — or one bit-continuous MMR stream when ``mmr`` — optionally
    with ENABLESKIP cell masking. Default grid: axis-aligned with
    spacing = pattern width."""
    if mmr and enable_skip:
        raise ValueError("HSKIP is MQ-only")
    hgh, hgw = values.shape
    ph, pw = patterns[0].shape
    if hrx is None:
        hrx = pw << 8  # 8.8 fixed point
    graymax = len(patterns) - 1
    bpp = max(1, graymax.bit_length())
    skip = None
    if enable_skip:
        mg = np.arange(hgh).reshape(-1, 1)
        ng = np.arange(hgw).reshape(1, -1)
        px = hgx + ((mg * hry + ng * hrx) >> 8)
        py = hgy + ((mg * hrx - ng * hry) >> 8)
        skip = (
            (px + pw <= 0) | (px >= region_w)
            | (py + ph <= 0) | (py >= region_h)
        ).astype(np.uint8)
        values = np.where(skip == 1, 0, values)  # decoder yields 0 there
    if mmr:
        from .ccittenc import EOL as _EOL, _BitWriter, _encode_2d_row
        from .ccittenc import _transitions

        bw = _BitWriter()
        prev = None
        for j in range(bpp - 1, -1, -1):
            bit = (values >> j) & 1
            plane = (bit if prev is None else (bit ^ prev)).astype(np.uint8)
            ref = [hgw, hgw]
            for r in plane:
                cur = _transitions(r)
                _encode_2d_row(bw, cur, ref, hgw)
                ref = cur
            bw.write(_EOL + _EOL)  # EOFB terminates each bitplane
            prev = bit
        data = bw.tobytes()
    else:
        at = GB_AT_NOMINAL[template]
        nbits = len(GB_TEMPLATES[template]) + len(at)
        idx = np.zeros(1 << nbits, np.uint8)
        mps = np.zeros(1 << nbits, np.uint8)
        enc = MQEncoder()
        prev = None
        for j in range(bpp - 1, -1, -1):
            bit = (values >> j) & 1
            plane = bit if prev is None else (bit ^ prev)
            plane = plane.astype(np.uint8)
            if skip is not None:
                plane = np.where(skip == 1, 0, plane)
            _encode_bitmap_shared(enc, idx, mps, plane,
                                  template, at, skip=skip)
            prev = bit
        data = enc.finish()

    out = bytearray()
    out += region_w.to_bytes(4, "big") + region_h.to_bytes(4, "big")
    out += (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
    out += bytes([comb_op & 7])
    out += bytes([
        (1 if mmr else 0)
        | ((template & 3) << 1)
        | ((1 if enable_skip else 0) << 3)
    ])  # HCOMBOP=OR, defpix=0
    out += hgw.to_bytes(4, "big") + hgh.to_bytes(4, "big")
    out += hgx.to_bytes(4, "big", signed=True)
    out += hgy.to_bytes(4, "big", signed=True)
    out += hrx.to_bytes(2, "big") + hry.to_bytes(2, "big")
    out += data
    return bytes(out)


def encode_refagg_symbol_dict(
    targets: list[tuple],
    input_symbols: list[np.ndarray],
    rtemplate: int = 0,
) -> bytes:
    """SDREFAGG=1 symbol dictionary payload. ``targets`` entries are
    either ``(bitmap, ref_id, rdx, rdy)`` — a single-instance refinement
    (IAAI=1) of an input or earlier-new symbol — or
    ``(bitmap, placements)`` with placements =
    ``[(ref_id, s, t, rdx, rdy, refined_bm_or_None), ...]`` — an
    aggregate (IAAI=n) coded as a nested text region per 6.5.8.2.2
    (``bitmap`` must equal the OR-composition the decoder rebuilds).
    Sorted by ascending height; all new symbols exported."""
    from ..pdfcore.jbig2 import GR_TEMPLATES as _GRT

    mq = MQEncoder()
    iadh, iadw, iaex = IntEncoder(), IntEncoder(), IntEncoder()
    iaai, iardx, iardy = IntEncoder(), IntEncoder(), IntEncoder()
    # nested-text-region contexts, retained across aggregates (6.5.8.2.1)
    iadt, iafs, iads = IntEncoder(), IntEncoder(), IntEncoder()
    iari, iardw, iardh = IntEncoder(), IntEncoder(), IntEncoder()
    n_new = len(targets)
    symcodelen = max(1, (max(1, len(input_symbols) + n_new) - 1).bit_length())
    iaid = IaidEncoder(symcodelen)
    coding, ref_tmpl = _GRT[rtemplate]
    gr_nbits = len(coding) + len(ref_tmpl) + (2 if rtemplate == 0 else 0)
    gr_stats = (bytearray(1 << gr_nbits), bytearray(1 << gr_nbits))

    def encode_aggregate(placements, pool):
        # nested text region: SBSTRIPS=1, TOPLEFT, OR, SBREFINE=1
        strips: dict[int, list[tuple]] = {}
        for ref_id, s, t, rdx, rdy, rbm in placements:
            strips.setdefault(t, []).append((s, ref_id, rdx, rdy, rbm))
        iadt.encode(mq, 0)  # initial STRIPT
        stript = 0
        firsts = 0
        for t in sorted(strips):
            iadt.encode(mq, t - stript)
            stript = t
            curs = 0
            for j, (s, ref_id, rdx, rdy, rbm) in enumerate(
                sorted(strips[t], key=lambda e: e[0])
            ):
                if j == 0:
                    iafs.encode(mq, s - firsts)
                    firsts = s
                    curs = s
                else:
                    iads.encode(mq, s - curs)
                    curs = s
                iaid.encode(mq, ref_id)
                bm = pool[ref_id]
                if rbm is None:
                    iari.encode(mq, 0)
                else:
                    iari.encode(mq, 1)
                    rdw = rbm.shape[1] - bm.shape[1]
                    rdh = rbm.shape[0] - bm.shape[0]
                    iardw.encode(mq, rdw)
                    iardh.encode(mq, rdh)
                    iardx.encode(mq, rdx)
                    iardy.encode(mq, rdy)
                    encode_refinement_region_data(
                        rbm, bm, rtemplate, GR_AT_NOMINAL, False,
                        (rdw >> 1) + rdx, (rdh >> 1) + rdy,
                        enc=mq, stats=gr_stats,
                    )
                    bm = rbm
                curs += bm.shape[1] - 1
            iads.encode(mq, None)  # OOB ends the strip

    pool = list(input_symbols)
    hcheight = 0
    i = 0
    while i < n_new:
        hgt = targets[i][0].shape[0]
        iadh.encode(mq, hgt - hcheight)
        hcheight = hgt
        symwidth = 0
        while i < n_new and targets[i][0].shape[0] == hcheight:
            bm = targets[i][0]
            iadw.encode(mq, bm.shape[1] - symwidth)
            symwidth = bm.shape[1]
            if len(targets[i]) == 2:  # aggregate form
                placements = targets[i][1]
                iaai.encode(mq, len(placements))
                encode_aggregate(placements, pool)
            else:
                _bm, ref_id, rdx, rdy = targets[i]
                iaai.encode(mq, 1)
                iaid.encode(mq, ref_id)
                iardx.encode(mq, rdx)
                iardy.encode(mq, rdy)
                encode_refinement_region_data(
                    bm, pool[ref_id], rtemplate, GR_AT_NOMINAL, False,
                    rdx, rdy, enc=mq, stats=gr_stats,
                )
            pool.append(bm)
            i += 1
        iadw.encode(mq, None)
    iaex.encode(mq, len(input_symbols))  # input symbols not re-exported
    iaex.encode(mq, n_new)
    data = mq.finish()

    out = bytearray()
    flags = 2 | ((rtemplate & 1) << 12)  # SDREFAGG=1, SDTEMPLATE=0
    out += flags.to_bytes(2, "big")
    for dx, dy in GB_AT_NOMINAL[0]:  # SDTEMPLATE 0 AT pixels
        out += dx.to_bytes(1, "big", signed=True)
        out += dy.to_bytes(1, "big", signed=True)
    for dx, dy in GR_AT_NOMINAL:  # refinement AT pixels
        out += dx.to_bytes(1, "big", signed=True)
        out += dy.to_bytes(1, "big", signed=True)
    out += n_new.to_bytes(4, "big")  # SDNUMEXSYMS
    out += n_new.to_bytes(4, "big")  # SDNUMNEWSYMS
    out += data
    return bytes(out)


# -- huffman-coded symbol dictionary + text region (SDHUFF/SBHUFF) -----------

from ..pdfcore import jbig2_huffman as _JH  # noqa: E402


class BitWriter:
    """MSB-first bit writer (inverse of jbig2_huffman.BitReader)."""

    def __init__(self):
        self.buf = bytearray()
        self.acc = 0
        self.n = 0

    def write(self, v: int, nbits: int) -> None:
        if nbits:
            self.acc = (self.acc << nbits) | (v & ((1 << nbits) - 1))
            self.n += nbits
            while self.n >= 8:
                self.n -= 8
                self.buf.append((self.acc >> self.n) & 0xFF)
            self.acc &= (1 << self.n) - 1

    def align(self) -> None:
        if self.n:
            self.write(0, 8 - self.n)

    def write_bytes(self, b: bytes) -> None:
        assert self.n == 0, "write_bytes on unaligned stream"
        self.buf += b

    def finish(self) -> bytes:
        self.align()
        return bytes(self.buf)


def _huff_codes(lines):
    out = []
    code = 0
    for length in range(1, 33):
        code <<= 1
        for p, r, lo, kind in lines:
            if p == length:
                out.append((p, code, r, lo, kind))
                code += 1
    return out


class HuffEncoder:
    """Encode values against an Annex B line list (standard or custom);
    the exact inverse of jbig2_huffman.HuffTable."""

    def __init__(self, lines):
        self.codes = _huff_codes(lines)

    def encode(self, bw: BitWriter, v) -> None:
        if v is None:  # OOB
            for p, code, r, lo, kind in self.codes:
                if kind == 3:
                    bw.write(code, p)
                    return
            raise ValueError("table has no OOB line")
        for p, code, r, lo, kind in self.codes:
            if kind == 0 and lo <= v < lo + (1 << r):
                bw.write(code, p)
                bw.write(v - lo, r)
                return
        for p, code, r, lo, kind in self.codes:
            if kind == 1 and v <= lo:
                bw.write(code, p)
                bw.write(lo - v, 32)
                return
            if kind == 2 and v >= lo:
                bw.write(code, p)
                bw.write(v - lo, 32)
                return
        raise ValueError(f"value {v} not representable by table")


def _std_enc(n: int) -> HuffEncoder:
    return HuffEncoder(_JH._STANDARD_LINES[n])


def encode_refagg_symbol_dict_huffman(
    targets: list[tuple[np.ndarray, int, int, int]],
    input_symbols: list[np.ndarray],
    rtemplate: int = 0,
) -> bytes:
    """SDHUFF=1 + SDREFAGG=1 dictionary (6.5.8.2 huffman, single
    instance): DH via B.4, DW via B.2, AGGINST/RSIZE via B.1, RDX/RDY
    via B.15, symbol ID as an SBSYMCODELEN-bit field, per-symbol
    byte-aligned MQ refinement data. ``targets`` entries are either
    ``(bitmap, ref_id, rdx, rdy)`` — single-instance (REFAGGNINST=1) —
    or ``(bitmap, placements)`` with placements =
    ``[(ref_id, s, t, rdx, rdy, refined_bm_or_None), ...]`` — a
    REFAGGNINST>1 aggregate coded as a nested huffman text region per
    6.5.8.2.2 Table 17 (FS=B.6, DS=B.8, DT=B.11, RD*=B.15, RSIZE=B.1).
    Sorted by ascending height."""
    bw = BitWriter()
    enc_dh = _std_enc(4)
    enc_dw = _std_enc(2)
    enc_agg = _std_enc(1)
    enc_rdxy = _std_enc(15)
    enc_rsize = _std_enc(1)
    enc_ex = _std_enc(1)
    enc_fs = _std_enc(6)
    enc_ds = _std_enc(8)
    enc_dt = _std_enc(11)
    n_new = len(targets)
    symcodelen = max(1, (max(1, len(input_symbols) + n_new) - 1).bit_length())
    pool = list(input_symbols)

    def encode_aggregate_huffman(placements):
        # nested huffman text region: SBSTRIPS=1, TOPLEFT, OR. B.11 (DT)
        # encodes values >= 1 only, so pin the initial STRIPT field to 1
        # (decoder negates: stript = -1) and emit dt = t + 1 - stript.
        strips: dict[int, list[tuple]] = {}
        for ref_id, s, t, rdx, rdy, rbm in placements:
            strips.setdefault(t, []).append((s, ref_id, rdx, rdy, rbm))
        enc_dt.encode(bw, 1)
        stript = -1
        firsts = 0
        for t in sorted(strips):
            enc_dt.encode(bw, t - stript)
            stript = t
            curs = 0
            for j, (s, ref_id, rdx, rdy, rbm) in enumerate(
                sorted(strips[t], key=lambda e: e[0])
            ):
                if j == 0:
                    enc_fs.encode(bw, s - firsts)
                    firsts = s
                    curs = s
                else:
                    enc_ds.encode(bw, s - curs)
                    curs = s
                bw.write(ref_id, symcodelen)
                bm = pool[ref_id]
                if rbm is None:
                    bw.write(0, 1)  # RI
                else:
                    bw.write(1, 1)
                    rdw = rbm.shape[1] - bm.shape[1]
                    rdh = rbm.shape[0] - bm.shape[0]
                    enc_rdxy.encode(bw, rdw)
                    enc_rdxy.encode(bw, rdh)
                    enc_rdxy.encode(bw, rdx)
                    enc_rdxy.encode(bw, rdy)
                    data = encode_refinement_region_data(
                        rbm, bm, rtemplate, GR_AT_NOMINAL, False,
                        (rdw >> 1) + rdx, (rdh >> 1) + rdy,
                    )
                    enc_rsize.encode(bw, len(data))
                    bw.align()
                    bw.write_bytes(data)
                    bm = rbm
                curs += bm.shape[1] - 1
            enc_ds.encode(bw, None)  # OOB ends the strip
    hcheight = 0
    i = 0
    while i < n_new:
        hgt = targets[i][0].shape[0]
        enc_dh.encode(bw, hgt - hcheight)
        hcheight = hgt
        symwidth = 0
        while i < n_new and targets[i][0].shape[0] == hcheight:
            if len(targets[i]) == 2:  # aggregate form
                bm, placements = targets[i]
                enc_dw.encode(bw, bm.shape[1] - symwidth)
                symwidth = bm.shape[1]
                enc_agg.encode(bw, len(placements))  # REFAGGNINST
                encode_aggregate_huffman(placements)
                pool.append(bm)
                i += 1
                continue
            bm, ref_id, rdx, rdy = targets[i]
            enc_dw.encode(bw, bm.shape[1] - symwidth)
            symwidth = bm.shape[1]
            enc_agg.encode(bw, 1)  # REFAGGNINST
            bw.write(ref_id, symcodelen)
            enc_rdxy.encode(bw, rdx)
            enc_rdxy.encode(bw, rdy)
            data = encode_refinement_region_data(
                bm, pool[ref_id], rtemplate, GR_AT_NOMINAL, False,
                rdx, rdy,
            )
            enc_rsize.encode(bw, len(data))
            bw.align()
            bw.write_bytes(data)
            pool.append(bm)
            i += 1
        enc_dw.encode(bw, None)  # OOB ends the height class
    enc_ex.encode(bw, len(input_symbols))
    enc_ex.encode(bw, n_new)
    sd_data = bw.finish()

    out = bytearray()
    flags = 1 | 2 | ((rtemplate & 1) << 12)  # SDHUFF=1, SDREFAGG=1
    out += flags.to_bytes(2, "big")
    if rtemplate == 0:
        for dx, dy in GR_AT_NOMINAL:
            out += dx.to_bytes(1, "big", signed=True)
            out += dy.to_bytes(1, "big", signed=True)
    out += n_new.to_bytes(4, "big")  # SDNUMEXSYMS
    out += n_new.to_bytes(4, "big")  # SDNUMNEWSYMS
    out += sd_data
    return bytes(out)


def encode_table_segment_payload(
    htlow: int,
    hthigh: int,
    pairs: list[tuple[int, int]],
    lower_pref: int = 0,
    upper_pref: int = 0,
    oob_pref: int | None = None,
) -> bytes:
    """Custom huffman table segment payload (T.88 B.2): ``pairs`` =
    [(preflen, rangelen), ...] covering [htlow, hthigh)."""
    htps = max([p for p, _ in pairs] + [lower_pref, upper_pref,
                                        oob_pref or 0]).bit_length()
    htrs = max(r for _, r in pairs).bit_length()
    htps, htrs = max(htps, 1), max(htrs, 1)
    out = bytearray()
    out.append(
        (1 if oob_pref is not None else 0)
        | ((htps - 1) << 1) | ((htrs - 1) << 4)
    )
    out += htlow.to_bytes(4, "big", signed=True)
    out += hthigh.to_bytes(4, "big", signed=True)
    bw = BitWriter()
    for p, r in pairs:
        bw.write(p, htps)
        bw.write(r, htrs)
    bw.write(lower_pref, htps)
    bw.write(upper_pref, htps)
    if oob_pref is not None:
        bw.write(oob_pref, htps)
    return bytes(out) + bw.finish()


def encode_symbol_dict_and_text_huffman(
    symbols: list[np.ndarray],
    placements: list[tuple],
    region_w: int,
    region_h: int,
    log_strips: int = 0,
    refcorner: int = 1,
    transposed: bool = False,
    mmr_collective: bool = False,
    dh_sel: int = 0,
    dw_sel: int = 0,
    dh_custom_payload: bytes | None = None,
) -> bytes:
    """Huffman-coded twin of encode_symbol_dict_and_text: SDHUFF=1
    symbol dictionary (per-height-class collective bitmaps, uncompressed
    or MMR) + SBHUFF=1 text region (run-code symbol ID table, standard
    tables B.1/B.6/B.8/B.11/B.15). Symbols must be sorted by ascending
    (height, width) when dh_sel/dw_sel select the non-negative tables
    B.4/B.2 (selection 0); selections 1 pick B.5/B.3 which carry signed
    deltas. Placements may include refinement entries
    (sym_id, s, t, refined_bitmap, rdx, rdy) like the arithmetic
    encoder."""
    nsyms = len(symbols)

    # --- symbol dictionary (SDHUFF=1, SDREFAGG=0)
    bw = BitWriter()
    if dh_custom_payload is not None:
        dh_sel = 3  # custom table via referred type-53 segment
        enc_dh = HuffEncoder(_JH.parse_table_lines(dh_custom_payload))
    else:
        enc_dh = _std_enc(5 if dh_sel else 4)
    enc_dw = _std_enc(3 if dw_sel else 2)
    enc_bm = _std_enc(1)
    enc_ex = _std_enc(1)
    hcheight = 0
    i = 0
    while i < nsyms:
        hgt = symbols[i].shape[0]
        enc_dh.encode(bw, hgt - hcheight)
        hcheight = hgt
        symwidth = 0
        cls = []
        while i < nsyms and symbols[i].shape[0] == hcheight:
            wdt = symbols[i].shape[1]
            enc_dw.encode(bw, wdt - symwidth)
            symwidth = wdt
            cls.append(symbols[i])
            i += 1
        enc_dw.encode(bw, None)  # OOB ends the height class
        coll = np.concatenate(cls, axis=1).astype(np.uint8)
        if mmr_collective:
            from .ccittenc import encode_g4

            data = encode_g4(coll)
            enc_bm.encode(bw, len(data))
            bw.align()
            bw.write_bytes(data)
        else:
            enc_bm.encode(bw, 0)
            bw.align()
            bw.write_bytes(np.packbits(coll, axis=1).tobytes())
    enc_ex.encode(bw, 0)      # run of 0 non-exported
    enc_ex.encode(bw, nsyms)  # export all
    sd_data = bw.finish()

    sd = bytearray()
    flags = 1 | (dh_sel << 2) | (dw_sel << 4)  # SDHUFF=1
    sd += flags.to_bytes(2, "big")
    sd += nsyms.to_bytes(4, "big")  # SDNUMEXSYMS
    sd += nsyms.to_bytes(4, "big")  # SDNUMNEWSYMS
    sd += sd_data

    # --- text region (SBHUFF=1)
    sbrefine = any(len(p) > 3 for p in placements)
    bw = BitWriter()
    # run-code symbol ID table: every symbol gets the same L-bit code;
    # the single used run-code gets a 1-bit code, the rest length 0
    symlen = max(1, (nsyms - 1).bit_length())
    for rc in range(35):
        bw.write(1 if rc == symlen else 0, 4)
    for _ in range(nsyms):
        bw.write(0, 1)  # the lone run-code's canonical code is '0'
    bw.align()  # decoder aligns after the symbol ID table

    enc_fs = _std_enc(6)
    enc_ds = _std_enc(8)
    enc_dt = _std_enc(11)
    enc_rd = _std_enc(15)
    enc_rs = _std_enc(1)
    n_strips = 1 << log_strips
    strips: dict[int, list[tuple]] = {}
    for pl in placements:
        sym_id, s, t = pl[0], pl[1], pl[2]
        refine = pl[3:] if len(pl) > 3 else None
        if transposed:
            s, t = t, s
            if refcorner in (2, 3):
                t = t + symbols[sym_id].shape[1] - 1
        else:
            if refcorner in (0, 2):
                t = t + symbols[sym_id].shape[0] - 1
        base = (t // n_strips) * n_strips
        strips.setdefault(base, []).append((s, sym_id, t - base, refine))
    enc_dt.encode(bw, 1)  # initial STRIPT = -1 * SBSTRIPS (B.11 min is 1)
    stript = -n_strips
    firsts = 0
    for base in sorted(strips):
        enc_dt.encode(bw, (base - stript) // n_strips)
        stript = base
        insts = sorted(strips[base], key=lambda e: e[:3])
        curs = 0
        for j, (s, sym_id, curt, refine) in enumerate(insts):
            if j == 0:
                enc_fs.encode(bw, s - firsts)
                firsts = s
                curs = s
            else:
                enc_ds.encode(bw, s - curs)
                curs = s
            if n_strips > 1:
                bw.write(curt, log_strips)  # fixed-length TI in huffman
            bw.write(sym_id, symlen)
            inst_bm = symbols[sym_id]
            if sbrefine:
                if refine is None:
                    bw.write(0, 1)
                else:
                    rbm, rdx, rdy = refine
                    rdw = rbm.shape[1] - inst_bm.shape[1]
                    rdh = rbm.shape[0] - inst_bm.shape[0]
                    bw.write(1, 1)
                    enc_rd.encode(bw, rdw)
                    enc_rd.encode(bw, rdh)
                    enc_rd.encode(bw, rdx)
                    enc_rd.encode(bw, rdy)
                    mq = MQEncoder()
                    encode_refinement_region_data(
                        rbm, inst_bm, 0, GR_AT_NOMINAL, False,
                        (rdw >> 1) + rdx, (rdh >> 1) + rdy, enc=mq,
                    )
                    rdata = mq.finish()
                    enc_rs.encode(bw, len(rdata))
                    bw.align()
                    bw.write_bytes(rdata)
                    inst_bm = rbm
            adv = inst_bm.shape[0] if transposed else inst_bm.shape[1]
            curs += adv - 1
        enc_ds.encode(bw, None)  # OOB ends the strip
    tr_data = bw.finish()

    tr = bytearray()
    tr += region_w.to_bytes(4, "big") + region_h.to_bytes(4, "big")
    tr += (0).to_bytes(4, "big") + (0).to_bytes(4, "big")
    tr += bytes([0])  # region comb op OR
    flags = (
        1  # SBHUFF
        | ((1 if sbrefine else 0) << 1)
        | ((log_strips & 3) << 2)
        | ((refcorner & 3) << 4)
        | ((1 if transposed else 0) << 6)
    )
    tr += flags.to_bytes(2, "big")
    # huffman flags: FS=B.6, DS=B.8, DT=B.11, RDW/RDH/RDX/RDY=B.15
    # (selection 1), RSIZE=B.1
    hflags = (1 << 6) | (1 << 8) | (1 << 10) | (1 << 12)
    tr += hflags.to_bytes(2, "big")
    if sbrefine:  # rtemplate 0 refinement AT pixels
        for dx, dy in GR_AT_NOMINAL:
            tr += dx.to_bytes(1, "big", signed=True)
            tr += dy.to_bytes(1, "big", signed=True)
    tr += len(placements).to_bytes(4, "big")
    tr += tr_data

    out = bytearray()
    out += _segment(0, 48, _page_info(region_w, region_h))
    if dh_custom_payload is not None:
        out += _segment(1, 53, dh_custom_payload)    # custom table
        out += _segment_ref(2, 0, [1], sd)           # symbol dictionary
        out += _segment_ref(3, 6, [2], bytes(tr))    # text region
        out += _segment(4, 49, b"")
    else:
        out += _segment_ref(1, 0, [], sd)          # symbol dictionary
        out += _segment_ref(2, 6, [1], bytes(tr))  # immediate text region
        out += _segment(3, 49, b"")
    return bytes(out)
