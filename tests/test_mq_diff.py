"""Differential test of the compiled MQ kernel (``pdfcore/mq.c``) against
the pure-Python code it replaced, frozen in ``tests/reference_mq.py``.

Every family must give the same output, or the same error class and
message: the per-bit MQ entry, JPX tier-1 code-blocks (random blocks
over every code-block style subset, orientation and pass truncation;
corrupted blocks; 60-70 bitplanes with and without ROI shifts), JBIG2
generic regions (templates 0-3, TPGDON, nominal and exotic AT pixels,
USESKIP, a decoder shared across bitmaps, corrupt data) and every golden
PDF fixture with the reference swapped in for both loops.
"""

import numpy as np
import pytest

from pdf_ray.fixtures.corpus import FIXTURES
from pdf_ray.fixtures.jbig2enc import encode_generic_region_data
from pdf_ray.fixtures.jpxenc import _encode_cblk
from pdf_ray.pdfcore import jbig2, jpx
from pdf_ray.pdfcore.interp import extract_spans
from pdf_ray.pdfcore.mq import MQDecoder, new_stats

from . import reference_mq as ref

ORIENTS = ("LL", "LH", "HL", "HH")


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as e:  # noqa: BLE001 - the class is what is compared
        return ("raise", type(e), str(e))


def _same(a, b):
    if a[0] != b[0]:
        return False
    if a[0] == "raise":
        return a == b
    return np.array_equal(a[1], b[1])


def _kernel_cblk(segs, w, h, numbps, npasses, orient, cbstyle, roi=0):
    """The kernel's block, written at an offset inside a larger band so
    the stride and the offset are exercised too."""
    band = np.full((h + 3, w + 5), 7, np.int64)
    jpx._decode_cblk(segs, w, h, numbps, npasses, orient, cbstyle, roi, band, 2, 3)
    assert (band[:2] == 7).all() and (band[:, :3] == 7).all()
    assert (band[2 + h :] == 7).all() and (band[:, 3 + w :] == 7).all()
    return band[2 : 2 + h, 3 : 3 + w].copy()


def _check_cblk(segs, w, h, numbps, npasses, orient, cbstyle, roi=0):
    args = (segs, w, h, numbps, npasses, orient, cbstyle, roi)
    want = _outcome(lambda: ref.cblk_ints(*args))
    got = _outcome(lambda: _kernel_cblk(*args))
    assert _same(got, want), (args[1:], got, want)
    return want


def _random_block(rng):
    side = 65 if rng.random() < 0.05 else 25
    w, h = int(rng.integers(1, side)), int(rng.integers(1, side))
    numbps = int(rng.integers(1, 11))
    dens = rng.choice([0.05, 0.3, 1.0])
    coefs = rng.integers(-(1 << numbps) + 1, 1 << numbps, (h, w))
    coefs = np.where(rng.random((h, w)) < dens, coefs, 0).astype(np.int64)
    orient = ORIENTS[int(rng.integers(4))]
    cbstyle = int(rng.integers(0, 64))
    segs, total = _encode_cblk(coefs, numbps, orient, cbstyle)
    return coefs, segs, total, w, h, numbps, orient, cbstyle


def test_per_bit_entry_matches_reference():
    rng = np.random.default_rng(11)
    for n in (0, 1, 2, 7, 64, 500):
        data = bytes(rng.integers(0, 256, n, dtype=np.uint8))
        if n > 4:  # markers and stuffed bytes
            data = data[:3] + b"\xff\x7f\xff\x90" + data[3:]
        nctx = int(rng.integers(1, 40))
        ctxs = [int(c) for c in rng.integers(0, nctx, 3000)]
        r = ref.MQDecoder(data)
        idx, mps = bytearray(nctx), bytearray(nctx)
        want = [r.decode(c, idx, mps) for c in ctxs]
        k, stats = MQDecoder(data), new_stats(nctx)
        assert [k.decode(stats, c) for c in ctxs] == want


def test_random_codeblocks_match_reference():
    """Random blocks over every cbstyle subset and orientation, decoded
    whole and truncated to a random pass count, with and without ROI."""
    rng = np.random.default_rng(1)
    for _ in range(600):
        coefs, segs, total, w, h, numbps, orient, cbstyle = _random_block(rng)
        want = _check_cblk(segs, w, h, numbps, total, orient, cbstyle)
        assert want[0] == "ok" and np.array_equal(want[1], coefs)
        npasses = int(rng.integers(1, total + 1))
        roi = int(rng.choice([0, 0, 2, 5]))
        _check_cblk(segs, w, h, numbps, npasses, orient, cbstyle, roi)


def _corrupt(rng, segs):
    segs = [bytearray(s) for s, _ in segs]
    i = int(rng.integers(len(segs)))
    s = segs[i]
    op = int(rng.integers(4))
    if op == 0 and s:
        for _ in range(int(rng.integers(1, 4))):
            s[int(rng.integers(len(s)))] = int(rng.integers(256))
    elif op == 1:
        del s[int(rng.integers(len(s) + 1)) :]
    elif op == 2:
        s[int(rng.integers(len(s) + 1)) : 0] = b"\xff" + bytes(
            rng.integers(0, 256, 3, dtype=np.uint8)
        )
    else:
        segs.pop(i)
    return segs


def test_corrupted_codeblocks_match_reference():
    """Byte edits, truncations, inserted 0xFF runs and lost segments:
    wrong output or a segmentation-symbol error, the same either way."""
    rng = np.random.default_rng(2)
    errors = 0
    for _ in range(200):
        _, segs, total, w, h, numbps, orient, cbstyle = _random_block(rng)
        bad = [[s, 1] for s in _corrupt(rng, segs)]
        npasses = total + int(rng.integers(0, 3))  # also passes with no data
        errors += _check_cblk(bad, w, h, numbps, npasses, orient, cbstyle)[0] == "raise"
    assert errors > 0  # the family reaches the error path


@pytest.mark.parametrize("roi", [0, 7])
def test_deep_bitplanes_match_reference(roi):
    """numbps 60-70 over random bytes: bits at bitplane >= 63 overflow
    int64 with the error the reference's int64 conversion raises."""
    rng = np.random.default_rng(3 + roi)
    kinds = set()
    for _ in range(12):
        numbps = int(rng.integers(60, 71))
        w, h = int(rng.integers(1, 7)), int(rng.integers(1, 9))
        cbstyle = int(rng.choice([0, 0x01, 0x04, 0x08, 0x20]))
        nsegs = 1 if not cbstyle & 0x05 else 60
        segs = [[bytes(rng.integers(0, 256, 6, dtype=np.uint8)), 1] for _ in range(nsegs)]
        npasses = int(rng.integers(1, 3 * numbps - 1))
        out = _check_cblk(segs, w, h, numbps, npasses, ORIENTS[int(rng.integers(4))], cbstyle, roi)
        kinds.add(out[0] if out[0] == "ok" else out[1])
    # high magnitudes that still fit int64: an encoded block at 63 planes
    coefs = np.array([[(1 << 62) + 12345, -(1 << 61)], [0, 1]], np.int64)
    segs, total = _encode_cblk(coefs, 63, "HH", 0)
    _check_cblk(segs, 2, 2, 63, total, "HH", 0, roi)
    assert OverflowError in kinds


def _at_sets(template):
    nominal = jbig2.GB_AT_NOMINAL[template]
    exotic = [(-7, -5), (5, -3), (-128, -1), (2, -12)][: len(nominal)]
    return [nominal, exotic]


@pytest.mark.parametrize("template", [0, 1, 2, 3])
@pytest.mark.parametrize("tpgdon", [False, True])
def test_generic_regions_match_reference(template, tpgdon):
    rng = np.random.default_rng(template * 2 + tpgdon)
    for at in _at_sets(template):
        for _ in range(3):
            h, w = int(rng.integers(1, 30)), int(rng.integers(1, 40))
            bm = (rng.random((h, w)) < 0.3).astype(np.uint8)
            bm[h // 2 :] = bm[h // 2]  # typical rows for TPGDON
            data = encode_generic_region_data(bm, template, at, tpgdon)
            for d in (data, data[: len(data) // 2], bytes(rng.integers(0, 256, 40, dtype=np.uint8))):
                want = _outcome(lambda: ref.decode_generic_region(d, w, h, template, at, tpgdon))
                got = _outcome(lambda: jbig2.decode_generic_region(d, w, h, template, at, tpgdon))
                assert _same(got, want)
            assert np.array_equal(jbig2.decode_generic_region(data, w, h, template, at, tpgdon), bm)


def test_shared_decoder_and_skip_match_reference():
    """Bitplanes through one decoder and one stats set (halftone, symbol
    dictionary) with a USESKIP mask, on encoded and on random bytes."""
    rng = np.random.default_rng(5)
    for template in range(4):
        at = jbig2.GB_AT_NOMINAL[template]
        nbits = len(jbig2.GB_TEMPLATES[template]) + len(at)
        for data in (
            encode_generic_region_data((rng.random((9, 17)) < 0.4).astype(np.uint8), template),
            bytes(rng.integers(0, 256, 64, dtype=np.uint8)),
        ):
            skip = (rng.random((9, 17)) < 0.3).astype(np.uint8)
            r, idx, mps = ref.MQDecoder(data), bytearray(1 << nbits), bytearray(1 << nbits)
            k, stats = MQDecoder(data), new_stats(1 << nbits)
            for sk in (skip, None, skip):
                want = ref._decode_bitmap(r, idx, mps, 17, 9, template, at, False, skip=sk)
                got = jbig2._decode_bitmap(k, stats, 17, 9, template, at, False, skip=sk)
                assert np.array_equal(got, want)


def _ref_cblk(segs, w, h, numbps, npasses, orient, cbstyle, roi, out, y0, x0):
    out[y0 : y0 + h, x0 : x0 + w] = ref.cblk_ints(segs, w, h, numbps, npasses, orient, cbstyle, roi)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_golden_fixtures_match_reference(name, monkeypatch):
    """Spans, images and errors of every golden fixture, with the kernel
    and with the reference in its place (JPX tier-1 and immediate
    generic regions; shared-decoder JBIG2 paths are pinned by the
    goldens themselves)."""
    pdf, _ = FIXTURES[name]()
    got = _outcome(lambda: extract_spans(pdf, collect_images=True))
    monkeypatch.setattr(jpx, "_decode_cblk", _ref_cblk)
    monkeypatch.setattr(jbig2, "decode_generic_region", ref.decode_generic_region)
    want = _outcome(lambda: extract_spans(pdf, collect_images=True))
    assert got == want
