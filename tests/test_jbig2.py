"""JBIG2 generic-region codec: MQ-coder roundtrips (the encoder and
decoder are independent transcriptions of T.88 Annex E's two flowchart
sets), generic-region roundtrips over all four GB templates with and
without TPGDON, MMR=1 regions against the independently-golden CCITT
coder, embedded segment streams, and the JBIG2Globals filter path."""

import numpy as np
import pytest

from pdf_ray.fixtures.jbig2enc import (
    MQEncoder,
    encode_generic_region_data,
    encode_jbig2_embedded,
)
from pdf_ray.pdfcore.jbig2 import (
    GB_AT_NOMINAL,
    decode_generic_region,
    decode_jbig2_embedded,
)
from pdf_ray.pdfcore.mq import QE, MQDecoder, new_stats
from pdf_ray.pdfcore.objects import PdfParseError, Stream


def _roundtrip(bits, ctxs, n_ctx):
    idx = np.zeros(n_ctx, np.uint8)
    mps = np.zeros(n_ctx, np.uint8)
    enc = MQEncoder()
    for b, c in zip(bits, ctxs):
        enc.encode(int(b), int(c), idx, mps)
    data = enc.finish()
    stats = new_stats(n_ctx)
    dec = MQDecoder(data)
    return [dec.decode(stats, int(c)) for c in ctxs]


def test_qe_table_structure():
    """Structural invariants of the T.88 Table E.1 transcription."""
    assert len(QE) == 47
    for i, (qe, nmps, nlps, switch) in enumerate(QE):
        assert 0 < qe <= 0x5601
        assert 0 <= nmps < 47 and 0 <= nlps < 47
        assert switch in (0, 1)
        # SWITCH only ever set on the 0x5601 start-of-chain states
        if switch:
            assert qe == 0x5601
    assert QE[46] == (0x5601, 46, 46, 0)  # the non-adapting state


def test_mq_roundtrip_random():
    rng = np.random.RandomState(0)
    for _ in range(20):
        n = rng.randint(1, 2000)
        bits = rng.randint(0, 2, n)
        ctxs = rng.randint(0, 16, n)
        assert _roundtrip(bits, ctxs, 16) == list(bits)


def test_mq_roundtrip_skewed():
    for pattern in (
        [0] * 5000,
        [1] * 5000,
        ([0] * 200 + [1]) * 20,
        [0, 1] * 1000,
    ):
        assert _roundtrip(pattern, [0] * len(pattern), 4) == pattern


@pytest.mark.parametrize("template", [0, 1, 2, 3])
@pytest.mark.parametrize("tpgdon", [False, True])
def test_generic_region_roundtrip(template, tpgdon):
    rng = np.random.RandomState(7 + template)
    cases = [
        (rng.rand(17, 23) < 0.3).astype(np.uint8),
        np.zeros((5, 40), np.uint8),
        np.tile((rng.rand(1, 31) < 0.5).astype(np.uint8), (9, 1)),  # TPGD rows
        np.ones((3, 3), np.uint8),
    ]
    for bm in cases:
        h, w = bm.shape
        data = encode_generic_region_data(bm, template, None, tpgdon)
        out = decode_generic_region(
            data, w, h, template, GB_AT_NOMINAL[template], tpgdon
        )
        assert (out == bm).all()


def test_embedded_multi_region_compose():
    rng = np.random.RandomState(5)
    bm1 = (rng.rand(10, 30) < 0.4).astype(np.uint8)
    bm2 = (rng.rand(6, 12) < 0.5).astype(np.uint8)
    stream = encode_jbig2_embedded(
        [{"bitmap": bm1}, {"bitmap": bm2, "x": 4, "y": 12, "mmr": True}],
        30,
        20,
    )
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(20, -1), axis=1
    )[:, :30]
    page = np.zeros((20, 30), np.uint8)
    page[:10, :30] |= bm1
    page[12:18, 4:16] |= bm2
    assert (rows == 1 - page).all()  # filter output is 0=black


def test_mmr_region_matches_mq_region():
    """The same bitmap through MMR=1 (T.6 via ccitt.py) and MQ coding
    must decode identically — two independent codecs, one truth."""
    rng = np.random.RandomState(9)
    bm = (rng.rand(12, 20) < 0.35).astype(np.uint8)
    a = decode_jbig2_embedded(
        encode_jbig2_embedded([{"bitmap": bm}], 20, 12)
    )
    b = decode_jbig2_embedded(
        encode_jbig2_embedded([{"bitmap": bm, "mmr": True}], 20, 12)
    )
    assert a == b


def test_jbig2_globals_filter_path():
    """Page info delivered via JBIG2Globals (the PDF split), region in
    the stream proper, decoded through the full filter chain."""
    from pdf_ray.pdfcore.filters import decode_stream

    bm = np.eye(8, dtype=np.uint8)
    full = encode_jbig2_embedded([{"bitmap": bm}], 8, 8)
    # split: globals = page-info segment; stream = the rest
    # (segment 0 header is 11 bytes + 19-byte page info payload)
    globals_part, region_part = full[:30], full[30:]
    gs = Stream({"Length": len(globals_part)}, globals_part)
    s = Stream(
        {"Filter": "JBIG2Decode", "DecodeParms": {"JBIG2Globals": gs}},
        region_part,
    )
    packed = decode_stream(s, resolve=lambda x: x)
    rows = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(8, 1), axis=1)
    assert (rows == 1 - bm).all()


def test_unsupported_segment_types_raise():
    # a symbol-dictionary segment (type 0) must fail the row, not decode
    head = (0).to_bytes(4, "big") + bytes([0, 0, 1]) + (4).to_bytes(4, "big")
    with pytest.raises(PdfParseError):
        decode_jbig2_embedded(head + b"\x00\x00\x00\x00")


def test_fuzz_no_crash_or_hang(monkeypatch):
    """Random / truncated segment streams must raise PdfParseError (or
    decode) — never crash with an unexpected exception type or hang.
    The pixel budget is shrunk so garbage that parses into a "plausible"
    big region fails fast instead of grinding the serial decoder."""
    import numpy as np

    import pdf_ray.pdfcore.jbig2 as jb

    monkeypatch.setattr(jb, "MAX_REGION_PIXELS", 20_000)
    rng = np.random.RandomState(42)
    good = encode_jbig2_embedded(
        [{"bitmap": np.eye(6, dtype=np.uint8)}], 6, 6
    )
    from pdf_ray.fixtures.jbig2enc import (
        _segment,
        encode_symbol_dict_and_text,
        refinement_region_segment_payload,
    )

    cases = [bytes(rng.randint(0, 256, n, dtype=np.uint8).tolist()) for n in (0, 3, 11, 40, 200)]
    cases += [good[:k] for k in range(0, len(good), 7)]
    T = np.eye(4, dtype=np.uint8)
    symtext = encode_symbol_dict_and_text([T], [(0, 1, 1)], 8, 8)
    cases += [symtext[:k] for k in range(0, len(symtext), 11)]
    base = np.eye(6, dtype=np.uint8)
    ref = good[:-11] + _segment(
        2, 42, refinement_region_segment_payload(base, 0, 0, reference=base)
    ) + _segment(3, 49, b"")
    cases += [ref[:k] for k in range(0, len(ref), 13)]
    # bit-flip corruption of valid streams
    for seed in range(5):
        r2 = np.random.RandomState(seed)
        blob = bytearray(symtext)
        for _ in range(4):
            blob[r2.randint(0, len(blob))] ^= 1 << r2.randint(0, 8)
        cases.append(bytes(blob))
    for i, blob in enumerate(cases):
        try:
            decode_jbig2_embedded(blob)
        except PdfParseError:
            pass
        except Exception as e:  # pragma: no cover
            raise AssertionError(f"case {i}: unexpected {type(e).__name__}: {e}")


def _glyphs():
    T = np.array(
        [[1, 1, 1, 1, 1], [0, 0, 1, 0, 0], [0, 0, 1, 0, 0],
         [0, 0, 1, 0, 0], [0, 0, 1, 0, 0]], np.uint8)
    L = np.array(
        [[1, 0, 0, 0, 0], [1, 0, 0, 0, 0], [1, 0, 0, 0, 0],
         [1, 0, 0, 0, 0], [1, 1, 1, 1, 1]], np.uint8)
    return T, L


@pytest.mark.parametrize("refcorner", [0, 1, 2, 3])
def test_symbol_dict_and_text_region_roundtrip(refcorner):
    """Symbol dictionary + text region (the dominant scanned-PDF mode):
    two glyph bitmaps placed five times across two strips must compose
    the hand-computed page exactly, for every reference corner."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text

    T, L = _glyphs()
    placements = [(0, 1, 1), (1, 8, 1), (0, 15, 1), (1, 2, 8), (0, 9, 8)]
    stream = encode_symbol_dict_and_text(
        [T, L], placements, 24, 16, refcorner=refcorner
    )
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(16, -1), axis=1
    )[:, :24]
    page = np.zeros((16, 24), np.uint8)
    for sid, s, t in placements:
        sym = (T, L)[sid]
        page[t : t + 5, s : s + 5] |= sym
    assert (rows == 1 - page).all()


def test_symbol_dict_multiple_height_classes():
    """Symbols of different heights exercise the DH/DW class loop and
    per-class OOB terminators."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text

    dot = np.ones((2, 2), np.uint8)
    bar = np.ones((4, 3), np.uint8)
    tall = np.zeros((6, 4), np.uint8)
    tall[:, 1:3] = 1
    placements = [(0, 1, 3), (1, 5, 2), (2, 10, 1), (0, 16, 4)]
    stream = encode_symbol_dict_and_text(
        [dot, bar, tall], placements, 22, 10
    )
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(10, -1), axis=1
    )[:, :22]
    page = np.zeros((10, 22), np.uint8)
    for sid, s, t in placements:
        sym = (dot, bar, tall)[sid]
        page[t : t + sym.shape[0], s : s + sym.shape[1]] |= sym
    assert (rows == 1 - page).all()


@pytest.mark.parametrize("rtemplate", [0, 1])
def test_symbol_dict_huffman_refagg_roundtrip(rtemplate):
    """SDHUFF+SDREFAGG (6.5.8.2, REFAGGNINST=1): huffman-coded height/
    width classes whose symbols are byte-aligned MQ refinements of
    pool symbols — including a chained refinement of a new symbol."""
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict_huffman
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    rng = np.random.RandomState(46)
    base = (rng.rand(7, 9) < 0.4).astype(np.uint8)
    t1 = base.copy(); t1[2, 3] ^= 1; t1[5, 7] ^= 1
    t2 = t1.copy(); t2[0, 0] ^= 1  # refines the NEW symbol t1 (id 1)
    payload = encode_refagg_symbol_dict_huffman(
        [(t1, 0, 0, 0), (t2, 1, 1, -1)], [base], rtemplate=rtemplate
    )
    out = decode_symbol_dictionary(payload, [base])
    assert len(out) == 2
    assert (out[0] == t1).all()
    assert (out[1] == t2).all()


def test_symbol_dict_huffman_refagg_truncated_raises():
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict_huffman
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    base = np.eye(5, dtype=np.uint8)
    t1 = base.copy(); t1[0, 4] ^= 1
    payload = encode_refagg_symbol_dict_huffman([(t1, 0, 0, 0)], [base])
    with pytest.raises(PdfParseError):
        decode_symbol_dictionary(payload[:-2], [base])


@pytest.mark.parametrize("log_strips", [1, 2])
def test_text_region_multi_strip(log_strips):
    """SBSTRIPS > 1: per-instance CURT offsets are IAIT-coded; varied T
    coordinates within a strip must land exactly."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text

    T, L = _glyphs()
    placements = [(0, 1, 1), (1, 8, 2), (0, 15, 3), (1, 2, 9), (0, 9, 8)]
    stream = encode_symbol_dict_and_text(
        [T, L], placements, 24, 16, log_strips=log_strips
    )
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(16, -1), axis=1
    )[:, :24]
    page = np.zeros((16, 24), np.uint8)
    for sid, s, t in placements:
        page[t : t + 5, s : s + 5] |= (T, L)[sid]
    assert (rows == 1 - page).all()


@pytest.mark.parametrize("refcorner", [0, 1, 2, 3])
def test_text_region_transposed(refcorner):
    """TRANSPOSED=1: S runs vertically, T horizontally; every reference
    corner must still place the glyphs at the same page positions."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text

    T, L = _glyphs()
    placements = [(0, 2, 1), (1, 3, 9), (0, 9, 4)]
    stream = encode_symbol_dict_and_text(
        [T, L], placements, 16, 15, refcorner=refcorner, transposed=True
    )
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(15, -1), axis=1
    )[:, :16]
    page = np.zeros((15, 16), np.uint8)
    for sid, s, t in placements:
        page[t : t + 5, s : s + 5] |= (T, L)[sid]
    assert (rows == 1 - page).all()


@pytest.mark.parametrize("template", [0, 1])
def test_refinement_region_roundtrip(template):
    """Refinement regions decode against the page-so-far: a generic
    region lays down a base bitmap, then a refinement segment REPLACEs
    it with a corrected version coded relative to that reference."""
    from pdf_ray.fixtures.jbig2enc import (
        _page_info,
        _segment,
        refinement_region_segment_payload,
    )

    rng = np.random.RandomState(13)
    base = (rng.rand(12, 18) < 0.3).astype(np.uint8)
    target = base.copy()
    flips = rng.rand(12, 18) < 0.08  # sparse corrections
    target[flips] ^= 1
    stream = encode_jbig2_embedded([{"bitmap": base}], 18, 12)
    stream = stream[:-11]  # drop the 11-byte end-of-page segment
    payload = refinement_region_segment_payload(
        target, 0, 0, comb_op=4, template=template, reference=base
    )
    stream += _segment(2, 42, payload)  # immediate refinement region
    stream += _segment(3, 49, b"")
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(12, -1), axis=1
    )[:, :18]
    assert (rows == 1 - target).all()


@pytest.mark.parametrize("template", [0, 1])
def test_refinement_tpgron_roundtrip(template):
    """TPGRON typical-prediction: rows whose uniform-reference pixels
    already match are LTP-flagged and skip decoding those pixels."""
    from pdf_ray.fixtures.jbig2enc import encode_refinement_region_data
    from pdf_ray.pdfcore.jbig2 import GR_AT_NOMINAL, decode_refinement_region

    rng = np.random.RandomState(21)
    base = (rng.rand(14, 20) < 0.35).astype(np.uint8)
    target = base.copy()
    # corrections only on a couple of rows: the rest become typical
    target[3, 4] ^= 1
    target[9, 15] ^= 1
    data = encode_refinement_region_data(
        target, base, template=template, tpgron=True
    )
    out = decode_refinement_region(
        data, 20, 14, template, GR_AT_NOMINAL, base, tpgron=True
    )
    assert (out == target).all()
    # identical target: every row typical, stream stays tiny
    data2 = encode_refinement_region_data(
        base, base, template=template, tpgron=True
    )
    out2 = decode_refinement_region(
        data2, 20, 14, template, GR_AT_NOMINAL, base, tpgron=True
    )
    assert (out2 == base).all()
    # with a mostly-uniform reference, typical rows make the identical-
    # target stream much smaller than coding every pixel
    flat = np.zeros((14, 20), np.uint8)
    flat[6:8, 8:12] = 1
    d_tp = encode_refinement_region_data(flat, flat, template=template,
                                         tpgron=True)
    d_no = encode_refinement_region_data(flat, flat, template=template,
                                         tpgron=False)
    assert (
        decode_refinement_region(
            d_tp, 20, 14, template, GR_AT_NOMINAL, flat, tpgron=True
        )
        == flat
    ).all()
    assert len(d_tp) <= len(d_no)


def test_halftone_region_roundtrip():
    """Pattern dictionary + halftone region: gray-coded bitplanes select
    per-cell patterns stamped on the grid — the page must equal the
    hand-composed stamping."""
    from pdf_ray.fixtures.jbig2enc import (
        _page_info,
        _segment,
        _segment_ref,
        encode_halftone_region,
        encode_pattern_dictionary,
    )

    # 4 gray levels as 4x4 density patterns
    p0 = np.zeros((4, 4), np.uint8)
    p1 = np.zeros((4, 4), np.uint8); p1[1:3, 1:3] = 1
    p2 = np.zeros((4, 4), np.uint8); p2[0:3, 0:3] = 1
    p3 = np.ones((4, 4), np.uint8)
    patterns = [p0, p1, p2, p3]
    rng = np.random.RandomState(3)
    values = rng.randint(0, 4, (5, 6)).astype(np.int32)

    stream = bytearray()
    stream += _segment(0, 48, _page_info(24, 20))
    stream += _segment(1, 16, encode_pattern_dictionary(patterns))
    stream += _segment_ref(
        2, 22, [1], encode_halftone_region(values, patterns, 24, 20)
    )
    stream += _segment(3, 49, b"")
    packed = decode_jbig2_embedded(bytes(stream))
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(20, -1), axis=1
    )[:, :24]
    page = np.zeros((20, 24), np.uint8)
    for mg in range(5):
        for ng in range(6):
            page[mg * 4 : mg * 4 + 4, ng * 4 : ng * 4 + 4] |= patterns[
                values[mg, ng]
            ]
    assert (rows == 1 - page).all()


def _halftone_fixture():
    p0 = np.zeros((4, 4), np.uint8)
    p1 = np.zeros((4, 4), np.uint8); p1[1:3, 1:3] = 1
    p2 = np.zeros((4, 4), np.uint8); p2[0:3, 0:3] = 1
    p3 = np.ones((4, 4), np.uint8)
    patterns = [p0, p1, p2, p3]
    rng = np.random.RandomState(7)
    values = rng.randint(0, 4, (5, 6)).astype(np.int32)
    return patterns, values


def _run_halftone(patterns, values, w, h, **kw):
    from pdf_ray.fixtures.jbig2enc import (
        _page_info, _segment, _segment_ref,
        encode_halftone_region, encode_pattern_dictionary,
    )

    stream = bytearray()
    stream += _segment(0, 48, _page_info(w, h))
    stream += _segment(1, 16, encode_pattern_dictionary(patterns))
    stream += _segment_ref(
        2, 22, [1], encode_halftone_region(values, patterns, w, h, **kw)
    )
    stream += _segment(3, 49, b"")
    packed = decode_jbig2_embedded(bytes(stream))
    return np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(h, -1), axis=1
    )[:, :w]


def test_halftone_region_mmr():
    """HMMR=1: bitplanes come from one bit-continuous MMR stream, each
    terminated by an EOFB (C.5)."""
    patterns, values = _halftone_fixture()
    rows = _run_halftone(patterns, values, 24, 20, mmr=True)
    page = np.zeros((20, 24), np.uint8)
    for mg in range(5):
        for ng in range(6):
            page[mg * 4 : mg * 4 + 4, ng * 4 : ng * 4 + 4] |= patterns[
                values[mg, ng]
            ]
    assert (rows == 1 - page).all()


def test_halftone_region_enable_skip():
    """ENABLESKIP: grid cells whose stamp lands entirely outside the
    region are never coded; a negative grid origin pushes the first
    row/column of cells out."""
    patterns, values = _halftone_fixture()
    rows = _run_halftone(
        patterns, values, 16, 12, hgx=-6, hgy=-5, enable_skip=True
    )
    page = np.zeros((12, 16), np.uint8)
    for mg in range(5):
        for ng in range(6):
            px, py = -6 + ng * 4, -5 + mg * 4
            if px + 4 <= 0 or px >= 16 or py + 4 <= 0 or py >= 12:
                continue  # decoder yields value 0 = blank pattern
            x0, y0 = max(0, px), max(0, py)
            x1, y1 = min(16, px + 4), min(12, py + 4)
            page[y0:y1, x0:x1] |= patterns[values[mg, ng]][
                y0 - py : y1 - py, x0 - px : x1 - px
            ]
    assert (rows == 1 - page).all()


def test_halftone_skip_stream_is_smaller():
    # sanity: ENABLESKIP really drops coded pixels (stream shrinks)
    from pdf_ray.fixtures.jbig2enc import encode_halftone_region

    patterns, values = _halftone_fixture()
    full = encode_halftone_region(values, patterns, 16, 12, hgx=-6,
                                  hgy=-5)
    skip = encode_halftone_region(values, patterns, 16, 12, hgx=-6,
                                  hgy=-5, enable_skip=True)
    assert len(skip) < len(full)


@pytest.mark.parametrize("rtemplate", [0, 1])
def test_symbol_dict_refinement_aggregate(rtemplate):
    """SDREFAGG=1 (single-instance): new symbols decode as refinements
    of input-dictionary symbols, including a shifted reference and a
    chained refinement of an earlier new symbol."""
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    rng = np.random.RandomState(33)
    base = (rng.rand(7, 9) < 0.4).astype(np.uint8)
    t1 = base.copy(); t1[2, 3] ^= 1; t1[5, 7] ^= 1
    t2 = t1.copy(); t2[0, 0] ^= 1  # refines the NEW symbol t1 (id 1)
    payload = encode_refagg_symbol_dict(
        [(t1, 0, 0, 0), (t2, 1, 1, -1)], [base], rtemplate=rtemplate
    )
    out = decode_symbol_dictionary(payload, [base])
    assert len(out) == 2
    assert (out[0] == t1).all()
    assert (out[1] == t2).all()


@pytest.mark.parametrize("rtemplate", [0, 1])
def test_symbol_dict_aggregate_multi_instance(rtemplate):
    """REFAGGNINST > 1: an aggregate symbol decodes as a nested text
    region over the pool (6.5.8.2.2) — plain and refined instances."""
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    rng = np.random.RandomState(44)
    a = (rng.rand(5, 4) < 0.45).astype(np.uint8)
    b = (rng.rand(5, 3) < 0.45).astype(np.uint8)
    b_ref = b.copy()
    b_ref[2, 1] ^= 1  # refined same-size variant
    agg = np.zeros((6, 9), np.uint8)
    agg[0:5, 0:4] |= a
    agg[1:6, 5:8] |= b_ref
    placements = [(0, 0, 0, 0, 0, None), (1, 5, 1, 0, 0, b_ref)]
    payload = encode_refagg_symbol_dict(
        [(agg, placements)], [a, b], rtemplate=rtemplate
    )
    out = decode_symbol_dictionary(payload, [a, b])
    assert len(out) == 1
    assert (out[0] == agg).all()


def test_symbol_dict_aggregate_chain():
    """Two aggregates in one dictionary: contexts are retained across
    aggregates and the second may place the first (pool growth)."""
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    rng = np.random.RandomState(45)
    a = (rng.rand(4, 4) < 0.5).astype(np.uint8)
    agg1 = np.zeros((4, 7), np.uint8)
    agg1[:, 0:4] |= a
    agg1[:, 3:7] |= a
    agg2 = np.zeros((5, 8), np.uint8)
    agg2[0:4, 0:7] |= agg1
    agg2[1:5, 1:8] |= agg1
    p1 = [(0, 0, 0, 0, 0, None), (0, 3, 0, 0, 0, None)]
    p2 = [(1, 0, 0, 0, 0, None), (1, 1, 1, 0, 0, None)]  # id 1 = agg1
    payload = encode_refagg_symbol_dict([(agg1, p1), (agg2, p2)], [a])
    out = decode_symbol_dictionary(payload, [a])
    assert (out[0] == agg1).all()
    assert (out[1] == agg2).all()


def test_text_region_instance_refinement():
    """SBREFINE: a placed instance may be a refined (even resized)
    variant of its dictionary symbol, coded relative to it (6.4.11)."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text

    T, L = _glyphs()
    big_t = np.zeros((6, 6), np.uint8)
    big_t[0, :5] = 1
    big_t[1:, 2] = 1
    big_t[3, 4] = 1
    placements = [
        (0, 1, 1),                      # plain instance
        (1, 8, 1, big_t, 0, 0),         # refined + resized instance of L
        (0, 16, 1, T ^ np.eye(5, dtype=np.uint8), 0, 0),  # same-size fix
    ]
    stream = encode_symbol_dict_and_text([T, L], placements, 24, 10)
    packed = decode_jbig2_embedded(stream)
    rows = np.unpackbits(
        np.frombuffer(packed, np.uint8).reshape(10, -1), axis=1
    )[:, :24]
    page = np.zeros((10, 24), np.uint8)
    page[1:6, 1:6] |= T
    page[1:7, 8:14] |= big_t
    page[1:6, 16:21] |= T ^ np.eye(5, dtype=np.uint8)
    assert (rows == 1 - page).all()


# -- huffman-coded variants (SDHUFF / SBHUFF, Annex B tables) -----------------


def _hsyms(seed=3):
    rng = np.random.RandomState(seed)
    return [
        (rng.rand(5, 4) > 0.5).astype(np.uint8),
        (rng.rand(5, 6) > 0.5).astype(np.uint8),
        (rng.rand(7, 3) > 0.4).astype(np.uint8),
    ]


_HPL = [(0, 2, 1), (1, 10, 1), (2, 20, 8), (0, 30, 8), (2, 40, 2)]


def test_standard_tables_build_and_b3_spec_codes():
    """All 15 Annex B standard tables construct (range contiguity is
    asserted at import); B.3's code assignments are pinned to the
    spec's listed codes."""
    from pdf_ray.pdfcore import jbig2_huffman as JH

    for n in range(1, 16):
        JH.standard_table(n)

    def rd(bits):
        pad = bits + "0" * ((8 - len(bits) % 8) % 8)
        return JH.BitReader(
            bytes(int(pad[i : i + 8], 2) for i in range(0, len(pad), 8))
        )

    t3 = JH.standard_table(3)
    assert t3.decode(rd("11111110" + "0" * 8)) == -256
    assert t3.decode(rd("0")) == 0
    assert t3.decode(rd("111110")) is JH.OOB
    assert t3.decode(rd("1111110" + "0" * 32)) == 75
    assert t3.decode(rd("11111111" + "0" * 31 + "1")) == -258


@pytest.mark.parametrize(
    "kw",
    [
        {},
        {"mmr_collective": True},
        {"dh_sel": 1, "dw_sel": 1},
        {"log_strips": 2},
        {"refcorner": 0},
        {"refcorner": 2, "transposed": True},
    ],
)
def test_huffman_symbol_text_matches_arithmetic(kw):
    """SDHUFF+SBHUFF streams must render pixel-identically to the
    arithmetic coding of the same symbols/placements (collective
    bitmaps uncompressed and MMR; B.4/B.2 and B.5/B.3 selections;
    multi-strip; all reference corners)."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text
    from pdf_ray.fixtures.jbig2enc import (
        encode_symbol_dict_and_text_huffman as enc_h,
    )

    syms = _hsyms()
    akw = {
        k: v for k, v in kw.items()
        if k in ("log_strips", "refcorner", "transposed")
    }
    a = decode_jbig2_embedded(
        encode_symbol_dict_and_text(syms, _HPL, 64, 24, **akw)
    )
    h = decode_jbig2_embedded(enc_h(syms, _HPL, 64, 24, **kw))
    assert a == h


def test_huffman_text_region_refined_instance():
    """SBHUFF text region with an SBREFINE instance: per-instance
    byte-aligned BMSIZE arithmetic refinement data."""
    from pdf_ray.fixtures.jbig2enc import encode_symbol_dict_and_text
    from pdf_ray.fixtures.jbig2enc import (
        encode_symbol_dict_and_text_huffman as enc_h,
    )

    rng = np.random.RandomState(5)
    syms = [(rng.rand(6, 5) > 0.5).astype(np.uint8),
            (rng.rand(6, 7) > 0.5).astype(np.uint8)]
    rbm = (rng.rand(8, 6) > 0.45).astype(np.uint8)
    pl = [(0, 2, 1), (1, 12, 1, rbm, 0, 0), (1, 24, 3)]
    a = decode_jbig2_embedded(encode_symbol_dict_and_text(syms, pl, 48, 16))
    h = decode_jbig2_embedded(enc_h(syms, pl, 48, 16))
    assert a == h


def test_huffman_custom_table_segment():
    """A type-53 custom table segment (replicating B.4's lines) drives
    the symbol dictionary's DH decode via selection 3."""
    from pdf_ray.fixtures.jbig2enc import (
        encode_symbol_dict_and_text,
        encode_symbol_dict_and_text_huffman as enc_h,
        encode_table_segment_payload,
    )

    syms = _hsyms(9)[:2]
    pl = [(0, 1, 1), (1, 8, 2), (0, 20, 6)]
    custom = encode_table_segment_payload(
        1, 76, [(1, 0), (2, 0), (3, 0), (4, 3), (5, 6)], upper_pref=5
    )
    a = decode_jbig2_embedded(encode_symbol_dict_and_text(syms, pl, 32, 16))
    h = decode_jbig2_embedded(
        enc_h(syms, pl, 32, 16, dh_custom_payload=custom)
    )
    assert a == h


def test_custom_table_parse_matches_standard_semantics():
    """parse_table_segment over a payload mimicking B.2 (incl. OOB)
    decodes identically to the built-in standard table."""
    from pdf_ray.fixtures.jbig2enc import (
        BitWriter, HuffEncoder, encode_table_segment_payload,
    )
    from pdf_ray.pdfcore import jbig2_huffman as JH

    payload = encode_table_segment_payload(
        0, 75, [(1, 0), (2, 0), (3, 0), (4, 3), (5, 6)],
        upper_pref=6, oob_pref=6,
    )
    custom = JH.parse_table_segment(payload)
    std = JH.standard_table(2)
    enc = HuffEncoder(JH._STANDARD_LINES[2])
    values = [0, 1, 2, 5, 10, 11, 60, 74, 75, 100, 5000, None]
    bw = BitWriter()
    for v in values:
        enc.encode(bw, v)
    blob = bw.finish()
    for tab in (std, custom):
        r = JH.BitReader(blob)
        got = [tab.decode(r) for _ in values]
        assert [None if g is JH.OOB else g for g in got] == values


def test_huffman_stream_truncation_raises_typed():
    """Truncations anywhere in a huffman-coded stream raise
    PdfParseError, never bare Index/Key/struct errors."""
    from pdf_ray.fixtures.jbig2enc import (
        encode_symbol_dict_and_text_huffman as enc_h,
    )

    good = enc_h(_hsyms(), _HPL, 64, 24)
    assert decode_jbig2_embedded(good)
    for k in range(0, len(good), 7):
        try:
            decode_jbig2_embedded(good[:k])
        except PdfParseError:
            pass


@pytest.mark.parametrize("rtemplate", [0, 1])
def test_symbol_dict_huffman_aggregate_multi_instance(rtemplate):
    """SDHUFF + REFAGGNINST > 1: the aggregate decodes as a nested
    HUFFMAN text region with the Table-17 standard tables (6.5.8.2.2) —
    plain and refined instances, multiple strips."""
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict_huffman
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    rng = np.random.RandomState(47)
    a = (rng.rand(5, 4) < 0.45).astype(np.uint8)
    b = (rng.rand(5, 3) < 0.45).astype(np.uint8)
    b_ref = b.copy()
    b_ref[2, 1] ^= 1
    agg = np.zeros((8, 9), np.uint8)
    agg[0:5, 0:4] |= a
    agg[1:6, 5:8] |= b_ref
    agg[3:8, 2:6] |= a
    placements = [
        (0, 0, 0, 0, 0, None),
        (1, 5, 1, 0, 0, b_ref),
        (0, 2, 3, 0, 0, None),  # second strip
    ]
    payload = encode_refagg_symbol_dict_huffman(
        [(agg, placements)], [a, b], rtemplate=rtemplate
    )
    out = decode_symbol_dictionary(payload, [a, b])
    assert len(out) == 1
    assert (out[0] == agg).all()


def test_symbol_dict_huffman_aggregate_chain_and_mix():
    """Huffman aggregates chained with single-instance refinements in
    one dictionary; the second aggregate places the first (pool
    growth), and ids stay SBSYMCODELEN-bit fixed-length fields."""
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict_huffman
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    rng = np.random.RandomState(48)
    a = (rng.rand(4, 4) < 0.5).astype(np.uint8)
    t1 = a.copy(); t1[1, 2] ^= 1  # single-instance refinement (id 0)
    agg1 = np.zeros((4, 7), np.uint8)
    agg1[:, 0:4] |= a
    agg1[:, 3:7] |= t1
    agg2 = np.zeros((5, 8), np.uint8)
    agg2[0:4, 0:7] |= agg1
    agg2[1:5, 1:8] |= agg1
    p1 = [(0, 0, 0, 0, 0, None), (1, 3, 0, 0, 0, None)]  # id 1 = t1
    p2 = [(2, 0, 0, 0, 0, None), (2, 1, 1, 0, 0, None)]  # id 2 = agg1
    payload = encode_refagg_symbol_dict_huffman(
        [(t1, 0, 0, 0), (agg1, p1), (agg2, p2)], [a]
    )
    out = decode_symbol_dictionary(payload, [a])
    assert len(out) == 3
    assert (out[0] == t1).all()
    assert (out[1] == agg1).all()
    assert (out[2] == agg2).all()


def test_symbol_dict_huffman_aggregate_truncated_raises():
    from pdf_ray.fixtures.jbig2enc import encode_refagg_symbol_dict_huffman
    from pdf_ray.pdfcore.jbig2 import decode_symbol_dictionary

    base = np.eye(5, dtype=np.uint8)
    agg = np.zeros((5, 9), np.uint8)
    agg[:, 0:5] |= base
    agg[:, 4:9] |= base
    p = [(0, 0, 0, 0, 0, None), (0, 4, 0, 0, 0, None)]
    payload = encode_refagg_symbol_dict_huffman([(agg, p)], [base])
    for cut in (1, 2, 4):
        with pytest.raises(PdfParseError):
            decode_symbol_dictionary(payload[:-cut], [base])


@pytest.mark.parametrize("name", ["f34", "f36", "f37"])
@pytest.mark.parametrize("field", [0, 4])  # page width, page height
def test_page_info_budget_before_allocating(name, field):
    """A 1-byte edit of the JBIG2 page-information segment (its width or
    height becomes ~2**31): the page budget fails the image with
    PdfParseError before the page bitmap is allocated (it was a
    MemoryError asking for 16-44 GiB)."""
    from pdf_ray.fixtures.corpus import FIXTURES
    from pdf_ray.pdfcore.interp import extract_spans

    pdf = bytearray(FIXTURES[name]()[0])
    # segment header: type 48, no referred segments, page 1, 19-byte payload
    i = pdf.find(b"\x30\x00\x01\x00\x00\x00\x13")
    assert i > 0
    pdf[i + 7 + field] = 0x7F
    with pytest.raises(PdfParseError, match="JBIG2 bad page geometry"):
        extract_spans(bytes(pdf))
