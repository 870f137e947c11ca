"""Filter vectors: ASCII85 canonical vector (src/filter/ascii.rs:91-114),
spec-correct ASCIIHex (the reference's is buggy — SURVEY §2.3 F2), LZW
(reference todo!), predictors, RunLength, and chain driving."""

import zlib

import pytest

from pdf_ray.pdfcore.filters import (
    ascii85_decode,
    ascii_hex_decode,
    decode_stream,
    flate_decode,
    lzw_decode,
    run_length_decode,
)
from pdf_ray.pdfcore.objects import Stream


WIKI_PLAIN = (
    b"Man is distinguished, not only by his reason, but by this singular "
    b"passion from other animals, which is a lust of the mind, that by a "
    b"perseverance of delight in the continued and indefatigable generation "
    b"of knowledge, exceeds the short vehemence of any carnal pleasure."
)
WIKI_A85 = (
    b"9jqo^BlbD-BleB1DJ+*+F(f,q/0JhKF<GL>Cj@.4Gp$d7F!,L7@<6@)/0JDEF<G%<+EV:2F!,"
    b"O<DJ+*.@<*K0@<6L(Df-\\0Ec5e;DffZ(EZee.Bl.9pF\"AGXBPCsi+DGm>@3BB/F*&OCAfu2/AKY"
    b"i(DIb:@FD,*)+C]U=@3BN#EcYf8ATD3s@q?d$AftVqCh[NqF<G:8+EV:.+Cf>-FD5W8ARlolDIa"
    b"l(DId<j@<?3r@:F%a+D58'ATD4$Bl@l3De:,-DJs`8ARoFb/0JMK@qB4^F!,R<AKZ&-DfTqBG%G"
    b">uD.RTpAKYo'+CT/5+Cei#DII?(E,9)oF*2M7/c"
)


def test_ascii85_wikipedia_vector():
    assert ascii85_decode(WIKI_A85, None) == WIKI_PLAIN


def test_ascii85_z_shorthand_and_framing():
    assert ascii85_decode(b"<~z~>", None) == b"\0\0\0\0"
    assert ascii85_decode(b"z z", None) == b"\0" * 8


def test_ascii85_short_form():
    # 1 byte -> 2 digits
    enc = ascii85_decode  # decoding only; encode via fixtures builder
    from pdf_ray.fixtures.builder import _a85_encode

    for payload in (b"a", b"ab", b"abc", b"abcd", b"abcde", b"sure."):
        assert enc(_a85_encode(payload), None) == payload


def test_ascii_hex():
    assert ascii_hex_decode(b"48656C6C6F>", None) == b"Hello"
    assert ascii_hex_decode(b"48 65 6c 6C 6f >", None) == b"Hello"
    assert ascii_hex_decode(b"901FA>", None) == b"\x90\x1f\xa0"  # odd pads 0


def test_lzw_roundtrip():
    from pdf_ray.fixtures.builder import _lzw_encode

    import random

    rng = random.Random(42)
    for payload in (
        b"",
        b"A",
        b"TOBEORNOTTOBEORTOBEORNOT",
        bytes(range(256)) * 5,
        b"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
        bytes(rng.randrange(256) for _ in range(20000)),  # exercises 12-bit + Clear
        bytes(rng.randrange(4) for _ in range(30000)),
    ):
        assert lzw_decode(_lzw_encode(payload), None) == payload


def test_run_length():
    # literal run: n<128 -> copy n+1 bytes; repeat: n>128 -> 257-n copies
    assert run_length_decode(bytes([2]) + b"abc" + bytes([254, ord("x"), 128]), None) \
        == b"abc" + b"xxx"


def test_flate_png_predictors_roundtrip():
    # rows of 4 columns, 1 color, 8 bpc with each PNG filter type
    rows = [bytes([10, 20, 30, 40]), bytes([15, 25, 35, 45]), bytes([0, 255, 1, 254])]

    def encode(filter_type: int) -> bytes:
        out = bytearray()
        prev = bytes(4)
        for row in rows:
            out.append(filter_type)
            for i, v in enumerate(row):
                a = row[i - 1] if i >= 1 else 0
                b = prev[i]
                c = prev[i - 1] if i >= 1 else 0
                if filter_type == 0:
                    enc = v
                elif filter_type == 1:
                    enc = (v - a) & 0xFF
                elif filter_type == 2:
                    enc = (v - b) & 0xFF
                elif filter_type == 3:
                    enc = (v - ((a + b) >> 1)) & 0xFF
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                    enc = (v - pred) & 0xFF
                out.append(enc)
            prev = row
        return zlib.compress(bytes(out))

    for ft in range(5):
        parms = {"Predictor": 10 + ft, "Columns": 4}
        assert flate_decode(encode(ft), parms) == b"".join(rows), f"filter {ft}"


def test_flate_tiff_predictor():
    raw = bytes([10, 5, 3, 2])  # row: 10, 10+5, 15+3, 18+2
    assert flate_decode(
        zlib.compress(raw), {"Predictor": 2, "Columns": 4}
    ) == bytes([10, 15, 18, 20])


def test_filter_chain():
    payload = b"chained payload"
    data = zlib.compress(payload).hex().encode() + b">"
    s = Stream(
        {"Filter": ["ASCIIHexDecode", "FlateDecode"], "Length": len(data)}, data
    )
    assert decode_stream(s) == payload


def test_unknown_filter_raises():
    from pdf_ray.pdfcore.objects import PdfParseError

    s = Stream({"Filter": "NoSuchDecode"}, b"")
    with pytest.raises(PdfParseError):
        decode_stream(s)


def test_jbig2_empty_stream_raises():
    # JBIG2Decode is implemented (generic regions, jbig2.py); a stream
    # with no region segments is still a row-level error
    from pdf_ray.pdfcore.objects import PdfParseError

    s = Stream({"Filter": "JBIG2Decode"}, b"")
    with pytest.raises(PdfParseError):
        decode_stream(s)


def test_indexed_out_of_range_index_clamps_to_hival():
    """PDF 32000-1 §8.6.6.3: palette indices beyond hival clamp to hival
    (sloppy real-world indexed data must decode); a palette too short for
    hival itself is still a hard error."""
    import pytest

    from pdf_ray.pdfcore.filters import PdfParseError
    from pdf_ray.pdfcore.images import decode_image_pixels

    resolve = lambda x: x  # noqa: E731
    palette = bytes([255, 0, 0, 0, 255, 0])  # 2 entries: red, green
    s = Stream(
        {
            "Width": 2,
            "Height": 1,
            "BitsPerComponent": 8,
            "ColorSpace": ["Indexed", "DeviceRGB", 1, "\xff\x00\x00\x00\xff\x00"],
        },
        bytes([0, 7]),  # 7 > hival=1 -> clamps to entry 1 (green)
    )
    s.dict["ColorSpace"][3] = "".join(chr(b) for b in palette)
    w, h, rgb = decode_image_pixels(s, resolve)
    assert (w, h) == (2, 1)
    assert rgb == bytes([255, 0, 0, 0, 255, 0])

    bad = Stream(
        {
            "Width": 1,
            "Height": 1,
            "BitsPerComponent": 8,
            # hival=3 needs 12 palette bytes; only 6 present
            "ColorSpace": ["Indexed", "DeviceRGB", 3, "".join(chr(b) for b in palette)],
        },
        bytes([0]),
    )
    with pytest.raises(PdfParseError):
        decode_image_pixels(bad, resolve)


def test_crypt_filter_identity_passthrough():
    import pytest as _pt

    from pdf_ray.pdfcore.objects import PdfParseError

    s = Stream(
        {"Filter": "Crypt", "DecodeParms": {"Name": "Identity"}}, b"payload"
    )
    assert decode_stream(s) == b"payload"
    assert decode_stream(Stream({"Filter": "Crypt"}, b"x")) == b"x"
    with _pt.raises(PdfParseError):
        decode_stream(
            Stream({"Filter": "Crypt", "DecodeParms": {"Name": "StdCF"}}, b"x")
        )


def test_png_predictor_columns_budget_before_allocating():
    """f07 with an 11-digit /Columns: the predictor row budget fails the
    document with PdfParseError before a row buffer is allocated (it was
    a MemoryError)."""
    from pdf_ray.fixtures.corpus import FIXTURES
    from pdf_ray.pdfcore.interp import extract_spans
    from pdf_ray.pdfcore.objects import PdfParseError

    pdf = FIXTURES["f07"]()[0]
    assert b"/Columns 7" in pdf
    with pytest.raises(PdfParseError, match="PNG predictor row too wide"):
        extract_spans(pdf.replace(b"/Columns 7", b"/Columns 99999999999"))
