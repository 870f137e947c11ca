"""Font layer: dict-model dispatch, widths, encodings, ToUnicode.

Mirrors the reference's font stack (src/font/mod.rs:44-122 dispatch,
src/font/mod.rs:175-229 Widths, src/font/cid.rs:130-182 CID W runs) but
hoists parsed font programs into a shared cache keyed by the SHA-256 of
the decoded program bytes — the reference reloads the program on every
draw_text call (src/render/mod.rs:1118-1248); per SURVEY.md §2.5 our
cache lives for the worker process, so one worker parses each distinct
font once.
"""

from __future__ import annotations

import hashlib

from ..objects import NULL, Name, Stream
from .cff import parse_cff
from .cmap import parse_tounicode
from .encodings import GLYPH_TO_UNICODE, encoding_from_dict
from .truetype import parse_truetype
from .type1 import parse_type1


def _cached_parse(cache, raw: bytes, parser):
    if cache is None:
        return parser(raw)
    key = (parser.__name__, hashlib.sha256(raw).hexdigest())
    got = cache.get(key)
    if got is None:
        got = parser(raw)
        cache[key] = got
    return got


def _embedded_program(doc, descriptor: dict):
    """Returns (kind, decoded bytes) for FontFile/FontFile2/FontFile3."""
    for key, kind in (
        ("FontFile", "type1"),
        ("FontFile2", "truetype"),
        ("FontFile3", "cff"),
    ):
        ref = descriptor.get(key)
        if ref is not None:
            stream = doc.resolve_stream(ref)
            return kind, doc.decoded(stream)
    return None, None


def _cid_widths(w_array, resolve) -> dict[int, float]:
    """/W array runs: ``c [w1 w2 ...]`` or ``c_first c_last w``
    (src/font/cid.rs:130-182)."""
    out: dict[int, float] = {}
    i = 0
    w = resolve(w_array)
    if not isinstance(w, list):
        return out
    while i < len(w):
        first = resolve(w[i])
        if i + 1 < len(w) and isinstance(resolve(w[i + 1]), list):
            for j, width in enumerate(resolve(w[i + 1])):
                out[int(first) + j] = float(resolve(width))
            i += 2
        elif i + 2 < len(w):
            last = resolve(w[i + 1])
            width = float(resolve(w[i + 2]))
            for c in range(int(first), int(last) + 1):
                out[c] = width
            i += 3
        else:
            break
    return out


class FontInfo:
    """Resolved per-font info for width + unicode enrichment."""

    __slots__ = (
        "subtype",
        "code_bytes",
        "widths_fn",
        "tounicode",
        "encoding",
        "legacy_codec",
    )

    def __init__(self, subtype, code_bytes, widths_fn, tounicode, encoding,
                 legacy_codec=None):
        self.subtype = subtype
        self.code_bytes = code_bytes
        self.widths_fn = widths_fn  # code -> width in 1/1000 text units
        self.tounicode = tounicode
        self.encoding = encoding
        # Python codec name when /Encoding is a legacy predefined CJK
        # CMap (see cmap.predefined_cmap_info): unicode enrichment
        # decodes the raw code bytes with it
        self.legacy_codec = legacy_codec


def load_font(doc, font_dict: dict, cache=None) -> FontInfo:
    subtype = str(doc.resolve(font_dict.get("Subtype", NULL)))
    tounicode = None
    tu = font_dict.get("ToUnicode")
    if tu is not None:
        try:
            tounicode = _cached_parse(
                cache, doc.decoded(doc.resolve_stream(tu)), parse_tounicode
            )
        except Exception:
            tounicode = None

    if subtype == "Type0":
        desc = doc.resolve(font_dict.get("DescendantFonts", NULL))
        cidfont = doc.resolve_dict(desc[0]) if isinstance(desc, list) and desc else {}
        dw = float(doc.resolve(cidfont.get("DW", 1000)))
        widths = _cid_widths(cidfont.get("W", []), doc.resolve)

        # /Encoding: an *embedded CMap stream* is interpreted from scratch
        # (the reference only captures it, src/font/type0.rs:34-81); NAME
        # encodings go through the predefined registry — Identity-H/V and
        # the UCS2/UTF16 families map code==CID; legacy CJK names decode
        # via the matching Python codec (cmap.predefined_cmap_info), with
        # widths falling back to /DW since the Adobe code->CID table is
        # the only part we don't ship
        cid_map = None
        legacy_codec = None
        enc = font_dict.get("Encoding")
        enc_resolved = doc.resolve(enc) if enc is not None else None
        if isinstance(enc_resolved, Stream):
            from .cmap import parse_cid_cmap

            cid_map = _cached_parse(
                cache, doc.decoded(enc_resolved), parse_cid_cmap
            )
        elif enc_resolved is not None and enc_resolved is not NULL:
            from .cmap import predefined_cmap_info

            _kind, legacy_codec = predefined_cmap_info(str(enc_resolved))

        def cid_width(code: int) -> float:
            if legacy_codec is not None:
                return dw  # code != CID and no table: the documented trade
            cid = cid_map.map_code(code) if cid_map is not None else code
            if cid is None:
                cid = 0
            return widths.get(cid, dw)

        return FontInfo(
            subtype, 2, cid_width, tounicode, None, legacy_codec=legacy_codec
        )

    # simple fonts: prefer explicit /Widths, else the embedded program
    first_char = doc.resolve(font_dict.get("FirstChar", NULL))
    widths_arr = doc.resolve(font_dict.get("Widths", NULL))
    descriptor = font_dict.get("FontDescriptor")
    missing = 0.0
    desc_dict = None
    if descriptor is not None:
        try:
            desc_dict = doc.resolve_dict(descriptor)
            missing = float(doc.resolve(desc_dict.get("MissingWidth", 0)))
        except Exception:
            desc_dict = None

    encoding = encoding_from_dict(font_dict.get("Encoding"), doc.resolve)

    if isinstance(widths_arr, list) and isinstance(first_char, int):
        arr = [float(doc.resolve(x)) for x in widths_arr]

        def table_width(code: int) -> float:
            idx = code - first_char
            if 0 <= idx < len(arr):
                return arr[idx]
            return missing

        return FontInfo(subtype, 1, table_width, tounicode, encoding)

    if desc_dict is not None:
        kind, prog = _embedded_program(doc, desc_dict)
        if kind == "type1":
            font = _cached_parse(cache, prog, parse_type1)

            def t1_width(code: int) -> float:
                w = font.width(code)
                return w if w is not None else missing

            return FontInfo(subtype, 1, t1_width, tounicode, encoding)
        if kind == "truetype":
            font = _cached_parse(cache, prog, parse_truetype)

            def tt_width(code: int) -> float:
                w = font.width(code)
                return w if w is not None else missing

            return FontInfo(subtype, 1, tt_width, tounicode, encoding)
        if kind == "cff":
            font = _cached_parse(cache, prog, parse_cff)

            def cff_width(code: int) -> float:
                # code -> GID through the CFF's own Encoding + charset
                # (Standard-encoding default resolved via SIDs); fonts
                # with no encoding data keep the identity fallback
                w = font.width_for_code(code)
                return w if w is not None else missing

            return FontInfo(subtype, 1, cff_width, tounicode, encoding)

    # unembedded font with no /Widths: base-14 metrics when the BaseFont
    # name matches the standard alias table (reference keeps the same
    # table but ships no font data, src/font/mod.rs:53-97)
    base_font = font_dict.get("BaseFont")
    if base_font is not None:
        from .base14 import base14_width_fn

        b14 = base14_width_fn(str(doc.resolve(base_font)))
        if b14 is not None:
            return FontInfo(subtype, 1, b14, tounicode, encoding)

    def default_width(code: int) -> float:
        return 500.0

    return FontInfo(subtype, 1, default_width, tounicode, encoding)


def width_function(doc, font_dict: dict, cache=None):
    """code -> advance width in text units/1000 (the draw_text advance,
    src/render/mod.rs:1305-1313)."""
    info = load_font(doc, font_dict, cache)
    return lambda code: info.widths_fn(code) / 1000.0


def unicode_text(info: FontInfo, raw_text: str) -> str:
    """Map a lexer-level span text to unicode using the font's ToUnicode
    CMap (codes reconstructed from the codepoint-per-byte lexer output),
    falling back to glyph-name AGL mapping, else identity."""
    code_bytes = info.tounicode.code_bytes if info.tounicode else info.code_bytes
    # reconstruct the code sequence from the lexed string; codepoints > 255
    # mean the string was lexed from a UTF-16 `FEFF` hex string
    # (src/lex.rs:422-443) — it is already unicode, pass it through
    if any(ord(c) > 255 for c in raw_text):
        return raw_text
    if info.legacy_codec is not None and info.tounicode is None:
        # legacy predefined CJK CMap: the code bytes ARE a national
        # encoding — decode them wholesale (codecs handle the variable
        # 1/2-byte segmentation the CMap's codespacerange describes)
        from .cmap import decode_legacy_bytes

        return decode_legacy_bytes(
            info.legacy_codec, bytes(ord(c) for c in raw_text)
        )
    if code_bytes == 1:
        codes = [ord(c) for c in raw_text]
    else:
        byte_vals = [ord(c) for c in raw_text]
        codes = [
            (byte_vals[i] << 8) | (byte_vals[i + 1] if i + 1 < len(byte_vals) else 0)
            for i in range(0, len(byte_vals), 2)
        ]
    out = []
    for code in codes:
        mapped = info.tounicode.map_code(code) if info.tounicode else None
        if mapped is None and info.encoding is not None:
            name = info.encoding.get(code)
            mapped = GLYPH_TO_UNICODE.get(name) if name else None
        if mapped is None:
            mapped = chr(code)
        out.append(mapped)
    return "".join(out)
