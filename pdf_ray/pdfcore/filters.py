"""Stream filters (decode side).

Chain driver mirrors the reference (src/filter/mod.rs:17-63): the ``Filter``
entry may be a name or array of names, applied in order, with per-filter
``DecodeParms``. Unlike the reference we implement the *spec* behavior
throughout (SURVEY.md §7.4.2):

- FlateDecode: zlib + all PNG predictors (reference todo!()s on
  Predictor None/Optimum, src/filter/flate.rs:107,136) and TIFF predictor 2
- ASCIIHexDecode: correct pair->byte decoding (the reference emits a
  spurious 0x00 per byte, src/filter/ascii.rs:25 — do not replicate)
- ASCII85Decode: incl. ``z`` shorthand and ``<~ ~>`` framing
  (src/filter/ascii.rs:47-89)
- LZWDecode: TIFF/PDF LZW with EarlyChange (reference todo!(),
  src/filter/mod.rs:43)
- RunLengthDecode: spec 7.4.5
- CCITTFaxDecode: Group 3 (1-D and mixed) + Group 4 from scratch
  (reference todo!()s it, src/filter/mod.rs:51) — see ccitt.py
- DCTDecode: raw JPEG bytes are passed through here; the image stage
  decodes them with the from-scratch baseline decoder (jpeg.py)
"""

from __future__ import annotations

import zlib

from .objects import NULL, PdfParseError, Stream


# Widest predicted row, in bytes: /Columns comes from the file, so it is
# checked before the row buffer is allocated (16 MiB is a 4M-pixel-wide
# RGBA row).
MAX_PREDICTOR_ROW = 1 << 24


def _png_predict(data: bytes, colors: int, bpc: int, columns: int) -> bytes:
    """Undo PNG row filters. Each row is prefixed by a filter-type byte
    (0=None 1=Sub 2=Up 3=Average 4=Paeth); predictors 10-15 in the PDF
    dict all mean "PNG, per-row tag" (PNG spec §9 / PDF 32000-1 §7.4.4.4)."""
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (colors * bpc * columns + 7) // 8
    if rowlen > MAX_PREDICTOR_ROW:
        raise PdfParseError("PNG predictor row too wide")
    stride = rowlen + 1
    out = bytearray()
    prev = bytearray(rowlen)
    for r in range(0, len(data), stride):
        ft = data[r]
        row = bytearray(data[r + 1 : r + 1 + rowlen])
        if ft == 0:
            pass
        elif ft == 1:  # Sub
            for i in range(bpp, len(row)):
                row[i] = (row[i] + row[i - bpp]) & 0xFF
        elif ft == 2:  # Up
            for i in range(len(row)):
                row[i] = (row[i] + prev[i]) & 0xFF
        elif ft == 3:  # Average
            for i in range(len(row)):
                a = row[i - bpp] if i >= bpp else 0
                row[i] = (row[i] + ((a + prev[i]) >> 1)) & 0xFF
        elif ft == 4:  # Paeth
            for i in range(len(row)):
                a = row[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                if pa <= pb and pa <= pc:
                    pred = a
                elif pb <= pc:
                    pred = b
                else:
                    pred = c
                row[i] = (row[i] + pred) & 0xFF
        else:
            raise PdfParseError(f"bad PNG filter type {ft}")
        out += row
        prev = row
    return bytes(out)


def _tiff_predict(data: bytes, colors: int, bpc: int, columns: int) -> bytes:
    if bpc != 8:
        raise PdfParseError("TIFF predictor only implemented for 8-bit")
    rowlen = colors * columns
    out = bytearray(data)
    for r in range(0, len(out) - rowlen + 1, rowlen):
        for i in range(colors, rowlen):
            out[r + i] = (out[r + i] + out[r + i - colors]) & 0xFF
    return bytes(out)


def flate_decode(data: bytes, parms: dict | None) -> bytes:
    raw = zlib.decompress(data)
    p = parms or {}
    predictor = p.get("Predictor", 1)
    if predictor <= 1:
        return raw
    colors = p.get("Colors", 1)
    bpc = p.get("BitsPerComponent", 8)
    columns = p.get("Columns", 1)
    if predictor == 2:
        return _tiff_predict(raw, colors, bpc, columns)
    return _png_predict(raw, colors, bpc, columns)


def ascii_hex_decode(data: bytes, parms: dict | None) -> bytes:
    out = bytearray()
    digits: list[int] = []
    for b in data:
        if b == ord(">"):
            break
        c = chr(b)
        if c in "0123456789abcdefABCDEF":
            digits.append(int(c, 16))
            if len(digits) == 2:
                out.append(digits[0] * 16 + digits[1])
                digits.clear()
        elif b in (0x00, 0x09, 0x0A, 0x0C, 0x0D, 0x20):
            continue
        else:
            raise PdfParseError(f"bad ASCIIHex byte {bytes([b])!r}")
    if digits:  # odd count: final digit is the high nibble, low nibble = 0
        out.append(digits[0] * 16)
    return bytes(out)


def ascii85_decode(data: bytes, parms: dict | None) -> bytes:
    s = bytes(data)
    if s.startswith(b"<~"):
        s = s[2:]
    end = s.find(b"~>")
    if end != -1:
        s = s[:end]
    out = bytearray()
    group: list[int] = []
    for b in s:
        if b in (0x00, 0x09, 0x0A, 0x0C, 0x0D, 0x20):
            continue
        if b == ord("z") and not group:
            out += b"\0\0\0\0"
            continue
        if not (ord("!") <= b <= ord("u")):
            raise PdfParseError(f"bad ASCII85 byte {bytes([b])!r}")
        group.append(b - ord("!"))
        if len(group) == 5:
            v = 0
            for g in group:
                v = v * 85 + g
            out += v.to_bytes(4, "big")
            group.clear()
    if group:  # 2-4 trailing digits -> pad with 'u' (84), emit len-1 bytes
        n = len(group)
        if n == 1:
            raise PdfParseError("lone trailing ASCII85 digit")
        v = 0
        for g in group + [84] * (5 - n):
            v = v * 85 + g
        out += v.to_bytes(4, "big")[: n - 1]
    return bytes(out)


def lzw_decode(data: bytes, parms: dict | None) -> bytes:
    """TIFF/PDF LZW: 9..12-bit MSB-first codes, 256=ClearTable, 257=EOD,
    code width grows one entry *early* when EarlyChange=1 (the default)."""
    early = (parms or {}).get("EarlyChange", 1)
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(256)] + [b"", b""]
    width = 9
    prev: bytes | None = None
    acc = 0
    nbits = 0
    for byte in data:
        acc = (acc << 8) | byte
        nbits += 8
        while nbits >= width:
            code = (acc >> (nbits - width)) & ((1 << width) - 1)
            nbits -= width
            if code == 256:
                table = [bytes([i]) for i in range(256)] + [b"", b""]
                width = 9
                prev = None
                continue
            if code == 257:
                return bytes(out)
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise PdfParseError(f"bad LZW code {code}")
            out += entry
            prev = entry
            if len(table) + early >= (1 << width) and width < 12:
                width += 1
    return bytes(out)


def ccitt_decode(data: bytes, parms: dict | None) -> bytes:
    from .ccitt import ccitt_fax_decode

    return ccitt_fax_decode(data, parms)


def jbig2_decode(data: bytes, parms: dict | None) -> bytes:
    """JBIG2Decode (generic regions — see jbig2.py; the reference
    todo!()s this filter entirely, src/filter/mod.rs:52). Output is
    packed 1-bit rows, 0 = black (DeviceGray sense, like CCITT with
    BlackIs1 false)."""
    from .jbig2 import decode_jbig2_embedded

    globals_data = b""
    g = (parms or {}).get("JBIG2Globals")
    if isinstance(g, Stream):
        globals_data = decode_stream(g)
    return decode_jbig2_embedded(data, globals_data)


def run_length_decode(data: bytes, parms: dict | None) -> bytes:
    out = bytearray()
    i = 0
    while i < len(data):
        n = data[i]
        i += 1
        if n == 128:
            break
        if n < 128:
            out += data[i : i + n + 1]
            i += n + 1
        else:
            out += bytes([data[i]]) * (257 - n)
            i += 1
    return bytes(out)


def crypt_identity(data: bytes, parms: dict | None) -> bytes:
    """Crypt filter (PDF 32000-1 §7.4.10): /Identity means the stream
    bypassed encryption — pass through. Named crypt filters would need
    the document's CF map at this layer; they fail the row instead."""
    name = str((parms or {}).get("Name", "Identity"))
    if name == "Identity":
        return data
    raise PdfParseError(f"Crypt filter {name!r} unsupported")


FILTERS = {
    "FlateDecode": flate_decode,
    "Fl": flate_decode,
    "ASCIIHexDecode": ascii_hex_decode,
    "AHx": ascii_hex_decode,
    "ASCII85Decode": ascii85_decode,
    "A85": ascii85_decode,
    "LZWDecode": lzw_decode,
    "LZW": lzw_decode,
    "RunLengthDecode": run_length_decode,
    "RL": run_length_decode,
    "CCITTFaxDecode": ccitt_decode,
    "CCF": ccitt_decode,
    "JBIG2Decode": jbig2_decode,
    "Crypt": crypt_identity,
    "DCTDecode": lambda data, parms: data,  # raw JPEG passthrough
    "DCT": lambda data, parms: data,
    # raw JPEG 2000 passthrough — decoded to pixels at the image layer
    # (images.decode_image_pixels -> jpx.decode_jpx), same shape as DCT
    "JPXDecode": lambda data, parms: data,
}


def decode_stream(stream: Stream, resolve=None) -> bytes:
    """Apply the stream's full filter chain (src/filter/mod.rs:17-63)."""
    d = stream.dict
    filt = d.get("Filter")
    if resolve is not None:
        filt = resolve(filt)
    if filt is None or filt is NULL:
        return stream.raw
    filters = filt if isinstance(filt, list) else [filt]
    parms = d.get("DecodeParms", d.get("DP"))
    if resolve is not None:
        parms = resolve(parms)
    if not isinstance(parms, list):
        parms = [parms] * len(filters)
    data = stream.raw
    for name, parm in zip(filters, parms):
        if resolve is not None:
            name = resolve(name)
            parm = resolve(parm)
        fn = FILTERS.get(str(name))
        if fn is None:
            raise PdfParseError(f"unsupported filter {name!r}")
        if isinstance(parm, dict) and resolve is not None:
            # shallow-resolve parm VALUES too: JBIG2Globals (and in
            # principle any parm) may be an indirect reference
            parm = {k: resolve(v) for k, v in parm.items()}
        data = fn(data, parm if isinstance(parm, dict) else None)
    return data
