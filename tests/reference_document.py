"""Frozen copy of the object lexer, the xref parser, ``Ref``/``InUse`` and
the ``Document`` (resolver, object streams, page tree, page contents)
that the one-pass document layer in ``pdf_ray.pdfcore`` (``lexer.py``,
``xref.py``, ``objects.py`` and ``document.py``) replaced: a token-at-a-
time object lexer, one ``XREF_ROW`` match per xref row, frozen-dataclass
``Ref``/``InUse`` and an object cache keyed by ``(num, gen)``.

It is the oracle of ``tests/test_document_diff.py``: the document layer
must give the same pages, page contents, resolved objects and errors as
this code. Do not edit it to follow the engine; nothing in ``pdf_ray``
imports it. Only the stream filters, the security handler and the value
types ``NULL``/``Name``/``Stream``/``PdfParseError`` come from the engine.
"""

from __future__ import annotations

import binascii
import re
from dataclasses import dataclass

from pdf_ray.pdfcore.filters import decode_stream
from pdf_ray.pdfcore.objects import NULL, Name, PdfParseError, Stream


@dataclass(frozen=True)
class Ref:
    """Indirect reference ``<num> <gen> R`` (src/objects.rs:54-58)."""

    num: int
    gen: int


# -- lexer -------------------------------------------------------------------

WHITESPACE = frozenset(b"\x00\t\n\x0c\r ")

_WS = rb"\x00\t\n\x0c\r "
_DELIM = rb"()<>\[\]{}/%"
# whitespace and %-comments, as one unrolled run of possessive loops, so a
# token that fails to match never backtracks into it
_SKIP = rb"[" + _WS + rb"]*+(?:%[^\r\n]*+[" + _WS + rb"]*+)*+"
_REAL = rb"[+-]?+(?:\d++\.\d*+|\.\d++)"
_INT = rb"[+-]?\d+"
# the `G R` tail of a reference: R must be followed by a byte, and that
# byte must be whitespace or a delimiter (`12 0 RG` is not a reference)
_REF_TAIL = _SKIP + rb"(?P<gen>\d++)" + _SKIP + rb"R(?=[" + _WS + _DELIM + rb"])"
# a name run without '#': names with '#XX' escapes take the slow path
_PLAIN_NAME = rb"[^" + _WS + _DELIM + rb"#]*+(?!#)"

SKIP = re.compile(_SKIP)
NUMBER = re.compile(_REAL + rb"|" + _INT)
# two whole numbers, either may be empty: ObjStm header pairs, xref
# subsection headers
NUMBER_PAIR = re.compile(_SKIP + rb"(\d*+)" + _SKIP + rb"(\d*+)" + _SKIP)
# one classic xref row `offset gen n|f`; a missing kind leaves group 3 None
XREF_ROW = re.compile(rb"(\d*+)" + _SKIP + rb"(\d*+)" + _SKIP + rb"(?:([nf])" + _SKIP + rb")?")
STARTXREF_OFFSET = re.compile(_SKIP + rb"(\d++)")

_TOKEN = re.compile(
    _SKIP
    + rb"(?:(?P<ref>[+-]?(?P<num>\d++)" + _REF_TAIL + rb")"
    + rb"|(?P<real>" + _REAL + rb")"
    + rb"|(?P<int>" + _INT + rb")"
    + rb"|/(?P<name>" + _PLAIN_NAME + rb")"
    + rb"|(?P<dict><<)"
    + rb"|(?P<array>\[)"
    + rb"|\((?P<str>[^()\\]*+)\)"
    + rb"|(?P<true>true)|(?P<false>false)|(?P<null>null)"
    + rb"|(?P<rare>))"
    + _SKIP
)
_KEY = re.compile(rb"/(" + _PLAIN_NAME + rb")")
_PRELUDE = re.compile(_SKIP + rb"\d*+" + _SKIP + rb"\d*+" + _SKIP + rb"(?:(obj)" + _SKIP + rb")?")
_BARE_SIGN_REF = re.compile(_REF_TAIL)
_NAME_RUN = re.compile(rb"[^" + _WS + _DELIM + rb"]*")
_HEX_RUN = re.compile(rb"[0-9A-Fa-f]*")
_STRING_SPECIALS = re.compile(rb"[()\\]")
_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")
_KEYWORDS = {0x74: b"true", 0x66: b"false", 0x6E: b"null"}
_STRING_ESCAPES = {0x6E: "\n", 0x72: "\r", 0x74: "\t", 0x62: "\x08", 0x66: "\x0c",
                   0x28: "(", 0x29: ")", 0x5C: "\\"}

_skip = SKIP.match


def _expected(buf: bytes, pos: int, token: bytes) -> PdfParseError:
    return PdfParseError(
        f"expected {token!r} at offset {pos}, found {buf[pos : pos + len(token)]!r}"
    )


def parse_whole(digits: bytes) -> int:
    """``int`` of a digit run that may be empty; an empty run raises the
    same ``ValueError`` as ``int('')``."""
    return int(digits or "")


class Lexer:
    """Cursor-based lexer over a PDF byte buffer.

    ``resolve`` is an optional callback used to chase indirect ``/Length``
    values when lexing streams (src/stream.rs:126-152); the top-level
    ``Document`` provides it. When ``resolve`` is None, dictionaries
    followed by ``stream`` raise unless ``Length`` is a direct integer.
    """

    __slots__ = ("buf", "pos", "resolve")

    def __init__(self, buf: bytes, resolve=None):
        self.buf = buf
        self.pos = 0
        self.resolve = resolve

    # -- object lexing (src/lex.rs:307-533) ---------------------------------

    def lex_object(self):
        """One object at ``pos``, with the whitespace and comments before
        and after it; ``pos`` ends on the next token."""
        m = _TOKEN.match(self.buf, self.pos)
        kind = m.lastgroup
        if kind == "rare":
            return self._lex_rare(m.end())
        self.pos = m.end()
        if kind == "ref":
            return Ref(int(m["num"]), int(m["gen"]))
        if kind == "dict":
            d = self._lex_dict_entries()
            if self.buf.startswith(b"stream", self.pos):
                return self._lex_stream(d)
            return d
        if kind == "name":
            return Name(m["name"].decode("latin-1"))
        if kind == "int":
            return int(m["int"])
        if kind == "str":
            return m["str"].decode("latin-1")
        if kind == "array":
            return self._lex_array()
        if kind == "real":
            return float(m["real"])
        return True if kind == "true" else False if kind == "false" else NULL

    def lex_dict_only(self) -> dict:
        """``<< ... >>`` without stream detection (src/lex.rs:366-389)."""
        if not self.buf.startswith(b"<<", self.pos):
            raise _expected(self.buf, self.pos, b"<<")
        self.pos = _skip(self.buf, self.pos + 2).end()
        return self._lex_dict_entries()

    def lex_dict(self):
        """Dict, or Stream when followed by the ``stream`` keyword
        (src/lib.rs Lexer::lex_dict + src/lex.rs:516-533)."""
        d = self.lex_dict_only()
        if self.buf.startswith(b"stream", self.pos):
            return self._lex_stream(d)
        return d

    def _lex_dict_entries(self) -> dict:
        """Entries from ``pos`` (after ``<<``) through ``>>`` and the
        whitespace after it."""
        buf = self.buf
        key_match = _KEY.match
        d: dict = {}
        while True:
            m = key_match(buf, self.pos)
            if m is not None:
                self.pos = m.end()
                d[m[1].decode("latin-1")] = self.lex_object()
                continue
            pos = self.pos
            if buf.startswith(b">>", pos):
                self.pos = _skip(buf, pos + 2).end()
                return d
            if pos >= len(buf):
                raise PdfParseError("unterminated dictionary")
            if buf[pos] == 0x3E:  # '>'
                raise _expected(buf, pos + 1, b">")
            key = self._lex_name()  # '#XX' escapes, or the missing-'/' error
            d[key] = self.lex_object()

    def _lex_array(self) -> list:
        buf = self.buf
        arr = []
        while True:
            pos = self.pos
            if pos >= len(buf):
                raise PdfParseError("unterminated array")
            if buf[pos] == 0x5D:  # ']'
                self.pos = _skip(buf, pos + 1).end()
                return arr
            arr.append(self.lex_object())

    def _lex_stream(self, d: dict) -> Stream:
        """The ``stream`` keyword at ``pos``, its EOL, ``/Length`` raw bytes
        and ``endstream``."""
        buf = self.buf
        pos = self.pos + 6
        eol = buf[pos : pos + 1]
        if eol == b"\n":
            pos += 1
        elif eol == b"\r":
            pos += 2 if buf[pos + 1 : pos + 2] == b"\n" else 1
        else:
            raise PdfParseError(f"expected EOL, found {eol[0] if eol else None!r}")
        length = d.get("Length")
        if isinstance(length, Ref):
            if self.resolve is None:
                raise PdfParseError("indirect /Length with no resolver")
            length = self.resolve(length)
        if not isinstance(length, int):
            raise PdfParseError(f"bad stream /Length: {length!r}")
        raw = buf[pos : pos + length]
        if len(raw) != length:
            raise PdfParseError("stream shorter than /Length")
        pos = _skip(buf, pos + length).end()
        if not buf.startswith(b"endstream", pos):
            raise _expected(buf, pos, b"endstream")
        self.pos = _skip(buf, pos + 9).end()
        return Stream(d, raw)

    # -- rare forms ---------------------------------------------------------

    def _lex_rare(self, pos: int):
        """An object ``_TOKEN`` does not frame, at ``pos`` (past leading
        whitespace): escaped or nested strings, hex strings, ``#XX`` names,
        a sign or ``.`` without digits, and malformed input."""
        buf = self.buf
        if pos >= len(buf):
            raise PdfParseError("unexpected EOF while lexing object")
        b = buf[pos]
        self.pos = pos
        if b == 0x28:  # '('
            obj = self._lex_string()
        elif b == 0x2F:  # '/'
            obj = Name(self._lex_name())
        elif b == 0x3C:  # '<' not followed by '<'
            obj = self._lex_hex()
        elif b in b"+-.":
            obj = self._lex_bare_number()
        elif b in _KEYWORDS:
            raise _expected(buf, pos, _KEYWORDS[b])
        else:
            raise PdfParseError(f"unexpected object start {bytes([b])!r} at {pos}")
        self.pos = _skip(buf, self.pos).end()
        return obj

    def _lex_bare_number(self) -> float:
        """A sign and/or ``.`` with no digit after it: ``.``, ``+.`` and
        ``-.`` are zero; a lone sign is an empty number, except that the
        reference lookahead still runs and ``- 0 R`` fails on ``int('')``."""
        buf, pos = self.buf, self.pos
        neg = buf[pos] == 0x2D
        if buf[pos] != 0x2E:
            pos += 1
        if buf.startswith(b".", pos):
            self.pos = pos + 1
            return -0.0 if neg else 0.0
        if _BARE_SIGN_REF.match(buf, pos) is not None:
            parse_whole(b"")
        raise PdfParseError("empty number")

    def _lex_name(self) -> str:
        """Name at ``pos`` with ``#XX`` escapes decoded."""
        buf, pos = self.buf, self.pos
        if not buf.startswith(b"/", pos):
            raise _expected(buf, pos, b"/")
        m = _NAME_RUN.match(buf, pos + 1)
        self.pos = m.end()
        run = m.group()
        out: list[str] = []
        i = 0
        while i < len(run):
            b = run[i]
            if b == 0x23:  # '#XX' hex escape
                if i + 2 >= len(run) or not _HEX_DIGITS.issuperset(run[i + 1 : i + 3]):
                    raise PdfParseError("bad #-escape in name")
                out.append(chr(int(run[i + 1 : i + 3], 16)))
                i += 3
            else:
                out.append(chr(b))
                i += 1
        return "".join(out)

    def _lex_string(self) -> str:
        """Literal string ``(...)`` -> codepoint-per-byte str
        (src/lex.rs:222-287; this output IS the span text at parity).
        Plain byte runs are bulk-decoded; the loop only handles the special
        bytes ``( ) \\``. A string cut off by EOF ends there."""
        buf = self.buf
        n = len(buf)
        pos = self.pos + 1
        out: list[str] = []
        depth = 0
        while True:
            m = _STRING_SPECIALS.search(buf, pos)
            if m is None:
                out.append(buf[pos:].decode("latin-1"))
                pos = n
                break
            out.append(buf[pos : m.start()].decode("latin-1"))
            pos = m.start() + 1
            b = buf[pos - 1]
            if b == 0x29:  # ')'
                if depth == 0:
                    break
                depth -= 1
                out.append(")")
            elif b == 0x28:  # '('
                depth += 1
                out.append("(")
            else:  # '\'
                if pos >= n:
                    raise PdfParseError("EOF in string escape")
                e = buf[pos]
                pos += 1
                if e in _STRING_ESCAPES:
                    out.append(_STRING_ESCAPES[e])
                elif e == 0x0A or e == 0x0D:
                    # line continuation swallows following whitespace+comments
                    pos = _skip(buf, pos).end()
                else:
                    # octal escape \d, \dd, \ddd (u8 arithmetic -> mod 256);
                    # any other byte counts as a digit of value byte - '0'
                    v = (e - 0x30) & 0xFF
                    for _ in range(2):
                        if pos >= n or not 0x30 <= buf[pos] <= 0x39:
                            break
                        v = (v * 8 + buf[pos] - 0x30) & 0xFF
                        pos += 1
                    out.append(chr(v))
        self.pos = pos
        return "".join(out)

    def _lex_hex(self) -> str:
        """``<>`` or a hex string ``<...>`` (src/lex.rs:394-443): two digits
        per codepoint, four after a ``FEFF``/``feff`` prefix. A final partial
        group is shifted left once by the closing ``>`` (``<901FA>`` ends in
        ``\\xa0``) and not at all when EOF cuts the string."""
        buf = self.buf
        pos = self.pos + 1
        nxt = buf[pos] if pos < len(buf) else None
        if nxt == 0x3E:  # special-cased empty byte string `<>`
            self.pos = pos + 1
            return ""
        if nxt not in _HEX_DIGITS:
            raise PdfParseError(f"unexpected byte after '<': {nxt!r}")
        utf16 = buf[pos : pos + 4] in (b"feff", b"FEFF")
        if utf16:
            pos += 4
        m = _HEX_RUN.match(buf, pos)
        digits, end = m.group(), m.end()
        closed = end < len(buf)
        if closed and buf[end] != 0x3E:
            raise PdfParseError(f"bad hex digit {buf[end : end + 1]!r}")
        self.pos = end + 1 if closed else end
        width = 4 if utf16 else 2
        cut = len(digits) - len(digits) % width
        if utf16:
            out = "".join(chr(int(digits[i : i + 4], 16)) for i in range(0, cut, 4))
        else:
            out = binascii.unhexlify(digits[:cut]).decode("latin-1")
        if cut < len(digits):
            v = int(digits[cut:], 16)
            out += chr(v * 16 if closed else v)
        return out

    # -- indirect object framing (src/lex.rs:544-561) -----------------------

    def read_obj_prelude(self) -> None:
        """Skip ``N G obj`` (either number may be missing) and the
        whitespace after it."""
        m = _PRELUDE.match(self.buf, self.pos)
        if m[1] is None:
            raise _expected(self.buf, m.end(), b"obj")
        self.pos = m.end()


# -- xref --------------------------------------------------------------------

@dataclass(frozen=True)
class InUse:
    offset: int
    gen: int = 0


@dataclass(frozen=True)
class Compressed:
    objstm_num: int  # object number of the containing ObjStm
    index: int       # index of the object within the ObjStm


FREE = "free"


class Xref:
    """objects: obj_num -> InUse | Compressed | 'free'."""

    __slots__ = ("objects",)

    def __init__(self, objects: dict | None = None):
        self.objects = objects or {}

    def merge_previous(self, prev: "Xref") -> None:
        """First writer wins: entries from newer sections shadow older."""
        for num, entry in prev.objects.items():
            self.objects.setdefault(num, entry)

    def get(self, ref: Ref):
        e = self.objects.get(ref.num)
        if e is None or e == FREE:
            return None
        return e


def find_startxref(buf: bytes) -> int:
    """Scan the file tail for the last ``startxref`` keyword and parse the
    offset that follows (src/xref/parser.rs:76-105)."""
    tail_start = max(0, len(buf) - 2048)
    idx = buf.rfind(b"startxref", tail_start)
    if idx == -1:
        idx = buf.rfind(b"startxref")
    if idx == -1:
        raise PdfParseError("startxref not found")
    m = STARTXREF_OFFSET.match(buf, idx + len(b"startxref"))
    if m is None:
        raise PdfParseError("bad startxref offset")
    return int(m[1])


def parse_xref_at(buf: bytes, offset: int, resolve=None):
    """Parse one xref section at ``offset``.

    Returns ``(xref, trailer_dict)``. Classic tables are followed by a
    ``trailer`` dict; xref streams carry the trailer keys in the stream
    dict itself. Handles the hybrid ``XRefStm`` pointer.
    """
    if offset >= len(buf):
        raise PdfParseError(f"xref offset {offset} beyond EOF")
    pos = SKIP.match(buf, offset).end()
    if buf.startswith(b"xref", pos):
        return _parse_classic_table(buf, pos + len(b"xref"))
    lx = Lexer(buf)
    lx.pos = pos
    return _parse_xref_stream(lx)


def _parse_classic_table(buf: bytes, pos: int):
    """Subsections from ``pos`` (after ``xref``) up to ``trailer``, one
    ``XREF_ROW`` match per entry, then the trailer dict."""
    objects: dict = {}
    row = XREF_ROW.match
    pos = SKIP.match(buf, pos).end()
    while not buf.startswith(b"trailer", pos):
        m = NUMBER_PAIR.match(buf, pos)
        start, count = m.groups()
        if not start:
            raise PdfParseError("bad xref subsection header")
        if not count:
            raise PdfParseError("bad xref subsection count")
        pos = m.end()
        first = int(start)
        for num in range(first, first + int(count)):
            m = row(buf, pos)
            off, gen, kind = m.groups()
            if kind == b"n":
                objects.setdefault(num, InUse(parse_whole(off), parse_whole(gen)))
            elif kind == b"f":
                objects.setdefault(num, FREE)
            else:
                kind = buf[m.end()] if m.end() < len(buf) else None
                raise PdfParseError(f"bad xref entry kind {kind!r}")
            pos = m.end()
    lx = Lexer(buf)
    lx.pos = SKIP.match(buf, pos + len(b"trailer")).end()
    trailer = lx.lex_dict_only()
    return Xref(objects), trailer


def _parse_xref_stream(lx: Lexer):
    lx.read_obj_prelude()
    obj = lx.lex_dict()
    if not isinstance(obj, Stream):
        raise PdfParseError("expected xref stream")
    d = obj.dict
    data = decode_stream(obj)
    w = d["W"]
    if len(w) != 3:
        raise PdfParseError(f"bad /W {w!r}")
    size = d["Size"]
    index = d.get("Index", [0, size])
    pairs = [(index[i], index[i + 1]) for i in range(0, len(index), 2)]
    entry_len = sum(w)
    objects: dict = {}
    cursor = 0

    def field(width: int, default: int) -> int:
        nonlocal cursor
        if width == 0:
            return default
        v = int.from_bytes(data[cursor : cursor + width], "big")
        cursor += width
        return v

    for first, count in pairs:
        for i in range(count):
            t = field(w[0], 1)
            f2 = field(w[1], 0)
            f3 = field(w[2], 0)
            num = first + i
            if t == 0:
                objects.setdefault(num, FREE)
            elif t == 1:
                objects.setdefault(num, InUse(f2, f3))
            elif t == 2:
                objects.setdefault(num, Compressed(f2, f3))
            # unknown types -> treated as null references (parser.rs:130-135)
    return Xref(objects), d


def _parse_section(buf: bytes, offset: int):
    """Parse one xref section INCLUDING its hybrid ``XRefStm``: in a
    hybrid-reference file the classic table marks ObjStm-resident objects
    free and the xref stream supplies their real locations, so the
    stream's entries take precedence within the section (PDF 32000-1
    §7.5.8.4)."""
    xref, trailer = parse_xref_at(buf, offset)
    stm_off = trailer.get("XRefStm")
    if isinstance(stm_off, int):
        try:
            stm_xref, _ = parse_xref_at(buf, stm_off)
        except PdfParseError:
            stm_xref = None
        if stm_xref is not None:
            stm_xref.merge_previous(xref)  # stream entries win in-section
            xref = stm_xref
    return xref, trailer


def read_full_xref(buf: bytes):
    """Follow the complete ``Prev`` chain from startxref.

    Returns ``(xref, trailer_dict)`` where ``trailer_dict`` is the newest
    trailer (its Root/Info/Encrypt/ID win) and the xref has first-writer-wins
    entries across all update sections (src/lib.rs:441-467); each section's
    hybrid XRefStm is folded in by ``_parse_section``.
    """
    offset = find_startxref(buf)
    xref, trailer = _parse_section(buf, offset)
    seen = {offset}
    frontier = []
    if "Prev" in trailer:
        frontier.append(trailer["Prev"])
    while frontier:
        off = frontier.pop(0)
        if off in seen:
            continue
        seen.add(off)
        prev_xref, prev_trailer = _parse_section(buf, off)
        xref.merge_previous(prev_xref)
        if "Prev" in prev_trailer:
            frontier.append(prev_trailer["Prev"])
    return xref, trailer


def scavenge_xref(buf: bytes) -> tuple[Xref, dict]:
    """RECOVERY parser for files whose xref machinery is broken (bad
    startxref offset, corrupt table, truncated tail): scan the whole
    buffer for ``N G obj`` headers and rebuild the index, last occurrence
    of each object number winning (matches incremental-update semantics).
    The trailer is reconstructed from the last /Root-bearing trailer dict
    in the file, falling back to scanning objects for the /Type /Catalog.
    The reference has no recovery path — it crashes by design; at corpus
    scale a scavenged parse turns a poison row into extracted content."""
    objects: dict[int, InUse] = {}
    for m in re.finditer(rb"(?m)^[^0-9]{0,8}?(\d{1,10})\s+(\d{1,5})\s+obj\b", buf):
        num = int(m.group(1))
        # offset of the object NUMBER, not the line start
        objects[num] = InUse(m.start(1), int(m.group(2)))
    if not objects:
        raise PdfParseError("recovery scan found no objects")
    xref = Xref(dict(objects))

    trailer: dict = {}
    for m in re.finditer(rb"trailer\b", buf):
        lx = Lexer(buf)
        lx.pos = m.end()
        try:
            cand = lx.lex_object()
        except PdfParseError:
            continue
        if isinstance(cand, dict) and "Root" in cand:
            trailer = cand  # keep scanning: LAST trailer wins
    if "Root" not in trailer:
        # no usable trailer: find the catalog among scavenged objects
        for num, entry in objects.items():
            lx = Lexer(buf)
            lx.pos = entry.offset
            try:
                lx.read_obj_prelude()
                obj = lx.lex_object()
            except PdfParseError:
                continue
            d = obj.dict if isinstance(obj, Stream) else obj
            if isinstance(d, dict) and str(d.get("Type")) == "Catalog":
                trailer = dict(trailer)
                trailer["Root"] = Ref(num, entry.gen)
                break
    if "Root" not in trailer:
        raise PdfParseError("recovery scan found no catalog")
    return xref, trailer


# -- document ----------------------------------------------------------------

_CACHE_MISS = object()  # resolve()-cache sentinel (NULL/None are valid values)

_INHERITABLE = ("Resources", "MediaBox", "CropBox", "Rotate")


class Page:
    __slots__ = ("dict", "resources", "media_box", "rotate")

    def __init__(self, dict_: dict, resources, media_box, rotate):
        self.dict = dict_
        self.resources = resources
        self.media_box = media_box
        self.rotate = rotate


class Document:
    """Parsed PDF: xref + trailer + catalog + page list, with lazy object
    resolution. ``Document(buf).pages`` are in document (spec) order."""

    def __init__(self, buf: bytes, recover: bool = False):
        """``recover=True`` falls back to the scavenger xref rebuild
        (xref.scavenge_xref) when the normal xref machinery is broken —
        the reference crashes on such files by design; OFF by default so
        raw parity (and poison-row semantics) are unchanged."""
        self.buf = buf
        self.security = None
        self._encrypt_num = None
        self._obj_cache: dict[tuple[int, int], object] = {}
        self._scavenged = False
        try:
            self.xref, self.trailer = read_full_xref(buf)
            if recover and self.trailer.get("Root") is None:
                raise PdfParseError("trailer has no /Root")
        except PdfParseError:
            if not recover:
                raise
            self._scavenge()
        self._objstm_cache: dict[int, tuple[list[tuple[int, int]], bytes, int]] = {}
        enc_ref = self.trailer.get("Encrypt")
        if enc_ref is not None:
            # resolved while security is still None -> the /Encrypt dict
            # itself is read undecrypted (it never is encrypted)
            from pdf_ray.pdfcore.encryption import StandardSecurityHandler

            enc_dict = self.resolve_dict(enc_ref)
            ids = self.resolve(self.trailer.get("ID", NULL))
            first_id = b""
            if isinstance(ids, list) and ids and isinstance(ids[0], str):
                first_id = bytes(ord(c) & 0xFF for c in ids[0])
            self._encrypt_num = enc_ref.num if isinstance(enc_ref, Ref) else None
            self.security = StandardSecurityHandler(enc_dict, first_id)
        try:
            self._build_tree()
        except PdfParseError:
            # xref parsed but points at garbage: one scavenged retry
            if not recover or self._scavenged:
                raise
            self._scavenge()
            self._obj_cache.clear()
            self._objstm_cache.clear()
            self._build_tree()

    def _scavenge(self) -> None:
        self.xref, self.trailer = scavenge_xref(self.buf)
        self._scavenged = True

    def _build_tree(self) -> None:
        root = self.trailer.get("Root")
        if root is None:
            raise PdfParseError("trailer has no /Root")
        self.catalog = self.resolve_dict(root)
        pages_ref = self.catalog.get("Pages")
        if pages_ref is None:
            raise PdfParseError("catalog has no /Pages")
        self.pages: list[Page] = []
        self._walk_page_tree(pages_ref, {}, set())

    # -- resolution (src/lib.rs:396-422, src/resolve.rs) --------------------

    def resolve(self, obj):
        """Chase indirect references until a direct object; a dangling
        reference resolves to NULL (src/lib.rs:405). Resolved objects are
        cached per (num, gen) for the document's lifetime — shared nodes
        (a page tree's common /Resources, fonts referenced by every page)
        would otherwise re-lex from the buffer once per referrer. Parsed
        objects are treated as immutable throughout the engine (unlike
        the reference's destructive dict accessors, src/objects.rs:82)."""
        seen = 0
        cache = self._obj_cache
        while isinstance(obj, Ref):
            seen_ref = obj
            key = (obj.num, obj.gen)
            hit = cache.get(key, _CACHE_MISS)
            if hit is not _CACHE_MISS:
                obj = hit
                seen += 1
                if seen > 32:
                    raise PdfParseError("reference chain too deep")
                continue
            entry = self.xref.get(obj)
            if entry is None:
                return NULL
            if isinstance(entry, InUse):
                obj = self._lex_at(entry.offset)
                # strings/streams of encrypted documents are decrypted with
                # the per-object key; ObjStm members are covered by their
                # container stream's decryption (PDF 32000-1 §7.6.2)
                if self.security is not None and obj is not None:
                    if self._encrypt_num != seen_ref.num:
                        obj = self.security.decrypt_object(obj, seen_ref)
            elif isinstance(entry, Compressed):
                obj = self._lex_from_objstm(entry)
            else:
                return NULL
            cache[key] = obj
            seen += 1
            if seen > 32:
                raise PdfParseError("reference chain too deep")
        return obj

    def resolve_dict(self, obj) -> dict:
        v = self.resolve(obj)
        if isinstance(v, Stream):
            return v.dict
        if not isinstance(v, dict):
            raise PdfParseError(f"expected dictionary, got {type(v).__name__}")
        return v

    def resolve_stream(self, obj) -> Stream:
        v = self.resolve(obj)
        if not isinstance(v, Stream):
            raise PdfParseError(f"expected stream, got {type(v).__name__}")
        return v

    def decoded(self, stream: Stream) -> bytes:
        return decode_stream(stream, resolve=self.resolve)

    def _lex_at(self, offset: int):
        lx = Lexer(self.buf, resolve=self._resolve_length)
        lx.pos = offset
        lx.read_obj_prelude()
        return lx.lex_object()

    def _resolve_length(self, ref: Ref) -> int:
        v = self.resolve(ref)
        if not isinstance(v, int):
            raise PdfParseError(f"indirect /Length is {type(v).__name__}")
        return v

    # -- object streams (src/object_stream.rs:71-109) -----------------------

    def _load_objstm(self, num: int):
        cached = self._objstm_cache.get(num)
        if cached is not None:
            return cached
        entry = self.xref.objects.get(num)
        if not isinstance(entry, InUse):
            raise PdfParseError(f"ObjStm {num} not a main-file object")
        stream = self.resolve_stream(Ref(num, 0))
        d = stream.dict
        n = self.resolve(d.get("N"))
        first = self.resolve(d.get("First"))
        if not isinstance(n, int) or not isinstance(first, int):
            raise PdfParseError("bad ObjStm header")
        data = self.decoded(stream)
        pairs = []
        pos = 0
        for _ in range(n):
            m = NUMBER_PAIR.match(data, pos)
            pairs.append((parse_whole(m[1]), parse_whole(m[2])))
            pos = m.end()
        result = (pairs, data, first)
        self._objstm_cache[num] = result
        return result

    def _lex_from_objstm(self, entry: Compressed):
        pairs, data, first = self._load_objstm(entry.objstm_num)
        if entry.index >= len(pairs):
            raise PdfParseError("ObjStm index out of range")
        _, off = pairs[entry.index]
        lx = Lexer(data)
        lx.pos = first + off
        return lx.lex_object()

    # -- page tree (src/lib.rs:211-393) -------------------------------------

    def _walk_page_tree(self, node_ref, inherited: dict, visiting: set):
        key = node_ref if isinstance(node_ref, Ref) else None
        if key is not None:
            if key in visiting:
                raise PdfParseError("page tree cycle")
            visiting = visiting | {key}
        node = self.resolve_dict(node_ref)
        fields = dict(inherited)
        for f in _INHERITABLE:
            if f in node:
                fields[f] = node[f]
        ntype = self.resolve(node.get("Type", NULL))
        if ntype == Name("Page") or ("Kids" not in node and "Contents" in node):
            self.pages.append(
                Page(
                    node,
                    self.resolve(fields.get("Resources", NULL)),
                    self.resolve(fields.get("MediaBox", NULL)),
                    self.resolve(fields.get("Rotate", 0)),
                )
            )
            return
        kids = self.resolve(node.get("Kids"))
        if not isinstance(kids, list):
            raise PdfParseError("page tree node has no /Kids")
        for kid in kids:
            self._walk_page_tree(kid, fields, visiting)

    # -- contents (src/content/stream.rs:27-57) ------------------------------

    def page_content(self, page: Page) -> bytes:
        """Decode and concatenate the page's Contents stream(s) into one
        buffer — operators may straddle stream boundaries, so this must be
        a plain byte concat before tokenizing."""
        contents = self.resolve(page.dict.get("Contents", NULL))
        if contents is NULL:
            return b""
        streams = contents if isinstance(contents, list) else [contents]
        parts = []
        for s in streams:
            parts.append(self.decoded(self.resolve_stream(s)))
        return b"".join(parts)
