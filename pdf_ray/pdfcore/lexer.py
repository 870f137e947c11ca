"""Compiled PDF object scanner.

One regex frames every common object: ``_TOKEN`` skips whitespace and
``%`` comments, matches one token (an ``N G R`` reference, a real, an int,
a name, ``<<``, ``[``, a plain ``(...)`` string or a keyword) and skips
what follows it, so ``Lexer.lex_object`` is one ``match`` and a dispatch on
``m.lastgroup``. The same patterns frame indirect-object preludes, ObjStm
header pairs, ``startxref`` and classic xref rows (``xref.py``,
``document.py``), and the content scanner (``content.py``) builds its
statement pattern from the skip, real and name patterns here. The forms
the regex leaves out — ``#XX`` names, literal strings with escapes or
nested parentheses, hex strings, stream framing and malformed input — go
through ``Lexer._lex_rare`` and its helpers below. Nested objects recurse
through ``Lexer.lex_object``.

Semantics are the reference lexer's, exactly (these define span-text
parity, see SURVEY.md §7.4.1):

- reference: src/lex.rs (LexBase / LexObject traits)
- literal strings map each byte to the codepoint of equal value
  (Latin-1 style), with ``\\n \\r \\t \\b \\f \\( \\) \\\\`` escapes, 1-3 digit
  octal escapes (mod 256), and backslash-newline line continuations that
  swallow all following whitespace/comments (src/lex.rs:222-287)
- hex strings: two hex digits per codepoint, or four (UTF-16 code units)
  when the string starts with ``FEFF``; missing trailing digits are treated
  as zero via the same left-shift loop (src/lex.rs:394-443)
- names support ``#XX`` hex escapes (src/lex.rs:183-220)
- ``12 0 R`` vs ``12 0`` disambiguation backtracks, and requires the ``R``
  to be followed by a delimiter or whitespace (src/lex.rs:447-497); a sign
  before the object number is dropped (``-12 0 R`` is ``Ref(12, 0)``)
- whitespace skipping also consumes ``%`` comments (src/lex.rs:17-28)
"""

from __future__ import annotations

import binascii
import re

from .objects import NULL, Name, PdfParseError, Ref, Stream

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
