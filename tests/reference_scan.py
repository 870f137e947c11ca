"""Frozen copy of the regex object scanner (``lexer.py``) and the regex
content-statement scanner (``content.py``) that the compiled scanner
``pdf_ray/pdfcore/scan.c`` replaced.

It is the oracle of ``tests/test_scan_diff.py``: the compiled scanner must
give the same values, end positions and errors as this code. Do not edit
it to follow the engine; nothing in ``pdf_ray`` imports it.
"""

from __future__ import annotations

import binascii
import re
from functools import partial

from pdf_ray.pdfcore.objects import NULL, Name, PdfParseError, Ref, Stream

WHITESPACE = frozenset(b"\x00\t\n\x0c\r ")

_WS = rb"\x00\t\n\x0c\r "
_DELIM = rb"()<>\[\]{}/%"
# whitespace and %-comments, as one unrolled run of possessive loops, so a
# token that fails to match never backtracks into it
_SKIP = rb"[" + _WS + rb"]*+(?:%[^\r\n]*+[" + _WS + rb"]*+)*+"
_REAL = rb"[+-]?+(?:\d++\.\d*+|\.\d++)"
_INT = rb"[+-]?\d+"
# the `R` of a reference: R must be followed by a byte, and that byte must
# be whitespace or a delimiter (`12 0 RG` is not a reference)
_R = _SKIP + rb"R(?=[" + _WS + _DELIM + rb"])"
_REF_TAIL = _SKIP + rb"(?P<gen>\d++)" + _R
# a name run without '#': names with '#XX' escapes take the slow path
_PLAIN_NAME = rb"[^" + _WS + _DELIM + rb"#]*+(?!#)"

SKIP = re.compile(_SKIP)
NUMBER = re.compile(_REAL + rb"|" + _INT)
# two whole numbers, either may be empty: ObjStm header pairs, xref
# subsection headers
NUMBER_PAIR = re.compile(_SKIP + rb"(\d*+)" + _SKIP + rb"(\d*+)" + _SKIP)
# one classic xref row `offset gen n|f`; a missing kind leaves group 3 None
XREF_ROW = re.compile(rb"(\d*+)" + _SKIP + rb"(\d*+)" + _SKIP + rb"(?:([nf])" + _SKIP + rb")?")
# a run of standard 20-byte xref rows, and one such row's fields
XREF_ROWS = re.compile(rb"(?:\d{10} \d{5} [nf][" + _WS + rb"]{2})*+")
XREF_ROW_FIELDS = re.compile(rb"(\d{10}) (\d{5}) ([nf])")
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

# -- whole entries ----------------------------------------------------------
# One plain token, as _TOKEN reads it: a name, or a number read as a
# reference, then a real, then an int (the alternatives _TOKEN tries in
# that order, here sharing their digits), or a plain string or keyword.
# Atomic, so a frame can never re-split a token to match.
_PLAIN = (
    rb"(?>/" + _PLAIN_NAME
    + rb"|[+-]?(?:\d++(?:" + _SKIP + rb"\d++" + _R + rb"|\.\d*+)?|\.\d++)"
    + rb"|\([^()\\]*+\)|true|false|null)"
)
# a dictionary entry: a plain-name key (1) and a plain value — a name
# (2), a reference (3 and 4), a real, an int, a string, a keyword (5-8) —
# an array of plain tokens, whose items (9) start at the first item, or
# the `<<` of a dictionary (10)
_ENTRY = re.compile(
    rb"/(" + _PLAIN_NAME + rb")" + _SKIP
    + rb"(?:/(" + _PLAIN_NAME + rb")|[+-]?(\d++)" + _SKIP + rb"(\d++)" + _R
    + rb"|(" + _REAL + rb")|(" + _INT + rb")|\(([^()\\]*+)\)|(true|false|null)"
    + rb"|\[" + _SKIP + rb"((?:" + _PLAIN + _SKIP + rb")*+)\]"
    + rb"|<<" + _SKIP + rb"())"
    + _SKIP
)
# the items of an array _ENTRY framed: a name with its '/' (1), a
# reference (2 and 3), a real, an int, a string with its parentheses, a
# keyword; no group is empty when it matched
_ITEMS = re.compile(
    rb"(?:(/" + _PLAIN_NAME + rb")|[+-]?(\d++)" + _SKIP + rb"(\d++)" + _R
    + rb"|(" + _REAL + rb")|(" + _INT + rb")|(\([^()\\]*+\))|(true|false|null))"
    + _SKIP
)
# `N G obj <<` (either number may be missing) and the whitespace after it
_OPEN_INDIRECT = re.compile(
    _SKIP + rb"\d*+" + _SKIP + rb"\d*+" + _SKIP + rb"obj" + _SKIP + rb"<<" + _SKIP
)
# a dictionary's `>>`, and the EOL (1) after a `stream` keyword
_CLOSE = re.compile(rb">>" + _SKIP + rb"(?:stream(\r\n?|\n))?")
# a nested dictionary's `>>`, unless lex_object would read a stream there
_CLOSE_NESTED = re.compile(rb">>" + _SKIP + rb"(?!stream)")
_ENDSTREAM = re.compile(_SKIP + rb"endstream")
_KEYWORDS_BY_BYTES = {b"true": True, b"false": False, b"null": NULL}
# Ref from a (num, gen) tuple, without NamedTuple's Python-level __new__
_new_ref = partial(tuple.__new__, Ref)

_KEY = re.compile(rb"/(" + _PLAIN_NAME + rb")")
_PRELUDE = re.compile(_SKIP + rb"\d*+" + _SKIP + rb"\d*+" + _SKIP + rb"(?:(obj)" + _SKIP + rb")?")
_BARE_SIGN_REF = re.compile(_SKIP + rb"\d++" + _R)
_NAME_RUN = re.compile(rb"[^" + _WS + _DELIM + rb"]*")
_HEX_RUN = re.compile(rb"[0-9A-Fa-f]*")
_STRING_SPECIALS = re.compile(rb"[()\\]")
_HEX_DIGITS = frozenset(b"0123456789abcdefABCDEF")
_KEYWORDS = {0x74: b"true", 0x66: b"false", 0x6E: b"null"}
_STRING_ESCAPES = {0x6E: "\n", 0x72: "\r", 0x74: "\t", 0x62: "\x08", 0x66: "\x0c",
                   0x28: "(", 0x29: ")", 0x5C: "\\"}

_skip = SKIP.match

# arrays and dictionaries the lexer reads inside each other before it
# refuses the object (a fixed limit, so deep nesting fails the same way
# whatever the caller's stack depth)
MAX_DEPTH = 128


def _expected(buf: bytes, pos: int, token: bytes) -> PdfParseError:
    return PdfParseError(
        f"expected {token!r} at offset {pos}, found {buf[pos : pos + len(token)]!r}"
    )


def parse_whole(digits: bytes) -> int:
    """``int`` of a digit run that may be empty; an empty run raises the
    same ``ValueError`` as ``int('')``."""
    return int(digits or "")


def _items(buf: bytes, start: int, end: int) -> list:
    """The items of an array ``_ENTRY`` framed from ``start`` to ``end``
    (its ``]``, which the lookahead of a last item may see)."""
    out = []
    add = out.append
    for name, num, gen, real, int_, string, keyword in _ITEMS.findall(buf, start, end + 1):
        if gen:
            add(_new_ref((int(num), int(gen))))
        elif int_:
            add(int(int_))
        elif name:
            add(Name(name[1:].decode("latin-1")))
        elif real:
            add(float(real))
        elif string:
            add(string[1:-1].decode("latin-1"))
        else:
            add(_KEYWORDS_BY_BYTES[keyword])
    return out


def _read_entries(buf: bytes, pos: int, d: dict, depth: int) -> int:
    """Read the entries ``_ENTRY`` frames from ``pos`` into ``d``, inside
    ``depth`` open arrays and dictionaries; returns where it stopped: at
    the ``>>``, or at an entry it leaves to ``lex_object`` (one that
    ``_ENTRY`` does not frame, would nest past ``MAX_DEPTH``, or holds
    such an entry)."""
    match = _ENTRY.match
    while (m := match(buf, pos)) is not None:
        k = m.lastindex
        if k == 2:
            v = Name(m[2].decode("latin-1"))
        elif k == 4:
            v = _new_ref((int(m[3]), int(m[4])))
        elif k == 6:
            v = int(m[6])
        elif depth >= MAX_DEPTH and k >= 9:
            return pos
        elif k == 10:
            v = {}
            close = _CLOSE_NESTED.match(buf, _read_entries(buf, m.end(), v, depth + 1))
            if close is None:
                return pos
            d[m[1].decode("latin-1")] = v
            pos = close.end()
            continue
        elif k == 9:
            v = _items(buf, m.start(9), m.end(9))
        elif k == 5:
            v = float(m[5])
        elif k == 7:
            v = m[7].decode("latin-1")
        else:
            v = _KEYWORDS_BY_BYTES[m[8]]
        d[m[1].decode("latin-1")] = v
        pos = m.end()
    return pos


def lex_indirect(buf: bytes, pos: int, resolve=None):
    """The object of the indirect object at ``pos``: ``N G obj`` (either
    number may be missing) and the object after it, as
    ``Lexer.read_obj_prelude`` and ``Lexer.lex_object`` read them.
    ``resolve`` chases an indirect stream ``/Length``.

    A dictionary is read in one pass: one match for the prelude and
    ``<<``, one per ``_ENTRY`` entry, and one for ``>>`` with the
    ``stream`` keyword and its EOL, after which a direct ``/Length`` cuts
    the data. Anything else goes through a ``Lexer`` from where the pass
    stopped."""
    m = _OPEN_INDIRECT.match(buf, pos)
    if m is None:
        lx = Lexer(buf, resolve)
        lx.pos = pos
        lx.read_obj_prelude()
        return lx.lex_object()
    d: dict = {}
    pos = _read_entries(buf, m.end(), d, 1)
    m = _CLOSE.match(buf, pos)
    if m is not None:
        if m.lastindex == 1:  # `stream` and its EOL
            end = m.end()
            length = d.get("Length")
            if (
                type(length) is int
                and 0 <= length <= len(buf) - end
                and _ENDSTREAM.match(buf, end + length) is not None
            ):
                return Stream(d, buf[end : end + length])
            pos = m.start(1) - 6  # an indirect /Length, or the stream's error
        elif buf.startswith(b"stream", m.end()):
            pos = m.end()
        else:
            return d
        lx = Lexer(buf, resolve)
        lx.pos = pos
        return lx._lex_stream(d)
    # an entry only lex_object reads, or malformed input
    lx = Lexer(buf, resolve)
    lx.pos = pos
    d = lx._lex_dict_entries(d)
    if buf.startswith(b"stream", lx.pos):
        return lx._lex_stream(d)
    return d


class Lexer:
    """Cursor-based lexer over a PDF byte buffer.

    ``resolve`` is an optional callback used to chase indirect ``/Length``
    values when lexing streams (src/stream.rs:126-152); the top-level
    ``Document`` provides it. When ``resolve`` is None, dictionaries
    followed by ``stream`` raise unless ``Length`` is a direct integer.
    """

    __slots__ = ("buf", "pos", "resolve", "depth")

    def __init__(self, buf: bytes, resolve=None):
        self.buf = buf
        self.pos = 0
        self.resolve = resolve
        self.depth = 0  # arrays and dictionaries open around ``pos``

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

    def _enter(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise PdfParseError(f"objects nested deeper than {MAX_DEPTH} levels")

    def _lex_dict_entries(self, d: dict | None = None) -> dict:
        """Entries from ``pos`` (after ``<<``) through ``>>`` and the
        whitespace after it, added to ``d``: ``_read_entries`` reads the
        entries it frames whole, ``lex_object`` the value of any other."""
        self._enter()
        buf = self.buf
        if d is None:
            d = {}
        while True:
            pos = _read_entries(buf, self.pos, d, self.depth)
            if buf.startswith(b">>", pos):
                self.pos = _skip(buf, pos + 2).end()
                self.depth -= 1
                return d
            if pos >= len(buf):
                raise PdfParseError("unterminated dictionary")
            if buf[pos] == 0x3E:  # '>'
                raise _expected(buf, pos + 1, b">")
            m = _KEY.match(buf, pos)
            if m is not None:
                self.pos = m.end()
                key = m[1].decode("latin-1")
            else:
                self.pos = pos
                key = self._lex_name()  # '#XX' escapes, or the missing-'/' error
            d[key] = self.lex_object()

    def _lex_array(self) -> list:
        self._enter()
        buf = self.buf
        arr = []
        while True:
            pos = self.pos
            if pos >= len(buf):
                raise PdfParseError("unterminated array")
            if buf[pos] == 0x5D:  # ']'
                self.pos = _skip(buf, pos + 1).end()
                self.depth -= 1
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


# -- content statements (content.py; its _PLAIN and _KEYWORDS renamed) --


OPERATORS = frozenset(
    """b B b* B* BDC BI BMC BT BX c cm CS cs d d0 d1 Do DP EI EMC ET EX f F
    f* G g gs h i ID j J K k l m M MP n q Q re RG rg ri s S SC sc SCN scn
    sh T* Tc Td TD Tf Tj TJ TL Tm Tr Ts Tw Tz v w W W* y ' \"""".split()
)
# operator bytes -> name, for the operators with no framing of their own
_PLAIN_OPERATORS = {op.encode(): op for op in OPERATORS - {"BX", "EX", "ID"}}
_CONTENT_KEYWORDS = {"true": True, "false": False, "null": NULL}

OBJ = 0
OP = 1
INLINE = 2

# An integer followed by `G R` and a delimiter is an indirect reference
# (src/lex.rs:473-494) and goes to lex_object; `1 1 1 RG` stays plain, as
# no delimiter follows its R. Runs of over 300 digits go there too, so a
# raw integer never overflows float() and int() refuses a run past its
# digit limit where the reference lexer converts it.
_PLAIN_INT = (
    rb"[+-]?\d{1,300}+(?!\d)(?![" + _WS + rb"]++\d++[" + _WS + rb"]++R[" + _WS + _DELIM + rb"])"
)
# one plain operand: the token the reference lexer reads at that byte
# (the alternatives start with distinct bytes; a real is tried before an
# int). The lookahead turns an operator's first byte away at once.
_CONTENT_PLAIN = (
    rb"(?=[-+.0-9/(])(?>/" + _PLAIN_NAME + rb"|\([^()\\]*+\)|" + _REAL + rb"|" + _PLAIN_INT + rb")"
)
# an alnum run ended inclusively by one of * ' ", or a lone quote
# (src/content/mod.rs:83-99)
_OPERATOR = rb"['\"]|[A-Za-z][A-Za-z0-9]*+[*'\"]?"

# Groups: the first and second plain operands, the plain operands after
# them (each with the whitespace after it) and the operator, which is
# None when the next item is not plain or the stream ends. Most
# statements take two operands or fewer, so they need no second scan.
STATEMENT = re.compile(
    _SKIP
    + rb"(?:(" + _CONTENT_PLAIN + rb")" + _SKIP
    + rb"(?:(" + _CONTENT_PLAIN + rb")" + _SKIP
    + rb"((?:" + _CONTENT_PLAIN + _SKIP + rb")*+))?)?"
    + rb"(" + _OPERATOR + rb")?"
)
_OPERAND = re.compile(rb"(" + _CONTENT_PLAIN + rb")" + _SKIP)


def value(v):
    """The object an operand stands for: a plain operand's raw bytes are
    converted here, anything else is already an object."""
    if type(v) is not bytes:
        return v
    b = v[0]
    if b == 0x2F:  # /
        return Name(v[1:].decode("latin-1"))
    if b == 0x28:  # (
        return v[1:-1].decode("latin-1")
    return float(v) if b"." in v else int(v)


def statements(buf: bytes):
    """Yield ``(operands, op)`` per operator statement of ``buf``.

    ``operands`` is a sequence of raw plain operands and lexed objects,
    in stream order; ``op`` is a known operator, or None for operands that
    precede a non-plain operand or the end of the stream (they stay on the
    operand stack for the next operator). Operands are always yielded
    before a later item is lexed, so an error leaves every earlier token
    delivered. Inline image data comes as ``([data], INLINE)`` between
    ``((), "ID")`` and ``((), "EI")``; unknown operators inside ``BX``/``EX``
    are dropped."""
    n = len(buf)
    match = STATEMENT.match
    split = _OPERAND.findall
    lx = None
    compat_depth = 0
    pos = 0
    while pos < n:
        m = match(buf, pos)
        pos = m.end()
        first, second, rest, op = m.groups()
        if first is None:
            operands = ()
        elif second is None:
            operands = [first]
        elif rest:
            operands = [first, second, *split(rest)]
        else:
            operands = [first, second]
        name = _PLAIN_OPERATORS.get(op)
        if name is not None:
            yield operands, name
            continue
        if op is not None:
            op = op.decode("latin-1")
            if op in _CONTENT_KEYWORDS:
                yield [*operands, _CONTENT_KEYWORDS[op]], None
                continue
            if op == "BX" or op == "EX":
                compat_depth = compat_depth + 1 if op == "BX" else max(0, compat_depth - 1)
                yield operands, op
                continue
        if operands:
            yield operands, None
        if op is None:
            if pos >= n:
                break
            if lx is None:
                lx = Lexer(buf)
            lx.pos = pos
            operand = lx.lex_object()
            pos = lx.pos
            yield [operand], None
        elif op == "ID":
            data, pos = _inline_image(buf, pos)
            yield (), "ID"
            yield [data], INLINE
            yield (), "EI"
        elif not compat_depth:
            raise PdfParseError(f"unknown content operator {op!r}")


def _inline_image(buf: bytes, pos: int) -> tuple[bytes, int]:
    """Inline image data after ``ID`` at ``pos``: one whitespace byte, then
    raw bytes until a whitespace-delimited ``EI`` (PDF 32000-1 §8.9.7).
    Returns the data and the offset after ``EI``."""
    n = len(buf)
    if pos < n and buf[pos] in WHITESPACE:
        pos += 1
    i = pos
    while True:
        i = buf.find(b"EI", i)
        if i == -1:
            raise PdfParseError("unterminated inline image")
        before_ok = i == 0 or buf[i - 1] in WHITESPACE
        after_ok = i + 2 >= n or buf[i + 2] in WHITESPACE
        if before_ok and after_ok:
            break
        i += 2
    end = i - 1 if i > pos and buf[i - 1] in WHITESPACE else i
    return buf[pos:end], i + 2


def tokenize(buf: bytes):
    """Yield ``(OBJ, value)`` / ``(OP, name)`` / ``(INLINE, bytes)`` tokens:
    the statements of ``buf`` flattened, with every operand converted."""
    for operands, op in statements(buf):
        if op == INLINE:
            yield INLINE, operands[0]
            continue
        for v in operands:
            yield OBJ, value(v)
        if op is not None:
            yield OP, op
