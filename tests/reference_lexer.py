"""Frozen copy of the per-byte object lexer, the content tokenizer and the
xref-section and ObjStm-header readers that the compiled scanner in
``pdf_ray.pdfcore.lexer`` replaced (with ``content.py``, ``xref.py`` and
``document.py``).

It is the oracle of ``tests/test_lexer_diff.py``: the compiled scanner must
give the same values, end positions and errors as this code. Do not edit
it to follow the engine; nothing in ``pdf_ray`` imports it.
"""

from __future__ import annotations

import re

from pdf_ray.pdfcore.filters import decode_stream
from pdf_ray.pdfcore.objects import NULL, Name, PdfParseError, Ref, Stream
from pdf_ray.pdfcore.xref import FREE, Compressed, InUse, Xref

WHITESPACE = frozenset((0x00, 0x09, 0x0A, 0x0C, 0x0D, 0x20))
DELIMITERS = frozenset(b"()<>[]{}/%")

# regular (name) chars: not whitespace, not delimiter
_NAME_RUN = re.compile(rb"[^\x00\x09\x0a\x0c\x0d\x20()<>\[\]{}/%]*")
_DIGIT_RUN = re.compile(rb"[0-9]*")
_WS_OR_COMMENT = re.compile(rb"(?:[\x00\x09\x0a\x0c\x0d\x20]+|%[^\r\n]*)+")
_WS_RUN = re.compile(rb"[\x00\x09\x0a\x0c\x0d\x20]+")
_STRING_SPECIALS = re.compile(rb"[()\\]")
_HEX = {
    **{ord("0") + i: i for i in range(10)},
    **{ord("a") + i: 10 + i for i in range(6)},
    **{ord("A") + i: 10 + i for i in range(6)},
}
_DIGITS = frozenset(range(ord("0"), ord("9") + 1))


def is_regular(b: int) -> bool:
    return b not in WHITESPACE and b not in DELIMITERS


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

    # -- byte-level primitives (src/lex.rs:12-180) --------------------------

    def peek(self, off: int = 0) -> int | None:
        i = self.pos + off
        return self.buf[i] if i < len(self.buf) else None

    def next_byte(self) -> int | None:
        b = self.peek()
        if b is not None:
            self.pos += 1
        return b

    def expect(self, token: bytes) -> None:
        if self.buf[self.pos : self.pos + len(token)] != token:
            raise PdfParseError(
                f"expected {token!r} at offset {self.pos}, "
                f"found {self.buf[self.pos : self.pos + len(token)]!r}"
            )
        self.pos += len(token)

    def next_matches(self, token: bytes) -> bool:
        return self.buf[self.pos : self.pos + len(token)] == token

    def skip_whitespace(self) -> None:
        # hot path (called before every lexed token): cheap first-byte
        # test, then one regex pass over whitespace runs and %-comments
        # (most calls find NO whitespace — a failed regex costs more than
        # the byte check; a long run costs less than the old byte loop)
        buf, pos = self.buf, self.pos
        if pos < len(buf) and (buf[pos] in WHITESPACE or buf[pos] == 0x25):
            self.pos = _WS_OR_COMMENT.match(buf, pos).end()

    def expect_eol(self) -> None:
        b = self.next_byte()
        if b == 0x0A:
            return
        if b == 0x0D:
            if self.peek() == 0x0A:
                self.pos += 1
            return
        raise PdfParseError(f"expected EOL, found {b!r}")

    def lex_whole_number(self) -> str:
        m = _DIGIT_RUN.match(self.buf, self.pos)
        self.pos = m.end()
        return m.group().decode("ascii")

    # -- object lexing (src/lex.rs:307-533) ---------------------------------

    def lex_object(self):
        self.skip_whitespace()
        b = self.peek()
        if b is None:
            raise PdfParseError("unexpected EOF while lexing object")
        if b == ord("t"):
            self.expect(b"true")
            obj = True
        elif b == ord("f"):
            self.expect(b"false")
            obj = False
        elif b == ord("n"):
            self.expect(b"null")
            obj = NULL
        elif b == ord("<"):
            obj = self._lex_gt()
        elif b in _DIGITS or b in (ord("+"), ord("-"), ord(".")):
            obj = self._lex_number()
        elif b == ord("("):
            obj = self.lex_string()
        elif b == ord("/"):
            obj = self.lex_name()
        elif b == ord("["):
            obj = self._lex_array()
        else:
            raise PdfParseError(f"unexpected object start {bytes([b])!r} at {self.pos}")
        self.skip_whitespace()
        return obj

    def lex_name(self) -> Name:
        self.expect(b"/")
        m = _NAME_RUN.match(self.buf, self.pos)
        run = m.group()
        self.pos = m.end()
        if b"#" not in run:
            return Name(run.decode("latin-1"))
        out: list[str] = []
        i = 0
        while i < len(run):
            b = run[i]
            if b == 0x23:  # '#XX' hex escape
                if i + 2 >= len(run) or run[i + 1] not in _HEX or run[i + 2] not in _HEX:
                    raise PdfParseError("bad #-escape in name")
                out.append(chr(_HEX[run[i + 1]] * 16 + _HEX[run[i + 2]]))
                i += 3
            else:
                out.append(chr(b))
                i += 1
        return Name("".join(out))

    def lex_string(self) -> str:
        """Literal string ``(...)`` -> codepoint-per-byte str
        (src/lex.rs:222-287; this output IS the span text at parity).
        Plain byte runs are bulk-decoded; the per-byte loop only handles
        the special bytes ``( ) \\``."""
        self.expect(b"(")
        out: list[str] = []
        depth = 0
        buf = self.buf
        specials = _STRING_SPECIALS
        while True:
            m = specials.search(buf, self.pos)
            if m is not None and m.start() > self.pos:
                out.append(buf[self.pos : m.start()].decode("latin-1"))
                self.pos = m.start()
            b = self.peek()
            if b is None:
                break
            if b == ord(")"):
                if depth == 0:
                    self.pos += 1
                    break
                depth -= 1
                out.append(")")
            elif b == ord("("):
                depth += 1
                out.append("(")
            elif b == ord("\\"):
                self.pos += 1
                e = self.next_byte()
                if e is None:
                    raise PdfParseError("EOF in string escape")
                if e == ord("n"):
                    out.append("\n")
                elif e == ord("r"):
                    out.append("\r")
                elif e == ord("t"):
                    out.append("\t")
                elif e == ord("b"):
                    out.append("\x08")
                elif e == ord("f"):
                    out.append("\x0c")
                elif e in (ord("("), ord(")"), ord("\\")):
                    out.append(chr(e))
                elif e in (0x0A, 0x0D):
                    # line continuation swallows following whitespace+comments
                    self.skip_whitespace()
                else:
                    # octal escape \d, \dd, \ddd (u8 arithmetic -> mod 256)
                    v = (e - ord("0")) & 0xFF
                    for _ in range(2):
                        d = self.peek()
                        if d is None or d not in _DIGITS:
                            break
                        self.pos += 1
                        v = (v * 8 + (d - ord("0"))) & 0xFF
                    out.append(chr(v))
                continue
            else:
                out.append(chr(b))
            self.pos += 1
        return "".join(out)

    def _read_hex_char(self, is_utf16: bool) -> str:
        """One output codepoint from 2 (or 4 for UTF-16) hex digits; missing
        trailing digits shift in zeroes (src/lex.rs:394-419)."""
        val = 0
        want = 4 if is_utf16 else 2
        count = 0
        while True:
            b = self.peek()
            if b is None:
                break
            val *= 16
            if b == ord(">"):
                break
            self.pos += 1
            if b not in _HEX:
                raise PdfParseError(f"bad hex digit {bytes([b])!r}")
            val += _HEX[b]
            count += 1
            if count == want:
                break
        return chr(val)

    def lex_hex_string(self) -> str:
        self.expect(b"<")
        is_utf16 = self.next_matches(b"feff") or self.next_matches(b"FEFF")
        if is_utf16:
            self.pos += 4
        out: list[str] = []
        while True:
            b = self.peek()
            if b is None:
                break
            if b == ord(">"):
                self.pos += 1
                break
            out.append(self._read_hex_char(is_utf16))
        return "".join(out)

    def _lex_gt(self):
        nxt = self.peek(1)
        if nxt == ord("<"):
            return self.lex_dict()
        if nxt == ord(">"):  # special-cased empty byte string `<>`
            self.pos += 2
            return ""
        if nxt is not None and nxt in _HEX:
            return self.lex_hex_string()
        raise PdfParseError(f"unexpected byte after '<': {nxt!r}")

    def _lex_number(self):
        neg = 1
        b = self.peek()
        if b == ord("+"):
            self.pos += 1
        elif b == ord("-"):
            self.pos += 1
            neg = -1
        whole = self.lex_whole_number()
        whole_end = self.pos
        if self.peek() == ord("."):
            self.pos += 1
            frac = self.lex_whole_number()
            return float(f"{whole}.{frac}" if whole or frac else "0") * neg
        # possible indirect reference `<num> <gen> R` (src/lex.rs:473-494)
        self.skip_whitespace()
        b = self.peek()
        if b is not None and b in _DIGITS:
            gen = self.lex_whole_number()
            self.skip_whitespace()
            r = self.next_byte()
            nxt = self.peek()
            if r == ord("R") and nxt is not None and (
                nxt in WHITESPACE or nxt in DELIMITERS
            ):
                return Ref(int(whole), int(gen))
            self.pos = whole_end
        if not whole:
            raise PdfParseError("empty number")
        return int(whole) * neg

    def _lex_array(self) -> list:
        self.expect(b"[")
        self.skip_whitespace()
        arr = []
        while True:
            b = self.peek()
            if b is None:
                raise PdfParseError("unterminated array")
            if b == ord("]"):
                self.pos += 1
                break
            arr.append(self.lex_object())
        return arr

    def lex_dict_only(self) -> dict:
        """``<< ... >>`` without stream detection (src/lex.rs:366-389)."""
        self.expect(b"<<")
        self.skip_whitespace()
        d: dict = {}
        while True:
            b = self.peek()
            if b is None:
                raise PdfParseError("unterminated dictionary")
            if b == ord(">"):
                self.pos += 1
                self.expect(b">")
                break
            key = self.lex_name()
            val = self.lex_object()
            self.skip_whitespace()
            d[str(key)] = val
        self.skip_whitespace()
        return d

    def lex_dict(self):
        """Dict, or Stream when followed by the ``stream`` keyword
        (src/lib.rs Lexer::lex_dict + src/lex.rs:516-533)."""
        d = self.lex_dict_only()
        if not self.next_matches(b"stream"):
            return d
        self.expect(b"stream")
        self.expect_eol()
        length = d.get("Length")
        if isinstance(length, Ref):
            if self.resolve is None:
                raise PdfParseError("indirect /Length with no resolver")
            length = self.resolve(length)
        if not isinstance(length, int):
            raise PdfParseError(f"bad stream /Length: {length!r}")
        raw = self.buf[self.pos : self.pos + length]
        if len(raw) != length:
            raise PdfParseError("stream shorter than /Length")
        self.pos += length
        self.skip_whitespace()
        self.expect(b"endstream")
        self.skip_whitespace()
        return Stream(d, raw)

    # -- indirect object framing (src/lex.rs:544-561) -----------------------

    def read_obj_prelude(self) -> None:
        self.skip_whitespace()
        self.lex_whole_number()
        self.skip_whitespace()
        self.lex_whole_number()
        self.skip_whitespace()
        self.expect(b"obj")
        self.skip_whitespace()


# -- content tokenizer --------------------------------------------------

# operator token: alnum run possibly terminated (inclusively) by * ' " —
# or a lone quote char (src/content/mod.rs:83-99)
_OP_RUN = re.compile(rb"[A-Za-z0-9]*")

# number fast path: one regex grabs the whole numeric token. The slow
# lex_object path is kept for the `n m R` indirect-reference lookahead
# quirk (src/lex.rs:473-494) — triggered only when an integer is followed
# by ws + digits (rare in content streams; `1 1 1 RG` stays fast because
# the check below requires a capital R after the second integer).
_NUM_FAST = re.compile(rb"[+-]?(?:\d+\.\d*|\.\d+|\d+)")
_REF_LOOKAHEAD = re.compile(
    rb"[\x00\x09\x0a\x0c\x0d\x20]+\d+[\x00\x09\x0a\x0c\x0d\x20]+R"
    rb"[\x00\x09\x0a\x0c\x0d\x20()<>\[\]{}/%]"
)

OPERATORS = frozenset(
    """b B b* B* BDC BI BMC BT BX c cm CS cs d d0 d1 Do DP EI EMC ET EX f F
    f* G g gs h i ID j J K k l m M MP n q Q re RG rg ri s S SC sc SCN scn
    sh T* Tc Td TD Tf Tj TJ TL Tm Tr Ts Tw Tz v w W W* y ' \"""".split()
)

OBJ = 0
OP = 1
INLINE = 2

# whitespace + %-comments in ONE regex pass per token (the per-byte
# Python loop in Lexer.skip_whitespace was the tokenizer's top hot spot)
_WS_SKIP = re.compile(rb"(?:[\x00\x09\x0a\x0c\x0d\x20]+|%[^\r\n]*)+")


def tokenize(buf: bytes):
    """Yield ``(OBJ, value)`` / ``(OP, name)`` / ``(INLINE, bytes)`` tokens.

    Hot path: this runs once per token of every content stream in the
    corpus, so the loop works on a local ``pos`` with regex skips and
    direct byte indexing, delegating to the full object lexer only for
    non-trivial objects."""
    lx = Lexer(buf)
    compat_depth = 0
    n = len(buf)
    pos = 0
    ws_match = _WS_SKIP.match
    num_match = _NUM_FAST.match
    op_match = _OP_RUN.match
    ref_match = _REF_LOOKAHEAD.match
    while True:
        m = ws_match(buf, pos)
        if m is not None:
            pos = m.end()
        if pos >= n:
            return
        b = buf[pos]
        if b == 0x27 or b == 0x22 or 0x61 <= b <= 0x7A or 0x41 <= b <= 0x5A:
            if b == 0x27 or b == 0x22:  # ' "
                pos += 1
                s = chr(b)
            else:
                # alnum run; a following * ' " terminates inclusively.
                # NB: quotes inside a run also terminate it (e.g. `ab'`);
                # the regex stops at them and the check below consumes one.
                m = op_match(buf, pos)
                pos = m.end()
                nxt = buf[pos] if pos < n else None
                if nxt in (0x2A, 0x27, 0x22):  # * ' "
                    pos += 1
                    s = (m.group() + buf[pos - 1 : pos]).decode("latin-1")
                else:
                    s = m.group().decode("latin-1")
            if s == "true":
                yield (OBJ, True)
            elif s == "false":
                yield (OBJ, False)
            elif s == "null":
                yield (OBJ, NULL)
            elif s in OPERATORS:
                if s == "BX":
                    compat_depth += 1
                elif s == "EX":
                    compat_depth = max(0, compat_depth - 1)
                elif s == "ID":
                    # inline image data: one whitespace byte, then raw bytes
                    # until whitespace-delimited `EI` (PDF 32000-1 §8.9.7)
                    if pos < n and buf[pos] in WHITESPACE:
                        pos += 1
                    data_start = pos
                    i = data_start
                    while True:
                        i = buf.find(b"EI", i)
                        if i == -1:
                            raise PdfParseError("unterminated inline image")
                        before_ok = i == 0 or buf[i - 1] in WHITESPACE
                        after = buf[i + 2] if i + 2 < n else None
                        after_ok = after is None or after in WHITESPACE
                        if before_ok and after_ok:
                            break
                        i += 2
                    data_end = (
                        i - 1
                        if i > data_start and buf[i - 1] in WHITESPACE
                        else i
                    )
                    yield (OP, "ID")
                    yield (INLINE, buf[data_start:data_end])
                    pos = i + 2
                    yield (OP, "EI")
                    continue
                yield (OP, s)
            elif compat_depth > 0:
                continue
            else:
                raise PdfParseError(f"unknown content operator {s!r}")
        elif 0x2B <= b <= 0x39 and b != 0x2F and b != 0x2C:  # + - . 0-9
            m = num_match(buf, pos)
            if m is None:
                lx.pos = pos
                yield (OBJ, lx.lex_object())
                pos = lx.pos
                continue
            tok = m.group()
            if b"." in tok:
                pos = m.end()
                yield (OBJ, float(tok))
            elif ref_match(buf, m.end()) is not None:
                lx.pos = pos
                yield (OBJ, lx.lex_object())  # exact reference semantics
                pos = lx.pos
            else:
                pos = m.end()
                yield (OBJ, int(tok))
        else:
            lx.pos = pos
            yield (OBJ, lx.lex_object())
            pos = lx.pos


# -- xref sections and ObjStm headers ------------------------------------


def find_startxref(buf: bytes) -> int:
    """Scan the file tail for the last ``startxref`` keyword and parse the
    offset that follows (src/xref/parser.rs:76-105)."""
    tail_start = max(0, len(buf) - 2048)
    idx = buf.rfind(b"startxref", tail_start)
    if idx == -1:
        idx = buf.rfind(b"startxref")
    if idx == -1:
        raise PdfParseError("startxref not found")
    lx = Lexer(buf)
    lx.pos = idx + len(b"startxref")
    lx.skip_whitespace()
    n = lx.lex_whole_number()
    if not n:
        raise PdfParseError("bad startxref offset")
    return int(n)


def parse_xref_at(buf: bytes, offset: int, resolve=None):
    """Parse one xref section at ``offset``.

    Returns ``(xref, trailer_dict)``. Classic tables are followed by a
    ``trailer`` dict; xref streams carry the trailer keys in the stream
    dict itself. Handles the hybrid ``XRefStm`` pointer.
    """
    if offset >= len(buf):
        raise PdfParseError(f"xref offset {offset} beyond EOF")
    lx = Lexer(buf)
    lx.pos = offset
    lx.skip_whitespace()
    if lx.next_matches(b"xref"):
        return _parse_classic_table(lx)
    return _parse_xref_stream(lx)


def _parse_classic_table(lx: Lexer):
    lx.expect(b"xref")
    lx.skip_whitespace()
    objects: dict = {}
    while True:
        if lx.next_matches(b"trailer"):
            break
        start = lx.lex_whole_number()
        if not start:
            raise PdfParseError("bad xref subsection header")
        lx.skip_whitespace()
        count = lx.lex_whole_number()
        if not count:
            raise PdfParseError("bad xref subsection count")
        lx.skip_whitespace()
        for i in range(int(count)):
            off = lx.lex_whole_number()
            lx.skip_whitespace()
            gen = lx.lex_whole_number()
            lx.skip_whitespace()
            kind = lx.next_byte()
            lx.skip_whitespace()
            num = int(start) + i
            if kind == ord("n"):
                objects.setdefault(num, InUse(int(off), int(gen)))
            elif kind == ord("f"):
                objects.setdefault(num, FREE)
            else:
                raise PdfParseError(f"bad xref entry kind {kind!r}")
    lx.expect(b"trailer")
    lx.skip_whitespace()
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


def objstm_pairs(data: bytes, n: int) -> list[tuple[int, int]]:
    """The ``(object number, offset)`` header pairs of a decoded ObjStm."""
    hdr = Lexer(data)
    pairs = []
    for _ in range(n):
        hdr.skip_whitespace()
        onum = hdr.lex_whole_number()
        hdr.skip_whitespace()
        ooff = hdr.lex_whole_number()
        pairs.append((int(onum), int(ooff)))
    return pairs
