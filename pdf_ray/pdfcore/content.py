"""Content-stream scanner: one compiled pass over operator statements.

Mirrors the reference ``ContentLexer`` (src/content/mod.rs:38-139):

- tokens are objects or operators; operator chars are consumed while
  ascii-alphanumeric, and ``* ' "`` terminate an operator inclusively
  (so ``b*RG`` lexes as ``b*`` then ``RG``; ``'``/``"`` are one-char ops)
- ``true``/``false``/``null`` lex as objects even though they start like
  operators
- unknown operators are fatal unless inside a ``BX``..``EX`` compatibility
  section (tracked with a depth counter, src/content/mod.rs:70-81)
- dictionaries inside content streams never carry streams
  (src/content/mod.rs:156-160) — except inline images: the raw binary
  data after the ``ID`` operator, up to ``EI``, is one item (the reference
  todo!()s on BI/ID/EI, src/render/mod.rs:292 — we implement the spec)

``STATEMENT`` matches one operator statement whole: the whitespace and
comments before it (the object scanner's ``_SKIP``), its run of plain
operands — numbers, ``#``-free names and plain ``(...)`` strings, built
from the object scanner's patterns in ``lexer.py`` — and the operator.
``statements`` walks a stream with it, one match per statement. Every
operand the pattern does not frame (``#XX`` names, escaped or nested
strings, hex strings, arrays, dicts, ``N G R`` references, ``true``/
``false``/``null`` and digit runs too long to leave unconverted) is read
by ``Lexer.lex_object`` or the keyword table. Plain operands are yielded
as their raw bytes (``b"12"``, ``b"/F1"``, ``b"(text)"``), so a consumer
converts only the operands it reads (``value``).

The interpreter (``interp.py``) dispatches each statement through its
operator table; ``tokenize`` flattens the same statements into the
reference lexer's token stream.
"""

from __future__ import annotations

import re

from .lexer import _DELIM, _PLAIN_NAME, _REAL, _SKIP, _WS, WHITESPACE, Lexer
from .objects import NULL, Name, PdfParseError

OPERATORS = frozenset(
    """b B b* B* BDC BI BMC BT BX c cm CS cs d d0 d1 Do DP EI EMC ET EX f F
    f* G g gs h i ID j J K k l m M MP n q Q re RG rg ri s S SC sc SCN scn
    sh T* Tc Td TD Tf Tj TJ TL Tm Tr Ts Tw Tz v w W W* y ' \"""".split()
)
# operator bytes -> name, for the operators with no framing of their own
_PLAIN_OPERATORS = {op.encode(): op for op in OPERATORS - {"BX", "EX", "ID"}}
_KEYWORDS = {"true": True, "false": False, "null": NULL}

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
_PLAIN = (
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
    + rb"(?:(" + _PLAIN + rb")" + _SKIP
    + rb"(?:(" + _PLAIN + rb")" + _SKIP
    + rb"((?:" + _PLAIN + _SKIP + rb")*+))?)?"
    + rb"(" + _OPERATOR + rb")?"
)
_OPERAND = re.compile(rb"(" + _PLAIN + rb")" + _SKIP)


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
            if op in _KEYWORDS:
                yield [*operands, _KEYWORDS[op]], None
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
