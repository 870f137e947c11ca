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

The compiled scanner (``scan.c``, loaded by ``lexer.py``) frames
statements in batches: each statement that is a run of plain operands —
numbers (ints of at most 300 digits that do not start an ``N G R``),
``#``-free names and plain ``(...)`` strings — and a known operator is
one ``(operands, name)`` of the batch. The batch ends at the first other
statement, whose plain operands and raw operator come back with it;
``statements`` handles only that one in Python: ``true``/``false``/
``null``, ``BX``/``EX``, ``ID`` inline data, an operand the scanner does
not frame (read by ``Lexer.lex_object``: ``#XX`` names, escaped or nested
strings, hex strings, arrays, dicts, ``N G R`` references, longer digit
runs) and the unknown-operator error. Plain operands are yielded as their
raw bytes (``b"12"``, ``b"/F1"``, ``b"(text)"``), so a consumer converts
only the operands it reads (``value``).

The interpreter (``interp.py``) dispatches each statement through its
operator table; ``tokenize`` flattens the same statements into the
reference lexer's token stream.
"""

from __future__ import annotations

from .lexer import WHITESPACE, Lexer, _scan
from .objects import NULL, Name, PdfParseError

OPERATORS = frozenset(
    """b B b* B* BDC BI BMC BT BX c cm CS cs d d0 d1 Do DP EI EMC ET EX f F
    f* G g gs h i ID j J K k l m M MP n q Q re RG rg ri s S SC sc SCN scn
    sh T* Tc Td TD Tf Tj TJ TL Tm Tr Ts Tw Tz v w W W* y ' \"""".split()
)
# the operators with no framing of their own: the scanner batches their
# statements and yields each under its name
_scan.operators({op.encode(): op for op in OPERATORS - {"BX", "EX", "ID"}})
_KEYWORDS = {"true": True, "false": False, "null": NULL}

OBJ = 0
OP = 1
INLINE = 2


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
    scan = _scan.statements
    lx = None
    compat_depth = 0
    pos = 0
    while pos < n:
        batch, operands, op, pos = scan(buf, pos)
        yield from batch
        if operands is None:  # a full batch, or only whitespace left
            continue
        if op is not None:
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
