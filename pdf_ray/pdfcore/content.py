"""Content-stream tokenizer.

Mirrors the reference ``ContentLexer`` (src/content/mod.rs:38-139):

- tokens are objects or operators; operator chars are consumed while
  ascii-alphanumeric, and ``* ' "`` terminate an operator inclusively
  (so ``b*RG`` lexes as ``b*`` then ``RG``; ``'``/``"`` are one-char ops)
- ``true``/``false``/``null`` lex as objects even though they start like
  operators
- unknown operators are fatal unless inside a ``BX``..``EX`` compatibility
  section (tracked with a depth counter, src/content/mod.rs:70-81)
- dictionaries inside content streams never carry streams
  (src/content/mod.rs:156-160) — except inline images: after the ``ID``
  operator we emit one ``("inline", bytes)`` token holding the raw binary
  data up to ``EI`` (the reference todo!()s on BI/ID/EI,
  src/render/mod.rs:292 — we implement the spec)

It runs on the object scanner's compiled patterns (``lexer.py``): ``SKIP``
for whitespace and comments and ``NUMBER`` for numeric operands, matched
at a local ``pos``. Every other operand (names, strings, arrays, dicts)
and an integer that may start an ``N G R`` reference go to
``Lexer.lex_object``.
"""

from __future__ import annotations

import re

from .lexer import NUMBER, SKIP, WHITESPACE, Lexer
from .objects import NULL, PdfParseError

# operator token: alnum run possibly terminated (inclusively) by * ' " —
# or a lone quote char (src/content/mod.rs:83-99)
_OP_RUN = re.compile(rb"[A-Za-z0-9]*")

# An integer followed by ws + digits + ws + R and a delimiter goes to
# lex_object for the `n m R` indirect-reference quirk (src/lex.rs:473-494);
# `1 1 1 RG` stays on the NUMBER path, as no delimiter follows its R.
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


def tokenize(buf: bytes):
    """Yield ``(OBJ, value)`` / ``(OP, name)`` / ``(INLINE, bytes)`` tokens.

    Hot path: this runs once per token of every content stream in the
    corpus, so the loop works on a local ``pos`` with regex matches and
    direct byte indexing, delegating to the full object lexer only for
    non-trivial objects."""
    lx = Lexer(buf)
    compat_depth = 0
    n = len(buf)
    pos = 0
    skip = SKIP.match
    num_match = NUMBER.match
    op_match = _OP_RUN.match
    ref_match = _REF_LOOKAHEAD.match
    while True:
        pos = skip(buf, pos).end()
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
