"""PDF object model.

A dynamically-typed value space mirroring the reference's object enum
(/root/reference/src/objects.rs:25-37), mapped onto plain Python values so
per-row parser UDFs stay allocation-light:

- null      -> ``NULL`` (singleton, distinct from Python ``None`` = absent)
- booleans  -> ``True`` / ``False``
- integer   -> ``int``
- real      -> ``float``
- string    -> ``str``   (codepoint-per-byte semantics, see lexer)
- name      -> ``Name``  (a ``str`` subclass so /Name != (string))
- array     -> ``list``
- dictionary-> ``dict``  (keys are plain ``str``)
- stream    -> ``Stream``
- reference -> ``Ref``
"""

from __future__ import annotations

from typing import NamedTuple


class _Null:
    """PDF ``null``; a reference to a non-existent object also resolves to
    this (reference: src/lib.rs:405)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


NULL = _Null()


class Name(str):
    """A PDF name object (``/Foo``). Subclasses str for cheap dict keys."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"/{str.__str__(self)}"


class Ref(NamedTuple):
    """Indirect reference ``<num> <gen> R`` (src/objects.rs:54-58).

    A tuple, so hashing and equality run in C: ``Document`` keys its
    object cache by the reference itself. No PDF value is a tuple, so a
    ``Ref`` equals only a ``Ref`` of the same numbers."""

    num: int
    gen: int


class Stream:
    """A stream object: its dictionary plus the *raw* (undecoded) bytes
    (src/stream.rs:12-15). Decoding happens lazily via filters."""

    __slots__ = ("dict", "raw")

    def __init__(self, dict_: dict, raw: bytes):
        self.dict = dict_
        self.raw = raw

    def __repr__(self) -> str:
        return f"Stream(dict={self.dict!r}, raw=[{len(self.raw)} bytes])"


class PdfParseError(Exception):
    """Raised on malformed input. The reference crashes by design
    (244 todo!/unreachable! sites); we contain errors per row instead."""
