"""Cross-reference index: startxref scan, classic tables, xref streams,
incremental-update (`Prev`) chain merging.

Reference behaviors mirrored:
- backward scan for ``startxref`` (src/xref/parser.rs:76-105)
- classic table subsections ``start count`` + 20-byte-ish entries
  (src/xref/parser.rs:169-233)
- xref *stream* entries decoded by the W field widths, types 0/1/2
  (src/xref/stream/parser.rs:52-145); missing field width -> defaults
  (type defaults to 1, gen to 0)
- ``Prev`` chain merge, first writer wins (src/xref/mod.rs:57-62,
  src/lib.rs:441-467); hybrid ``XRefStm`` also honored (src/trailer.rs)
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from .filters import decode_stream
from .lexer import (
    NUMBER_PAIR,
    SKIP,
    STARTXREF_OFFSET,
    XREF_ROW,
    XREF_ROW_FIELDS,
    XREF_ROWS,
    Lexer,
    parse_whole,
)
from .objects import PdfParseError, Ref, Stream


class InUse(NamedTuple):
    offset: int
    gen: int = 0


class Compressed(NamedTuple):
    objstm_num: int  # object number of the containing ObjStm
    index: int       # index of the object within the ObjStm


FREE = "free"
# entries an xref stream may declare when they take no bytes (/W [0 0 0]);
# otherwise its decoded data bounds their count
MAX_XREF_ENTRIES = 1 << 20
# InUse from an (offset, gen) tuple, without NamedTuple's Python-level __new__
_new_in_use = partial(tuple.__new__, InUse)


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
    """Subsections from ``pos`` (after ``xref``) up to ``trailer``, then
    the trailer dict. A subsection of standard 20-byte rows is framed by
    one ``XREF_ROWS`` match and read by one ``findall``; any other goes
    through one ``XREF_ROW`` match per row."""
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
        end = pos + 20 * int(count)
        if end <= len(buf) and XREF_ROWS.match(buf, pos, end).end() == end:
            for num, (off, gen, kind) in enumerate(XREF_ROW_FIELDS.findall(buf, pos, end), first):
                if num not in objects:
                    objects[num] = _new_in_use((int(off), int(gen))) if kind == b"n" else FREE
            pos = SKIP.match(buf, end).end()
            continue
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
    """An xref stream section. ``/W``, ``/Size`` and ``/Index`` must be
    whole numbers, and the entries ``/Index`` declares must fit in the
    decoded data (or, for entries of width zero, in
    ``MAX_XREF_ENTRIES``), checked before any entry is read."""
    lx.read_obj_prelude()
    obj = lx.lex_dict()
    if not isinstance(obj, Stream):
        raise PdfParseError("expected xref stream")
    d = obj.dict
    data = decode_stream(obj)
    w = d["W"]
    if not isinstance(w, list) or len(w) != 3 or not all(map(_whole, w)):
        raise PdfParseError(f"bad /W {w!r}")
    size = d["Size"]
    if not _whole(size):
        raise PdfParseError(f"bad xref stream /Size {size!r}")
    index = d.get("Index", [0, size])
    if not isinstance(index, list) or len(index) % 2 or not all(map(_whole, index)):
        raise PdfParseError(f"bad xref stream /Index {index!r}")
    entry_len = sum(w)
    entries = sum(index[1::2])
    if entry_len and entries > len(data) // entry_len:
        raise PdfParseError(
            f"xref stream declares {entries} entries, its data holds {len(data) // entry_len}"
        )
    if not entry_len and entries > MAX_XREF_ENTRIES:
        raise PdfParseError(f"xref stream declares {entries} entries of width 0")
    objects: dict = {}
    cursor = 0

    def field(width: int, default: int) -> int:
        nonlocal cursor
        if width == 0:
            return default
        v = int.from_bytes(data[cursor : cursor + width], "big")
        cursor += width
        return v

    for first, count in zip(index[::2], index[1::2]):
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


def _whole(v) -> bool:
    return type(v) is int and v >= 0


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
    import re

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
