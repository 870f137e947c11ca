"""Document-level parsing: resolver, object streams, page tree.

Mirrors the reference's ``Parser``/``Lexer`` pair (src/lib.rs:131-539) as a
single ``Document`` that owns the file buffer, the merged xref, a per-document
ObjStm cache (src/lib.rs:137,179-209) and the page-tree walk with inheritable
fields (src/lib.rs:211-393, src/page.rs:19-91).

Everything here is *per-row* state inside a Ray ``map_batches`` UDF — one
PDF byte payload in, parsed pages out. No cross-row state.
"""

from __future__ import annotations

from .filters import decode_stream
from .lexer import NUMBER_PAIR, Lexer, lex_indirect, parse_whole
from .objects import NULL, Name, PdfParseError, Ref, Stream
from .xref import Compressed, InUse, read_full_xref

_CACHE_MISS = object()  # resolve()-cache sentinel (NULL/None are valid values)

_INHERITABLE = ("Resources", "MediaBox", "CropBox", "Rotate")
_PAGE = Name("Page")


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
        self._obj_cache: dict[Ref, object] = {}
        self._resolving: set[Ref] = set()  # refs being read, for cycles
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
            from .encryption import StandardSecurityHandler

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
        from .xref import scavenge_xref

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
        cached by their ``Ref`` for the document's lifetime — shared nodes
        (a page tree's common /Resources, fonts referenced by every page)
        would otherwise re-lex from the buffer once per referrer. Parsed
        objects are treated as immutable throughout the engine (unlike
        the reference's destructive dict accessors, src/objects.rs:82).
        Reading an object that needs itself first (a stream whose
        indirect /Length leads back to it) raises PdfParseError."""
        if type(obj) is not Ref:
            return obj
        seen = 0
        cache = self._obj_cache
        while type(obj) is Ref:
            ref = obj
            obj = cache.get(ref, _CACHE_MISS)
            if obj is _CACHE_MISS:
                entry = self.xref.get(ref)
                if entry is None:
                    return NULL
                if ref in self._resolving:
                    raise PdfParseError("indirect reference cycle while reading an object")
                self._resolving.add(ref)
                try:
                    if isinstance(entry, InUse):
                        obj = lex_indirect(self.buf, entry.offset, self._resolve_length)
                        # strings/streams of encrypted documents are decrypted
                        # with the per-object key; ObjStm members are covered by
                        # their container stream's decryption (PDF 32000-1 §7.6.2)
                        if self.security is not None and obj is not None:
                            if self._encrypt_num != ref.num:
                                obj = self.security.decrypt_object(obj, ref)
                    elif isinstance(entry, Compressed):
                        obj = self._lex_from_objstm(entry)
                    else:
                        return NULL
                finally:
                    self._resolving.discard(ref)
                cache[ref] = obj
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
        """Append the pages under ``node_ref``. ``inherited`` holds the
        inheritable fields of its ancestors and ``visiting`` their refs;
        only an interior node copies and extends them."""
        if type(node_ref) is Ref and node_ref in visiting:
            raise PdfParseError("page tree cycle")
        node = self.resolve_dict(node_ref)
        ntype = self.resolve(node.get("Type", NULL))
        if ntype == _PAGE or ("Kids" not in node and "Contents" in node):
            get = node.get
            self.pages.append(
                Page(
                    node,
                    self.resolve(get("Resources", inherited.get("Resources", NULL))),
                    self.resolve(get("MediaBox", inherited.get("MediaBox", NULL))),
                    self.resolve(get("Rotate", inherited.get("Rotate", 0))),
                )
            )
            return
        fields = dict(inherited)
        for f in _INHERITABLE:
            if f in node:
                fields[f] = node[f]
        if type(node_ref) is Ref:
            visiting = visiting | {node_ref}
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
        if type(contents) is Stream:  # one stream: no list, no concat
            return bytes(self.decoded(contents))
        streams = contents if isinstance(contents, list) else [contents]
        parts = []
        for s in streams:
            parts.append(self.decoded(self.resolve_stream(s)))
        return b"".join(parts)
