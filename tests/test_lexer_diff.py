"""Differential test of the compiled object scanner against the per-byte
lexer it replaced, frozen in ``tests/reference_lexer.py``.

Both run over every xref'd object, xref section and ObjStm header of the
fixture and bench corpora, over every page's content stream, and over
generated token soups. They must agree on the value, compared
type-exactly (``Name`` vs ``str``, ``bool`` vs ``int``, ``int`` vs
``float``, ``-0.0`` vs ``0.0``, ``Ref``, ``NULL``, ``Stream`` dict and raw
bytes), on the end position, and, where the oracle raises, on the
exception class and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ray.pdfcore import content, xref
from pdf_ray.pdfcore.document import Document
from pdf_ray.pdfcore.lexer import Lexer, lex_indirect
from pdf_ray.pdfcore.objects import NULL, Name, PdfParseError, Ref, Stream

from . import reference_lexer as ref


def typed(v):
    """``v`` as nested tuples that carry the type of every value."""
    if isinstance(v, Stream):
        return ("Stream", typed(v.dict), v.raw)
    if isinstance(v, dict):
        return ("dict", tuple((typed(k), typed(x)) for k, x in v.items()))
    if isinstance(v, list):
        return ("list", tuple(typed(x) for x in v))
    if isinstance(v, xref.Xref):
        return ("Xref", tuple((n, typed(e)) for n, e in sorted(v.objects.items())))
    if isinstance(v, tuple):  # a Ref, InUse or Compressed keeps its name
        return (type(v).__name__, tuple(typed(x) for x in v))
    return (type(v).__name__, repr(v) if isinstance(v, float) else v)


def outcome(run):
    """``("ok", typed value)`` or ``("raise", class, message)``."""
    try:
        return ("ok", typed(run()))
    except Exception as e:
        return ("raise", type(e), str(e))


def lex_at(lexer_cls, buf, pos, prelude=False, resolve=None):
    def run():
        lx = lexer_cls(buf, resolve=resolve)
        lx.pos = pos
        if prelude:
            lx.read_obj_prelude()
        return lx.lex_object(), lx.pos

    return outcome(run)


def lex_all(lexer_cls, buf, limit=64):
    """Objects lexed back to back from offset 0 until EOF or an error."""
    lx = lexer_cls(buf)
    out = []
    while lx.pos < len(buf) and len(out) < limit:
        try:
            out.append(("ok", typed(lx.lex_object()), lx.pos))
        except Exception as e:
            out.append(("raise", type(e), str(e)))
            break
    return out


def tokens(tokenize, buf):
    """Every token ``tokenize`` yields, then the error that stopped it."""
    out = []
    try:
        for kind, val in tokenize(buf):
            out.append((kind, typed(val)))
    except Exception as e:
        out.append(("raise", type(e), str(e)))
    return out


def length_resolver(lexer_cls, buf, index):
    """An indirect ``/Length`` lexed by the same lexer class."""

    def resolve(r: Ref):
        entry = index.get(r)
        if not isinstance(entry, xref.InUse):
            return NULL
        lx = lexer_cls(buf)
        lx.pos = entry.offset
        lx.read_obj_prelude()
        return lx.lex_object()

    return resolve


@pytest.fixture(scope="module")
def corpus_payloads() -> list[tuple[str, bytes]]:
    """Every PDF payload of ``build_corpus`` and ``build_bench_corpus``."""
    from pdf_ray.fixtures.tables import build_bench_corpus, build_corpus

    _, pay, *_ = build_corpus(1)
    out = dict(zip(pay.column("media_ref").to_pylist(), pay.column("bytes").to_pylist()))
    for name, buf in build_bench_corpus(n_docs=1, seed=0)[1].items():
        out.setdefault(name, buf)
    return sorted(out.items())


def object_index(buf: bytes) -> xref.Xref:
    """The file's xref merged with the recovery scan, so objects shadowed by
    an update and the objects of files with a broken xref are lexed too."""
    index = xref.Xref()
    for parse in (xref.read_full_xref, xref.scavenge_xref):
        try:
            index.merge_previous(parse(buf)[0])
        except PdfParseError:
            pass
    return index


def test_corpus_objects_match_reference(corpus_payloads):
    n_objects = n_members = 0
    for name, buf in corpus_payloads:
        index = object_index(buf)
        old_resolve = length_resolver(ref.Lexer, buf, index)
        new_resolve = length_resolver(Lexer, buf, index)
        for num, entry in sorted(index.objects.items()):
            if not isinstance(entry, xref.InUse):
                continue
            want = lex_at(ref.Lexer, buf, entry.offset, prelude=True, resolve=old_resolve)
            got = lex_at(Lexer, buf, entry.offset, prelude=True, resolve=new_resolve)
            assert got == want, (name, num)
            n_objects += 1
        try:
            doc = Document(buf)
        except Exception:
            continue
        for num, entry in sorted(index.objects.items()):
            if not isinstance(entry, xref.Compressed):
                continue
            stream = doc.resolve_stream(Ref(entry.objstm_num, 0))
            data = doc.decoded(stream)
            n = doc.resolve(stream.dict["N"])
            pairs = outcome(lambda: doc._load_objstm(entry.objstm_num)[0])
            assert pairs == outcome(lambda: ref.objstm_pairs(data, n)), (name, num)
            first = doc.resolve(stream.dict["First"])
            off = doc._load_objstm(entry.objstm_num)[0][entry.index][1]
            assert lex_at(Lexer, data, first + off) == lex_at(ref.Lexer, data, first + off)
            n_members += 1
    assert n_objects > 500 and n_members > 0


def test_corpus_xref_sections_match_reference(corpus_payloads):
    n_sections = 0
    for name, buf in corpus_payloads:
        start = outcome(lambda: xref.find_startxref(buf))
        assert start == outcome(lambda: ref.find_startxref(buf)), name
        frontier = [start[1][1]] if start[0] == "ok" else []
        seen = set()
        while frontier:
            off = frontier.pop()
            if off in seen or not isinstance(off, int):
                continue
            seen.add(off)
            got = outcome(lambda: xref.parse_xref_at(buf, off))
            assert got == outcome(lambda: ref.parse_xref_at(buf, off)), (name, off)
            n_sections += 1
            if got[0] == "ok":
                trailer = xref.parse_xref_at(buf, off)[1]
                frontier += [trailer.get("Prev"), trailer.get("XRefStm")]
    assert n_sections >= len(corpus_payloads)


def test_corpus_content_tokens_match_reference(corpus_payloads):
    n_pages = 0
    for name, buf in corpus_payloads:
        try:
            doc = Document(buf)
        except Exception:
            continue
        for i, page in enumerate(doc.pages):
            try:
                data = doc.page_content(page)
            except Exception:
                continue
            assert tokens(content.tokenize, data) == tokens(ref.tokenize, data), (name, i)
            n_pages += 1
    assert n_pages > 300


# -- token soups -------------------------------------------------------------

FRAGMENTS = [
    # numbers and references
    b"12 0 R", b"-12 0 R", b"+3 1 R", b"12 0 Rx", b"12 0 RG", b"12 0 R/", b"12 0R ",
    b"12 %c\n0 %d\nR ", b"- 0 R ", b"+ 7 R]", b"12", b"0", b"-0", b"+5", b"007",
    b"3.25", b"-.5", b"+.5", b".", b"-.", b"+.", b"+5.", b"5.", b"1.2.3", b"-", b"+",
    b"--1", b"-x",
    # names
    b"/Name", b"/A#42C", b"/A#4", b"/#", b"/", b"/a/b", b"/1.4", b"/A#2f#2F", b"/\xe9",
    # literal strings
    b"(plain)", b"()", b"(a(b)c)", b"(a(b", b"(\\n\\r\\t\\b\\f\\(\\)\\\\)",
    b"(\\0\\0053\\053\\53\\777\\8\\q\\ )", b"(\\18\\99\\1234)",
    b"(line\\\n  %c\n cont)", b"(\\\r\nx)",
    b"(\\\rx)", b"(unterminated", b"(\\", b"(\xff\x00)",
    # hex strings
    b"<>", b"<41>", b"<901FA>", b"<FEFF00480069>", b"<feff263A>", b"<FEFF4>", b"<FEFF>",
    b"<FEFf41>", b"<4x>", b"< 41>", b"<", b"<9", b"<FEFFD83DDE00>",
    # dicts, arrays, streams
    b"<<", b">>", b"<< /K 1 >>", b"<</A[1 2]>>", b"<< /A#41 (v) >>", b"<< 1 2 >>",
    b"> >", b"[", b"]", b"[1 2 R]", b"[[]]",
    b"<< /Length 3 >>stream\nabcendstream", b"<< /Length 3 >>\nstream\r\nabc\nendstream",
    b"<< /Length 3 >>stream\rabc endstream", b"<< /Length 3 >>streamabc",
    b"<< /Length 1 0 R >>stream\nabc\nendstream", b"<< /Length 9 >>stream\nab",
    b"<< /Length 2 >>stream\nabendstrea", b"<< /Length /X >>stream\nab",
    b"<< /Length true >>stream\na endstream", b"stream\n", b"endstream",
    # keywords, junk, framing
    b"true", b"false", b"null", b"tru", b"fals", b"nul", b"truex", b"}", b"{", b")",
    b"\x00", b"\xff", b"obj", b"1 0 obj", b"0 obj", b"12 0 0 obj", b"endobj",
    # content operators
    b"BT", b"ET", b"Tj", b"q", b"Q", b"cm", b"TJ", b"'", b'"', b"b*", b"b*RG", b"BI",
    b"ID", b"EI", b"BX", b"EX", b"Foo", b"Tf",
]
SEPARATORS = [b" ", b"", b"\n", b"\r\n", b"%x\n", b"%\r", b"\t", b"\x0c", b"\x00", b"  "]

soups = st.builds(
    lambda parts, cut: b"".join(a + b for a, b in parts)[:cut],
    st.lists(st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from(SEPARATORS)), max_size=12),
    st.integers(min_value=0, max_value=400),
)


@given(soups)
@settings(max_examples=600, deadline=None)
def test_objects_of_token_soups_match_reference(buf):
    assert lex_all(Lexer, buf) == lex_all(ref.Lexer, buf)


@given(soups)
@settings(max_examples=400, deadline=None)
def test_content_tokens_of_token_soups_match_reference(buf):
    assert tokens(content.tokenize, buf) == tokens(ref.tokenize, buf)


@given(soups)
@settings(max_examples=300, deadline=None)
def test_obj_preludes_of_token_soups_match_reference(buf):
    buf = b"7 0 obj " + buf
    for pos in (0, 1, 2):
        assert lex_at(Lexer, buf, pos, prelude=True) == lex_at(ref.Lexer, buf, pos, prelude=True)


@given(soups)
@settings(max_examples=300, deadline=None)
def test_indirect_objects_of_token_soups_match_reference(buf):
    """``lex_indirect`` reads what ``read_obj_prelude`` and ``lex_object``
    of the per-byte lexer read, dictionaries above all."""
    for prefix in (b"7 0 obj ", b"7 0 obj << /Type /Page ", b"7 0 obj <<\n/K [1 2] /D << /A 1 0 R "):
        want = lex_at(ref.Lexer, prefix + buf, 0, prelude=True)
        want = want[:1] + (want[1][1][0],) if want[0] == "ok" else want
        assert outcome(lambda: lex_indirect(prefix + buf, 0)) == want, prefix


@pytest.mark.parametrize(
    "obj",
    [
        b"7 0 obj << /Length -1 >>\nstream\nendstream",
        b"7 0 obj << /Length 0 >>\nstream\r\nendstream",
        b"7 0 obj << /Length 2 >>\nstream\rabendstream",
        b"7 0 obj << /Length true >>\nstream\na endstream",
        b"7 0 obj << /Length 9 >>\nstream\nab",
        b"7 0 obj << /Length 2 >>streamx",
        b"7 0 obj << /K << /Length 3 >>\nstream\nabc\nendstream /L 1 >>",
        b"7 0 obj << /K << /Length 3 >> %c\nstream\nabc\nendstream >>",
        b"7 0 obj << /K << /L << /M [1 2 R] >> >> /N [/a (b) 1.5 true] >>",
        b"7 0 obj << /K << /L << /M [1 [2]] >> >> >>",
        b"7 0 obj << /K [1 %c\n 2 0 R %d\n/X] >>",
        b"7 0 obj << /K 1 0 R>>",
        b"7 0 obj << /K 1 0 R",
        b"7 0 obj << /K << /L 1 >",
    ],
)
def test_indirect_object_quirks(obj):
    want = lex_at(ref.Lexer, obj, 0, prelude=True)
    want = want[:1] + (want[1][1][0],) if want[0] == "ok" else want
    assert outcome(lambda: lex_indirect(obj, 0)) == want


XREF_FRAGMENTS = [
    b"xref", b"0 3", b"1 2", b"0000000000 65535 f", b"0000000017 00000 n", b"17 0 n",
    b"0 n", b"n", b"f", b" 0 f", b"x", b"9 9 q", b"trailer", b"<< /Size 3 >>",
    b"<< /Prev 0 >>", b"startxref", b"0", b"%c\n", b"%%EOF",
]

xref_soups = st.builds(
    lambda parts: b"xref\n" + b"".join(a + b for a, b in parts),
    st.lists(st.tuples(st.sampled_from(XREF_FRAGMENTS), st.sampled_from(SEPARATORS)), max_size=16),
)


@given(xref_soups)
@settings(max_examples=400, deadline=None)
def test_xref_tables_and_startxref_of_soups_match_reference(buf):
    assert outcome(lambda: xref.parse_xref_at(buf, 0)) == outcome(lambda: ref.parse_xref_at(buf, 0))
    assert outcome(lambda: xref.find_startxref(buf)) == outcome(lambda: ref.find_startxref(buf))


@given(st.lists(st.tuples(st.sampled_from([b"", b"0", b"12", b"007"]),
                          st.sampled_from(SEPARATORS)), max_size=12),
       st.integers(min_value=0, max_value=6))
@settings(max_examples=300, deadline=None)
def test_objstm_headers_of_soups_match_reference(parts, n):
    data = b"".join(a + b for a, b in parts)

    class Stub(Document):
        def __init__(self):
            self.xref = xref.Xref({1: xref.InUse(0)})
            self._objstm_cache = {}
            self._obj_cache = {}

        def resolve_stream(self, obj):
            return Stream({"N": n, "First": 0}, b"")

        def decoded(self, stream):
            return data

    got = outcome(lambda: Stub()._load_objstm(1)[0])
    want = outcome(lambda: ref.objstm_pairs(data, n))
    if want == ("raise", ValueError, "invalid literal for int() with base 10: ''"):
        # /N counts more pairs than the header has: now a parse error
        want = ("raise", PdfParseError, "bad ObjStm header")
    assert got == want


@pytest.mark.parametrize(
    "buf, value, end",
    [
        (b"-12 0 R ", Ref(12, 0), 8),  # the sign is dropped
        (b"12 0 R", 12, 3),  # R at EOF has no delimiter after it
        (b"12 0 Rx", 12, 3),
        (b".", 0.0, 1),
        (b"-.", -0.0, 2),
        (b"+5.", 5.0, 3),
        (b"12 %a\n0 %b\nR ", Ref(12, 0), 13),
        (b"<>", "", 2),
        (b"<901FA>", "\x90\x1f\xa0", 7),
        (b"<FEFF4>", "@", 7),
        (b"/A#42C", Name("ABC"), 6),
        (b"(\\777\\101)", "\xffA", 10),
        (b"(a\\\n  %c\n b)", "ab", 12),
        (b"(abc", "abc", 4),
    ],
)
def test_lexer_quirks(buf, value, end):
    lx = Lexer(buf)
    assert typed(lx.lex_object()) == typed(value)
    assert lx.pos == end
    assert lex_at(Lexer, buf, 0) == lex_at(ref.Lexer, buf, 0)


def test_bare_sign_reference_fails_like_int_of_empty():
    with pytest.raises(ValueError, match="base 10: ''"):
        Lexer(b"- 0 R ").lex_object()
    with pytest.raises(PdfParseError, match="empty number"):
        Lexer(b"- x").lex_object()
