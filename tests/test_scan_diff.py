"""Differential test of the compiled scanner (``pdf_ray/pdfcore/scan.c``
with the rare forms in ``lexer.py``/``content.py``) against the regex
scanner it replaced, frozen in ``tests/reference_scan.py``.

Both read every object, content stream and ObjStm member of the fixture,
golden and bench corpora, generated soups and a list of edge inputs,
through each entry point: ``Lexer.lex_object``, ``lex_indirect``,
``Lexer.read_obj_prelude``, ``Lexer.lex_dict_only`` and
``content.statements``. Values are compared type-exactly (``Name`` vs
``str``, ``bool`` vs ``int``, ``int`` vs ``float``, ``-0.0`` vs ``0.0``,
raw ``bytes`` operands, ``Ref``, ``NULL``, ``Stream`` dict and raw bytes),
with the end position and, where the oracle raises, the exception class
and message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ray.pdfcore import content, xref
from pdf_ray.pdfcore.document import Document
from pdf_ray.pdfcore.lexer import MAX_DEPTH, Lexer, lex_indirect
from pdf_ray.pdfcore.objects import Name, Ref, Stream

from . import reference_scan as ref
from .test_lexer_diff import (
    FRAGMENTS,
    SEPARATORS,
    length_resolver,
    lex_all,
    lex_at,
    object_index,
    outcome,
    typed,
)


def statements(mod, buf):
    """Every ``(operands, op)`` of ``mod.statements``, then the error that
    stopped it."""
    out = []
    try:
        for operands, op in mod.statements(buf):
            out.append((tuple(typed(v) for v in operands), op))
    except Exception as e:
        out.append(("raise", type(e), str(e)))
    return out


def dict_only(lexer_cls, buf, pos):
    def run():
        lx = lexer_cls(buf)
        lx.pos = pos
        return lx.lex_dict_only(), lx.pos

    return outcome(run)


def assert_object_same(buf, pos=0, resolve=(None, None)):
    """Every object entry point at ``pos`` of ``buf``."""
    new_resolve, old_resolve = resolve
    assert lex_at(Lexer, buf, pos, resolve=new_resolve) == lex_at(ref.Lexer, buf, pos, resolve=old_resolve)
    assert lex_at(Lexer, buf, pos, prelude=True, resolve=new_resolve) == lex_at(
        ref.Lexer, buf, pos, prelude=True, resolve=old_resolve
    )
    assert outcome(lambda: lex_indirect(buf, pos, new_resolve)) == outcome(
        lambda: ref.lex_indirect(buf, pos, old_resolve)
    )
    assert dict_only(Lexer, buf, pos) == dict_only(ref.Lexer, buf, pos)


# -- corpora -----------------------------------------------------------------------

@pytest.fixture(scope="module")
def corpus_payloads() -> list[tuple[str, bytes]]:
    """Every PDF payload of ``build_corpus``, the committed golden corpus
    and ``build_bench_corpus``, deduplicated by bytes."""
    import pyarrow.parquet as pq

    from pdf_ray.fixtures.tables import build_bench_corpus, build_corpus

    _, pay, *_ = build_corpus(1)
    golden = pq.read_table("fixtures_data/payloads.parquet")
    out = {}
    for table in (pay, golden):
        for name, buf in zip(table.column("media_ref").to_pylist(), table.column("bytes").to_pylist()):
            out.setdefault(buf, name)
    for name, buf in build_bench_corpus(n_docs=1, seed=0)[1].items():
        out.setdefault(buf, name)
    return sorted((name, buf) for buf, name in out.items())


def test_corpus_objects_streams_and_members_match_reference(corpus_payloads):
    n_objects = n_streams = n_members = 0
    for name, buf in corpus_payloads:
        index = object_index(buf)
        resolve = (length_resolver(Lexer, buf, index), length_resolver(ref.Lexer, buf, index))
        for num, entry in sorted(index.objects.items()):
            if isinstance(entry, xref.InUse):
                assert_object_same(buf, entry.offset, resolve), (name, num)
                n_objects += 1
        try:
            doc = Document(buf)
        except Exception:
            continue
        streams = []
        for page in doc.pages:
            try:
                streams.append(doc.page_content(page))
            except Exception:
                pass
        for num, entry in sorted(index.objects.items()):
            try:
                obj = doc.resolve(Ref(num, entry.gen if isinstance(entry, xref.InUse) else 0))
            except Exception:
                continue
            if isinstance(obj, Stream) and obj.dict.get("Subtype") == Name("Form"):
                try:
                    streams.append(doc.decoded(obj))
                except Exception:
                    pass
            if isinstance(entry, xref.Compressed):
                _, data, first = doc._load_objstm(entry.objstm_num)
                off = doc._load_objstm(entry.objstm_num)[0][entry.index][1]
                assert lex_at(Lexer, data, first + off) == lex_at(ref.Lexer, data, first + off)
                n_members += 1
        for data in streams:
            assert statements(content, data) == statements(ref, data), name
            n_streams += 1
    assert n_objects > 500 and n_streams > 300 and n_members > 0


# -- soups ---------------------------------------------------------------------------

soups = st.builds(
    lambda parts, cut: b"".join(a + b for a, b in parts)[:cut],
    st.lists(st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from(SEPARATORS)), max_size=12),
    st.integers(min_value=0, max_value=400),
)


@given(soups)
@settings(max_examples=500, deadline=None)
def test_objects_of_soups_match_reference(buf):
    assert lex_all(Lexer, buf) == lex_all(ref.Lexer, buf)
    assert lex_all(Lexer, bytearray(buf)) == lex_all(ref.Lexer, bytearray(buf))


@given(soups)
@settings(max_examples=400, deadline=None)
def test_statements_of_soups_match_reference(buf):
    assert statements(content, buf) == statements(ref, buf)


@given(st.binary(max_size=120))
@settings(max_examples=400, deadline=None)
def test_random_bytes_match_reference(buf):
    assert lex_all(Lexer, buf) == lex_all(ref.Lexer, buf)
    assert statements(content, buf) == statements(ref, buf)
    assert_object_same(b"7 0 obj " + buf)


PREFIXES = [b"7 0 obj ", b"7 0 obj << /Type /Page ", b"7 0 obj <<\n/K [1 2] /D << /A 1 0 R ", b"<< ", b"[ "]


@given(soups, st.sampled_from(PREFIXES))
@settings(max_examples=400, deadline=None)
def test_entry_points_of_soups_match_reference(buf, prefix):
    assert_object_same(prefix + buf)


# -- edges -----------------------------------------------------------------------------

DIGITS = {n: b"9" * n for n in (18, 19, 300, 301, 400, 4300, 4301)}

EDGE_OBJECTS = [
    # '#' keys and values
    b"<< /A#42 1 /B /C#44 /E#4 2 >>", b"<< /A /B#43 >>", b"<< /#41 (x) >>", b"/A#", b"<< /K#",
    # ints past the fast path, float() and int()'s digit limit
    DIGITS[18], DIGITS[19], b"-" + DIGITS[19], DIGITS[300], DIGITS[301], DIGITS[4300],
    DIGITS[4301], b"[1 " + DIGITS[4301] + b"]", DIGITS[4301] + b" 0 R ", b"1 " + DIGITS[4301] + b" R ",
    DIGITS[400] + b".5", b"." + DIGITS[400], b"[" + DIGITS[301] + b".25]",
    # references and numbers
    b"12 0 RG", b"12 0 R", b"12 0 R ", b"-12 0 R ", b"+12 0 R]", b"12 0 R%", b"12\x000\x00R\x00",
    b".5", b"5.", b"+.", b"-.", b"+.5", b"-5.", b".", b"+", b"- 0 R ", b"1.2.3", b"-0", b"-0.0",
    # comments inside dicts and arrays
    b"<< %c\n/A %d\n1 %e\n>>", b"[ %c\n1 %d\n2 0 %e\nR %f\n]", b"<</A[1%x\n2]>>", b"[1 %]\n]",
    # streams
    b"<< /Length 3 >>stream\r\nabc\nendstream", b"<< /Length 3 >>stream\rabc\nendstream",
    b"<< /Length 3 >>streamabc\nendstream", b"<< /Length 3 >> stream\nabcendstream",
    b"<< /Length 3 >>stream\nabc", b"<< /Length 4 >>stream\nabc\nendstream",
    b"<< /Length -1 >>stream\nabc\nendstream", b"<< /Length 3.0 >>stream\nabc\nendstream",
    b"<< /Length true >>stream\nabc\nendstream", b"<< /Length " + DIGITS[19] + b" >>stream\nx",
    b"<< /Length 1 0 R >>stream\nabc\nendstream", b"<< /Len#67th 3 >>stream\nabc\nendstream",
    b"[<< /Length 1 >>stream\nxendstream]", b"<< /K << /Length 1 >>stream\nx\nendstream >>",
    # NUL as whitespace, latin-1 name bytes, keyword prefixes
    b"\x00<<\x00/A\x001\x00>>\x00", b"/\xe9\xff\x80 ", b"<< /\xe9 /\xff >>", b"trueX", b"nullable",
    b"falsetto", b"[truenull]", b"tru", b"nul ",
    # malformed framing
    b"<< /A 1 > >>", b"<< /A 1", b"<< 1 2 >>", b"[1 2", b"<< /A >>", b"]", b">", b"<<>>", b"[]",
    b"(a\\)b)", b"(a(b)c)", b"(a", b"<41>", b"<<", b"",
]


@pytest.mark.parametrize("buf", EDGE_OBJECTS)
@pytest.mark.parametrize("wrap", [b"", b"7 0 obj ", b"7 0 obj << /K ", b"7 0 obj [ "])
def test_edge_objects_match_reference(buf, wrap):
    buf = wrap + buf
    assert_object_same(buf)
    assert lex_all(Lexer, buf) == lex_all(ref.Lexer, buf)
    assert lex_all(Lexer, bytearray(buf)) == lex_all(ref.Lexer, bytearray(buf))


def test_indirect_length_matches_reference():
    """A stream with an indirect /Length, resolved by each side's lexer."""
    buf = b"4 0 obj << /Length 5 0 R >>stream\nabc\nendstream endobj 5 0 obj 3 endobj"
    index = xref.Xref({4: xref.InUse(0), 5: xref.InUse(buf.index(b"5 0 obj"))})
    resolve = (length_resolver(Lexer, buf, index), length_resolver(ref.Lexer, buf, index))
    assert_object_same(buf, 0, resolve)
    assert outcome(lambda: lex_indirect(buf, 0, resolve[0]))[0] == "ok"
    assert_object_same(buf, 0)  # no resolver: the same error


@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1])
@pytest.mark.parametrize("kind", ["arrays", "dicts", "mixed"])
def test_nesting_at_max_depth_matches_reference(levels, kind):
    open_, close = {"arrays": (b"[", b"]"), "dicts": (b"<< /K ", b" >>"),
                    "mixed": (b"[ << /K ", b" >> ]")}[kind]
    buf = open_ * levels + b"1" + close * levels
    assert_object_same(buf)
    assert_object_same(b"1 0 obj " + buf)
    assert statements(content, buf + b" TJ") == statements(ref, buf + b" TJ")


EDGE_STATEMENTS = [
    b"9" * 300 + b" Tw", b"9" * 301 + b" Tw", DIGITS[4301] + b" Tw", b"9" * 400 + b".5 Tw",
    b"12 0 RG", b"12 0 R ", b"12 0 R", b"1 2 0 R Do", b"12 %c\n0 R ", b"12\t0\x00R/", b"-12 0 R ",
    b".5 5. +. Tc", b"- Tc", b"+.5 Tc", b"/A#42 Tf", b"/\xe9 12 Tf", b"(a\\)b) Tj", b"(a(b)) Tj",
    b"trueX", b"nullable", b"true false null", b"3RG", b"b*RG", b"'\"", b"Tj*", b"x'", b"1.2.3 Tc",
    b"\x00BT\x00ET\x00", b"BT%c\nET", b"[(a) -1 (b)] TJ", b"[(a) [1] /N true <41>] TJ",
    b"[(a) 1e5] TJ", b"[(a) " + b"9" * 400 + b"] TJ", b"[(a)", b"[(a) -1", b"<< /A 1 >> BDC",
    b"BI /W 1 ID x EI Q", b"BX Foo EX", b"Foo", b"1 2 3", b"", b"   ", b"%c",
    b" ".join([b"1 0 0 1 0 0 cm"] * 1500),
]


@pytest.mark.parametrize("buf", EDGE_STATEMENTS)
def test_edge_statements_match_reference(buf):
    assert statements(content, buf) == statements(ref, buf)
    assert statements(content, bytearray(buf)) == statements(ref, bytearray(buf))
