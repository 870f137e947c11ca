"""Differential test of the compiled content pass against the token
generator and ``if/elif`` interpreter it replaced, frozen in
``tests/reference_interp.py``.

Every page of the fixture, golden and bench corpora, every Form XObject
stream run on its own, generated content soups and three oversized
streams go through both interpreters under each flag. They must agree on
the spans, span marks, span fonts and images emitted (also those emitted
before an error), on the final text state and graphics matrix when
``compute_positions`` is on, and on the exception class and message.
"""

import time
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ray.fixtures.builder import simple_page_pdf
from pdf_ray.pdfcore import content, interp
from pdf_ray.pdfcore.document import Document
from pdf_ray.pdfcore.objects import NULL, Name, Ref, Stream
from pdf_ray.pdfcore.ocg import hidden_ocg_refs

from . import reference_interp as ref
from .test_lexer_diff import tokens, typed

FLAGS = [
    {},
    {"compute_positions": True},
    {"collect_images": True},
    {"apply_tounicode": True},
    {"apply_actual_text": True},
    {"collect_mcids": True},
    {"collect_fonts": True},
    {"hidden_ocgs": True},
    {
        "compute_positions": True,
        "collect_images": True,
        "apply_tounicode": True,
        "apply_actual_text": True,
        "collect_mcids": True,
        "collect_fonts": True,
        "hidden_ocgs": True,
    },
]


def interpret(mod, doc, flags, hidden, stream=None):
    """Run ``mod``'s interpreter over every page of ``doc``, or over one
    ``(data, resources)`` stream as a page of its own. Returns what it
    emitted, its final state and the error that stopped it."""
    kwargs = {**flags, "hidden_ocgs": hidden if flags.get("hidden_ocgs") else None}
    it = mod.Interpreter(doc, font_cache={}, **kwargs)
    error = None
    try:
        if stream is None:
            it.run()
        else:
            data, resources = stream
            doc.page_content = lambda page: data
            try:
                it._run_page(types.SimpleNamespace(resources=resources))
            finally:
                del doc.page_content
    except Exception as e:
        error = (type(e), str(e))
    state = None
    if flags.get("compute_positions") and hasattr(it, "ts"):
        ts = it.ts
        state = typed(
            (
                ts.char_spacing, ts.word_spacing, ts.horizontal_scaling, ts.leading,
                ts.font_name, ts.font_size, ts.render_mode, ts.rise, ts.tm, ts.tlm,
                it.ctm, list(it.gs_stack),
            )
        )
    return {
        "spans": typed(it.spans),
        "span_marks": it.span_marks,
        "span_fonts": typed(it.span_fonts),
        "images": it.images,
        "state": state,
        "error": error,
    }


def assert_same(doc, hidden, stream=None, label=None):
    for flags in FLAGS:
        got = interpret(interp, doc, flags, hidden, stream)
        want = interpret(ref, doc, flags, hidden, stream)
        assert got == want, (label, flags)


def form_streams(doc):
    """``(data, resources)`` of every Form XObject the xref reaches."""
    out = []
    for num in sorted(doc.xref.objects):
        try:
            obj = doc.resolve(Ref(num, 0))
        except Exception:
            continue
        if isinstance(obj, Stream) and obj.dict.get("Subtype") == Name("Form"):
            try:
                data = doc.decoded(obj)
            except Exception:
                continue
            res = doc.resolve(obj.dict.get("Resources", NULL))
            out.append((num, data, res if isinstance(res, dict) else {}))
    return out


@pytest.fixture(scope="module")
def corpus_payloads() -> list[tuple[str, bytes]]:
    """Every PDF payload of ``build_corpus``, the committed golden corpus
    and ``build_bench_corpus`` (f18x20/60/200), deduplicated by bytes."""
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


def test_corpus_pages_and_forms_match_reference(corpus_payloads):
    n_docs = n_forms = 0
    for name, buf in corpus_payloads:
        try:
            doc = Document(buf)
            hidden = hidden_ocg_refs(doc)
        except Exception:
            continue
        assert_same(doc, hidden, label=name)
        n_docs += 1
        for num, data, res in form_streams(doc):
            assert_same(doc, hidden, (data, res), label=(name, num))
            n_forms += 1
    assert n_docs > 40 and n_forms > 0


# -- content soups -------------------------------------------------------

def stream_object(dict_body: bytes, data: bytes) -> bytes:
    return b"<< " + dict_body + b" /Length %d >>\nstream\n" % len(data) + data + b"\nendstream"


SOUP_DOC = simple_page_pdf(
    b"",
    extra_resources=(
        b"/XObject << /Im1 6 0 R /Fm1 7 0 R /Fm2 10 0 R >> "
        b"/Properties << /P1 8 0 R /L1 9 0 R >>"
    ),
    extra_objects={
        6: stream_object(
            b"/Type /XObject /Subtype /Image /Width 2 /Height 1 "
            b"/ColorSpace /DeviceGray /BitsPerComponent 8",
            b"\x10\xf0",
        ),
        7: stream_object(
            b"/Type /XObject /Subtype /Form /Resources << /Font << /F1 5 0 R >> >> "
            b"/Matrix [1 0 0 1 5 5]",
            b"BT /F1 9 Tf (form) Tj 1 ET",
        ),
        8: b"<< /MCID 4 /ActualText (alt) >>",
        9: b"<< /Type /OCG /Name (hidden layer) >>",
        10: stream_object(b"/Type /XObject /Subtype /Form /OC 9 0 R", b"BT (hidden) Tj ET"),
    },
)
SOUP_HIDDEN = frozenset({Ref(9, 0)})

OPERAND_FRAGMENTS = [
    # plain operands
    b"0", b"12", b"-3", b"+4", b"007", b"-0", b"1.5", b"-.25", b"5.", b".", b"-", b"/F1",
    b"/F2", b"/Im1", b"/Fm1", b"/Fm2", b"/P1", b"/L1", b"/OC", b"/Artifact", b"/Span",
    b"(plain text)", b"()", b"9" * 320, b"9" * 320 + b".5",
    # operands the statement pattern leaves to lex_object
    b"(esc\\)aped\\n)", b"(a (nested) b)", b"<48690A>", b"<FEFF00480069>", b"<>",
    b"/A#42C", b"/#46#31", b"1 0 R", b"12 0 R", b"true", b"false", b"null",
    b"[(a) -120 (b)]", b"[1 2 3]", b"[/N (x)]", b"[true]", b"[]",
    b"<< /MCID 7 >>", b"<< /ActualText (said) /MCID 2 >>", b"<< /OC 9 0 R >>", b"<<>>",
    b"%comment\n", b"%c", b"[", b"]", b"<", b"{",
]
OPERATOR_FRAGMENTS = [
    b"BT", b"ET", b"Tf", b"Td", b"TD", b"Tm", b"T*", b"TL", b"Tc", b"Tw", b"Tz", b"Ts",
    b"Tr", b"Tj", b"TJ", b"'", b'"', b"Do", b"q", b"Q", b"cm", b"BMC", b"BDC", b"EMC",
    b"MP", b"DP", b"m", b"l", b"c", b"re", b"h", b"f*", b"b*", b"b*RG", b"S", b"n", b"W*",
    b"w", b"d", b"gs", b"G", b"rg", b"K", b"CS", b"SC", b"scn", b"sh", b"d0", b"d1",
    b"BX", b"EX", b"Foo", b"R", b"truex", b"Tj*",
]
STATEMENT_FRAGMENTS = [
    b"BT /F1 12 Tf 72 720 Td (Hello) Tj ET", b"/F1 10 Tf", b"/F2 10 Tf", b"3 -4 Td",
    b"10 20 TD", b"1 0 0 1 30 40 Tm", b"14 TL", b"0.5 Tc", b"2 Tw", b"80 Tz", b"3 Ts",
    b"1 Tr", b"(next line)'", b"1 2 (spaced)\"", b"[(A) 50 (B) -20.5 (C)] TJ",
    b"2 0 0 2 10 10 cm", b"q 1 0 0 1 5 5 cm Q", b"/Im1 Do", b"/Fm1 Do", b"/Fm2 Do",
    b"/Missing Do", b"/Span BMC (marked) Tj EMC", b"/Span /P1 BDC (x) Tj EMC",
    b"/Span << /MCID 3 >> BDC (y) Tj EMC", b"/Artifact BMC (art) Tj EMC",
    b"/OC /L1 BDC (secret) Tj EMC", b"/Span << /ActualText (alt) >> BDC EMC",
    b"BI /W 2 /H 1 /CS /G /BPC 8 ID \x00\xff EI", b"BI /W 1 /H 1 /BPC 8 /CS /G ID x EI",
    b"BI /W 2 ID \x01\x02", b"BX Unknown 1 2 EX", b"BX BX Foo EX Bar EX",
    b"1 1 1 RG 0.5 g", b"/P0 MP /P0 /P1 DP", b"1 2 m 3 4 l h S", b"0 0 10 10 re f",
    b"-0 Tc -0 -0 Td", b"/F1 -0 Tf", b"9" * 320 + b" Tw", b"1 2 3 4 5 /X Tm", b"(s) 1 \"",
    b"1 2 3 (x) 5 6 cm", b"/F1 (12) Tf",
]
SEPARATORS = [b" ", b" ", b" ", b"", b"\n", b"\r\n", b"%x\n", b"\t", b"\x00"]

# whole statements half of the time, so that soups get past their first
# operators and emit spans before they break
fragments = st.one_of(
    st.sampled_from(STATEMENT_FRAGMENTS),
    st.sampled_from(STATEMENT_FRAGMENTS),
    st.sampled_from(OPERAND_FRAGMENTS),
    st.sampled_from(OPERATOR_FRAGMENTS),
)
soups = st.lists(st.tuples(fragments, st.sampled_from(SEPARATORS)), max_size=16).map(
    lambda parts: b"".join(a + b for a, b in parts)
)


@pytest.fixture(scope="module")
def soup_doc():
    doc = Document(SOUP_DOC)
    return doc, doc.pages[0].resources


@given(soups)
@settings(max_examples=300, deadline=None)
def test_content_soups_match_reference(soup_doc, buf):
    doc, resources = soup_doc
    assert tokens(content.tokenize, buf) == tokens(ref.tokenize, buf)
    assert_same(doc, SOUP_HIDDEN, (buf, resources), label=buf)


def test_soup_document_exercises_every_output(soup_doc):
    """The soup page's resources reach each output the flags switch on."""
    doc, resources = soup_doc
    buf = (
        b"BT /F1 12 Tf 3 4 Td (a) Tj /Span << /MCID 3 >> BDC (b) Tj EMC "
        b"/Span /P1 BDC (c) Tj EMC ET /Im1 Do /Fm1 Do /Fm2 Do"
    )
    flags = {k: v for k, v in FLAGS[-1].items() if k != "hidden_ocgs"}
    it = interp.Interpreter(doc, font_cache={}, hidden_ocgs=SOUP_HIDDEN, **flags)
    doc.page_content = lambda page: buf
    try:
        it._run_page(types.SimpleNamespace(resources=resources))
    finally:
        del doc.page_content
    assert [t for _, t, _ in it.spans] == ["a", "b", "alt", None, "form"]
    assert it.span_marks[1] == (0, 3, False) and it.span_marks[2] == (0, 4, False)
    assert it.span_fonts[0] == ("Helvetica", 12.0) and len(it.images) == 1
    assert it.ts.font_size == 9.0 and it.ctm == interp.IDENTITY


EDGE_STREAMS = [
    b"BT /F1 12 Tf BI /W 2 /H 1 /CS /G /BPC 8 ID \x00\xff EI (after) Tj ET",
    b"1 2 BI /W 2 /H 1 /BPC 8 ID \x00\xff EI",  # leftovers join the dict
    b"BI /W 2 /H 1 /Filter /AHx ID 00ff> EI",
    b"BI /W 2 /H 1 /BPC 8 /CS /G ID\n\x01EI\x02 EI",
    b"BI /W 2 /H 1 ID \x01\x02",
    b"EX Foo",
    b"BX EX EX Foo",
    b"BX /F1 9 Foo EX Tf BT (x) Tj ET",  # leftovers feed the next operator
    b"BT /F1 12 Tf (a) (b) Tj Tj ET",
    b"BT 5 /F1 12 Tf Tj ET",
    b"BT /F1 12 Tf 1 2 3 Td Td ET",
]


@pytest.mark.parametrize("buf", EDGE_STREAMS)
def test_edge_streams_match_reference(soup_doc, buf):
    doc, resources = soup_doc
    assert tokens(content.tokenize, buf) == tokens(ref.tokenize, buf)
    assert_same(doc, SOUP_HIDDEN, (buf, resources), label=buf)


# -- oversized streams -----------------------------------------------------

OVERSIZED = {
    "200k operands, no operator": b"1 " * 200_000,
    "1 MB plain string": b"BT /F1 12 Tf (" + b"a" * 1_000_000 + b") Tj ET",
    "10^5 nested [": b"[" * 100_000,
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_streams_match_reference(soup_doc, name):
    doc, resources = soup_doc
    buf = OVERSIZED[name]
    t0 = time.perf_counter()
    got = interpret(interp, doc, {}, SOUP_HIDDEN, (buf, resources))
    new_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    want = interpret(ref, doc, {}, SOUP_HIDDEN, (buf, resources))
    ref_s = time.perf_counter() - t0
    print(f"{name}: compiled pass {new_s:.3f} s, reference {ref_s:.3f} s")
    assert without_recursion_message(got) == without_recursion_message(want)
    got_tokens = without_recursion_message(tokens(content.tokenize, buf))
    assert got_tokens == without_recursion_message(tokens(ref.tokenize, buf))


def without_recursion_message(out):
    """``out`` with each RecursionError reduced to its class: its message
    names the kind of call that hit the limit, which depends on how deep
    the caller's stack already was."""
    if isinstance(out, dict):
        return {k: without_recursion_message(v) for k, v in out.items()}
    if isinstance(out, list):
        return [without_recursion_message(v) for v in out]
    if isinstance(out, tuple) and RecursionError in out:
        return (RecursionError,)
    return out


def test_tables_cover_every_operator():
    """Each table has one handler per operator, plus the inline image."""
    want = set(content.OPERATORS) | {content.INLINE}
    assert set(interp._OPS) == want and set(interp._POSITION_OPS) == want
