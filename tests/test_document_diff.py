"""Differential test of the one-pass document layer against the
token-at-a-time one it replaced, frozen in ``tests/reference_document.py``.

Every payload of the fixture, golden and bench corpora, a few hand-built
documents (indirect ``/Length``, ``#XX`` keys, comments inside dicts,
nested inline dicts) and hypothesis mutations of all of them go through
both ``Document`` classes, with and without ``recover``. They must agree
on the xref and trailer, on every page's dict, resources, media box and
rotation, on every page's content bytes, on ``resolve`` of every xref
object, and on the exception class and message wherever one is raised.
The one intended difference: objects nested past ``MAX_DEPTH`` now fail
with ``PdfParseError`` at that depth.
"""

import functools
import re
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ray.fixtures.builder import PdfBuilder
from pdf_ray.pdfcore import lexer, objects, xref
from pdf_ray.pdfcore.document import Document
from pdf_ray.pdfcore.lexer import MAX_DEPTH
from pdf_ray.pdfcore.objects import NULL, Name, PdfParseError, Stream

from . import reference_document as ref

NEW = types.SimpleNamespace(Document=Document, InUse=xref.InUse, Ref=objects.Ref)


def typed(v):
    """``v`` as nested tuples that carry the type of every value; the
    engine's and the frozen copy's ``Ref``/``InUse``/``Compressed`` map to
    the same tuples."""
    kind = type(v).__name__
    if kind == "Ref":
        return ("Ref", v.num, v.gen)
    if kind == "InUse":
        return ("InUse", v.offset, v.gen)
    if kind == "Compressed":
        return ("Compressed", v.objstm_num, v.index)
    if isinstance(v, Stream):
        return ("Stream", typed(v.dict), v.raw)
    if isinstance(v, dict):
        return ("dict", tuple((typed(k), typed(x)) for k, x in v.items()))
    if isinstance(v, list):
        return ("list", tuple(typed(x) for x in v))
    return (kind, repr(v) if isinstance(v, float) else v)


CYCLE = "indirect reference cycle while reading an object"
OBJSTM_HEADER = {
    (ValueError, "invalid literal for int() with base 10: ''"),
    (PdfParseError, "bad ObjStm header"),
}


def raised(e: Exception) -> tuple:
    """An error as its class and message. An indirect ``/Length`` that
    refers back to its own stream recursed in the frozen resolver until
    RecursionError (whose message depends on the stack); the engine
    raises PdfParseError(CYCLE) instead. Both read as the class
    RecursionError, an accepted difference besides nesting depth.
    The other: an ObjStm whose /N counts more pairs than its header has
    failed the frozen reader on ``int('')`` (ValueError); the engine
    raises PdfParseError("bad ObjStm header"). Both read as one key."""
    if isinstance(e, RecursionError) or (
        isinstance(e, PdfParseError) and str(e) == CYCLE
    ):
        return ("raise", RecursionError)
    if (type(e), str(e)) in OBJSTM_HEADER:
        return ("raise", "ObjStm header")
    return ("raise", type(e), str(e))


def outcome(run):
    try:
        return ("ok", typed(run()))
    except Exception as e:
        return raised(e)


def snapshot(mod, buf: bytes, recover: bool) -> list:
    """What ``mod.Document`` makes of ``buf``: the xref and trailer, each
    page and its content, and every xref object resolved, in that order."""
    try:
        doc = mod.Document(buf, recover=recover)
    except Exception as e:
        return [raised(e)]
    out = [("xref", typed(doc.xref.objects), typed(doc.trailer))]
    for page in doc.pages:
        out.append(
            ("page", typed(page.dict), typed(page.resources), typed(page.media_box),
             typed(page.rotate))
        )
        out.append(("content", outcome(lambda: doc.page_content(page))))
    for num, entry in sorted(doc.xref.objects.items()):
        gen = entry.gen if isinstance(entry, mod.InUse) else 0
        out.append(("object", num, outcome(lambda: doc.resolve(mod.Ref(num, gen)))))
    return out


def assert_same(buf: bytes, label=None) -> None:
    for recover in (False, True):
        want = snapshot(ref, buf, recover)
        if recover and want == [("raise", "ObjStm header")]:
            # the engine's PdfParseError takes the recovery path, which
            # the frozen reader's ValueError never reached: no oracle
            continue
        assert snapshot(NEW, buf, recover) == want, (label, recover)


# -- inputs ----------------------------------------------------------------------

PAGE = (
    b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
    b"/Resources << /Font << /F1 5 0 R >> >> /Contents 4 0 R >>"
)


def one_page(page: bytes = PAGE, content: bytes = b"BT /F1 12 Tf (text) Tj ET", **objects) -> bytes:
    """A one-page document with page dict ``page`` (object 3), built with
    real offsets: catalog 1, pages 2, contents 4, font 5, and ``objects``
    given as ``o6=b"..."``."""
    b = PdfBuilder()
    b.add(1, b"<< /Type /Catalog /Pages 2 0 R >>")
    b.add(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 /Rotate 90 >>")
    b.add(3, page)
    b.add_stream(4, b"", content)
    b.add(5, b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>")
    for name, body in objects.items():
        b.add(int(name[1:]), body)  # o2 replaces the pages node
    return b.build(1)


def hand_built() -> dict[str, bytes]:
    """Forms the corpora lack: an indirect /Length, #XX keys, comments
    inside dicts, inline dicts nested three deep, hex and escaped strings."""
    data = b"BT /F1 12 Tf (indirect length) Tj ET"
    return {
        "indirect length": one_page(
            PAGE.replace(b"4 0 R", b"6 0 R"),
            o6=b"<< /Length 7 0 R >>\nstream\n" + data + b"\nendstream",
            o7=b"%d" % len(data),
        ),
        "#XX keys": one_page(
            PAGE.replace(b"/MediaBox", b"/Media#42ox").replace(
                b"/Font", b"/Ext#47State << /G#53 << /Type /ExtGState /C#41 1 >> >> /Font"
            )
        ),
        "page tree cycle": one_page(o2=b"<< /Type /Pages /Kids [3 0 R 2 0 R] /Count 2 >>"),
        "stream values and odd lengths": one_page(
            PAGE.replace(b"/Contents 4 0 R", b"/Contents [4 0 R 6 0 R 7 0 R 8 0 R]"),
            o6=b"<< /Length -1 >>\nstream\nendstream",
            o7=b"<< /Length 0 >>\nstream\r\nendstream",
            o8=b"<< /Length true >>\nstream\rxendstream",
            o9=b"<< /K << /Length 3 >>\nstream\nabc\nendstream /L 1 >>",
            o10=b"<< /K << /Length 3 >> stream\nabc\nendstream >>",
        ),
        "comments": one_page(
            PAGE.replace(b"/Parent 2 0 R", b"/Parent 2 % /Fake 1 0 R >>\n0 R %c\n")
        ),
        "nested and rare values": one_page(
            PAGE.replace(
                b"/MediaBox [0 0 612 792]",
                b"/MediaBox [-0.5 .5 +612 792.] /UserUnit 1.5 /Fl false /Nu null",
            ).replace(
                b"/Font",
                b"/ExtGState << /GS1 << /Type /ExtGState /SMask << /S /Luminosity /BC [0 0.5 1] >> >> >> "
                b"/Properties << /P1 << /Name <48690A> /Alt (esc\\)aped) /N [1 [2] << /K true >>] >> >> "
                b"/ColorSpace << /CS0 [/Indexed /DeviceRGB 1 <00ff00ff00ff>] /CS1 [/ICCBased 5 0 R] >> "
                b"/Font",
            )
        ),
    }


@functools.cache
def corpus_seeds() -> dict[str, list[tuple[bytes, str]]]:
    """Every PDF payload of ``build_corpus``, of the committed golden
    corpus and of ``build_bench_corpus``, and the hand-built documents,
    each deduplicated by bytes."""
    import pyarrow.parquet as pq

    from pdf_ray.fixtures.tables import build_bench_corpus, build_corpus

    _, pay, *_ = build_corpus(1)
    golden = pq.read_table("fixtures_data/payloads.parquet")
    corpora = {
        "fixtures": zip(pay.column("media_ref").to_pylist(), pay.column("bytes").to_pylist()),
        "golden": zip(golden.column("media_ref").to_pylist(), golden.column("bytes").to_pylist()),
        "bench": build_bench_corpus(n_docs=1, seed=0)[1].items(),
        "hand-built": hand_built().items(),
    }
    return {
        corpus: sorted({buf: name for name, buf in items if buf.startswith(b"%PDF")}.items(),
                       key=lambda kv: kv[1])
        for corpus, items in corpora.items()
    }


@pytest.fixture(scope="module")
def seeds() -> dict[str, list[tuple[bytes, str]]]:
    return corpus_seeds()


def test_corpus_documents_match_reference(seeds):
    seen: set[bytes] = set()
    for corpus, items in seeds.items():
        for buf, name in items:
            if buf not in seen:
                seen.add(buf)
                assert_same(buf, (corpus, name))
    assert len(seen) > 50


def framed_share(buf: bytes) -> tuple[int, int]:
    """``(framed, total)`` over the file's in-use objects: how many
    ``lex_indirect`` reads whole, without a ``Lexer``."""
    try:
        index = xref.read_full_xref(buf)[0]
    except PdfParseError:
        return 0, 0
    framed = total = 0
    real_lexer = lexer.Lexer
    made = []

    class Counted(real_lexer):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            made.append(1)
            super().__init__(*args, **kwargs)

    lexer.Lexer = Counted
    try:
        for entry in index.objects.values():
            if isinstance(entry, xref.InUse):
                before = len(made)
                try:
                    lexer.lex_indirect(buf, entry.offset)
                except Exception:
                    pass
                total += 1
                framed += len(made) == before
    finally:
        lexer.Lexer = real_lexer
    return framed, total


def test_most_objects_are_framed_whole(seeds):
    """The share of indirect objects read in one pass, per corpus."""
    shares = {}
    for corpus, items in seeds.items():
        framed = total = 0
        for buf, _ in items:
            f, t = framed_share(buf)
            framed, total = framed + f, total + t
        shares[corpus] = framed / total
        print(f"{corpus}: {framed}/{total} objects framed whole ({shares[corpus]:.1%})")
    assert shares["bench"] > 0.95 and shares["golden"] > 0.8 and shares["fixtures"] > 0.8


# -- mutations -------------------------------------------------------------------

def _nth(pattern: bytes, buf: bytes, i: int):
    found = list(re.finditer(pattern, buf))
    return found[i % len(found)] if found else None


def _splice(buf: bytes, m, new: bytes) -> bytes:
    return buf if m is None else buf[: m.start()] + new + buf[m.end():]


def mutate(buf: bytes, kind: str, i: int, j: int) -> bytes:
    if kind == "truncate":
        return buf[: i % (len(buf) + 1)]
    if kind == "xref row":
        m = _nth(rb"\d{10} \d{5} [nf]( ?[\r\n]{1,2})", buf, i)
        if m is None:
            return buf
        row = m.group()
        variants = [
            row[:17] + b"x" + row[18:],  # bad kind
            row[:3] + b"a" + row[4:],  # bad digit
            row[:18] + b"\n",  # a 19-byte row
            row + row,  # an extra row
            b"%010d" % (int(row[:10]) + 1) + row[10:],  # offset off by one
            row[:11] + b"00001" + row[16:],  # another generation
        ]
        return _splice(buf, m, variants[j % len(variants)])
    if kind == "overlapping subsection":
        m = _nth(rb"\ntrailer", buf, i)
        row = b"%010d %05d %s \n" % (j * 7, j % 2, b"nf"[j % 2 : j % 2 + 1])
        return _splice(buf, m, b"\n%d 1\n" % (j % 12) + row + b"trailer")
    if kind == "xref count":
        m = _nth(rb"xref\s+\d+ (\d+)", buf, i)
        return buf if m is None else buf[: m.start(1)] + b"%d" % (int(m[1]) + j % 3 - 1) + buf[m.end(1):]
    if kind == "missing endobj":
        return _splice(buf, _nth(rb"endobj", buf, i), b"")
    if kind == "length off by one":
        m = _nth(rb"/Length (\d+)", buf, i)
        return buf if m is None else buf[: m.start(1)] + b"%d" % (int(m[1]) + (1 if j % 2 else -1)) + buf[m.end(1):]
    if kind == "indirect length":
        return _splice(buf, _nth(rb"/Length \d+", buf, i), b"/Length %d 0 R" % (j % 8))
    if kind == "#XX key":
        m = _nth(rb"/([A-Za-z])([A-Za-z]*)", buf, i)
        return _splice(buf, m, m and b"/#%02X" % m[1][0] + m[2])
    if kind == "comment in dict":
        return _splice(buf, _nth(rb"<<", buf, i), b"<< % /Fake 1 0 R >>\n")
    if kind == "deep nesting":
        return _splice(buf, _nth(rb"/MediaBox ", buf, i), b"/Deep " + b"[" * (j % 40) + b"1" + b"]" * (j % 40) + b" /MediaBox ")
    # a random byte
    k = i % max(1, len(buf))
    return buf[:k] + bytes([j % 256]) + buf[k + 1:]


MUTATIONS = [
    "truncate", "xref row", "overlapping subsection", "xref count", "missing endobj", "length off by one",
    "indirect length", "#XX key", "comment in dict", "deep nesting", "byte",
]


@given(
    st.integers(min_value=0),
    st.sampled_from(MUTATIONS),
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=255),
)
@settings(max_examples=400, deadline=None)
def test_mutated_documents_match_reference(which, kind, i, j):
    seeds = corpus_seeds()
    items = [buf for corpus in ("fixtures", "hand-built") for buf, _ in seeds[corpus]]
    buf = mutate(items[which % len(items)], kind, i, j)
    assert_same(buf, (kind, i, j))


# -- nesting depth ---------------------------------------------------------------

@pytest.mark.parametrize("levels", [MAX_DEPTH - 1, MAX_DEPTH, 300, 10**5])
def test_nesting_past_max_depth_is_the_one_difference(levels):
    """A page dict holding ``levels`` nested arrays: the same document
    while the dict and its arrays nest ``MAX_DEPTH`` deep at most; past
    that the engine raises PdfParseError where the frozen lexer recursed
    on (and, deep enough, hit RecursionError)."""
    buf = one_page(PAGE.replace(b"/MediaBox ", b"/Deep " + b"[" * levels + b"]" * levels + b" /MediaBox "))
    if levels < MAX_DEPTH:
        assert_same(buf)
        return
    got = snapshot(NEW, buf, recover=False)
    assert got == [("raise", PdfParseError, f"objects nested deeper than {MAX_DEPTH} levels")]
    want = snapshot(ref, buf, recover=False)
    assert want[0] == ("raise", RecursionError) if levels == 10**5 else want[0][0] == "xref"


def test_self_referential_length_raises_parse_error():
    """The "indirect length" mutation ``/Length 4 0 R`` on object 4 (the
    content stream), built with real offsets: the engine raises
    PdfParseError with a fixed message where the frozen resolver
    recursed into RecursionError."""
    data = b"BT /F1 12 Tf (self length) Tj ET"
    buf = one_page(o4=b"<< /Length 4 0 R >>\nstream\n" + data + b"\nendstream")
    doc = NEW.Document(buf)
    with pytest.raises(PdfParseError) as e:
        doc.resolve(objects.Ref(4, 0))
    assert str(e.value) == CYCLE
    with pytest.raises(PdfParseError, match=CYCLE):
        doc.page_content(doc.pages[0])
    with pytest.raises(RecursionError):
        ref.Document(buf).resolve(ref.Ref(4, 0))


def test_typed_tells_values_apart():
    assert typed(objects.Ref(1, 0)) == typed(ref.Ref(1, 0)) != typed((1, 0))
    assert typed(xref.InUse(5)) == typed(ref.InUse(5)) != typed(xref.Compressed(5, 0))
    assert typed(Name("a")) != typed("a") and typed(1) != typed(1.0) != typed(True)
    assert typed(NULL) != typed(None)
