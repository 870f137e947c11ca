"""Object-lexer vectors ported verbatim from the reference's inline tests
(src/lex.rs:564-672) plus parity edge cases from SURVEY.md §7.4.1."""

import pytest

from pdf_ray.pdfcore.lexer import Lexer
from pdf_ray.pdfcore.objects import NULL, Name, Ref


def lex(b: bytes):
    return Lexer(b).lex_object()


def test_empty_array():
    assert lex(b"[]") == []
    assert lex(b"[   ]") == []


def test_array_single_element_whitespace():
    assert lex(b"[1.0]") == [1.0]
    assert lex(b"[   1.0   ]") == [1.0]
    assert lex(b"[1.0   ]") == [1.0]
    assert lex(b"[   1.0]") == [1.0]


def test_string_with_escapes():
    assert lex(b"(\\n\\ra\\t\\)3\\\\)") == "\n\ra\t)3\\"


def test_string_with_octal_escapes():
    assert lex(b"(\\0\\0053\\053\\53)") == "\x00\x053++"


def test_hex_strings():
    assert lex(b"<>") == ""
    assert lex(b"<005B>") == "\x00\x5b"
    assert lex(b"<901FA>") == "\x90\x1f\xa0"  # odd length pads low nibble


def test_utf16_hex_string():
    assert lex(b"<FEFF00480069>") == "Hi"
    assert lex(b"<feff263A>") == "☺"


def test_keywords():
    assert lex(b"true") is True
    assert lex(b"false") is False
    assert lex(b"null") is NULL


def test_floats():
    assert lex(b"1.0") == 1.0
    assert lex(b"+1.0") == 1.0
    assert lex(b".5") == 0.5
    assert lex(b"+.5") == 0.5
    assert lex(b"-1.0") == -1.0
    assert lex(b"-.5") == -0.5
    assert lex(b"05.05") == 5.05


def test_names():
    assert lex(b"/a") == Name("a")
    assert lex(b"/abcde") == Name("abcde")
    assert lex(b"/1.4") == Name("1.4")
    assert lex(b"/$1.4") == Name("$1.4")
    assert lex(b"/abc[") == Name("abc")
    assert lex(b"/abc<") == Name("abc")
    assert lex(b"/A#42C ") == Name("ABC")  # '#'-escape


def test_comments():
    assert lex(b"%\n(abc)") == "abc"
    assert lex(b"%%\n(abc)") == "abc"
    assert lex(b"%%%%%\n(abc)") == "abc"
    assert lex(b"%(effg)\n(abc)") == "abc"
    assert lex(b"%(z)\n%(y)\n%(x)\n(abc)%(z)\n%(y)\n%(x)\n") == "abc"


def test_references():
    assert lex(b"12 0 R ") == Ref(12, 0)
    assert lex(b"12 0 R/") == Ref(12, 0)
    assert lex(b"12 0 ") == 12  # no R -> integer, cursor backtracks
    assert lex(b"12 0 RG") == 12  # RG is not a reference terminator


def test_nested_parens_and_continuation():
    assert lex(b"(a(b(c))d)") == "a(b(c))d"
    assert lex(b"(foo\\\n   bar)") == "foobar"


def test_dict_simple():
    d = lex(b"<< /A 1 /B (two) /C [3] /D << /E /F >> >>")
    assert d == {"A": 1, "B": "two", "C": [3], "D": {"E": Name("F")}}


def test_stream_with_direct_length():
    lx = Lexer(b"<< /Length 5 >>\nstream\nhello\nendstream")
    s = lx.lex_object()
    assert s.raw == b"hello"
    assert s.dict == {"Length": 5}


def test_bad_object_start():
    from pdf_ray.pdfcore.objects import PdfParseError

    with pytest.raises(PdfParseError):
        lex(b"}")


def test_ref_is_hashable_and_equals_only_refs():
    r = Ref(12, 0)
    assert repr(r) == "Ref(num=12, gen=0)" and (r.num, r.gen) == (12, 0)
    assert r == Ref(12, 0) and hash(r) == hash(Ref(12, 0)) and r != Ref(12, 1)
    assert {r: 1}[lex(b"12 0 R ")] == 1
    for other in (12, 12.0, "12 0 R", Name("R"), [12, 0], {"num": 12}, NULL, None, True):
        assert r != other and other != r


# -- nesting depth ---------------------------------------------------------------

NESTINGS = {
    "arrays": (b"[", b"]"),
    "dicts": (b"<< /K ", b" >>"),
    "mixed": (b"[ << /K ", b" >> ]"),
}


@pytest.mark.parametrize("kind", sorted(NESTINGS))
def test_nesting_up_to_max_depth_parses(kind):
    from pdf_ray.pdfcore.lexer import MAX_DEPTH, lex_indirect

    open_, close = NESTINGS[kind]
    levels = MAX_DEPTH // (2 if kind == "mixed" else 1)
    buf = open_ * levels + b"1" + close * levels
    v = lex(buf)
    for _ in range(levels):
        v = v[0] if isinstance(v, list) else v["K"]
        if kind == "mixed":
            v = v["K"]
    assert v == 1
    if kind == "dicts":
        assert lex_indirect(b"1 0 obj " + buf, 0) == lex(buf)


@pytest.mark.parametrize("kind", sorted(NESTINGS))
@pytest.mark.parametrize("levels", ["max + 1", "10^5"])
def test_nesting_past_max_depth_fails_at_a_fixed_depth(kind, levels):
    """Objects nested past ``MAX_DEPTH`` raise PdfParseError, whatever
    the depth of the caller's stack, in objects and content streams."""
    from pdf_ray.pdfcore.content import tokenize
    from pdf_ray.pdfcore.lexer import MAX_DEPTH, lex_indirect
    from pdf_ray.pdfcore.objects import PdfParseError

    open_, close = NESTINGS[kind]
    n = 10**5 if levels == "10^5" else MAX_DEPTH + 1
    if kind == "mixed":
        n = (n + 1) // 2
    buf = open_ * n + b"1" + close * n
    message = f"objects nested deeper than {MAX_DEPTH} levels"

    def deep(k, fn):
        return deep(k - 1, fn) if k else fn()

    for run in (
        lambda: lex(buf),
        lambda: lex_indirect(b"1 0 obj " + buf, 0),
        lambda: list(tokenize(buf + b" TJ")),
        lambda: deep(500, lambda: lex(buf)),
    ):
        with pytest.raises(PdfParseError, match=message):
            run()
