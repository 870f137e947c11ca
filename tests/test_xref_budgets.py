"""Regression tests for xref-stream and ObjStm headers that made the
xref reader loop once per declared entry (an 11-digit ``/Size`` ran for
minutes and grew without bound) or fail outside ``PdfParseError``. Each
input is the f07 fixture (an xref stream and an ObjStm) with one edit,
and each must fail with ``PdfParseError`` within a time cap."""

import signal
from contextlib import contextmanager

import pytest

from pdf_ray.fixtures.corpus import FIXTURES
from pdf_ray.pdfcore.document import Document
from pdf_ray.pdfcore.objects import PdfParseError
from pdf_ray.pdfcore.xref import MAX_XREF_ENTRIES

CAP_S = 2.0


@contextmanager
def time_cap(seconds: float):
    def expired(signum, frame):
        raise TimeoutError(f"over the {seconds} s cap")

    old = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def f07(old: bytes, new: bytes) -> bytes:
    pdf = FIXTURES["f07"]()[0]
    assert pdf.count(old) == 1
    return pdf.replace(old, new)


RECIPES = {
    "11-digit /Size": (b"/Size 8 ", b"/Size 99999999999 ",
                       "xref stream declares 99999999999 entries, its data holds 8"),
    "negative /Size": (b"/Size 8 ", b"/Size -8 ", "bad xref stream /Size -8"),
    "real /Size": (b"/Size 8 ", b"/Size 8.0 ", "bad xref stream /Size 8.0"),
    "negative /W": (b"/W [1 4 2]", b"/W [1 -4 2]", "bad /W [1, -4, 2]"),
    "name in /W": (b"/W [1 4 2]", b"/W [1 4 /X]", "bad /W [1, 4, /X]"),
    "/W not an array": (b"/W [1 4 2]", b"/W 7", "bad /W 7"),
    "negative /Index count": (b"/Size 8 ", b"/Size 8 /Index [0 -8] ",
                              "bad xref stream /Index [0, -8]"),
    "odd /Index": (b"/Size 8 ", b"/Size 8 /Index [0] ", "bad xref stream /Index [0]"),
    "/Index past the data": (b"/Size 8 ", b"/Size 8 /Index [0 8 8 1] ",
                             "xref stream declares 9 entries, its data holds 8"),
    "zero widths": (b"/Size 8 /W [1 4 2]", b"/Size 99999999999 /W [0 0 0]",
                    "xref stream declares 99999999999 entries of width 0"),
    "/N past the ObjStm header": (b"/N 4 ", b"/N 9 ", "bad ObjStm header"),
}


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_bad_xref_stream_header_fails_fast(name):
    old, new, message = RECIPES[name]
    buf = f07(old, new)
    with time_cap(CAP_S), pytest.raises(PdfParseError) as e:
        Document(buf)
    assert str(e.value) == message


def test_zero_width_entries_within_the_budget_parse():
    """Entries of width zero take their defaults (type 1, offset 0); up
    to ``MAX_XREF_ENTRIES`` of them are read."""
    from pdf_ray.pdfcore.xref import InUse, parse_xref_at

    buf = f07(b"/Size 8 /W [1 4 2]", b"/Size %d /W [0 0 0]" % MAX_XREF_ENTRIES)
    with time_cap(10 * CAP_S):
        xref, _ = parse_xref_at(buf, buf.rindex(b"7 0 obj"))
    assert len(xref.objects) == MAX_XREF_ENTRIES
    assert xref.objects[0] == InUse(0, 0)
