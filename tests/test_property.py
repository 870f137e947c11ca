"""Property-based tests (hypothesis) — SURVEY §5 notes the reference has
none; these fuzz the parity-critical byte paths."""

import zlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ray.fixtures.builder import _a85_encode, _lzw_encode
from pdf_ray.pdfcore.filters import (
    ascii85_decode,
    ascii_hex_decode,
    flate_decode,
    lzw_decode,
    run_length_decode,
)
from pdf_ray.pdfcore.lexer import Lexer


def escape_literal(data: bytes) -> bytes:
    """Write arbitrary bytes as a PDF literal string body."""
    out = bytearray()
    for b in data:
        if b in (0x28, 0x29, 0x5C):  # ( ) \
            out += b"\\" + bytes([b])
        else:
            out.append(b)
    return bytes(out)


@given(st.binary(max_size=300))
@settings(max_examples=200, deadline=None)
def test_literal_string_roundtrip(data):
    """Any byte payload written as an escaped literal string lexes back to
    the codepoint-per-byte str (the parity-defining mapping)."""
    lexed = Lexer(b"(" + escape_literal(data) + b")").lex_object()
    assert lexed.encode("latin-1") == data


@given(st.binary(max_size=200))
@settings(max_examples=100, deadline=None)
def test_hex_string_roundtrip(data):
    if data[:2] in (b"\xfe\xff",):  # FEFF prefix switches to UTF-16 lexing
        return
    lexed = Lexer(b"<" + data.hex().encode() + b">").lex_object()
    assert lexed.encode("latin-1") == data


@given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
@settings(max_examples=100, deadline=None)
def test_integer_roundtrip(n):
    assert Lexer(str(n).encode() + b" ").lex_object() == n


@given(st.floats(allow_nan=False, allow_infinity=False, width=32))
@settings(max_examples=100, deadline=None)
def test_real_roundtrip(x):
    s = f"{x:.6f}"
    assert abs(Lexer(s.encode() + b" ").lex_object() - float(s)) < 1e-9


@given(st.binary(max_size=2000))
@settings(max_examples=100, deadline=None)
def test_ascii85_roundtrip(data):
    assert ascii85_decode(_a85_encode(data), None) == data


@given(st.binary(max_size=2000))
@settings(max_examples=100, deadline=None)
def test_ascii_hex_roundtrip(data):
    assert ascii_hex_decode(data.hex().encode() + b">", None) == data


@given(st.binary(max_size=3000))
@settings(max_examples=60, deadline=None)
def test_lzw_roundtrip(data):
    assert lzw_decode(_lzw_encode(data), None) == data


@given(st.binary(max_size=2000))
@settings(max_examples=60, deadline=None)
def test_flate_roundtrip(data):
    assert flate_decode(zlib.compress(data), None) == data


@given(st.lists(st.tuples(st.booleans(), st.binary(min_size=1, max_size=20)),
                max_size=20))
@settings(max_examples=60, deadline=None)
def test_run_length_roundtrip(runs):
    """Encode literal/repeat runs per spec 7.4.5 and decode back."""
    enc = bytearray()
    expected = bytearray()
    for is_repeat, payload in runs:
        if is_repeat:
            count = min(len(payload) + 1, 128)
            enc.append(257 - count)
            enc.append(payload[0])
            expected += bytes([payload[0]]) * count
        else:
            chunk = payload[:128]
            enc.append(len(chunk) - 1)
            enc += chunk
            expected += chunk
    enc.append(128)  # EOD
    assert run_length_decode(bytes(enc), None) == bytes(expected)


@given(st.integers(min_value=1, max_value=24), st.integers(min_value=1, max_value=24),
       st.randoms())
@settings(max_examples=40, deadline=None)
def test_png_roundtrip(w, h, rnd):
    from pdf_ray.pdfcore.images import decode_png, encode_png

    pixels = bytes(rnd.randrange(256) for _ in range(w * h * 3))
    assert decode_png(encode_png(w, h, pixels)) == (w, h, pixels)


@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=60))
@settings(max_examples=100, deadline=None)
def test_show_text_end_to_end(text):
    """Arbitrary ASCII text through a full PDF build+extract roundtrip."""
    from pdf_ray.fixtures.builder import simple_page_pdf
    from pdf_ray.pdfcore.interp import extract_spans

    body = escape_literal(text.encode("latin-1"))
    pdf = simple_page_pdf(b"BT /F1 9 Tf 5 5 Td (" + body + b") Tj ET")
    spans, _ = extract_spans(pdf)
    assert spans == [("text", text, None, 0)]


# -- generative interpreter fuzz -------------------------------------------

_ascii_text = st.text(
    alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=24
)


@st.composite
def content_program(draw):
    """Random content stream + its expected span texts, built together."""
    ops: list[bytes] = []
    expected: list[str] = []
    n_segments = draw(st.integers(min_value=1, max_value=5))
    for _ in range(n_segments):
        if draw(st.booleans()):  # graphics noise between text objects
            ops.append(b"q 0.5 0 0 0.5 10 10 cm 1 0 0 RG 2 w "
                       b"5 5 100 50 re f Q")
        ops.append(b"BT /F1 10 Tf")
        n_shows = draw(st.integers(min_value=0, max_value=4))
        for _ in range(n_shows):
            kind = draw(st.integers(min_value=0, max_value=3))
            if kind == 0:
                t = draw(_ascii_text)
                ops.append(b"(" + escape_literal(t.encode("latin-1")) + b") Tj")
                expected.append(t)
            elif kind == 1:
                parts = draw(st.lists(_ascii_text, min_size=1, max_size=3))
                arr = b" ".join(
                    b"(" + escape_literal(p.encode("latin-1")) + b") "
                    + str(draw(st.integers(-500, 500))).encode()
                    for p in parts
                )
                ops.append(b"[" + arr + b"] TJ")
                expected.append("".join(parts))
            elif kind == 2:
                t = draw(_ascii_text)
                ops.append(b"14 TL (" + escape_literal(t.encode("latin-1")) + b") '")
                expected.append(t)
            else:  # positioning noise, no span
                ops.append(b"1 0 0 1 50 700 Tm 12 TL 2 Tc 1 Tw 99 Tz T*")
        ops.append(b"ET")
    return b" ".join(ops), expected


@given(content_program())
@settings(max_examples=150, deadline=None)
def test_random_content_streams(prog):
    from pdf_ray.fixtures.builder import simple_page_pdf
    from pdf_ray.pdfcore.interp import extract_spans

    content, expected = prog
    spans, _ = extract_spans(simple_page_pdf(content))
    assert spans == [
        ("text", t, None, i) for i, t in enumerate(expected)
    ]


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=200, deadline=2000)
def test_jpeg_decoder_never_hangs_on_garbage(data):
    from pdf_ray.pdfcore.jpeg import decode_jpeg

    try:
        decode_jpeg(b"\xff\xd8" + data)
    except Exception:
        pass  # any exception is fine — rows are contained; hangs are not


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=200, deadline=2000)
def test_ccitt_decoder_never_hangs_on_garbage(data):
    from pdf_ray.pdfcore.ccitt import ccitt_fax_decode

    for k in (-1, 0, 1):
        try:
            ccitt_fax_decode(data, {"K": k, "Columns": 64, "Rows": 16})
        except Exception:
            pass


@given(st.binary(min_size=0, max_size=512))
@settings(max_examples=200, deadline=2000)
def test_wav_decoder_never_hangs_on_garbage(data):
    from pdf_ray.pdfcore.wav import decode_wav

    try:
        decode_wav(b"RIFF\x00\x00\x00\x00WAVE" + data)
    except Exception:
        pass


@given(
    bits=st.lists(st.integers(0, 1), min_size=1, max_size=600),
    nctx=st.integers(1, 8),
)
@settings(max_examples=60, deadline=None)
def test_mq_coder_roundtrip_property(bits, nctx):
    """Any bit sequence over any context assignment must roundtrip
    through the MQ encoder/decoder pair (independent T.88 Annex E
    transcriptions)."""
    import numpy as np

    from pdf_ray.fixtures.jbig2enc import MQEncoder
    from pdf_ray.pdfcore.mq import MQDecoder, new_stats

    ctxs = [(i * 7) % nctx for i in range(len(bits))]
    idx = np.zeros(nctx, np.uint8)
    mps = np.zeros(nctx, np.uint8)
    enc = MQEncoder()
    for b, c in zip(bits, ctxs):
        enc.encode(int(b), int(c), idx, mps)
    data = enc.finish()
    stats = new_stats(nctx)
    dec = MQDecoder(data)
    assert [dec.decode(stats, int(c)) for c in ctxs] == bits


@given(
    vals=st.lists(
        st.one_of(
            st.integers(-5000, 5000),
            st.sampled_from([0, 3, 4, 19, 20, 83, 84, 339, 340, 4435,
                             4436, 100000, -4436, None]),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_jbig2_integer_coding_roundtrip_property(vals):
    """IAx integer encode/decode roundtrip across every range bucket
    boundary (T.88 Annex A), including OOB (None)."""
    from pdf_ray.fixtures.jbig2enc import IntEncoder, MQEncoder
    from pdf_ray.pdfcore.jbig2 import OOB, IntDecoder
    from pdf_ray.pdfcore.mq import MQDecoder

    enc = MQEncoder()
    ie = IntEncoder()
    for v in vals:
        ie.encode(enc, v)
    data = enc.finish()
    dec = MQDecoder(data)
    id_ = IntDecoder()
    got = [id_.decode(dec) for _ in vals]
    want = [OOB if v is None else v for v in vals]
    assert got == want


@given(
    w=st.integers(1, 24),
    h=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
    q=st.sampled_from([1, 7, 16]),
    al=st.integers(0, 2),
)
@settings(max_examples=15, deadline=None)
def test_progressive_jpeg_equals_sequential_property(w, h, seed, q, al):
    """Progressive and sequential encodings of the same image decode to
    identical pixels (same coefficients, same IDCT)."""
    import numpy as np

    from pdf_ray.fixtures.jpegenc import encode_jpeg, encode_jpeg_progressive
    from pdf_ray.pdfcore.jpeg import decode_jpeg

    img = np.random.RandomState(seed).randint(0, 256, (h, w), dtype=np.uint8)
    assert decode_jpeg(encode_jpeg_progressive(img, qtable=q, al=al)) == (
        decode_jpeg(encode_jpeg(img, qtable=q))
    )


@given(data=st.binary(min_size=0, max_size=400))
@settings(max_examples=120, deadline=None)
def test_interpreter_never_crashes_on_garbage_content(data):
    """Random bytes as a page content stream must either interpret or
    raise PdfParseError — never crash with another exception type or
    hang (row-level poison containment depends on this)."""
    from pdf_ray.fixtures.builder import simple_page_pdf
    from pdf_ray.pdfcore.interp import extract_spans
    from pdf_ray.pdfcore.objects import PdfParseError

    # keep the *document* well-formed; only the content stream is fuzzed
    pdf = simple_page_pdf(b"BT (ok) Tj ET")
    marker = b"BT (ok) Tj ET"
    assert marker in pdf
    fuzzed = pdf.replace(marker, data[:13].ljust(13, b" "), 1)
    try:
        extract_spans(fuzzed)
    except PdfParseError:
        pass


@given(
    ops=st.lists(
        st.sampled_from(
            [b"BT", b"ET", b"q", b"Q", b"(x) Tj", b"[(a) 5 (b)] TJ",
             b"1 0 0 1 5 5 cm", b"/F1 9 Tf", b"3 Tc", b"(y) '",
             b"1 2 (z) \"", b"7 8 Td", b"T*", b"BI /W 1 /H 1 ID \x00 EI",
             b"/MC BMC", b"EMC", b"9 9 m", b"f", b"<41> Tj"]
        ),
        min_size=0,
        max_size=25,
    )
)
@settings(max_examples=80, deadline=None)
def test_interpreter_operator_soup(ops):
    """Arbitrary sequences of real operators (possibly ill-nested BT/ET,
    q/Q, BMC/EMC) must interpret without crashing; emitted spans are
    always a subsequence of the Tj/TJ/'/\" payloads."""
    from pdf_ray.fixtures.builder import simple_page_pdf
    from pdf_ray.pdfcore.interp import extract_spans
    from pdf_ray.pdfcore.objects import PdfParseError

    content = b" ".join(ops)
    pdf = simple_page_pdf(content)
    try:
        spans, _ = extract_spans(pdf)
    except PdfParseError:
        return
    texts = [t for k, t, *_ in spans if k == "text"]
    assert all(t in ("x", "ab", "y", "z", "A", "a", "b") for t in texts)


@given(st.text(alphabet=" \t\r\nabcXYZ09", max_size=200))
@settings(max_examples=200, deadline=None)
def test_normalize_text_idempotent_and_canonical(t):
    """normalize is idempotent and collapses every ASCII-whitespace run."""
    import re

    ws = re.compile(r"[ \t\r\n]+")

    def norm(x):
        return ws.sub(" ", x.lower()).strip(" ")

    n1 = norm(t)
    assert norm(n1) == n1
    assert "  " not in n1 and "\t" not in n1 and "\n" not in n1
    assert n1 == n1.strip(" ")


@given(
    st.lists(st.integers(0, 30), min_size=1, max_size=3000),
    st.integers(2, 7),
)
@settings(max_examples=60, deadline=None)
def test_misra_gries_bound_random_streams(vals, n_shards):
    """On random sharded streams: kept estimates never exceed the truth,
    undercount by <= n/K, and every item with count > n/K survives."""
    from collections import Counter

    import numpy as np

    from pdf_ray.ops.sketches import MG_K, MisraGries

    arr = [str(v) for v in vals]
    exact = Counter(arr)
    merged = MisraGries()
    for shard in np.array_split(np.array(arr, dtype=object), n_shards):
        mg = MisraGries()
        mg.add_counts(Counter(shard.tolist()))
        merged.merge(MisraGries.frombytes(mg.tobytes()))
    bound = len(arr) / MG_K
    for tok, true in exact.items():
        if true > bound:
            assert tok in merged.counts
        if tok in merged.counts:
            assert merged.counts[tok] <= true
            assert true - merged.counts[tok] <= bound


@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_kmeans_assignment_tie_break(n, seed):
    """Exact-int argmin assignment: first-min tie-break == lowest cluster
    index, independent of duplicate centroids."""
    import numpy as np

    from pdf_ray.ops.cluster import _assign

    rng = np.random.RandomState(seed % 2**31)
    C = rng.randint(-5, 5, size=(4, 64)).astype(np.int64)
    C[2] = C[0]  # duplicate centroid -> ties must resolve to index 0
    Q = C[np.zeros(n, dtype=int)]
    a = _assign(Q, C)
    assert (a == 0).all()


@given(
    st.lists(
        st.lists(
            st.integers(min_value=0, max_value=(1 << 64) - 1), max_size=30
        ),
        max_size=6,
    ),
    st.randoms(),
)
@settings(max_examples=40, deadline=None)
def test_hll_merge_order_invariant(batches, rnd):
    """HLL registers are a max-lattice: merging per-batch sketches in ANY
    order yields identical registers (the property the fixed-B tree
    reduce in ops/sketches.py relies on)."""
    from pdf_ray.ops.sketches import Hll

    parts = []
    for b in batches:
        h = Hll()
        if b:
            h.add_hashes(np.array(b, dtype=np.uint64))
        parts.append(h.registers.copy())

    def merged(order):
        acc = Hll()
        for i in order:
            o = Hll()
            o.registers = parts[i].copy()
            acc.merge(o)
        return acc.registers

    order = list(range(len(parts)))
    a = merged(order)
    rnd.shuffle(order)
    b = merged(order)
    assert (a == b).all()


@given(
    st.lists(st.lists(st.text(min_size=1, max_size=6), max_size=30), max_size=6),
)
@settings(max_examples=40, deadline=None)
def test_cms_merge_is_linear(batches):
    """Count-min counts are element-wise sums, so any merge tree equals
    the flat single-sketch count — the tree reduce is bit-exact."""
    from pdf_ray.ops.sketches import Cms

    flat = Cms()
    parts = []
    for b in batches:
        c = Cms()
        if b:
            toks = np.array(b, dtype=object)
            ones = np.ones(len(b), dtype=np.int64)
            c.add(toks, ones)
            flat.add(toks, ones)
        parts.append(c)
    acc = Cms()
    # lopsided merge tree: ((p0+p1)+p2)...
    for p in parts:
        acc.merge(p)
    assert (acc.counts == flat.counts).all()
