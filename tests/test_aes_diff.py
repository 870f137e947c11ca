"""Differential test of the OpenSSL AES-CBC functions against the
pure-Python cipher they replaced, frozen in ``tests/reference_aes.py``.

For generated 16- and 32-byte keys, IVs, payload lengths and padding
bytes, all four public CBC functions must return byte-equal output, and
``aes128_cbc_decrypt`` must raise the same ``PdfParseError`` message for
payloads that are too short or not a multiple of 16 bytes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from pdf_ray.pdfcore import encryption as enc
from pdf_ray.pdfcore.objects import PdfParseError

from . import reference_aes as ref

keys = st.sampled_from([16, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
ivs = st.binary(min_size=16, max_size=16)
blocks = st.integers(0, 5).flatmap(
    lambda n: st.binary(min_size=16 * n, max_size=16 * n)
)


def outcome(run):
    """``("ok", value)`` or ``("raise", class, message)``."""
    try:
        return ("ok", run())
    except Exception as e:
        return ("raise", type(e), str(e))


@settings(max_examples=150, deadline=None)
@given(keys, ivs, st.binary(max_size=80))
def test_padded_encrypt_matches(key, iv, data):
    assert enc.aes128_cbc_encrypt(key, iv, data) == ref.aes128_cbc_encrypt(
        key, iv, data
    )


@settings(max_examples=150, deadline=None)
@given(keys, ivs, blocks)
def test_nopad_encrypt_matches(key, iv, data):
    assert enc.aes_cbc_encrypt_nopad(key, iv, data) == ref.aes_cbc_encrypt_nopad(
        key, iv, data
    )


@settings(max_examples=150, deadline=None)
@given(keys, ivs, blocks)
def test_nopad_decrypt_matches(key, iv, data):
    assert enc.aes_cbc_decrypt_nopad(key, iv, data) == ref.aes_cbc_decrypt_nopad(
        key, iv, data
    )


@settings(max_examples=50, deadline=None)
@given(keys, ivs, st.binary(max_size=63), st.integers(0, 255), st.booleans())
def test_decrypt_padding_strip_matches(key, iv, body, extra_pad, strip):
    """Plaintexts ending in every pad byte around the 1..16 strip range,
    plus one drawn byte, valid PKCS#7 or not: both strip the last ``pad``
    bytes exactly when ``1 <= pad <= 16``."""
    for pad in [*range(18), extra_pad]:
        plain = body + bytes(-(len(body) + 1) % 16) + bytes([pad])
        data = iv + ref.aes_cbc_encrypt_nopad(key, iv, plain)
        assert enc.aes128_cbc_decrypt(key, data, strip) == ref.aes128_cbc_decrypt(
            key, data, strip
        )


@settings(max_examples=150, deadline=None)
@given(keys, st.binary(max_size=100), st.booleans())
def test_decrypt_any_payload_matches(key, data, strip):
    """Random payloads: equal plaintext, or the same ``PdfParseError`` for
    a payload shorter than one block or not a multiple of 16 bytes."""
    got = outcome(lambda: enc.aes128_cbc_decrypt(key, data, strip))
    want = outcome(lambda: ref.aes128_cbc_decrypt(key, data, strip))
    assert got == want
    if len(data) < 16 or len(data) % 16:
        assert want == ("raise", PdfParseError, "bad AES-CBC payload length")
