"""Crypto primitives pinned by published vectors, plus the encrypted
fixtures end-to-end (empty user password)."""

import pytest

from pdf_ray.pdfcore.encryption import (
    aes128_cbc_decrypt,
    aes128_cbc_encrypt,
    aes_cbc_decrypt_nopad,
    aes_cbc_encrypt_nopad,
    rc4,
)
from pdf_ray.pdfcore.objects import PdfParseError

ZERO_IV = bytes(16)


def assert_one_block(key: bytes, plain: bytes, cipher: bytes) -> None:
    """One-block CBC with a zero IV is the bare block cipher, both ways."""
    assert aes_cbc_encrypt_nopad(key, ZERO_IV, plain) == cipher
    assert aes_cbc_decrypt_nopad(key, ZERO_IV, cipher) == plain
    assert aes128_cbc_decrypt(key, ZERO_IV + cipher, strip_padding=False) == plain


def test_rc4_classic_vectors():
    # well-known RC4 test vectors (e.g. Wikipedia / original posting)
    assert rc4(b"Key", b"Plaintext") == bytes.fromhex("bbf316e8d940af0ad3")
    assert rc4(b"Wiki", b"pedia") == bytes.fromhex("1021bf0420")
    assert rc4(b"Secret", b"Attack at dawn") == bytes.fromhex(
        "45a01f645fc35b383552544b9bf5"
    )


def test_rc4_is_involutive():
    key = b"\x01\x02\x03\x04\x05"
    data = bytes(range(256))
    assert rc4(key, rc4(key, data)) == data


def test_aes128_fips197_vector():
    # FIPS-197 Appendix B
    key = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
    plain = bytes.fromhex("3243f6a8885a308d313198a2e0370734")
    cipher = bytes.fromhex("3925841d02dc09fbdc118597196a0b32")
    assert_one_block(key, plain, cipher)
    # FIPS-197 Appendix C.1
    assert_one_block(
        bytes(range(16)),
        bytes.fromhex("00112233445566778899aabbccddeeff"),
        bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a"),
    )


# NIST SP 800-38A F.2: CBC-AES128 (F.2.1 encrypt / F.2.2 decrypt) and
# CBC-AES256 (F.2.5 / F.2.6), one IV and plaintext, four blocks
SP800_38A_IV = bytes(range(16))
SP800_38A_PLAIN = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
SP800_38A_CBC = {
    "2b7e151628aed2a6abf7158809cf4f3c": (
        "7649abac8119b246cee98e9b12e9197d"
        "5086cb9b507219ee95db113a917678b2"
        "73bed6b8e3c1743b7116e69e22229516"
        "3ff1caa1681fac09120eca307586e1a7"
    ),
    "603deb1015ca71be2b73aef0857d7781"
    "1f352c073b6108d72d9810a30914dff4": (
        "f58c4c04d6e5f1ba779eabfb5f7bfbd6"
        "9cfc4e967edb808d679f777bc6702c7d"
        "39f23369a9d9bacfa530e26304231461"
        "b2eb05e2c39be9fcda6c19078c6a9d1b"
    ),
}


@pytest.mark.parametrize("key_hex", list(SP800_38A_CBC), ids=["aes128", "aes256"])
def test_aes_cbc_sp800_38a_vectors(key_hex):
    key = bytes.fromhex(key_hex)
    iv, plain = SP800_38A_IV, SP800_38A_PLAIN
    cipher = bytes.fromhex(SP800_38A_CBC[key_hex])
    # F.2.1 / F.2.5
    assert aes_cbc_encrypt_nopad(key, iv, plain) == cipher
    # the padded form: the same four blocks, then one full pad block
    assert aes128_cbc_encrypt(key, iv, plain)[: 16 + len(cipher)] == iv + cipher
    # F.2.2 / F.2.6
    assert aes_cbc_decrypt_nopad(key, iv, cipher) == plain
    assert aes128_cbc_decrypt(key, iv + cipher, strip_padding=False) == plain


def test_aes_cbc_roundtrip():
    key = bytes(range(16))
    iv = bytes(range(16, 32))
    for payload in (b"", b"x", b"exactly 16 bytes", b"a longer payload spanning blocks!"):
        enc = aes128_cbc_encrypt(key, iv, payload)
        assert aes128_cbc_decrypt(key, enc) == payload


def test_encrypted_fixtures_extract():
    from pdf_ray.fixtures.corpus import FIXTURES
    from pdf_ray.pdfcore.interp import extract_spans

    for name in ("f22", "f23"):
        pdf, golden = FIXTURES[name]()
        spans, _ = extract_spans(pdf)
        assert spans == golden, name


def test_encrypted_string_decryption():
    """A literal string OUTSIDE any stream must be decrypted with the
    string filter (here same as stream filter)."""
    from pdf_ray.fixtures.corpus import _encrypted_fixture
    from pdf_ray.pdfcore.document import Document

    pdf, _ = _encrypted_fixture(aes=False)
    doc = Document(pdf)
    assert doc.security is not None
    # page content already proves stream decryption; check the key length
    assert len(doc.security.file_key) == 5


def test_v4_identity_stmf_passthrough():
    """StmF=Identity must pass stream bytes through untouched while
    StrF=StdCF still decrypts strings (separate crypt filters)."""
    from pdf_ray.pdfcore.encryption import StandardSecurityHandler

    enc = {
        "Filter": "Standard",
        "V": 4,
        "R": 4,
        "Length": 128,
        "CF": {"StdCF": {"CFM": "V2", "Length": 16}},
        "StmF": "Identity",
        "StrF": "StdCF",
        "O": "x" * 32,
        "U": "y" * 32,
        "P": -4,
    }
    h = StandardSecurityHandler(enc, b"fileid")
    assert h.stm_cfm == "Identity"
    assert h.str_cfm == "V2"

    class Ref:
        num, gen = 7, 0

    plain = b"stream bytes stay as-is"
    assert h.decrypt_bytes(plain, Ref, h.stm_cfm) == plain
    assert h.decrypt_bytes(plain, Ref, h.str_cfm) != plain


def test_aes256_fips_c3_vector():
    assert_one_block(
        bytes(range(32)),
        bytes.fromhex("00112233445566778899aabbccddeeff"),
        bytes.fromhex("8ea2b7ca516745bfeafc49904b496089"),  # FIPS-197 C.3
    )


@pytest.mark.parametrize("key_len", [0, 5, 15, 24, 33])
def test_aes_refuses_bad_key_length(key_len):
    key = bytes(key_len)
    msg = f"bad AES key length {key_len} \\(want 16 or 32 bytes\\)"
    for run in (
        lambda: aes128_cbc_decrypt(key, bytes(32)),
        lambda: aes128_cbc_encrypt(key, ZERO_IV, b"x"),
        lambda: aes_cbc_encrypt_nopad(key, ZERO_IV, bytes(16)),
        lambda: aes_cbc_decrypt_nopad(key, ZERO_IV, bytes(16)),
    ):
        with pytest.raises(PdfParseError, match=msg):
            run()


@pytest.mark.parametrize("n", [1, 15, 17, 33])
def test_aes_nopad_refuses_partial_blocks(n):
    for run in (aes_cbc_encrypt_nopad, aes_cbc_decrypt_nopad):
        with pytest.raises(PdfParseError, match="bad AES-CBC payload length"):
            run(bytes(16), ZERO_IV, bytes(n))


def test_malformed_aesv3_key_length_is_an_error_row():
    """``V 4`` with ``/CFM /AESV3`` and ``/Length 40`` gives the AESV3
    filter a 5-byte file key. The doc becomes an error row naming the key
    length, not an ``IndexError`` or OpenSSL's ``ValueError``."""
    import pyarrow as pa

    from pdf_ray.fixtures.corpus import PdfBuilder
    from pdf_ray.schema import DOCS
    from pdf_ray.stages.extract import ExtractStage

    b = PdfBuilder()
    b.add(1, b"<< /Type /Catalog /Pages 2 0 R >>")
    b.add(2, b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>")
    b.add(3, b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] /Contents 4 0 R >>")
    b.add(4, b"<< /Length 32 >>\nstream\n" + bytes(32) + b"\nendstream")
    b.add(
        5,
        b"<< /Filter /Standard /V 4 /R 4 /Length 40 "
        b"/CF << /StdCF << /CFM /AESV3 >> >> /StmF /StdCF /StrF /StdCF "
        b"/O <" + b"00" * 32 + b"> /U <" + b"00" * 32 + b"> /P -4 >>",
    )
    pdf = b.build(1, extra_trailer=b"/Encrypt 5 0 R /ID [<00> <00>] ")
    span = {"kind": "media", "text": None, "media_ref": "pdf://bad-key", "offset": 0}
    docs = pa.Table.from_pylist([{"doc_id": "bad-key", "spans": [span]}], schema=DOCS)
    out = ExtractStage(payloads={"pdf://bad-key": pdf})(docs).to_pylist()
    assert [(r["status"], r["error"], r["n_spans"]) for r in out] == [
        ("error", "PdfParseError: bad AES key length 5 (want 16 or 32 bytes)", 0)
    ]


def test_v5_r6_fixture_roundtrip():
    from pdf_ray.fixtures.corpus import f30_encrypted_aes256
    from pdf_ray.pdfcore.document import Document
    from pdf_ray.pdfcore.interp import Interpreter

    pdf, golden = f30_encrypted_aes256()
    doc = Document(pdf)
    interp = Interpreter(doc)
    interp.run()
    assert interp.spans == [("text", "AES-256 text", None)]


def test_v5_wrong_password_raises():
    import pytest

    from pdf_ray.fixtures.corpus import f30_encrypted_aes256
    from pdf_ray.pdfcore.document import Document
    from pdf_ray.pdfcore.objects import PdfParseError

    pdf, _ = f30_encrypted_aes256()
    # corrupt the validation hash inside /U (first hex digit pair of <U>)
    import re

    m = re.search(rb"/U <([0-9a-f]{96})>", pdf)
    assert m
    u = bytearray(m.group(1))
    u[0:2] = b"00" if u[0:2] != b"00" else b"ff"
    broken = pdf[: m.start(1)] + bytes(u) + pdf[m.end(1) :]
    with pytest.raises(PdfParseError):
        Document(broken)


def test_hash_2b_deterministic_and_sensitive():
    from pdf_ray.pdfcore.encryption import hash_2b

    a = hash_2b(b"", b"saltsalt")
    assert len(a) == 32
    assert a == hash_2b(b"", b"saltsalt")
    assert a != hash_2b(b"", b"SALTSALT")
    assert a != hash_2b(b"x", b"saltsalt")


def test_hash_2b_known_answers():
    """Algorithm 2.B outputs computed with the pure-Python AES this
    module used before OpenSSL."""
    from pdf_ray.pdfcore.encryption import hash_2b

    assert hash_2b(b"", b"saltsalt").hex() == (
        "f383e1cdcd8e7e67f45a599473d3f5a7bd181c381364391074cafe0713e3331d"
    )
    assert hash_2b(b"", bytes(8)).hex() == (
        "439feba099a63d0d035a1e5fb67ff307329189584956425aff2d3bd3d15edc60"
    )
