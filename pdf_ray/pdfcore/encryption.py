"""PDF standard security handler: RC4, AES-128-CBC (V<=4, Algorithm 2 key
derivation, PDF 32000-1 §7.6.2-7.6.3; reference: src/encryption.rs:255-337,
wired at src/lib.rs:469-477) and AES-256 (V=5 R5/R6, ISO 32000-2
Algorithms 2.A/2.B — beyond the reference, which stops at AES-128).

RC4 is implemented from the classic KSA/PRGA description. AES-CBC (128-
and 256-bit keys) is OpenSSL's, through the ``cryptography`` package; the
MD5/SHA steps use ``hashlib``. Both ciphers are pinned by published test
vectors in tests/test_encryption.py (FIPS-197 appendices B and C, NIST
SP 800-38A F.2 CBC).
"""

from __future__ import annotations

import hashlib
import struct

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .objects import Name, PdfParseError, Ref, Stream

PAD = bytes(
    [
        0x28, 0xBF, 0x4E, 0x5E, 0x4E, 0x75, 0x8A, 0x41,
        0x64, 0x00, 0x4E, 0x56, 0xFF, 0xFA, 0x01, 0x08,
        0x2E, 0x2E, 0x00, 0xB6, 0xD0, 0x68, 0x3E, 0x80,
        0x2F, 0x0C, 0xA9, 0xFE, 0x64, 0x53, 0x69, 0x7A,
    ]
)


def rc4(key: bytes, data: bytes) -> bytes:
    s = list(range(256))
    j = 0
    klen = len(key)
    for i in range(256):
        j = (j + s[i] + key[i % klen]) & 0xFF
        s[i], s[j] = s[j], s[i]
    out = bytearray(len(data))
    i = j = 0
    for n, b in enumerate(data):
        i = (i + 1) & 0xFF
        j = (j + s[i]) & 0xFF
        s[i], s[j] = s[j], s[i]
        out[n] = b ^ s[(s[i] + s[j]) & 0xFF]
    return bytes(out)


# -- AES-CBC (OpenSSL, through the ``cryptography`` package) ---------------


def _cbc(key: bytes, iv: bytes) -> Cipher:
    # a PDF crypt filter's key comes from /Length, which a malformed
    # /Encrypt dict can set to anything; refuse it as a parse error
    if len(key) not in (16, 32):
        raise PdfParseError(f"bad AES key length {len(key)} (want 16 or 32 bytes)")
    return Cipher(algorithms.AES(key), modes.CBC(iv))


def _check_blocks(data: bytes) -> None:
    if len(data) % 16 != 0:
        raise PdfParseError("bad AES-CBC payload length")


def aes128_cbc_decrypt(key: bytes, data: bytes, strip_padding: bool = True) -> bytes:
    """Decrypt an AESV2/AESV3 string or stream: a 16-byte IV, then CBC
    blocks. A last byte of 1..16 strips that many bytes; the other pad
    bytes are not checked."""
    if len(data) % 16 != 0 or len(data) < 16:
        raise PdfParseError("bad AES-CBC payload length")
    dec = _cbc(key, data[:16]).decryptor()
    out = dec.update(data[16:]) + dec.finalize()
    if strip_padding and out:
        pad = out[-1]
        if 1 <= pad <= 16:
            out = out[:-pad]
    return out


def aes128_cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    """PKCS#7-pad ``data``, encrypt it and prepend ``iv`` (fixture
    generation)."""
    pad = 16 - len(data) % 16
    enc = _cbc(key, iv).encryptor()
    return iv + enc.update(data + bytes([pad]) * pad) + enc.finalize()


def aes_cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC encrypt: no padding, IV not prepended (Algorithm 2.B and
    UE/OE wrapping use exact-multiple-of-16 payloads)."""
    _check_blocks(data)
    enc = _cbc(key, iv).encryptor()
    return enc.update(data) + enc.finalize()


def aes_cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    _check_blocks(data)
    dec = _cbc(key, iv).decryptor()
    return dec.update(data) + dec.finalize()


# -- PDF 2.0 / AES-256 key derivation (Algorithms 2.A / 2.B) ----------------


def hash_2b(password: bytes, salt: bytes, udata: bytes = b"") -> bytes:
    """ISO 32000-2 Algorithm 2.B — the R6 hardened hash (iterated
    SHA-256/384/512 selected by an AES-CBC round). R5 files use the plain
    first SHA-256 (pass rounds=False via revision in the caller)."""
    k = hashlib.sha256(password + salt + udata).digest()
    i = 0
    while True:
        k1 = (password + k + udata) * 64
        e = aes_cbc_encrypt_nopad(k[:16], k[16:32], k1)
        mod = sum(e[:16]) % 3
        if mod == 0:
            k = hashlib.sha256(e).digest()
        elif mod == 1:
            k = hashlib.sha384(e).digest()
        else:
            k = hashlib.sha512(e).digest()
        i += 1
        if i >= 64 and e[-1] <= i - 32:
            break
    return k[:32]


def _r5plus_hash(password: bytes, salt: bytes, udata: bytes, revision: int) -> bytes:
    if revision >= 6:
        return hash_2b(password, salt, udata)
    return hashlib.sha256(password + salt + udata).digest()


# -- key derivation (Algorithm 2) -------------------------------------------


def _pad_password(pw: bytes) -> bytes:
    return (pw + PAD)[:32]


def compute_encryption_key(
    password: bytes,
    o_entry: bytes,
    p: int,
    file_id: bytes,
    key_bytes: int,
    revision: int,
    encrypt_metadata: bool = True,
) -> bytes:
    h = hashlib.md5()
    h.update(_pad_password(password))
    h.update(o_entry[:32])
    h.update(struct.pack("<i", p))
    h.update(file_id)
    if revision >= 4 and not encrypt_metadata:
        h.update(b"\xff\xff\xff\xff")
    key = h.digest()
    if revision >= 3:
        for _ in range(50):
            key = hashlib.md5(key[:key_bytes]).digest()
    return key[:key_bytes]


def compute_u_entry(key: bytes, revision: int, file_id: bytes) -> bytes:
    """Algorithm 4 (R2) / Algorithm 5 (R>=3)."""
    if revision == 2:
        return rc4(key, PAD)
    digest = hashlib.md5(PAD + file_id).digest()
    out = rc4(key, digest)
    for i in range(1, 20):
        step_key = bytes(b ^ i for b in key)
        out = rc4(step_key, out)
    return out + b"\x00" * 16


def object_key(file_key: bytes, num: int, gen: int, aes: bool) -> bytes:
    h = hashlib.md5()
    h.update(file_key)
    h.update(struct.pack("<i", num)[:3])
    h.update(struct.pack("<i", gen)[:2])
    if aes:
        h.update(b"sAlT")
    return h.digest()[: min(len(file_key) + 5, 16)]


class StandardSecurityHandler:
    """Decrypts strings and stream bytes given the /Encrypt dict and the
    first element of the trailer /ID (empty user password)."""

    def __init__(self, enc_dict: dict, file_id: bytes):
        filt = enc_dict.get("Filter")
        if str(filt) != "Standard":
            raise PdfParseError(f"unsupported security handler {filt!r}")
        self.v = enc_dict.get("V", 0)
        self.revision = enc_dict.get("R", 2)
        self.length_bytes = int(enc_dict.get("Length", 40)) // 8
        if self.v >= 4:
            # V>=4: stream and string crypt filters are tracked SEPARATELY
            # (PDF 32000-1 §7.6.5); StmF/StrF default to Identity, and
            # Identity means pass-through (never RC4-"decrypt" plaintext)
            cf = enc_dict.get("CF", {})

            def cfm_of(fname) -> str:
                fname = str(fname)
                if fname == "Identity":
                    return "Identity"
                default = "AESV3" if self.v == 5 else "V2"
                return str(cf.get(fname, {}).get("CFM", default))

            self.stm_cfm = cfm_of(enc_dict.get("StmF", "Identity"))
            self.str_cfm = cfm_of(enc_dict.get("StrF", "Identity"))
            if "AESV2" in (self.stm_cfm, self.str_cfm):
                self.length_bytes = 16
        else:
            self.stm_cfm = self.str_cfm = "V2"
        o_entry = enc_dict.get("O", "")
        self.o_bytes = bytes(ord(c) & 0xFF for c in o_entry)
        self.u_bytes = bytes(ord(c) & 0xFF for c in enc_dict.get("U", ""))
        self.p = int(enc_dict.get("P", -1))
        if self.v == 5:
            # AES-256 (R5 legacy / R6 PDF 2.0): the file key is unwrapped
            # from UE with the intermediate key derived from the empty
            # user password (ISO 32000-2 Algorithm 2.A; neither V=5
            # revision exists in the reference, src/encryption.rs).
            # With OpenSSL AES an R6 derivation costs a few ms per
            # document, so nothing is cached across documents.
            ue = bytes(ord(c) & 0xFF for c in enc_dict.get("UE", ""))
            if len(self.u_bytes) < 48 or len(ue) != 32:
                raise PdfParseError("bad V5 /U or /UE entry")
            vsalt = self.u_bytes[32:40]
            ksalt = self.u_bytes[40:48]
            if _r5plus_hash(b"", vsalt, b"", self.revision) != self.u_bytes[:32]:
                raise PdfParseError("encrypted document requires a password")
            ik = _r5plus_hash(b"", ksalt, b"", self.revision)
            self.file_key = aes_cbc_decrypt_nopad(ik, b"\x00" * 16, ue)
        else:
            self.file_key = compute_encryption_key(
                b"",  # empty user password
                self.o_bytes,
                self.p,
                file_id,
                self.length_bytes,
                self.revision,
            )

    def decrypt_bytes(self, data: bytes, ref: Ref, cfm: str) -> bytes:
        if cfm == "Identity":
            return data
        if cfm == "AESV3":
            # AES-256 uses the file key directly — no per-object salt
            return aes128_cbc_decrypt(self.file_key, data)
        aes = cfm == "AESV2"
        key = object_key(self.file_key, ref.num, ref.gen, aes)
        if aes:
            return aes128_cbc_decrypt(key, data)
        return rc4(key, data)

    def decrypt_object(self, obj, ref: Ref):
        """Recursively decrypt strings and stream bytes of one indirect
        object (names/numbers are never encrypted). Streams use StmF's
        crypt filter, strings StrF's."""
        if isinstance(obj, Stream):
            return Stream(
                self.decrypt_object(obj.dict, ref),
                self.decrypt_bytes(obj.raw, ref, self.stm_cfm),
            )
        if isinstance(obj, Name):
            return obj
        if isinstance(obj, str):
            raw = bytes(ord(c) & 0xFF for c in obj)
            return self.decrypt_bytes(raw, ref, self.str_cfm).decode("latin-1")
        if isinstance(obj, list):
            return [self.decrypt_object(x, ref) for x in obj]
        if isinstance(obj, dict):
            return {k: self.decrypt_object(v, ref) for k, v in obj.items()}
        return obj
