"""Frozen copy of the pure-Python AES-CBC that ``pdf_ray.pdfcore.encryption``
used before it moved to OpenSSL: the FIPS-197 cipher (list-of-lists block
functions and the T-table forward path) and its four CBC functions. It is
the oracle of ``tests/test_aes_diff.py``; nothing in ``pdf_ray/`` imports it.
"""

from pdf_ray.pdfcore.objects import PdfParseError

# -- AES-128 inverse cipher (FIPS-197) --------------------------------------

_SBOX = [
    0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B,
    0xFE, 0xD7, 0xAB, 0x76, 0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0,
    0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0, 0xB7, 0xFD, 0x93, 0x26,
    0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
    0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2,
    0xEB, 0x27, 0xB2, 0x75, 0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0,
    0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84, 0x53, 0xD1, 0x00, 0xED,
    0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
    0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F,
    0x50, 0x3C, 0x9F, 0xA8, 0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5,
    0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2, 0xCD, 0x0C, 0x13, 0xEC,
    0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
    0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14,
    0xDE, 0x5E, 0x0B, 0xDB, 0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C,
    0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79, 0xE7, 0xC8, 0x37, 0x6D,
    0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
    0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F,
    0x4B, 0xBD, 0x8B, 0x8A, 0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E,
    0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E, 0xE1, 0xF8, 0x98, 0x11,
    0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
    0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F,
    0xB0, 0x54, 0xBB, 0x16,
]
_INV_SBOX = [0] * 256
for _i, _v in enumerate(_SBOX):
    _INV_SBOX[_v] = _i
_RCON = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36]


def _xtime(a: int) -> int:
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    p = 0
    for _ in range(8):
        if b & 1:
            p ^= a
        b >>= 1
        a = _xtime(a)
    return p


def _expand_key(key: bytes) -> list[list[int]]:
    """FIPS-197 key expansion, any Nk (AES-128: 44 words, AES-256: 60)."""
    nk = len(key) // 4
    rounds = nk + 6
    words = [list(key[i : i + 4]) for i in range(0, len(key), 4)]
    for i in range(nk, 4 * (rounds + 1)):
        t = list(words[i - 1])
        if i % nk == 0:
            t = t[1:] + t[:1]
            t = [_SBOX[b] for b in t]
            t[0] ^= _RCON[i // nk - 1]
        elif nk > 6 and i % nk == 4:
            t = [_SBOX[b] for b in t]
        words.append([a ^ b for a, b in zip(words[i - nk], t)])
    return words


def _aes_decrypt_block(block: bytes, round_keys: list[list[int]]) -> bytes:
    # state in column-major order per FIPS-197; round count from key size
    rounds = len(round_keys) // 4 - 1
    s = [[block[r + 4 * c] for c in range(4)] for r in range(4)]

    def add_round_key(rnd):
        for c in range(4):
            w = round_keys[4 * rnd + c]
            for r in range(4):
                s[r][c] ^= w[r]

    def inv_shift_rows():
        for r in range(1, 4):
            s[r] = s[r][-r:] + s[r][:-r]

    def inv_sub_bytes():
        for r in range(4):
            for c in range(4):
                s[r][c] = _INV_SBOX[s[r][c]]

    def inv_mix_columns():
        for c in range(4):
            a = [s[r][c] for r in range(4)]
            s[0][c] = _gmul(a[0], 14) ^ _gmul(a[1], 11) ^ _gmul(a[2], 13) ^ _gmul(a[3], 9)
            s[1][c] = _gmul(a[0], 9) ^ _gmul(a[1], 14) ^ _gmul(a[2], 11) ^ _gmul(a[3], 13)
            s[2][c] = _gmul(a[0], 13) ^ _gmul(a[1], 9) ^ _gmul(a[2], 14) ^ _gmul(a[3], 11)
            s[3][c] = _gmul(a[0], 11) ^ _gmul(a[1], 13) ^ _gmul(a[2], 9) ^ _gmul(a[3], 14)

    add_round_key(rounds)
    for rnd in range(rounds - 1, 0, -1):
        inv_shift_rows()
        inv_sub_bytes()
        add_round_key(rnd)
        inv_mix_columns()
    inv_shift_rows()
    inv_sub_bytes()
    add_round_key(0)
    return bytes(s[r][c] for c in range(4) for r in range(4))


def aes128_cbc_decrypt(key: bytes, data: bytes, strip_padding: bool = True) -> bytes:
    if len(data) % 16 != 0 or len(data) < 16:
        raise PdfParseError("bad AES-CBC payload length")
    rk = _expand_key(key)
    iv = data[:16]
    out = bytearray()
    prev = iv
    for i in range(16, len(data), 16):
        block = data[i : i + 16]
        plain = _aes_decrypt_block(block, rk)
        out += bytes(p ^ v for p, v in zip(plain, prev))
        prev = block
    if strip_padding and out:
        pad = out[-1]
        if 1 <= pad <= 16:
            out = out[:-pad]
    return bytes(out)


# -- AES-128 forward cipher (fixture generation only) -----------------------


def _aes_encrypt_block(block: bytes, round_keys: list[list[int]]) -> bytes:
    rounds = len(round_keys) // 4 - 1
    s = [[block[r + 4 * c] for c in range(4)] for r in range(4)]

    def add_round_key(rnd):
        for c in range(4):
            w = round_keys[4 * rnd + c]
            for r in range(4):
                s[r][c] ^= w[r]

    def shift_rows():
        for r in range(1, 4):
            s[r] = s[r][r:] + s[r][:r]

    def sub_bytes():
        for r in range(4):
            for c in range(4):
                s[r][c] = _SBOX[s[r][c]]

    def mix_columns():
        for c in range(4):
            a = [s[r][c] for r in range(4)]
            s[0][c] = _gmul(a[0], 2) ^ _gmul(a[1], 3) ^ a[2] ^ a[3]
            s[1][c] = a[0] ^ _gmul(a[1], 2) ^ _gmul(a[2], 3) ^ a[3]
            s[2][c] = a[0] ^ a[1] ^ _gmul(a[2], 2) ^ _gmul(a[3], 3)
            s[3][c] = _gmul(a[0], 3) ^ a[1] ^ a[2] ^ _gmul(a[3], 2)

    add_round_key(0)
    for rnd in range(1, rounds):
        sub_bytes()
        shift_rows()
        mix_columns()
        add_round_key(rnd)
    sub_bytes()
    shift_rows()
    add_round_key(rounds)
    return bytes(s[r][c] for c in range(4) for r in range(4))


def aes128_cbc_encrypt(key: bytes, iv: bytes, data: bytes) -> bytes:
    pad = 16 - len(data) % 16
    data = data + bytes([pad]) * pad
    rk = _expand_key(key)
    out = bytearray(iv)
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(p ^ v for p, v in zip(data[i : i + 16], prev))
        enc = _aes_encrypt_block(block, rk)
        out += enc
        prev = enc
    return bytes(out)


# T-table forward cipher: the R6 Algorithm-2.B hash encrypts ~25k blocks
# per derivation, so the list-of-lists reference implementation (5+ s per
# hash) needs a fast path. Standard Te-table construction (one round =
# four table lookups + xor per column); verified against the reference
# implementation and the FIPS-197 vectors in tests.
_TE0 = []
for _x in range(256):
    _s = _SBOX[_x]
    _s2 = _xtime(_s)
    _TE0.append((_s2 << 24) | (_s << 16) | (_s << 8) | (_s ^ _s2))
_TE1 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE0]
_TE2 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE1]
_TE3 = [((t >> 8) | ((t & 0xFF) << 24)) & 0xFFFFFFFF for t in _TE2]


def _expand_key_words(key: bytes) -> list[int]:
    return [
        (w[0] << 24) | (w[1] << 16) | (w[2] << 8) | w[3]
        for w in _expand_key(key)
    ]


def _aes_encrypt_block_fast(block: bytes, rk: list[int]) -> bytes:
    rounds = len(rk) // 4 - 1
    s0 = int.from_bytes(block[0:4], "big") ^ rk[0]
    s1 = int.from_bytes(block[4:8], "big") ^ rk[1]
    s2 = int.from_bytes(block[8:12], "big") ^ rk[2]
    s3 = int.from_bytes(block[12:16], "big") ^ rk[3]
    te0, te1, te2, te3 = _TE0, _TE1, _TE2, _TE3
    for r in range(1, rounds):
        k = 4 * r
        t0 = (te0[s0 >> 24] ^ te1[(s1 >> 16) & 0xFF]
              ^ te2[(s2 >> 8) & 0xFF] ^ te3[s3 & 0xFF] ^ rk[k])
        t1 = (te0[s1 >> 24] ^ te1[(s2 >> 16) & 0xFF]
              ^ te2[(s3 >> 8) & 0xFF] ^ te3[s0 & 0xFF] ^ rk[k + 1])
        t2 = (te0[s2 >> 24] ^ te1[(s3 >> 16) & 0xFF]
              ^ te2[(s0 >> 8) & 0xFF] ^ te3[s1 & 0xFF] ^ rk[k + 2])
        t3 = (te0[s3 >> 24] ^ te1[(s0 >> 16) & 0xFF]
              ^ te2[(s1 >> 8) & 0xFF] ^ te3[s2 & 0xFF] ^ rk[k + 3])
        s0, s1, s2, s3 = t0, t1, t2, t3
    k = 4 * rounds
    sb = _SBOX
    o0 = ((sb[s0 >> 24] << 24) | (sb[(s1 >> 16) & 0xFF] << 16)
          | (sb[(s2 >> 8) & 0xFF] << 8) | sb[s3 & 0xFF]) ^ rk[k]
    o1 = ((sb[s1 >> 24] << 24) | (sb[(s2 >> 16) & 0xFF] << 16)
          | (sb[(s3 >> 8) & 0xFF] << 8) | sb[s0 & 0xFF]) ^ rk[k + 1]
    o2 = ((sb[s2 >> 24] << 24) | (sb[(s3 >> 16) & 0xFF] << 16)
          | (sb[(s0 >> 8) & 0xFF] << 8) | sb[s1 & 0xFF]) ^ rk[k + 2]
    o3 = ((sb[s3 >> 24] << 24) | (sb[(s0 >> 16) & 0xFF] << 16)
          | (sb[(s1 >> 8) & 0xFF] << 8) | sb[s2 & 0xFF]) ^ rk[k + 3]
    return (
        o0.to_bytes(4, "big") + o1.to_bytes(4, "big")
        + o2.to_bytes(4, "big") + o3.to_bytes(4, "big")
    )


def aes_cbc_encrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    """Raw CBC encrypt: no padding, IV not prepended (Algorithm 2.B and
    UE/OE wrapping use exact-multiple-of-16 payloads)."""
    rk = _expand_key_words(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = bytes(p ^ v for p, v in zip(data[i : i + 16], prev))
        enc = _aes_encrypt_block_fast(block, rk)
        out += enc
        prev = enc
    return bytes(out)


def aes_cbc_decrypt_nopad(key: bytes, iv: bytes, data: bytes) -> bytes:
    rk = _expand_key(key)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), 16):
        block = data[i : i + 16]
        plain = _aes_decrypt_block(block, rk)
        out += bytes(p ^ v for p, v in zip(plain, prev))
        prev = block
    return bytes(out)
