"""Loader of the compiled MQ kernel (``mq.c``).

``mq.c`` holds the T.88 Annex E MQ arithmetic decoder and the two
per-pixel loops that drive it: JPX tier-1 code-block decoding
(``t1_decode_cblk``) and JBIG2 generic-region decoding
(``mq_generic_region``). Python callers that decode single symbols
(integers, symbol IDs, refinement pixels) use the per-bit entry
``MQDecoder.decode`` on the same C state.

The kernel is built with cffi and the system C compiler on first import,
by ``kernels.build`` (content-hashed name, built once under a lock,
``ImportError`` naming what is missing; there is no Python fallback).

``python -m pdf_ray.pdfcore.mq`` builds the kernel and prints its path.
"""

from __future__ import annotations

from .kernels import Kernel, build, load

CDEF = """
typedef struct { ...; } mq_t;
extern const uint16_t MQ_QE[47][4];
void mq_init(mq_t *m, const uint8_t *data, size_t len);
int mq_decode(mq_t *m, uint8_t *stats, int cx);
void mq_generic_region(mq_t *m, uint8_t *stats, uint8_t *out, int w, int h,
                       const int *tx, const int *ty, int n, int tpgd_ctx,
                       const uint8_t *skip);
int t1_decode_cblk(const uint8_t *data, const size_t *seg_len, int nsegs,
                   int w, int h, int numbps, int npasses,
                   const uint8_t *zc, int cbstyle, int roi,
                   int64_t *out, ptrdiff_t stride);
"""

KERNEL = Kernel("mq", CDEF)

_kernel = load(build(KERNEL))
ffi, lib = _kernel.ffi, _kernel.lib

# T.88 Table E.1 as (Qe, NMPS, NLPS, SWITCH), read from the kernel's table
QE = [tuple(row) for row in lib.MQ_QE]


def new_stats(n: int):
    """``n`` zeroed adaptive context states (one byte each, C-owned)."""
    return ffi.new("uint8_t[]", n)


class MQDecoder:
    """One MQ decoder state over ``data``. ``decode(stats, cx)`` returns
    the next bit in context ``cx`` of ``stats`` (from ``new_stats``)."""

    __slots__ = ("state", "_buf")

    def __init__(self, data):
        self._buf = ffi.from_buffer("uint8_t[]", data)  # keeps data alive
        self.state = ffi.new("mq_t *")
        lib.mq_init(self.state, self._buf, len(self._buf))

    def decode(self, stats, cx: int) -> int:
        return lib.mq_decode(self.state, stats, cx)


if __name__ == "__main__":
    print(build(KERNEL))
