"""Loader of the compiled MQ kernel (``mq.c``).

``mq.c`` holds the T.88 Annex E MQ arithmetic decoder and the two
per-pixel loops that drive it: JPX tier-1 code-block decoding
(``t1_decode_cblk``) and JBIG2 generic-region decoding
(``mq_generic_region``). Python callers that decode single symbols
(integers, symbol IDs, refinement pixels) use the per-bit entry
``MQDecoder.decode`` on the same C state.

The extension is built with cffi and the system C compiler on first
import. Its file name carries a hash of the C source, the declarations,
the compiler flags and the Python ABI, so an edited source or another
interpreter never loads a stale build. It goes in this package's
``__pycache__/`` (or a per-user temp dir when that is not writable) and
is published by tmp + ``os.replace`` under an ``fcntl`` lock, so
concurrent worker processes build it once and never see a partial file.
Without a compiler or the Python headers the import fails with an
``ImportError`` naming what is missing; there is no Python fallback.

``python -m pdf_ray.pdfcore.mq`` builds the kernel and prints its path.
"""

from __future__ import annotations

import fcntl
import hashlib
import importlib.machinery
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import tempfile

import cffi
from cffi.recompiler import make_c_source

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

CFLAGS = ("-O2", "-fPIC", "-shared", "-std=c99", "-fno-strict-aliasing")

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mq.c")


def _module_name(cflags) -> str:
    with open(_SOURCE, "rb") as f:
        src = f.read()
    h = hashlib.sha256(src)
    for part in (CDEF, " ".join(cflags), sys.implementation.cache_tag,
                 sysconfig.get_config_var("EXT_SUFFIX") or "",
                 cffi.__version__):
        h.update(b"\0" + part.encode())
    return "_mq_" + h.hexdigest()[:16]


def _compiler() -> list[str]:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc") or ["cc"]
    if shutil.which(cc[0]) is None:
        raise ImportError(
            f"pdf_ray.pdfcore.mq: no C compiler ({cc[0]!r} not found); "
            "the MQ kernel needs gcc, cffi and the Python headers"
        )
    return cc


def _compile(name: str, dest: str, cflags) -> None:
    """Compile the kernel as extension module ``name`` into ``dest``."""
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise ImportError(
            f"pdf_ray.pdfcore.mq: no Python headers (Python.h) in {include}; "
            "the MQ kernel needs gcc, cffi and the Python headers"
        )
    cc = _compiler()
    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    with open(_SOURCE) as f:
        src = f.read()
    with tempfile.TemporaryDirectory(prefix="pdf_ray_mq_") as tmp:
        c_file = os.path.join(tmp, name + ".c")
        make_c_source(ffi, name, src, c_file)
        cmd = [*cc, *cflags, f"-I{include}", c_file, "-o", dest]
        r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        raise ImportError(
            f"pdf_ray.pdfcore.mq: building the MQ kernel failed:\n"
            f"{' '.join(cmd)}\n{r.stderr}"
        )


def cache_dir() -> str:
    """Where the kernel is built: ``__pycache__/`` beside this module, or
    a per-user temp dir when that is not writable."""
    d = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    try:
        os.makedirs(d, exist_ok=True)
        if os.access(d, os.W_OK):
            return d
    except OSError:
        pass
    d = os.path.join(tempfile.gettempdir(), f"pdf_ray-{os.getuid()}")
    os.makedirs(d, mode=0o700, exist_ok=True)
    return d


def build(directory: str, cflags=CFLAGS) -> str:
    """Path of the kernel in ``directory``, compiling and publishing it
    first if it is not there. One process compiles under the lock; the
    others wait and find the published file."""
    name = _module_name(cflags)
    path = os.path.join(directory, name + sysconfig.get_config_var("EXT_SUFFIX"))
    if os.path.exists(path):
        return path
    fd = os.open(os.path.join(directory, name + ".lock"), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                _compile(name, tmp, cflags)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
    finally:
        os.close(fd)  # releases the lock
    return path


def load(path: str):
    """Import the built kernel at ``path``; returns its (ffi, lib)."""
    name = os.path.basename(path).split(".", 1)[0]
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod.ffi, mod.lib


ffi, lib = load(build(cache_dir()))

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
    print(build(cache_dir()))
