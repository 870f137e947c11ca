"""Builder and loader of the compiled kernels: ``mq.c`` (the MQ decoder,
a cffi module, see ``mq.py``) and ``scan.c`` (the object and content
scanner, a C API extension module, see ``lexer.py``).

A kernel is built with the system C compiler on the first import of the
module that loads it. Its file name carries a hash of the C source, the
cffi declarations, the compiler flags and the Python ABI, so an edited
source or another interpreter never loads a stale build. It goes in this
package's ``__pycache__/`` (or a per-user temp dir when that is not
writable) and is published by tmp + ``os.replace`` under an ``fcntl``
lock, so concurrent worker processes build it once and never see a
partial file. Without a compiler, the Python headers or (for a cffi
kernel) cffi, the import fails with an ``ImportError`` naming what is
missing; there is no Python fallback.

``python -m pdf_ray.pdfcore.kernels`` builds both kernels and prints
their paths.
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
from typing import NamedTuple

CFLAGS = ("-O2", "-fPIC", "-shared", "-std=c99", "-fno-strict-aliasing")

_HERE = os.path.dirname(os.path.abspath(__file__))
_NEEDS = "the compiled kernels need gcc, cffi and the Python headers"


class Kernel(NamedTuple):
    """A C source beside this module, ``<name>.c``. With ``cdef`` it is
    wrapped by cffi (the module has ``ffi`` and ``lib``); without it is a
    C API extension module whose init function is ``PyInit_KERNEL``,
    defined on the compiler's command line."""

    name: str
    cdef: str = ""

    @property
    def source(self) -> str:
        return os.path.join(_HERE, self.name + ".c")


def _module_name(kernel: Kernel, cflags) -> str:
    with open(kernel.source, "rb") as f:
        h = hashlib.sha256(f.read())
    parts = [kernel.cdef, " ".join(cflags), sys.implementation.cache_tag,
             sysconfig.get_config_var("EXT_SUFFIX") or ""]
    if kernel.cdef:
        parts.append(_cffi().__version__)
    for part in parts:
        h.update(b"\0" + part.encode())
    return f"_{kernel.name}_{h.hexdigest()[:16]}"


def _cffi():
    try:
        import cffi
    except ImportError:
        raise ImportError(f"pdf_ray.pdfcore.kernels: cffi is not installed; {_NEEDS}") from None
    return cffi


def _compiler() -> list[str]:
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc") or ["cc"]
    if shutil.which(cc[0]) is None:
        raise ImportError(f"pdf_ray.pdfcore.kernels: no C compiler ({cc[0]!r} not found); {_NEEDS}")
    return cc


def _compile(kernel: Kernel, name: str, dest: str, cflags) -> None:
    """Compile ``kernel`` as extension module ``name`` into ``dest``."""
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise ImportError(f"pdf_ray.pdfcore.kernels: no Python headers (Python.h) in {include}; {_NEEDS}")
    cc = _compiler()
    with tempfile.TemporaryDirectory(prefix=f"pdf_ray_{kernel.name}_") as tmp:
        if kernel.cdef:
            cffi = _cffi()
            from cffi.recompiler import make_c_source

            ffi = cffi.FFI()
            ffi.cdef(kernel.cdef)
            with open(kernel.source) as f:
                src = f.read()
            c_file = os.path.join(tmp, name + ".c")
            make_c_source(ffi, name, src, c_file)
            cmd = [*cc, *cflags, f"-I{include}", c_file, "-o", dest]
        else:
            cmd = [*cc, *cflags, f"-I{include}", f"-DPyInit_KERNEL=PyInit_{name}",
                   kernel.source, "-o", dest]
        r = subprocess.run(cmd, capture_output=True, text=True)
    if r.returncode != 0:
        raise ImportError(
            f"pdf_ray.pdfcore.kernels: building {kernel.name}.c failed:\n"
            f"{' '.join(cmd)}\n{r.stderr}"
        )


def cache_dir() -> str:
    """Where kernels are built: ``__pycache__/`` beside this module, or a
    per-user temp dir when that is not writable."""
    d = os.path.join(_HERE, "__pycache__")
    try:
        os.makedirs(d, exist_ok=True)
        if os.access(d, os.W_OK):
            return d
    except OSError:
        pass
    d = os.path.join(tempfile.gettempdir(), f"pdf_ray-{os.getuid()}")
    os.makedirs(d, mode=0o700, exist_ok=True)
    return d


def build(kernel: Kernel, directory: str | None = None, cflags=None) -> str:
    """Path of ``kernel`` built in ``directory`` (default ``cache_dir()``)
    with ``cflags`` (default ``CFLAGS``), compiling and publishing it
    first if it is not there. One process compiles under the lock; the
    others wait and find the published file."""
    directory = directory or cache_dir()
    cflags = CFLAGS if cflags is None else cflags
    name = _module_name(kernel, cflags)
    path = os.path.join(directory, name + sysconfig.get_config_var("EXT_SUFFIX"))
    if os.path.exists(path):
        return path
    fd = os.open(os.path.join(directory, name + ".lock"), os.O_RDWR | os.O_CREAT, 0o644)
    try:
        fcntl.flock(fd, fcntl.LOCK_EX)
        if not os.path.exists(path):
            tmp = f"{path}.{os.getpid()}.tmp"
            try:
                _compile(kernel, name, tmp, cflags)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
    finally:
        os.close(fd)  # releases the lock
    return path


def load(path: str):
    """Import the built kernel at ``path`` and return the module."""
    name = os.path.basename(path).split(".", 1)[0]
    loader = importlib.machinery.ExtensionFileLoader(name, path)
    spec = importlib.util.spec_from_file_location(name, path, loader=loader)
    mod = importlib.util.module_from_spec(spec)
    loader.exec_module(mod)
    return mod


if __name__ == "__main__":
    from . import lexer, mq

    for k in (mq.KERNEL, lexer.KERNEL):
        print(build(k))
