"""Building the compiled kernels (``mq.c``, ``scan.c``): concurrent builds
of both into one cache directory publish a single file per kernel that
every process loads, and ``python -m pdf_ray.pdfcore.mq`` and
``python -m pdf_ray.pdfcore.kernels`` print the kernels' paths."""

import os
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD_SCRIPT = """
import os, sys, time
from pdf_ray.pdfcore import kernels, lexer, mq
cache, go = sys.argv[1], sys.argv[2]
while not os.path.exists(go):
    time.sleep(0.005)
paths = [kernels.build(k, cache) for k in (mq.KERNEL, lexer.KERNEL)]
assert [tuple(r) for r in kernels.load(paths[0]).lib.MQ_QE] == mq.QE
assert kernels.load(paths[1]).prelude(b"1 0 obj <<", 0) == 8
print(*paths)
"""


def _env():
    path = [ROOT, os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


def test_concurrent_builds_publish_one_file(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    go = tmp_path / "go"
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", BUILD_SCRIPT, str(cache), str(go)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    go.touch()  # both start building at once
    outs = [p.communicate(timeout=120) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    paths = {out.strip() for out, _ in outs}
    assert len(paths) == 1
    mq_path, scan_path = paths.pop().split()
    assert os.path.basename(mq_path).startswith("_mq_")
    assert os.path.basename(scan_path).startswith("_scan_")
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = sorted(os.listdir(cache))
    assert [f for f in built if f.endswith(suffix)] == sorted(
        os.path.basename(p) for p in (mq_path, scan_path)
    )
    assert not [f for f in built if f.endswith(".tmp")]


def test_module_main_prints_kernel_path():
    out = subprocess.run(
        [sys.executable, "-m", "pdf_ray.pdfcore.mq"], cwd=ROOT, env=_env(),
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert os.path.isfile(out)
    assert out.endswith(sysconfig.get_config_var("EXT_SUFFIX"))


def test_kernels_main_prints_both_paths():
    out = subprocess.run(
        [sys.executable, "-m", "pdf_ray.pdfcore.kernels"], cwd=ROOT, env=_env(),
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert [os.path.basename(p).split("_")[1] for p in out] == ["mq", "scan"]
    assert all(os.path.isfile(p) for p in out)


def test_missing_toolchain_names_what_is_missing(tmp_path, monkeypatch):
    import pytest

    from pdf_ray.pdfcore import kernels, lexer

    monkeypatch.setattr(kernels.shutil, "which", lambda cmd: None)
    with pytest.raises(ImportError, match="no C compiler"):
        kernels.build(lexer.KERNEL, str(tmp_path))
    monkeypatch.setattr(kernels.sysconfig, "get_paths", lambda: {"include": str(tmp_path)})
    with pytest.raises(ImportError, match=r"no Python headers \(Python.h\)"):
        kernels.build(lexer.KERNEL, str(tmp_path))
    assert not [f for f in os.listdir(tmp_path) if not f.endswith(".lock")]
