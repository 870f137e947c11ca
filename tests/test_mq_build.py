"""Building the compiled MQ kernel: concurrent builds into one cache
directory publish a single file that every process loads, and
``python -m pdf_ray.pdfcore.mq`` prints the kernel's path."""

import os
import subprocess
import sys
import sysconfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BUILD_SCRIPT = """
import os, sys, time
from pdf_ray.pdfcore import mq
cache, go = sys.argv[1], sys.argv[2]
while not os.path.exists(go):
    time.sleep(0.005)
path = mq.build(cache)
ffi, lib = mq.load(path)
assert [tuple(r) for r in lib.MQ_QE] == mq.QE
print(path)
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
    (path,) = paths
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    built = sorted(os.listdir(cache))
    assert [f for f in built if f.endswith(suffix)] == [os.path.basename(path)]
    assert not [f for f in built if f.endswith(".tmp")]


def test_module_main_prints_kernel_path():
    out = subprocess.run(
        [sys.executable, "-m", "pdf_ray.pdfcore.mq"], cwd=ROOT, env=_env(),
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    assert os.path.isfile(out)
    assert out.endswith(sysconfig.get_config_var("EXT_SUFFIX"))
