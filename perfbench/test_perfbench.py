"""The benchmark's own tests, at tiny scale (a few minutes in all):

    python3 -m pytest perfbench -q

Every run goes through ``run.py`` in a subprocess, as the benchmark is
used; this process never imports Ray.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, ROOT]

import procs  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# tiny corpora; batches small enough that small_commit_resume commits
# several shards, so its resume has manifests left to anti-join against
TINY = ["--scale", "tiny", "--setups", "1", "--batch-size", "16"]


def bench(*args: str, cwd: str = ROOT, runner: str = os.path.join(HERE, "run.py"), timeout=170):
    cmd = [sys.executable, runner, *BENCH["command"][2:], *TINY, *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=timeout)


def result(p: subprocess.CompletedProcess) -> dict:
    assert p.returncode == 0, p.stderr[-3000:]
    r = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(r) == {"correct", "attempted", "failed", "metrics"}
    return r


def assert_metrics(r: dict, spec: list[dict]) -> None:
    assert set(r["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = r["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


def assert_no_leftovers() -> None:
    assert not os.path.exists(os.path.join(ROOT, ".pbrun"))
    assert not procs.stale_ray_daemons()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_from_another_directory(workload, tmp_path):
    r = result(bench("--workload", workload, "--seed", "7", "--seconds", "1", cwd=str(tmp_path)))
    assert_metrics(r, BENCH["end_to_end"])
    assert r["correct"] and r["failed"] == 0 and r["attempted"] > 0
    assert r["metrics"]["match_rate"]["value"] == 1.0
    for m in BENCH["end_to_end"]:
        assert r["metrics"][m["name"]]["value"] > 0, m["name"]
    assert_no_leftovers()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload):
    r = result(bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"))
    assert_metrics(r, BENCH["per_layer"])
    assert r["correct"] and r["failed"] == 0
    m = {k: v["value"] for k, v in r["metrics"].items()}
    assert m["pdfcore.document.ms_per_doc"] > 0 and m["pdfcore.lexer.objects_per_doc"] > 0
    assert m["stages.extract.ms_per_batch"] > 0
    if workload == "small_commit_resume":
        assert m["htmlcore.ms_per_doc"] > 0
        assert m["pipelines.commit.shards"] > 0 and m["pipelines.resume.gc_orphans"] > 0
        assert m["ray_data.exchanges"] >= 1
    else:
        assert m["pipelines.extract.first_batch_s"] > 0
        assert m["ray_data.exchanges"] == 0
    spans = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed7.spans.jsonl.gz")
    assert os.path.getsize(spans) > 0
    assert_no_leftovers()


def test_timeout_kills_the_run_and_counts_it_failed():
    p = bench("--workload", "skew_pages", "--seed", "7", "--seconds", "1", "--timeout", "3")
    assert p.returncode == 1
    r = json.loads(p.stdout.strip().splitlines()[-1])
    assert r["correct"] is False and r["failed"] == r["attempted"] == 1
    assert "timed out" in p.stderr
    assert_no_leftovers()


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = bench(
        "--workload", "skew_pages", "--seed", "7", "--seconds", "1",
        cwd=str(tmp_path), runner=str(tmp_path / "perfbench" / "run.py"), timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""


def test_seed_fixes_the_inputs():
    import corpora

    a, _, lost_a = corpora.skew_pages(3, 200)
    b, _, lost_b = corpora.skew_pages(3, 200)
    c, _, _ = corpora.skew_pages(4, 200)
    assert a.equals(b) and lost_a == lost_b
    assert not a.equals(c)
    pages = {"pdf://f18x200": 0, "pdf://f18x60": 0, "pdf://f18x20": 0}
    for spans in c.column("spans").to_pylist():
        ref = spans[0]["media_ref"]
        if ref in pages:
            pages[ref] += 1
    assert pages == {"pdf://f18x200": 20, "pdf://f18x60": 40, "pdf://f18x20": 40}
