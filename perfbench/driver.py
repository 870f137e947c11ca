"""One benchmark run of one workload, in a fresh single-threaded driver.

Started by ``run.py``, which owns the timeout and the clean-up; run it
directly only for debugging. Prints one JSON object as the last line of
standard output; everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(1, ROOT)  # pdf_ray, when started without run.py

import pyarrow as pa  # noqa: E402

import corpora  # noqa: E402
import layers  # noqa: E402
import passes  # noqa: E402
import procs  # noqa: E402
from spans import Tracer  # noqa: E402

OBJECT_STORE_MB = 512

# input size per workload and scale: docs for skew_pages, fixture
# replicas (61 docs each) for small_commit_resume
SIZES = {
    "full": {"skew_pages": 600, "small_commit_resume": 30},
    "tiny": {"skew_pages": 20, "small_commit_resume": 1},
}


class Tally:
    """Operations attempted and failed, and outputs checked, over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.matched = 0
        self.expected = 0
        self.samples: dict[str, list[float]] = defaultdict(list)

    def attempt(self, n_docs: int, fn):
        """Run ``fn``; if it raises, its ``n_docs`` docs count as failed and
        as unmatched, and ``None`` is returned."""
        self.attempted += n_docs
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.failed += n_docs
            self.expected += n_docs
            return None

    def check(self, got: pa.Table, want: dict) -> None:
        matched, missing = passes.check(got, want)
        self.matched += matched
        self.expected += len(want)
        self.failed += missing

    def fail(self, n: int, why: str) -> None:
        print(f"perfbench: {why}", file=sys.stderr)
        self.failed += n
        self.expected += n


def must(result):
    """The traced run needs every pass: a failed one ends the run."""
    if result is None:
        raise RuntimeError("a traced pass failed (traceback above)")
    return result


class RssSampler:
    """Samples the summed VmHWM of the driver and its Ray descendants
    every ``period`` seconds; ``peak_mib`` is the largest sum seen."""

    def __init__(self, period: float = 0.5):
        self.period = period
        self.peak_mib = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _sample(self) -> None:
        self.peak_mib = max(self.peak_mib, procs.tree_hwm_mib(os.getpid()))

    def _loop(self) -> None:
        while not self._stop.wait(self.period):
            self._sample()

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()


def start_ray(args) -> None:
    import ray
    from ray.data import DataContext

    # workers must import pdf_ray from the checkout wherever the driver was
    # started: the raylet and its workers inherit this environment. (A
    # runtime_env with the same variable works too, but costs ~3 s of
    # runtime-env agent start-up on the first job of every session.)
    path = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if ROOT not in path:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, *path]))
    ray.init(
        address="local",
        num_cpus=args.num_cpus,
        object_store_memory=OBJECT_STORE_MB * 2**20,
        include_dashboard=False,
        logging_level="ERROR",
        _temp_dir=args.ray_dir,
    )
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


class Workload:
    """What both workloads share: the checked in-process pass over the
    corpus (``docs``, ``payloads`` and the expected rows ``want``)."""

    def _inproc(self):
        out, wall = passes.inproc_extract(self.docs, self.payloads, self.args.batch_size)
        self.tally.check(out, self.want)
        return wall


class SkewPages(Workload):
    """Stateless streaming extraction of the skew-mix corpus; the lost
    share is re-extracted by naming its docs (no commit record)."""

    def __init__(self, args, tally: Tally):
        import ray

        self.args, self.tally = args, tally
        n = SIZES[args.scale]["skew_pages"]
        self.docs, self.payloads, lost = corpora.skew_pages(args.seed, n)
        self.lost_docs = self.docs.take(lost)
        self.pref = ray.put(self.payloads)

    def warm_up(self) -> None:
        passes.stream_extract(self.docs.slice(0, 4), self.pref, self.args.actors, self.args.batch_size)

    def prepare(self) -> None:
        """Reference output: each distinct payload through an in-process
        ``ExtractStage`` once; a doc's expected row is its payload's."""
        from pdf_ray.stages.extract import ExtractStage

        refs = sorted(self.payloads)
        one_each = pa.Table.from_pylist(
            [corpora.media_doc(r, r) for r in refs], schema=self.docs.schema
        )
        by_ref = passes.expected_keys(ExtractStage(payloads=self.payloads)(one_each))
        doc_refs = [s[0]["media_ref"] for s in self.docs.column("spans").to_pylist()]
        ids = self.docs.column("doc_id").to_pylist()
        self.want = {d: by_ref[r] for d, r in zip(ids, doc_refs)}
        lost = set(self.lost_docs.column("doc_id").to_pylist())
        self.want_lost = {d: k for d, k in self.want.items() if d in lost}

    def _stream(self, docs, want):
        ds, out, wall, arrivals = passes.stream_extract(
            docs, self.pref, self.args.actors, self.args.batch_size
        )
        self.tally.check(out, want)
        return ds, wall, arrivals

    def cycle(self, k: int) -> None:
        n, t = self.docs.num_rows, self.tally
        r = t.attempt(n, lambda: self._stream(self.docs, self.want))
        if r:
            t.samples["docs_per_s"].append(n / r[1])
        r = t.attempt(self.lost_docs.num_rows, lambda: self._stream(self.lost_docs, self.want_lost))
        if r:
            t.samples["resume_s"].append(r[1])

    def trace(self, tracer: Tracer, m: dict) -> None:
        n, t = self.docs.num_rows, self.tally
        ds, wall, arrivals = must(t.attempt(n, lambda: self._stream(self.docs, self.want)))
        m["docs_per_s"] = n / wall
        m.update({f"pipelines.extract.{k}": v for k, v in passes.stream_metrics(arrivals).items()})
        ds_lost, _, _ = must(
            t.attempt(self.lost_docs.num_rows, lambda: self._stream(self.lost_docs, self.want_lost))
        )
        m.update(passes.ray_data_metrics([ds._get_stats_summary(), ds_lost._get_stats_summary()]))
        trace_inproc(self, tracer, m)


def warm_inproc(docs: pa.Table, payloads: dict) -> None:
    """One doc per distinct payload through an in-process ``ExtractStage``,
    so the timed in-process passes do not pay this process's first-use
    costs (measured: the first pass over a corpus runs at about half the
    rate of the next)."""
    from pdf_ray.stages.extract import ExtractStage

    firsts: dict[str, int] = {}
    for i, spans in enumerate(docs.column("spans").to_pylist()):
        for sp in spans:
            firsts.setdefault(sp["media_ref"] or "", i)
    ExtractStage(payloads=payloads)(docs.take(sorted(firsts.values())))


class SmallCommitResume(Workload):
    """The golden fixture corpus written with the fused writer, a seeded
    share of manifests removed, then ``run_extract(resume=True)``."""

    def __init__(self, args, tally: Tally):
        import pyarrow.parquet as pq
        import ray

        self.args, self.tally = args, tally
        reps = SIZES[args.scale]["small_commit_resume"]
        self.docs, self.payloads, golden = corpora.golden_docs(args.seed, reps)
        self.golden = golden
        self.input = os.path.join(args.run_dir, "docs.parquet")
        pq.write_table(self.docs, self.input)
        self.pref = ray.put(self.payloads)

    def warm_up(self) -> None:
        """A small write, loss and resume, so that the timed passes find
        every code path of the driver and the cluster already loaded."""
        import pyarrow.parquet as pq

        warm = os.path.join(self.args.run_dir, "warm")
        os.makedirs(warm, exist_ok=True)
        small = os.path.join(warm, "docs.parquet")
        pq.write_table(self.docs.slice(0, 8), small)
        out_dir = os.path.join(warm, "out")
        self._run_extract(out_dir, resume=False, input_path=small, batch_size=4)
        self._lose_share(out_dir, 0)
        self._run_extract(out_dir, resume=True, input_path=small, batch_size=4)
        shutil.rmtree(warm)

    def prepare(self) -> None:
        self.want = passes.expected_keys(self.golden)

    def _run_extract(self, out_dir: str, resume: bool, input_path=None, batch_size=None):
        from pdf_ray.pipelines.extract import run_extract

        passes.release_finished_jobs()
        t0 = time.perf_counter()
        r = run_extract(
            input_path or self.input,
            out_dir,
            self.pref,
            concurrency=self.args.actors,
            batch_size=batch_size or self.args.batch_size,
            resume=resume,
        )
        return r, time.perf_counter() - t0

    def _lose_share(self, out_dir: str, k: int) -> int:
        """Remove the seeded share of manifests; returns their doc count.
        Their shards stay behind as orphans, as after a crash."""
        mdir = os.path.join(out_dir, "_lineage")
        n = 0
        for name in corpora.lost_manifests(os.listdir(mdir), self.args.seed, k):
            with open(os.path.join(mdir, name)) as f:
                n += len(json.load(f)["doc_ids"])
            os.remove(os.path.join(mdir, name))
        return n

    def _check_committed(self, out_dir: str) -> None:
        import ray

        from pdf_ray.pipelines.extract import read_extracted

        got = pa.concat_tables(ray.get(read_extracted(out_dir).to_arrow_refs()))
        self.tally.check(got, self.want)

    def _write(self, out_dir: str) -> float:
        """The write pass into a fresh directory; returns its wall time."""
        n = self.docs.num_rows
        r, wall = self._run_extract(out_dir, resume=False)
        if r["n_ok"] + r["n_err"] != n:
            self.tally.fail(abs(n - r["n_ok"] - r["n_err"]), f"write pass returned {r}")
        return wall

    def _resume(self, out_dir: str, lost: int):
        """The resume pass after ``lost`` docs lost their manifests;
        returns ``(result, wall_s)``."""
        n = self.docs.num_rows
        r, wall = self._run_extract(out_dir, resume=True)
        if r["n_ok"] + r["n_err"] != lost or r["skipped"] != n - lost:
            self.tally.fail(lost, f"resume of {lost} lost docs returned {r}")
        return r, wall

    def _traced_write_lose_resume(self, out_dir: str, m: dict) -> float:
        """Write, loss and resume with the resume-side layer metrics filled
        in ``m``; returns the write pass's wall time."""
        import ray.data as rd

        from pdf_ray.pipelines import extract as pipe

        write_s = self._write(out_dir)
        lost = self._lose_share(out_dir, 0)
        if os.listdir(os.path.join(out_dir, "_lineage")):  # else no anti-join
            passes.release_finished_jobs()
            t0 = time.perf_counter()
            anti = pipe.resume_remaining(rd.read_parquet(self.input), out_dir).materialize()
            m["pipelines.resume.anti_join_s"] = time.perf_counter() - t0
            if anti.count() != lost:
                self.tally.fail(abs(anti.count() - lost), "anti-join kept the wrong docs")
        gc = pipe.gc_orphan_shards
        orphans = []

        def counted_gc(d):
            orphans.append(gc(d))
            return orphans[-1]

        pipe.gc_orphan_shards = counted_gc
        try:
            r, _ = self._resume(out_dir, lost)
        finally:
            pipe.gc_orphan_shards = gc
        m["pipelines.resume.gc_orphans"] = sum(orphans)
        m["pipelines.resume.skipped_docs"] = r["skipped"]
        self._check_committed(out_dir)
        return write_s

    def _write_lose_resume(self, out_dir: str, k: int):
        """Returns ``(write_s, resume_s)``."""
        write_s = self._write(out_dir)
        lost = self._lose_share(out_dir, k)
        _, resume_s = self._resume(out_dir, lost)
        self._check_committed(out_dir)
        return write_s, resume_s

    def cycle(self, k: int) -> None:
        n, t = self.docs.num_rows, self.tally
        out_dir = os.path.join(self.args.run_dir, f"out-{k}")
        r = t.attempt(n, lambda: self._write_lose_resume(out_dir, k))
        if r:
            t.samples["docs_per_s"].append(n / r[0])
            t.samples["resume_s"].append(r[1])
        shutil.rmtree(out_dir, ignore_errors=True)

    def trace(self, tracer: Tracer, m: dict) -> None:
        import ray.data as rd

        n, t = self.docs.num_rows, self.tally
        captured = []
        to_pandas = rd.Dataset.to_pandas

        def capture(ds, *a, **kw):
            captured.append(ds)
            return to_pandas(ds, *a, **kw)

        rd.Dataset.to_pandas = capture
        try:
            write_s = must(
                t.attempt(
                    n, lambda: self._traced_write_lose_resume(os.path.join(self.args.run_dir, "out"), m)
                )
            )
        finally:
            rd.Dataset.to_pandas = to_pandas
        m["docs_per_s"] = n / write_s
        m.update(passes.ray_data_metrics([ds._get_stats_summary() for ds in captured]))
        counts = layers.traced_commit_pass(
            tracer, self.docs, self.payloads, self.args.batch_size,
            os.path.join(self.args.run_dir, "commit"),
        )
        commit_self = tracer.self_times().get("pipelines.commit", 0.0)
        m["pipelines.commit.ms_per_shard"] = 1e3 * commit_self / max(1, tracer.n_spans("pipelines.commit"))
        m["pipelines.commit.shards"] = counts["shards"]
        m["pipelines.commit.bytes_written"] = counts["bytes_written"]
        trace_inproc(self, tracer, m, first_stage_span=tracer.n_spans("stages.extract"))


def trace_inproc(wl, tracer: Tracer, m: dict, first_stage_span: int = 0) -> None:
    """In-process layer split of the workload's corpus: an untraced pass,
    a traced pass (spans around every layer call) and a counting pass."""
    docs, payloads, batch = wl.docs, wl.payloads, wl.args.batch_size
    warm_inproc(docs, payloads)
    wall = must(wl.tally.attempt(docs.num_rows, wl._inproc))
    m["stages.extract.inproc_docs_per_s"] = docs.num_rows / wall
    stage_self_before = tracer.self_times().get("stages.extract", 0.0)
    t0 = time.perf_counter()
    with layers.parser_spans(tracer):
        layers.traced_stage_pass(tracer, docs, payloads, batch)
    traced_wall = time.perf_counter() - t0
    lexed = [0]
    with layers.count_lex_objects(lexed):
        passes.inproc_extract(docs, payloads, batch)

    self_s = tracer.self_times()
    n_pdf = max(1, tracer.n_spans("pdfcore.document"))
    n_html = max(1, tracer.n_spans("htmlcore"))
    n_batches = max(1, tracer.n_spans("stages.extract") - first_stage_span)

    def ms(name: str, per: int) -> float:
        return 1e3 * self_s.get(name, 0.0) / per

    m["pdfcore.xref.ms_per_doc"] = ms("pdfcore.xref", n_pdf)
    m["pdfcore.document.ms_per_doc"] = ms("pdfcore.document", n_pdf)
    m["pdfcore.lexer.objects_per_doc"] = lexed[0] / n_pdf
    m["pdfcore.filters.ms_per_doc"] = ms("pdfcore.filters", n_pdf)
    m["pdfcore.filters.bytes_per_doc"] = tracer.counts["pdfcore.filters.bytes"] / n_pdf
    m["pdfcore.content.ms_per_doc"] = ms("pdfcore.content", n_pdf)
    m["pdfcore.content.tokens_per_doc"] = tracer.counts["pdfcore.content.tokens"] / n_pdf
    m["pdfcore.interp.ms_per_doc"] = ms("pdfcore.interp", n_pdf)
    m["pdfcore.interp.spans_per_doc"] = tracer.counts["pdfcore.interp.spans"] / n_pdf
    m["htmlcore.ms_per_doc"] = ms("htmlcore", n_html)
    stage_self = self_s.get("stages.extract", 0.0) - stage_self_before
    m["stages.extract.ms_per_batch"] = 1e3 * stage_self / n_batches
    m["pipelines.extract.efficiency"] = m["docs_per_s"] / (
        m["stages.extract.inproc_docs_per_s"] * wl.args.actors
    )
    m["trace.overhead_frac"] = traced_wall / wall - 1.0


WORKLOADS = {"skew_pages": SkewPages, "small_commit_resume": SmallCommitResume}


def report(values: dict, entries: list[dict], known: set[str]) -> dict:
    """The metrics ``entries`` (from BENCHMARK.json) with their units.
    A metric the workload does not exercise reads 0."""
    unknown = set(values) - known
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return {e["name"]: {"value": values.get(e["name"], 0.0), "unit": e["unit"]} for e in entries}


def run(args) -> dict:
    import ray

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    known = {e["name"] for e in spec["end_to_end"] + spec["per_layer"]}
    tally = Tally()
    setup_s = []
    for k in range(args.setups):
        t0 = time.perf_counter()
        start_ray(args)
        wl = WORKLOADS[args.workload](args, tally)
        wl.warm_up()
        setup_s.append(time.perf_counter() - t0)
        if k + 1 < args.setups:
            ray.shutdown()
    wl.prepare()

    if args.trace:
        tracer = Tracer()
        m: dict[str, float] = {}
        with RssSampler():
            wl.trace(tracer, m)
        metrics = report(m, spec["per_layer"], known)
        os.makedirs(args.spans_dir, exist_ok=True)
        tracer.write(os.path.join(args.spans_dir, f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))
    else:
        with RssSampler() as rss:
            # whole cycles until the next one would end past the budget
            # by more than half a cycle
            t0 = time.perf_counter()
            k = 0
            while k == 0 or (time.perf_counter() - t0) * (k + 0.5) / k <= args.seconds:
                wl.cycle(k)
                k += 1
        med = {name: statistics.median(v) for name, v in tally.samples.items() if v}
        med["setup_s"] = statistics.median(setup_s)
        med["match_rate"] = tally.matched / max(1, tally.expected)
        med["peak_rss_mb"] = rss.peak_mib
        metrics = report(med, spec["end_to_end"], known)
        print(
            f"perfbench: setups {setup_s}, {k} cycles, samples {dict(tally.samples)}",
            file=sys.stderr,
        )
    correct = tally.failed == 0 and tally.matched == tally.expected > 0
    return {
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--num-cpus", type=int, required=True)
    p.add_argument("--actors", type=int, required=True)
    p.add_argument("--batch-size", type=int, required=True)
    p.add_argument("--setups", type=int, required=True)
    p.add_argument("--scale", choices=sorted(SIZES), required=True)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--ray-dir", required=True)
    p.add_argument("--spans-dir", required=True)
    args = p.parse_args(argv)
    try:
        result = run(args)
    finally:
        import ray

        ray.shutdown()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
