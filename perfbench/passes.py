"""The timed operations and the output check, shared by both workloads."""

from __future__ import annotations

import gc
import time
from collections import Counter

import pyarrow as pa

from pdf_ray.schema import EXTRACTED


def row_key(row: dict) -> tuple:
    spans = tuple(
        (s["kind"], s["text"], s["media_ref"], s["order"]) for s in row["spans"] or []
    )
    return (row["status"], row["n_spans"], spans)


def expected_keys(table: pa.Table) -> dict[str, tuple]:
    return {row["doc_id"]: row_key(row) for row in table.to_pylist()}


def check(got: pa.Table, want: dict[str, tuple]) -> tuple[int, int]:
    """``(matched, missing)``: docs of ``want`` that came back exactly once
    and equal to their reference, and docs of ``want`` that came back not
    at all or more than once. Rows for docs outside ``want`` count as
    missing too, so an output can never score above its reference."""
    rows = got.to_pylist()
    seen = Counter(r["doc_id"] for r in rows)
    matched = sum(
        1 for r in rows if seen[r["doc_id"]] == 1 and want.get(r["doc_id"]) == row_key(r)
    )
    missing = sum(1 for d in want if seen[d] != 1)
    missing += sum(n for d, n in seen.items() if d not in want)
    return matched, missing


def blocks(docs: pa.Table, rows: int) -> list[pa.Table]:
    return [docs.slice(i, rows) for i in range(0, docs.num_rows, rows)]


def release_finished_jobs(timeout_s: float = 10.0) -> None:
    """Start the next timed job on an idle cluster. A finished Ray Data
    job's actor pool sits in a reference cycle; until Python's cyclic
    collector runs, its actors keep their CPUs, and on a 2-CPU cluster the
    next job waits for them (measured: 15-20 s between a write pass and
    the resume pass that follows it). So collect the driver's garbage, then
    wait until every CPU is free again."""
    import ray

    gc.collect()
    total = ray.cluster_resources().get("CPU", 0.0)
    deadline = time.monotonic() + timeout_s
    while ray.available_resources().get("CPU", 0.0) < total and time.monotonic() < deadline:
        time.sleep(0.02)


def stream_extract(docs: pa.Table, payloads_ref, actors: int, batch: int):
    """``extract_dataset`` over ``docs``, streamed to the driver with
    ``iter_batches``. Returns ``(dataset, output, wall_s, arrivals)``;
    ``arrivals`` holds ``(t_since_start, rows, wait_s)`` per batch."""
    import ray.data as rd

    from pdf_ray.pipelines.extract import extract_dataset

    release_finished_jobs()
    t0 = time.perf_counter()
    ds = extract_dataset(
        rd.from_arrow(blocks(docs, batch)),
        payloads_ref,
        concurrency=actors,
        batch_size=batch,
    )
    it = iter(ds.iter_batches(batch_format="pyarrow", batch_size=None))
    tables, arrivals = [], []
    while True:
        tw = time.perf_counter()
        try:
            b = next(it)
        except StopIteration:
            break
        now = time.perf_counter()
        arrivals.append((now - t0, b.num_rows, now - tw))
        tables.append(b)
    wall = time.perf_counter() - t0
    out = pa.concat_tables(tables) if tables else EXTRACTED.empty_table()
    return ds, out, wall, arrivals


def inproc_extract(docs: pa.Table, payloads: dict, batch: int):
    """The same docs through ``ExtractStage.__call__`` in this process:
    the single-actor ceiling. Returns ``(output, wall_s)``."""
    from pdf_ray.stages.extract import ExtractStage

    stage = ExtractStage(payloads=payloads)
    t0 = time.perf_counter()
    outs = [stage(b) for b in blocks(docs, batch)]
    return pa.concat_tables(outs), time.perf_counter() - t0


def stream_metrics(arrivals: list[tuple[float, int, float]]) -> dict[str, float]:
    """Driver-side view of one streamed pass: time to the first batch,
    time blocked in ``next()``, and the tail from the arrival that brought
    95% of the docs to the last arrival."""
    if not arrivals:
        return {"first_batch_s": 0.0, "driver_wait_s": 0.0, "tail_s": 0.0}
    total = sum(n for _, n, _ in arrivals)
    done, t95 = 0, arrivals[-1][0]
    for t, n, _ in arrivals:
        done += n
        if done >= 0.95 * total:
            t95 = t
            break
    return {
        "first_batch_s": arrivals[0][0],
        "driver_wait_s": sum(w for _, _, w in arrivals),
        "tail_s": arrivals[-1][0] - t95,
    }


def ray_data_metrics(summaries) -> dict[str, float]:
    """Per-operator figures from ``Dataset._get_stats_summary()``, grouped
    under stable names: ``read`` (Read*/From* operators), ``extract`` (the
    extraction stage, fused or not), ``exchange`` (the sub-operators of an
    all-to-all) and ``map`` (every other operator). ``exchanges`` counts
    all-to-all operators in the executed plans."""
    out: dict[str, float] = {}
    for group in ("read", "extract", "exchange", "map"):
        for field in ("udf_s", "cpu_s", "out_bytes"):
            out[f"ray_data.{group}.{field}"] = 0.0
    out["ray_data.exchanges"] = 0
    out["ray_data.exchange_bytes"] = 0.0

    def total(d) -> float:
        return float((d or {}).get("sum", 0.0) or 0.0)

    def visit(s):
        subs = [op for op in s.operators_stats if op.is_sub_operator]
        if subs:
            out["ray_data.exchanges"] += 1
            out["ray_data.exchange_bytes"] += total(subs[-1].output_size_bytes)
        for op in s.operators_stats:
            name = op.operator_name
            if op.is_sub_operator:
                group = "exchange"
            elif "ExtractStage" in name or "ExtractWriteStage" in name:
                group = "extract"
            elif name.startswith(("Read", "From")):
                group = "read"
            else:
                group = "map"
            out[f"ray_data.{group}.udf_s"] += total(op.udf_time)
            out[f"ray_data.{group}.cpu_s"] += total(op.cpu_time)
            out[f"ray_data.{group}.out_bytes"] += total(op.output_size_bytes)
        for p in s.parents:
            visit(p)

    for s in summaries:
        visit(s)
    return out
