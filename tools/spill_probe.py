"""Spill/backpressure evidence (round-3 verdict next-steps #10): run the
flagship extraction with the object store DELIBERATELY pinned far below
the working set and show the job still streams to completion — Ray
Data's backpressure and plasma disk-spilling absorb the pressure instead
of OOMing or stalling.

    SPILL_PROBE_MODE={fused|materialize} \
        python tools/spill_probe.py [n_docs] [store_mb]

Modes:
- fused (production default): shards written inside the extract actors,
  span tables never enter plasma -> expect ZERO spill at any store size
- materialize: .materialize() pins EVERY output block -> once total
  blocks exceed the store, plasma MUST spill; completion proves the
  spill path works under real pressure

Spill totals come from the raylet's debug_state.txt (grpc, and thus
ray's memory_summary API, is absent in this container).

Prints one JSON line.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _spill_stats() -> dict:
    sessions = sorted(
        glob.glob("/tmp/ray/ray/session_2*"), key=os.path.getmtime
    )
    out = {"spilled_bytes": 0, "spill_requests": 0}
    if not sessions:
        return out
    path = os.path.join(sessions[-1], "logs", "debug_state.txt")
    try:
        with open(path, errors="replace") as f:
            for line in f:
                line = line.strip()
                if line.startswith("- num bytes currently spilled:"):
                    out["spilled_bytes"] = int(line.rsplit(" ", 1)[1])
                elif line.startswith("- cumulative spill requests:"):
                    out["spill_requests"] = int(line.rsplit(" ", 1)[1])
    except OSError:
        pass
    return out


def main():
    import ray

    n_docs = int(sys.argv[1]) if len(sys.argv) > 1 else 20000
    store_mb = int(sys.argv[2]) if len(sys.argv) > 2 else 128
    mode = os.environ.get("SPILL_PROBE_MODE", "fused")
    if mode not in ("fused", "materialize"):
        raise SystemExit(
            f"SPILL_PROBE_MODE={mode!r}: expected 'fused' or 'materialize'"
        )
    cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))

    ray.init(
        address="local",
        num_cpus=cpus,
        include_dashboard=False,
        object_store_memory=store_mb * 1024 * 1024,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import pyarrow.parquet as pq
    import ray.data as rd

    from pdf_ray.fixtures.tables import build_bench_corpus
    from pdf_ray.pipelines.extract import extract_dataset, run_extract

    docs_tbl, payloads = build_bench_corpus(n_docs=n_docs)
    in_path = "/tmp/spill_probe_docs.parquet"
    out_dir = "/tmp/spill_probe_out"
    shutil.rmtree(out_dir, ignore_errors=True)
    pq.write_table(docs_tbl, in_path)
    pref = ray.put(payloads)

    t0 = time.time()
    if mode == "materialize":
        ds = extract_dataset(
            rd.read_parquet(in_path), pref, concurrency=cpus, batch_size=200
        )
        mat = ds.materialize()
        result = {"rows": mat.count(), "output_bytes": mat.size_bytes()}
    else:
        stats = run_extract(
            in_path,
            out_dir,
            pref,
            concurrency=cpus,
            batch_size=200,
            resume=False,
        )
        result = {"n_ok": stats["n_ok"], "n_err": stats["n_err"]}
    wall = time.time() - t0

    # read spill counters BEFORE shutdown (debug_state is periodic, give
    # it a beat to refresh after the job drains)
    time.sleep(2)
    result.update(_spill_stats())
    result.update(
        {
            "mode": mode,
            "n_docs": n_docs,
            "store_mb": store_mb,
            "wall_sec": round(wall, 2),
            "docs_per_sec": round(n_docs / wall, 1),
        }
    )
    print(json.dumps(result))
    ray.shutdown()


if __name__ == "__main__":
    main()
