"""Job entry point: ``python -m pdf_ray.cli extract ...`` — the shape a
``ray job submit`` driver would use on a cluster.

    python -m pdf_ray.cli extract \
        --input fixtures_data/docs.parquet \
        --payloads fixtures_data/payloads.parquet \
        --output /tmp/extract_out [--no-resume] [--concurrency N]

Owns its Ray session (guarded init per the driver contract).
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def main(argv=None):
    ap = argparse.ArgumentParser(prog="pdf_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)
    ex = sub.add_parser("extract", help="run the extraction pipeline")
    ex.add_argument("--input", required=True, help="docs table (parquet/lance)")
    ex.add_argument("--payloads", required=True, help="payload table")
    ex.add_argument("--output", required=True, help="output directory")
    ex.add_argument("--concurrency", type=int, default=None)
    ex.add_argument("--batch-size", type=int, default=200)
    ex.add_argument("--no-resume", action="store_true")
    ex.add_argument(
        "--strip-artifacts", action="store_true",
        help="main-content mode: drop /Artifact-scoped spans "
             "(headers/footers/pagination)",
    )
    ex.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args(argv)

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=args.num_cpus,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from pdf_ray.pipelines.extract import run_extract
    from pdf_ray.sources.readers import load_payload_dict

    payloads = ray.put(load_payload_dict(args.payloads))
    stats = run_extract(
        args.input,
        args.output,
        payloads,
        concurrency=args.concurrency or args.num_cpus,
        batch_size=args.batch_size,
        resume=not args.no_resume,
        strip_artifacts=args.strip_artifacts,
    )
    print(json.dumps(stats))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
