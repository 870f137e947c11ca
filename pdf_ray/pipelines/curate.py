"""Resumable partitioned writer for the curated text corpus — the text
side's counterpart of ``pipelines/extract.run_extract``'s lineage story
(one directory of shards plus per-shard manifests, so a failed 100-TB run
re-writes only the missing shards, never the whole output).

Every shard is committed through ``pipelines/commit.py``, the protocol
the extract writer shares: ``part-SSSS.parquet`` plus its manifest
``{shard, n_shards, schema_version, n_rows, n_keep, file}``, where
``SSSS`` is the shard id ``doc_id %% n_shards``. The key is
deterministic, so a resume recomputes exactly the uncommitted shards'
rows; it garbage-collects orphan shards first, and a resume with a
different ``n_shards`` (the committed shard ids would name other doc
sets) or ``CURATED_SCHEMA_VERSION`` (or a manifest without either) is
refused.

The filter decisions come from ``ops.textstats.curate_corpus`` (keep /
first-failing-reason per doc); this module only adds the exactly-once
sink. The shard count is a fixed small number (not corpus-proportional),
so the done-shard set broadcast through the task closure is bounded.
"""

from __future__ import annotations

import os

import pandas as pd
import pyarrow as pa

from .commit import (
    commit_shard,
    gc_orphan_shards,
    manifest_dir,
    read_committed as read_curated,
    resume_manifests,
)

N_CURATE_SHARDS = 64
# Version of the curated shards' columns (``curate_corpus``'s output),
# recorded in every manifest; bump it with any change to them.
CURATED_SCHEMA_VERSION = 1


def write_curated(
    sf_dir: str,
    out_dir: str,
    n_shards: int = N_CURATE_SHARDS,
    resume: bool = True,
) -> dict:
    """Run the curation composition and write it as resumable
    partitioned parquet. Returns ``{written, skipped, n_rows}`` (shards
    written this run, shards skipped via manifests, rows written)."""
    from ..ops.textstats import curate_corpus

    os.makedirs(manifest_dir(out_dir), exist_ok=True)
    identity = {"n_shards": n_shards, "schema_version": CURATED_SCHEMA_VERSION}
    done: set[int] = set()
    if resume:
        gc_orphan_shards(out_dir)
        manifests = resume_manifests(out_dir, identity)
        done = {int(m["shard"]) for m in manifests}

    ds = curate_corpus(sf_dir)

    def add_shard(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(shard=(df["doc_id"] % n_shards).astype("int32"))
        if done:
            df = df[~df["shard"].isin(done)]
        return df

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        shard = int(g["shard"].iat[0])
        g = g.drop(columns="shard").sort_values("doc_id")
        commit_shard(
            out_dir,
            f"{shard:04d}",
            pa.Table.from_pandas(g, preserve_index=False),
            {
                "shard": shard,
                **identity,
                "n_rows": int(len(g)),
                "n_keep": int(g["keep"].sum()),
            },
        )
        return pd.DataFrame({"shard": [shard], "n_rows": [len(g)]})

    stats = (
        ds.map_batches(add_shard, batch_format="pandas")
        .groupby("shard")
        .map_groups(write_shard, batch_format="pandas")
        .to_pandas()  # <= n_shards rows
    )
    return {
        "written": int(len(stats)),
        "skipped": len(done),
        "n_rows": int(stats["n_rows"].sum()) if len(stats) else 0,
    }
