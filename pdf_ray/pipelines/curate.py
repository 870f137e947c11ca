"""Resumable partitioned writer for the curated text corpus — the text
side's counterpart of ``pipelines/extract.run_extract``'s lineage story
(one directory of ``part-*.parquet`` shards plus per-shard manifests, so
a failed 100-TB run re-writes only the missing shards, never the whole
output).

Layout: ``out_dir/part-SSSS.parquet`` + ``out_dir/_lineage/shard-SSSS.json``
(``{shard, n_shards, n_rows, n_keep, file}``). The manifest is the
commit record: the shard publishes first, then its manifest (both
atomically via tmp+rename), so a crash between the two leaves an orphan
shard no manifest lists; ``resume=True`` garbage-collects orphans and re-runs
only the uncommitted shards. Shard key = ``doc_id %% n_shards`` —
deterministic, so a resume recomputes exactly the missing shards' rows;
a resume with a different ``n_shards`` is refused, since the committed
shard ids would name other doc sets.

The filter decisions come from ``ops.textstats.curate_corpus`` (keep /
first-failing-reason per doc); this module only adds the exactly-once
sink. The shard count is a fixed small number (not corpus-proportional),
so the done-shard set broadcast through the task closure is bounded.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

N_CURATE_SHARDS = 64


def _manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def _read_manifests(out_dir: str) -> list[dict]:
    mdir = _manifest_dir(out_dir)
    out = []
    if os.path.isdir(mdir):
        for f in sorted(os.listdir(mdir)):
            if f.endswith(".json"):
                with open(os.path.join(mdir, f)) as fh:
                    out.append(json.load(fh))
    return out


def gc_orphan_shards(out_dir: str) -> list[str]:
    """Delete part files not listed in any manifest (published by a run
    that crashed before committing). Returns the removed paths."""
    committed = {m["file"] for m in _read_manifests(out_dir)}
    removed = []
    if os.path.isdir(out_dir):
        for f in sorted(os.listdir(out_dir)):
            if f.startswith("part-") and f.endswith(".parquet"):
                if f not in committed:
                    p = os.path.join(out_dir, f)
                    os.remove(p)
                    removed.append(p)
    return removed


def read_curated(out_dir: str):
    """Committed curated output as a Ray Dataset (manifest-listed files
    only — orphan shards are invisible to consumers)."""
    import ray.data as rd

    files = [
        os.path.join(out_dir, m["file"]) for m in _read_manifests(out_dir)
    ]
    return rd.read_parquet(files)


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

    os.makedirs(_manifest_dir(out_dir), exist_ok=True)
    done: set[int] = set()
    if resume:
        gc_orphan_shards(out_dir)
        manifests = _read_manifests(out_dir)
        for m in manifests:
            if m.get("n_shards") != n_shards:
                raise ValueError(
                    "resume refused: out_dir was committed with n_shards="
                    f"{m.get('n_shards')} but this run uses {n_shards}; its "
                    "shard ids name other doc sets. Use a fresh out_dir or "
                    "resume=False."
                )
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
        fname = f"part-{shard:04d}.parquet"
        path = os.path.join(out_dir, fname)
        tmp = path + ".tmp"
        pq.write_table(
            pa.Table.from_pandas(g, preserve_index=False), tmp
        )
        os.rename(tmp, path)  # publish shard
        man = {
            "shard": shard,
            "n_shards": n_shards,
            "n_rows": int(len(g)),
            "n_keep": int(g["keep"].sum()),
            "file": fname,
        }
        mpath = os.path.join(_manifest_dir(out_dir), f"shard-{shard:04d}.json")
        with open(mpath + ".tmp", "w") as fh:
            json.dump(man, fh)
        os.rename(mpath + ".tmp", mpath)  # commit
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
