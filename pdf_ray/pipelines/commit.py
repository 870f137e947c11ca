"""The shard-commit protocol shared by the extract and curate writers.

Layout: ``out_dir/part-<name>.parquet`` plus ``out_dir/_lineage/<name>.json``,
one manifest per shard. The MANIFEST is the commit record: the shard is
published first, then its manifest, both by tmp + ``os.replace``, so a
crash between the two leaves an orphan shard that no manifest lists, and
a crash inside either write leaves only a ``*.tmp`` file. Consumers read
manifest-listed files only (``committed_part_files``); a resume first
garbage-collects orphans and leftovers (``gc_orphan_shards``), then
refuses any manifest written under another identity (``resume_manifests``).
A manifest whose part file is gone raises: its rows would otherwise count
as done and never be read.

What each writer keeps is how it names shards and skips done work: extract
names a shard by the hash of its doc_ids and anti-joins the input against
the manifests' ``doc_ids``; curate names it ``doc_id % n_shards`` and skips
the done shard ids.
"""

from __future__ import annotations

import json
import os


def manifest_dir(out_dir: str) -> str:
    return os.path.join(out_dir, "_lineage")


def commit_shard(out_dir: str, name: str, table, manifest: dict) -> dict:
    """Publish ``table`` as ``part-<name>.parquet``, then commit it with
    ``_lineage/<name>.json``: ``manifest`` plus the ``file`` it lists.
    Rewriting the same name replaces both files, so a retried task that
    re-commits its shard leaves one copy. Returns the manifest."""
    import pyarrow.parquet as pq

    part = f"part-{name}.parquet"
    path = os.path.join(out_dir, part)
    pq.write_table(table, path + ".tmp")
    os.replace(path + ".tmp", path)  # publish shard
    manifest = {**manifest, "file": part}
    mpath = os.path.join(manifest_dir(out_dir), f"{name}.json")
    with open(mpath + ".tmp", "w") as f:
        json.dump(manifest, f)
    os.replace(mpath + ".tmp", mpath)  # commit
    return manifest


def read_manifests(out_dir: str) -> list[dict]:
    """Every committed manifest, without its ``doc_ids`` list: each list
    is dropped as its manifest is read, so the driver holds at most one
    (``resume_remaining`` reads them as a Dataset). Raises ``ValueError``
    for a manifest whose part file is missing (deleted or never copied
    with the directory)."""
    mdir = manifest_dir(out_dir)
    out = []
    if os.path.isdir(mdir):
        for name in sorted(os.listdir(mdir)):
            if name.endswith(".json"):
                with open(os.path.join(mdir, name)) as f:
                    m = json.load(f)
                m.pop("doc_ids", None)
                if not os.path.exists(os.path.join(out_dir, m["file"])):
                    raise ValueError(
                        f"manifest {os.path.join(mdir, name)} commits "
                        f"{m['file']}, which is missing from {out_dir}"
                    )
                out.append(m)
    return out


def committed_part_files(out_dir: str) -> list[str]:
    """Paths of the part files the manifests list: the committed output."""
    return sorted(os.path.join(out_dir, m["file"]) for m in read_manifests(out_dir))


def read_committed(out_dir: str):
    """The committed output as a Ray Dataset."""
    import ray.data as rd

    return rd.read_parquet(committed_part_files(out_dir))


def gc_orphan_shards(out_dir: str) -> int:
    """Delete the part files no manifest lists (published by a task that
    died before committing; a resume writes their rows again, so keeping
    them would leave two copies) and every ``*.tmp`` left by a write that
    died midway, in ``out_dir`` and ``_lineage/``. Run it only before a
    job starts, when no writer is live. Returns the number of files
    removed."""
    committed = {os.path.basename(p) for p in committed_part_files(out_dir)}
    n = 0
    for d in (out_dir, manifest_dir(out_dir)):
        if not os.path.isdir(d):
            continue
        for name in os.listdir(d):
            orphan = (
                d == out_dir
                and name.startswith("part-")
                and name.endswith(".parquet")
                and name not in committed
            )
            if orphan or name.endswith(".tmp"):
                os.remove(os.path.join(d, name))
                n += 1
    return n


def resume_manifests(out_dir: str, identity: dict) -> list[dict]:
    """The committed manifests, after refusing a resume when any of them
    was written under another identity (the writer's settings that decide
    what a shard holds). A manifest without an identity field counts as a
    mismatch."""
    manifests = read_manifests(out_dir)
    for m in manifests:
        got = {k: m[k] for k in identity if k in m}
        if got != identity:
            raise ValueError(
                f"resume refused: {out_dir} was committed with {got} but "
                f"this run uses {identity}; resuming would mix shards "
                "written under different settings. Use a fresh output "
                "directory or resume=False."
            )
    return manifests
