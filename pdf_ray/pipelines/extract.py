"""End-to-end extraction pipeline (the flagship).

    read docs (parquet/lance dir)
      -> [optional resume filter: anti-join vs lineage manifests]
      -> map_batches(ExtractStage tasks)        # the parse fan-out
      -> write partitioned parquet + per-partition lineage manifest

Scale notes (SURVEY.md §4):
- the payload store is broadcast once via ``ray.put`` (small side) — at
  real scale swap in a ``payload_resolver`` that reads a blob store;
  nothing else changes
- skew: a 200-page outlier costs ~200x a 1-pager but stays one row;
  what bounds a straggler is ``batch_size``, the documents per task, so
  one outlier holds up one task's batch, not the job (blocks are not
  rebalanced; ``stages/skew.py`` splits giant docs by page range)
- commit: shards and their manifests go through ``pipelines/commit.py``,
  the protocol the curate writer shares
- resume: completed doc_ids come from the lineage manifests written next
  to the output; restart filters them out with a SHUFFLE-BASED anti-join
  (manifests read as a Dataset, both sides bucketed on crc32(doc_id) %% B,
  per-bucket vectorized ``is_in`` filter — SURVEY.md §2.8). The done-set
  is never collected on the driver and never broadcast: at 10^9+ docs a
  restarted job's done-set is tens of GB, so it must flow through the
  shuffle like any other table.
"""

from __future__ import annotations

import hashlib
import os

import pyarrow as pa
import pyarrow.compute as pc

from ..stages.extract import ExtractStage, doc_bucket
from .commit import (
    commit_shard,
    gc_orphan_shards,
    manifest_dir,
    read_committed as read_extracted,
    resume_manifests,
)


def extract_dataset(
    docs_ds,
    payloads,
    concurrency=4,
    batch_size: int = 64,
    collect_images: bool = False,
    apply_tounicode: bool = False,
    apply_actual_text: bool = False,
    recover: bool = False,
    strip_artifacts: bool = False,
    strip_hidden_ocg: bool = False,
):
    """docs_ds: ray Dataset with (doc_id, spans); payloads: dict or
    ObjectRef of media_ref->bytes. Returns Dataset with EXTRACTED schema."""
    import ray

    ref = payloads if not isinstance(payloads, dict) else ray.put(payloads)
    return docs_ds.map_batches(
        ExtractStage(
            payloads=ref,
            collect_images=collect_images,
            apply_tounicode=apply_tounicode,
            apply_actual_text=apply_actual_text,
            recover=recover,
            strip_artifacts=strip_artifacts,
            strip_hidden_ocg=strip_hidden_ocg,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )


def explode_spans(extracted_ds):
    """Flatten (doc_id, spans[...]) -> one row per span: the relational
    view used by the correctness oracle. Pure-Arrow flatten — this path
    runs once per span in the corpus, so it never round-trips through
    Python objects: ``list_parent_indices`` + ``flatten`` + struct-field
    extraction, all zero-copy kernels."""

    def explode(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans")
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = spans.flatten()
        return pa.table(
            {
                "doc_id": batch.column("doc_id").take(parent),
                "kind": flat.field("kind"),
                "text": flat.field("text"),
                "media_ref": flat.field("media_ref"),
                "order": flat.field("order"),
            }
        )

    return extracted_ds.map_batches(explode, batch_format="pyarrow")


def extract_image_blobs(docs_ds, payloads, concurrency=4, batch_size: int = 64):
    """Extract content-addressed image blobs: (media_ref, png), deduped
    across the corpus (same pixels -> same ref -> one survivor via a
    hash-partitioned groupby)."""
    import ray

    from ..stages.extract import DocRowStage

    ref = payloads if not isinstance(payloads, dict) else ray.put(payloads)
    blobs = docs_ds.map_batches(
        DocRowStage(payloads=ref, emit="images"),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )

    def first_per_batch(t: pa.Table) -> pa.Table:
        # one copy per batch enters the exchange, as the stage emits one
        # row per (document, image)
        seen, keep = set(), []
        for i, r in enumerate(t.column("media_ref").to_pylist()):
            if r not in seen:
                seen.add(r)
                keep.append(i)
        return t.select(["media_ref", "png"]).take(keep)

    def first_per_ref(g):
        return g.head(1)[["media_ref", "png"]]

    blobs = blobs.map_batches(first_per_batch, batch_format="pyarrow")
    return blobs.groupby("media_ref").map_groups(
        first_per_ref, batch_format="pandas"
    )


def resume_remaining(docs_ds, output_dir: str):
    """Filter the input down to docs NOT yet committed, as a shuffle-based
    anti-join (round-3 verdict #1): the lineage manifests are read as a
    Dataset (``read_json``: each manifest is one JSON record
    whose ``doc_ids`` list flattens to one row per done doc), tagged
    side=1 and unioned with the side=0 input, both bucketed on
    ``crc32(doc_id) %% B``; each bucket group drops side-0 rows whose
    doc_id appears in the bucket's side-1 set with a single vectorized
    ``pyarrow.compute.is_in``. No driver-side done-set, no ``ray.put`` of
    a doc-id collection, no per-row Python membership test."""
    import ray.data as rd

    sch = docs_ds.schema()
    names = list(sch.names)
    types = list(sch.types)

    def tag_input(t: pa.Table) -> pa.Table:
        return t.append_column(
            "bucket", doc_bucket(t.column("doc_id"))
        ).append_column("side", pa.array([0] * t.num_rows, pa.int8()))

    def done_rows(t: pa.Table) -> pa.Table:
        ids = t.column("doc_ids").combine_chunks().flatten()
        n = len(ids)
        cols = {
            name: (ids if name == "doc_id" else pa.nulls(n, typ))
            for name, typ in zip(names, types)
        }
        out = pa.table(cols)
        return out.append_column("bucket", doc_bucket(ids)).append_column(
            "side", pa.array([1] * n, pa.int8())
        )

    done_ds = rd.read_json(
        manifest_dir(output_dir), file_extensions=["json"]
    ).map_batches(done_rows, batch_format="pyarrow")

    def anti_bucket(g: pa.Table) -> pa.Table:
        side = g.column("side")
        done_ids = g.column("doc_id").filter(pc.equal(side, 1))
        keep = pc.and_(
            pc.equal(side, 0),
            pc.invert(pc.is_in(g.column("doc_id"), value_set=done_ids)),
        )
        return g.filter(keep).drop_columns(["bucket", "side"])

    return (
        docs_ds.map_batches(tag_input, batch_format="pyarrow")
        .union(done_ds)
        .groupby("bucket")
        .map_groups(anti_bucket, batch_format="pyarrow")
    )


class ExtractWriteStage:
    """Fused extract+write sink: parses the batch AND commits its parquet
    shard + lineage manifest from inside the task, emitting only a tiny
    stats row. The span tables never transit the object store — at 100 TB
    that hop (serialize -> plasma -> downstream read) is pure overhead when
    the next stop is storage anyway."""

    def __init__(self, payloads=None, output_dir: str = "", **kw):
        self.inner = ExtractStage(payloads=payloads, **kw)
        self.output_dir = output_dir
        # recorded in every manifest so a resume under different flags is
        # REFUSED instead of silently mixing differently-extracted docs
        self.identity = {
            "flags": {"strip_artifacts": bool(kw.get("strip_artifacts", False))}
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        out = self.inner(batch)
        if out.num_rows == 0:
            return pa.table(
                {"n_ok": pa.array([], pa.int64()), "n_err": pa.array([], pa.int64())}
            )
        doc_ids = out.column("doc_id").to_pylist()
        n_err = pc.sum(
            pc.cast(pc.equal(out.column("status"), "error"), pa.int64())
        ).as_py() or 0
        # DETERMINISTIC shard name (content-derived): a Ray task retry that
        # re-executes an already-committed batch overwrites the SAME shard
        # and manifest, so retries are idempotent — without this, a retry
        # after commit would double every doc in the batch under a second
        # name
        commit_shard(
            self.output_dir,
            hashlib.sha256("\n".join(doc_ids).encode()).hexdigest()[:16],
            out,
            {
                "doc_ids": doc_ids,
                "n_ok": out.num_rows - n_err,
                "n_err": n_err,
                **self.identity,
            },
        )
        return pa.table(
            {
                "n_ok": pa.array([out.num_rows - n_err], pa.int64()),
                "n_err": pa.array([n_err], pa.int64()),
            }
        )


def run_extract(
    input_path: str,
    output_dir: str,
    payloads,
    concurrency=4,
    batch_size: int = 64,
    resume: bool = True,
    strip_artifacts: bool = False,
):
    """Run the flagship pipeline with per-partition lineage + resume.

    Each task commits its shard through ``pipelines/commit.py``: a
    ``part-<hash>.parquet`` plus a manifest ``{doc_ids, n_ok, n_err, flags,
    file}``, the commit record. Resume garbage-collects orphan shards,
    refuses manifests written under other ``flags`` and re-extracts every
    doc no manifest lists; consumers read committed output via
    ``read_extracted`` (manifest-listed files only), which together give
    exactly-once output semantics.

    Shards are written from inside the extract tasks (ExtractWriteStage),
    so span tables never transit the object store.
    """
    import ray
    import ray.data as rd

    pref = payloads if not isinstance(payloads, dict) else ray.put(payloads)
    stage = ExtractWriteStage(
        payloads=pref, output_dir=output_dir, strip_artifacts=strip_artifacts
    )
    docs_ds = rd.read_parquet(input_path)
    skipped = 0
    if resume:
        gc_orphan_shards(output_dir)
        manifests = resume_manifests(output_dir, stage.identity)
        # committed doc count from manifest counters only — the doc_ids
        # themselves stay distributed (resume_remaining reads them as a
        # Dataset; no driver set, no broadcast)
        skipped = sum(m["n_ok"] + m["n_err"] for m in manifests)
        if manifests:
            docs_ds = resume_remaining(docs_ds, output_dir)

    os.makedirs(manifest_dir(output_dir), exist_ok=True)

    stats = docs_ds.map_batches(
        stage,
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    ).to_pandas()
    if "n_ok" not in stats.columns:  # fully-resumed run: nothing to do
        return {"n_ok": 0, "n_err": 0, "skipped": skipped}
    return {
        "n_ok": int(stats["n_ok"].sum()),
        "n_err": int(stats["n_err"].sum()),
        "skipped": skipped,
    }
