"""Skew defusal (SURVEY.md §4, §2.8): giant multi-hundred-page documents
split into (doc_id, page_lo, page_hi) work units so one outlier can't pin
a task for minutes, then reassembled per doc with a salted groupby.

Partitioning assumptions (documented per the brief):
- span order within a page range is the content-operator order the
  interpreter emits; global order = concatenation in (page_lo, local
  order) — pages are independent for span extraction (text state resets
  per page), so splitting is exact, not approximate
- the reassembly groupby keys on ``doc_id`` — when one doc_id is hot
  (thousands of ranges) the salt column bounds reducer fan-in
"""

from __future__ import annotations

import pyarrow as pa

from ..pdfcore.document import Document
from ..pdfcore.interp import Interpreter
from .extract import (
    _MAX_ERROR_LEN,
    FONT_CACHE,
    doc_bucket,
    extracted_table,
    payload_fetcher,
)


def salted_groupby(ds, key: str, combiner, salt_buckets: int = 16):
    """Two-phase groupby for hot keys (SURVEY.md §2.8 skew row): a salt
    column ``hash(row) % salt_buckets`` splits each key's rows across
    reducers; ``combiner`` (pandas group -> 1-row pandas frame, and
    associative: combiner(combiner(A)+combiner(B)) == combiner(A+B)) runs
    per (key, salt) sub-group and once more per key to merge."""
    import numpy as np
    import pandas as pd

    def add_salt(batch: pa.Table) -> pa.Table:
        # vectorized deterministic mix (Fibonacci hashing): same batch ->
        # same salts on a Ray task retry, no per-row Python hash() loop
        n = batch.num_rows
        idx = np.arange(n, dtype=np.uint64)
        mixed = (idx * np.uint64(0x9E3779B97F4A7C15) + np.uint64(n)) >> np.uint64(
            32
        )
        salts = pa.array((mixed % np.uint64(salt_buckets)).astype("int32"))
        return batch.append_column("__salt", salts)

    partial = (
        ds.map_batches(add_salt, batch_format="pyarrow")
        .groupby([key, "__salt"])
        .map_groups(
            lambda g: combiner(g.drop(columns="__salt")),
            batch_format="pandas",
        )
    )
    return partial.groupby(key).map_groups(combiner, batch_format="pandas")


def plan_page_ranges(docs_ds, payloads, pages_per_unit: int = 25):
    """Sizing pass: one cheap parse of each doc's page COUNT (xref + page
    tree only, no content decode) -> (doc_id, media_ref, page_lo, page_hi)
    work units. Single-media-span docs only (the giant-doc shape). A
    missing or unparseable payload is planned as one unit, which
    ``RangeExtractStage`` turns into the doc's error row."""
    import ray

    ref = payloads if not isinstance(payloads, dict) else ray.put(payloads)

    def plan(batch: pa.Table) -> pa.Table:
        fetch = payload_fetcher(ref)
        doc_ids, refs, los, his = [], [], [], []
        for doc_id, spans in zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ):
            media = [s for s in spans or [] if s.get("kind") == "media"]
            if len(media) != 1:
                continue
            mref = media[0]["media_ref"]
            try:
                n_pages = len(Document(fetch(mref)).pages)
            except Exception:
                n_pages = 0  # poison: one unit, fails row-level downstream
            for lo in range(0, max(1, n_pages), pages_per_unit):
                doc_ids.append(doc_id)
                refs.append(mref)
                los.append(lo)
                his.append(min(lo + pages_per_unit, max(1, n_pages)))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.string()),
                "media_ref": pa.array(refs, pa.string()),
                "page_lo": pa.array(los, pa.int32()),
                "page_hi": pa.array(his, pa.int32()),
            }
        )

    return docs_ds.map_batches(plan, batch_format="pyarrow")


class RangeExtractStage:
    """Extract spans for one (doc_id, page_lo, page_hi) unit."""

    def __init__(self, payloads=None):
        self.payloads = payloads

    def __call__(self, batch: pa.Table) -> pa.Table:
        fetch = payload_fetcher(self.payloads)
        out_rows = {
            "doc_id": [], "page_lo": [], "kind": [], "text": [],
            "media_ref": [], "local_order": [], "error": [],
        }
        for doc_id, mref, lo, hi in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("media_ref").to_pylist(),
            batch.column("page_lo").to_pylist(),
            batch.column("page_hi").to_pylist(),
        ):
            try:
                doc = Document(fetch(mref))
                interp = Interpreter(doc, font_cache=FONT_CACHE)
                for page in doc.pages[lo:hi]:
                    interp._run_page(page)
                for i, (k, t, r) in enumerate(interp.spans):
                    out_rows["doc_id"].append(doc_id)
                    out_rows["page_lo"].append(lo)
                    out_rows["kind"].append(k)
                    out_rows["text"].append(t)
                    out_rows["media_ref"].append(r)
                    out_rows["local_order"].append(i)
                    out_rows["error"].append(None)
            except Exception as e:
                out_rows["doc_id"].append(doc_id)
                out_rows["page_lo"].append(lo)
                out_rows["kind"].append("error")
                out_rows["text"].append(None)
                out_rows["media_ref"].append(None)
                out_rows["local_order"].append(0)
                out_rows["error"].append(
                    f"{type(e).__name__}: {e}"[:_MAX_ERROR_LEN]
                )
        return pa.table(
            {
                "doc_id": pa.array(out_rows["doc_id"], pa.string()),
                "page_lo": pa.array(out_rows["page_lo"], pa.int32()),
                "kind": pa.array(out_rows["kind"], pa.string()),
                "text": pa.array(out_rows["text"], pa.string()),
                "media_ref": pa.array(out_rows["media_ref"], pa.string()),
                "local_order": pa.array(out_rows["local_order"], pa.int32()),
                "error": pa.array(out_rows["error"], pa.string()),
            }
        )


def extract_split(
    docs_ds,
    payloads,
    pages_per_unit: int = 25,
    concurrency=4,
    batch_size: int = 16,
):
    """Split -> extract -> reassemble. Returns a Dataset with the EXTRACTED
    shape (doc_id, spans, n_spans, status, error); span order restored by
    sorting each doc's rows on (page_lo, local_order)."""
    import pandas as pd
    import ray

    ref = payloads if not isinstance(payloads, dict) else ray.put(payloads)
    units = plan_page_ranges(docs_ds, ref, pages_per_unit=pages_per_unit)
    rows = units.map_batches(
        RangeExtractStage(payloads=ref),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
        num_cpus=1,
    )

    def add_bucket(t: pa.Table) -> pa.Table:
        """bucket = crc32(doc_id) %% B — B FIXED reducer groups instead of
        one Python map_groups call per doc (per-group overhead is the
        death mode at high doc cardinality). All of a doc's range rows
        share the bucket, so in-bucket reassembly is complete per doc."""
        return t.append_column("bucket", doc_bucket(t.column("doc_id")))

    def reassemble_bucket(g: pd.DataFrame) -> pa.Table:
        """One Arrow table for ALL docs in the bucket, assembled like
        ExtractStage's (``extracted_table``). Span order is
        restored by the (doc_id, page_lo, local_order) sort; doc order
        within the bucket is irrelevant downstream (D5 ordering is
        per-doc)."""
        g = g.sort_values(
            ["doc_id", "page_lo", "local_order"], kind="mergesort"
        )
        doc_ids: list[str] = []
        kinds: list[str] = []
        texts: list[str | None] = []
        refs: list[str | None] = []
        orders: list[int] = []
        offsets: list[int] = [0]
        n_spans: list[int] = []
        statuses: list[str] = []
        errors: list[str | None] = []
        for doc_id, d in g.groupby("doc_id", sort=False):
            doc_ids.append(doc_id)
            err = d["error"].dropna()
            if len(err):
                statuses.append("error")
                errors.append(err.iloc[0])
                n_spans.append(0)
            else:
                kinds.extend(d["kind"])
                texts.extend(None if pd.isna(t) else t for t in d["text"])
                refs.extend(
                    None if pd.isna(r) else r for r in d["media_ref"]
                )
                orders.extend(range(len(d)))
                statuses.append("ok")
                errors.append(None)
                n_spans.append(len(d))
            offsets.append(len(kinds))
        return extracted_table(
            pa.array(doc_ids, pa.string()),
            kinds, texts, refs, orders, offsets, n_spans, statuses, errors,
        )

    return (
        rows.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda g: reassemble_bucket(g.drop(columns="bucket")),
            batch_format="pandas",
        )
    )
