"""Arrow schemas for the interleaved-document tables (FIXTURES.md §1-2,
BASELINE.json input_hint)."""

from __future__ import annotations

import pyarrow as pa

IN_SPAN = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "media"
        ("text", pa.string()),       # non-null for kind="text"
        ("media_ref", pa.string()),  # payload-store key for kind="media"
        ("offset", pa.int32()),      # span position within the document
    ]
)

DOCS = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(IN_SPAN))])

PAYLOADS = pa.schema(
    [("media_ref", pa.string()), ("bytes", pa.large_binary())]
)

OUT_SPAN = pa.struct(
    [
        ("kind", pa.string()),       # "text" | "image"
        ("text", pa.string()),
        ("media_ref", pa.string()),  # content-hash ref for extracted images
        ("order", pa.int32()),       # 0-based per doc, operator order
    ]
)

# Version of EXTRACTED, recorded in every extract manifest: a resume into
# shards written under another version is refused. Bump it with any change
# to EXTRACTED (tests/test_pipeline.py pins the schema to it).
EXTRACTED_SCHEMA_VERSION = 1

EXTRACTED = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(OUT_SPAN)),
        ("n_spans", pa.int32()),
        ("status", pa.string()),     # "ok" | "error"
        ("error", pa.string()),      # null when ok
    ]
)
