"""Driver-facing HTML main-content queries (boilerplate strip + DOM
heuristics, the HTML half of the north rule's extraction pipeline).

Runs the SAME unified extraction pipeline as the PDF queries
(``extract_dataset`` -> ``ExtractStage`` tasks -> ``explode_spans``)
over the committed HTML fixture corpus; the stage dispatches ``html://``
media spans to ``htmlcore.extract_main_content``. Oracles read the
HAND-WRITTEN golden parquet (``fixtures/htmlcorpus.py`` literals), so the
driver compare is a genuine end-to-end span-sequence-equality gate for
the HTML path — including the mixed text+html interleaved docs (hm01).
"""

from __future__ import annotations

import os

from .pdf_queries import FIXTURES_DIR, _fixture_payloads


def _load_html():
    return _fixture_payloads("html_docs.parquet", "html_payloads.parquet")


def html_main_content(sf_dir: str | None = None):
    """Interleaved html docs -> main-content spans, one row per span
    (doc_id, kind, text, media_ref, order). kind 'image' rows carry the
    in-content <img> src as media_ref — same invariant as the PDF path."""
    from ..pipelines.extract import explode_spans, extract_dataset

    docs, payloads = _load_html()
    return explode_spans(extract_dataset(docs, payloads))


def html_doc_summary(sf_dir: str | None = None):
    """Per-document boilerplate-strip summary: (doc_id, title, n_kept,
    n_dropped, status) over the single-media html fixture docs."""
    from ..stages.extract import DocRowStage

    docs, payloads = _load_html()
    return docs.filter(
        lambda row: not row["doc_id"].startswith("hm")
    ).map_batches(
        DocRowStage(payloads=payloads, emit="html_summary"),
        batch_format="pyarrow",
        batch_size=64,
    )


HTML_GOLDEN = os.path.join(FIXTURES_DIR, "html_golden.parquet")
HTML_SUMMARY = os.path.join(FIXTURES_DIR, "html_summary.parquet")

HTML_ORACLE_SQL = {
    "html_main_content": f"""
        SELECT doc_id, s.kind AS kind, s.text AS text,
               s.media_ref AS media_ref, s."order" AS "order"
        FROM (SELECT doc_id, unnest(spans) AS s
              FROM read_parquet('{HTML_GOLDEN}'))
    """,
    "html_doc_summary": f"""
        SELECT doc_id, title, n_kept, n_dropped, status
        FROM read_parquet('{HTML_SUMMARY}')
    """,
}
