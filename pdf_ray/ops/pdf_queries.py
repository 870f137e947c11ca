"""Driver-facing PDF-extraction queries with DuckDB-checkable oracles.

The extraction pipeline runs over the committed fixture corpus
(``fixtures_data/``, written by ``python -m pdf_ray.fixtures.build``); the
oracle SQL reads the *hand-written* golden parquet — so the driver's
row-count + schema + value-hash comparison is a genuine end-to-end
span-sequence-equality check of the whole Ray pipeline.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq

FIXTURES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "fixtures_data",
)


def _fixture_payloads(docs_file="docs.parquet", payloads_file="payloads.parquet"):
    """A committed fixture corpus as (docs Dataset, ObjectRef of the
    ``media_ref -> bytes`` payload store)."""
    import ray
    import ray.data as rd

    docs = rd.read_parquet(os.path.join(FIXTURES_DIR, docs_file))
    ptbl = pq.read_table(os.path.join(FIXTURES_DIR, payloads_file))
    payloads = dict(
        zip(ptbl.column("media_ref").to_pylist(), ptbl.column("bytes").to_pylist())
    )
    return docs, ray.put(payloads)


def _fixture_stage_query(kind: str):
    """The fixture corpus through ``DocRowStage(emit=kind)`` tasks."""
    from ..stages.extract import DocRowStage

    docs, payloads = _fixture_payloads()
    return docs.map_batches(
        DocRowStage(payloads=payloads, emit=kind),
        batch_format="pyarrow",
        batch_size=64,
    )


def _load(concurrency=4, apply_tounicode=False, apply_actual_text=False,
          recover=False, strip_artifacts=False, strip_hidden_ocg=False):
    from ..pipelines.extract import extract_dataset

    docs, payloads = _fixture_payloads()
    return extract_dataset(
        docs,
        payloads,
        concurrency=concurrency,
        apply_tounicode=apply_tounicode,
        apply_actual_text=apply_actual_text,
        recover=recover,
        strip_artifacts=strip_artifacts,
        strip_hidden_ocg=strip_hidden_ocg,
    )


def pdf_extract_spans(sf_dir: str | None = None):
    """Flagship: interleaved docs -> extracted spans, exploded to one row
    per span (doc_id, kind, text, media_ref, order)."""
    from ..pipelines.extract import explode_spans

    return explode_spans(_load())


def pdf_extract_unicode(sf_dir: str | None = None):
    """Extraction with the ToUnicode enrichment stage applied: span text is
    CMap-mapped unicode (a capability the reference lacks; its ToUnicode
    wrapper is never interpreted, src/font/cmap.rs:5-10). Oracle: the
    hand-derived golden_unicode parquet."""
    from ..pipelines.extract import explode_spans

    return explode_spans(_load(apply_tounicode=True))


def pdf_extract_spans_split(sf_dir: str | None = None):
    """Extraction through the giant-doc SPLIT path (page-range work units
    -> ordered reassembly, stages/skew.py) over the single-media fixture
    docs — must be span-for-span identical to the direct path's golden."""
    from ..pipelines.extract import explode_spans
    from ..stages.skew import extract_split

    docs, payloads = _fixture_payloads()
    out = extract_split(
        docs, payloads, pages_per_unit=30, concurrency=4, batch_size=16
    )
    return explode_spans(out)


def pdf_extract_status(sf_dir: str | None = None):
    """Per-document status/row-count view (poison containment check)."""
    return _load().select_columns(["doc_id", "n_spans", "status"])


def pdf_image_features(sf_dir: str | None = None):
    """Extract image blobs -> multimodal ImageFeatureStage (decode PNG,
    vectorized pixel features). Oracle: constants derived by hand from the
    fixture's literal pixel data (corpus.py IMG_PIXELS)."""
    from ..pipelines.extract import extract_image_blobs
    from ..stages.multimodal import ImageFeatureStage

    blobs = extract_image_blobs(*_fixture_payloads())
    return blobs.map_batches(
        ImageFeatureStage(), batch_format="pyarrow", batch_size=16
    )


def _fixture_image_list() -> list:
    """Every distinct fixture image as (ref, w, h, literal_pixels) — the
    ONE hand-maintained inventory both image oracles enumerate (add new
    image fixtures here)."""
    from ..fixtures import corpus as fc

    return [
        (fc.IMG_REF, fc.IMG_W, fc.IMG_H, fc.IMG_PIXELS),
        (fc.IDX_REF, fc.IDX_W, fc.IDX_H, fc.IDX_PIXELS),
        (fc.DCT_REF, fc.DCT_W, fc.DCT_H, fc.DCT_PIXELS),
        (fc.CCITT_REF, fc.CCITT_W, fc.CCITT_H, fc.CCITT_PIXELS),
        (fc.PROG_REF, fc.PROG_W, fc.PROG_H, fc.PROG_PIXELS),
        (fc.JB2_REF, fc.JB2_W, fc.JB2_H, fc.JB2_PIXELS),
        (fc.JB2T_REF, fc.JB2T_W, fc.JB2T_H, fc.JB2T_PIXELS),
        (fc.JPX_REF, fc.JPX_W, fc.JPX_H, fc.JPX_PIXELS),
        (fc.JPXC_REF, fc.JPXC_W, fc.JPXC_H, fc.JPXC_PIXELS),
        (fc.JPX20_REF, fc.JPX20_W, fc.JPX20_H, fc.JPX20_PIXELS),
        (fc.OCG_IMG_REF, fc.OCG_IMG_W, fc.OCG_IMG_H, fc.OCG_IMG_PIXELS),
        (fc.TINT_A_REF, fc.TINT_W, fc.TINT_H, fc.TINT_A_PIXELS),
        (fc.TINT_B_REF, fc.TINT_W, fc.TINT_H, fc.TINT_B_PIXELS),
        (fc.TINT_C_REF, fc.TINT_C_W, fc.TINT_C_H, fc.TINT_C_PIXELS),
        (fc.TINT_D_REF, fc.TINT_W, fc.TINT_H, fc.TINT_D_PIXELS),
    ]


def _image_features_oracle() -> str:
    # derived from the literal fixture pixels, not from engine code
    rows = []
    for ref, w, h, pixels in _fixture_image_list():
        n = w * h
        mean = [int(sum(pixels[c::3]) / n) for c in range(3)]
        rows.append(
            f"SELECT '{ref}' AS media_ref, {w}::INT AS width, "
            f"{h}::INT AS height, {mean[0]}::INT AS mean_r, "
            f"{mean[1]}::INT AS mean_g, {mean[2]}::INT AS mean_b"
        )
    return " UNION ALL ".join(rows)


def pdf_annotations(sf_dir: str | None = None):
    """Annotation text extraction (FreeText/Text /Contents + Widget field
    values with /Parent inheritance): the ``annotations`` DocRowStage over
    the fixture corpus. Oracle: the hand-written F28_ANNOTS golden expanded
    per replica."""
    return _fixture_stage_query("annotations")


# The corpus's two poison fixtures fail Document() with these exact
# (deterministic) messages; every DocRowStage kind with an error row
# surfaces them rather than silently dropping the doc, so the oracles
# expect them too.
_POISON_ERRORS = [
    ("f19a", "PdfParseError: startxref not found"),
    ("f19b", "PdfParseError: xref offset 999999999 beyond EOF"),
]


def _annotations_oracle() -> str:
    # hand-written golden (corpus.F28_ANNOTS) x the committed replica
    # count; only f28 docs carry /Annots, and the poison docs each yield
    # one explicit error row
    from ..fixtures.corpus import F28_ANNOTS
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for ai, subtype, text, fname in F28_ANNOTS:
            t = "NULL" if text is None else f"'{text}'"
            f = "NULL" if fname is None else f"'{fname}'"
            rows.append(
                f"SELECT 'f28-{r:04d}' AS doc_id, 0::INT AS page_index, "
                f"{ai}::INT AS annot_index, '{subtype}' AS subtype, "
                f"{t}::VARCHAR AS text, {f}::VARCHAR AS field_name"
            )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, -1::INT AS page_index, "
                f"-1::INT AS annot_index, '__error__' AS subtype, "
                f"'{msg}'::VARCHAR AS text, NULL::VARCHAR AS field_name"
            )
    return " UNION ALL ".join(rows)


def pdf_actualtext_spans(sf_dir: str | None = None):
    """Extraction with the /ActualText enrichment applied (marked-content
    replacement text — a capability the reference lacks, it only tracks
    the tag stack), filtered to the f32 docs where the enrichment differs
    from raw parity. Oracle: hand-written F32_ACTUALTEXT expansion."""
    import pyarrow.compute as _pc

    from ..pipelines.extract import explode_spans

    return explode_spans(_load(apply_actual_text=True)).map_batches(
        lambda t: t.filter(_pc.starts_with(t.column("doc_id"), "f32-")),
        batch_format="pyarrow",
    )


def _actualtext_oracle() -> str:
    from ..fixtures.corpus import F32_ACTUALTEXT
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for i, text in enumerate(F32_ACTUALTEXT):
            rows.append(
                f"SELECT 'f32-{r:04d}' AS doc_id, 'text' AS kind, "
                f"'{text}' AS text, NULL::VARCHAR AS media_ref, "
                f"{i}::INT AS \"order\""
            )
    return " UNION ALL ".join(rows)


def pdf_extract_recovered(sf_dir: str | None = None):
    """Extraction with RECOVERY parsing (scavenger xref rebuild — the
    reference crashes on these files by design), filtered to the poison
    f19 docs: the bad-startxref doc (f19b) yields its real text; the
    truncated doc (f19a) still fails cleanly and contributes no rows.
    Oracle: hand-written per-replica expansion."""
    import pyarrow.compute as _pc

    from ..pipelines.extract import explode_spans

    return explode_spans(_load(recover=True)).map_batches(
        lambda t: t.filter(_pc.starts_with(t.column("doc_id"), "f19")),
        batch_format="pyarrow",
    )


def _recovered_oracle() -> str:
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        rows.append(
            f"SELECT 'f19b-{r:04d}' AS doc_id, 'text' AS kind, "
            f"'Bad xref' AS text, NULL::VARCHAR AS media_ref, 0::INT AS \"order\""
        )
    return " UNION ALL ".join(rows)


def pdf_outlines(sf_dir: str | None = None):
    """Outline/bookmark extraction (depth-first title hierarchy):
    the ``outlines`` DocRowStage over the fixture corpus. Oracle: the
    hand-written F31_OUTLINES golden expanded per replica."""
    return _fixture_stage_query("outlines")


def pdf_structure_text(sf_dir: str | None = None):
    """Tagged-PDF logical-structure extraction: /StructTreeRoot DFS with
    per-element text assembled from its /MCID marked-content sequences —
    reading order as tagged, independent of paint order (the reference
    captures the StructTreeRoot ref and never walks it, src/catalog.rs).
    Oracle: the hand-written F39_STRUCTURE golden expanded per replica."""
    return _fixture_stage_query("structure")


def _structure_oracle() -> str:
    from ..fixtures.corpus import F39_STRUCTURE
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for order, role, page, text in F39_STRUCTURE:
            rows.append(
                f"SELECT 'f39-{r:04d}' AS doc_id, {order}::INT AS elem_order, "
                f"'{role}' AS role, {page}::INT AS page_index, '{text}' AS text"
            )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, -1::INT AS elem_order, "
                f"'__error__' AS role, -1::INT AS page_index, '{msg}' AS text"
            )
    return " UNION ALL ".join(rows)


def pdf_main_content(sf_dir: str | None = None):
    """Artifact-stripped extraction (PDF main-content rule): spans painted
    inside /Artifact marked-content scopes — page headers, footers,
    pagination — are dropped and span order is re-enumerated, the PDF
    analogue of the HTML boilerplate strip. Oracle: golden_main parquet
    (hand-written MAIN_OVERRIDES for the artifact-bearing fixtures,
    identical to raw goldens elsewhere)."""
    from ..pipelines.extract import explode_spans

    return explode_spans(_load(strip_artifacts=True))


def _outlines_oracle() -> str:
    from ..fixtures.corpus import F31_OUTLINES
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for order, level, title in F31_OUTLINES:
            rows.append(
                f"SELECT 'f31-{r:04d}' AS doc_id, {order}::INT AS \"order\", "
                f"{level}::INT AS level, '{title}' AS title"
            )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, -1::INT AS \"order\", "
                f"-1::INT AS level, '__error__ {msg}' AS title"
            )
    return " UNION ALL ".join(rows)


def pdf_span_kind_counts(sf_dir: str | None = None):
    """Aggregate over extraction output: spans per kind (Ray groupby)."""
    from ray.data.aggregate import Count

    from ..pipelines.extract import explode_spans

    out = explode_spans(_load()).groupby("kind").aggregate(Count(alias_name="n"))
    return out


def pdf_extract_metrics(sf_dir: str | None = None):
    """Job metrics rollup (SURVEY.md §2.8): per-status doc and span counts
    — the numbers a lineage manifest aggregates per partition."""
    from ray.data.aggregate import Count, Sum

    return (
        _load()
        .groupby("status")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_spans", alias_name="total_spans"),
        )
    )


def pdf_span_text_dedup(sf_dir: str | None = None):
    """Composition demo: the EXTRACTION pipeline chained straight into
    the DEDUP family — text spans grouped by content with span and
    distinct-document counts (the "which boilerplate strings repeat
    across the corpus" question). Per-batch partials (text, doc_id,
    count) -> bucket = hash(text) %% B reduce with a vectorized nunique.
    The group key is emitted as md5(text): content-addressed like the
    other dedup outputs (raw span text with control bytes also trips
    engine-dependent string collation in value comparison)."""
    import hashlib as _hl

    import pandas as pd

    from ..pipelines.extract import explode_spans

    N_B = 32

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["kind"] == "text"]
        g = df.groupby(["text", "doc_id"], as_index=False).agg(
            p_spans=("order", "size")
        )
        g["bucket"] = [
            int.from_bytes(_hl.md5(t.encode()).digest()[:4], "little") % N_B
            for t in g["text"]
        ]
        return g

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("text", as_index=False).agg(
            n_spans=("p_spans", "sum"), n_docs=("doc_id", "nunique")
        )
        out["text_md5"] = [
            _hl.md5(t.encode()).hexdigest() for t in out["text"]
        ]
        return out[["text_md5", "n_spans", "n_docs"]].astype(
            {"n_spans": "int64", "n_docs": "int64"}
        )

    return (
        explode_spans(_load())
        .map_batches(partial, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: combine(g.drop(columns="bucket")),
            batch_format="pandas",
        )
    )


GOLDEN = os.path.join(FIXTURES_DIR, "golden.parquet")

GOLDEN_UNICODE = os.path.join(FIXTURES_DIR, "golden_unicode.parquet")

PDF_ORACLE_SQL = {
    "pdf_extract_spans": f"""
        SELECT doc_id, s.kind AS kind, s.text AS text,
               s.media_ref AS media_ref, s."order" AS "order"
        FROM (SELECT doc_id, unnest(spans) AS s
              FROM read_parquet('{GOLDEN}'))
    """,
    "pdf_extract_spans_split": f"""
        SELECT doc_id, s.kind AS kind, s.text AS text,
               s.media_ref AS media_ref, s."order" AS "order"
        FROM (SELECT doc_id, unnest(spans) AS s
              FROM read_parquet('{GOLDEN}')
              WHERE doc_id NOT LIKE 'f20-%')
    """,
    "pdf_extract_unicode": f"""
        SELECT doc_id, s.kind AS kind, s.text AS text,
               s.media_ref AS media_ref, s."order" AS "order"
        FROM (SELECT doc_id, unnest(spans) AS s
              FROM read_parquet('{GOLDEN_UNICODE}'))
    """,
    "pdf_extract_status": f"""
        SELECT doc_id, n_spans, status FROM read_parquet('{GOLDEN}')
    """,
    "pdf_extract_metrics": f"""
        SELECT status, count(*)::BIGINT AS n_docs,
               sum(n_spans)::BIGINT AS total_spans
        FROM read_parquet('{GOLDEN}') GROUP BY 1
    """,
    "pdf_span_kind_counts": f"""
        SELECT s.kind AS kind, count(*) AS n
        FROM (SELECT unnest(spans) AS s FROM read_parquet('{GOLDEN}'))
        GROUP BY 1
    """,
}
PDF_ORACLE_SQL["pdf_span_text_dedup"] = f"""
    SELECT md5(s.text) AS text_md5, count(*)::BIGINT AS n_spans,
           count(DISTINCT doc_id)::BIGINT AS n_docs
    FROM (SELECT doc_id, unnest(spans) AS s FROM read_parquet('{GOLDEN}'))
    WHERE s.kind = 'text'
    GROUP BY 1
"""
GOLDEN_MAIN = os.path.join(FIXTURES_DIR, "golden_main.parquet")
PDF_ORACLE_SQL["pdf_main_content"] = f"""
    SELECT doc_id, s.kind AS kind, s.text AS text,
           s.media_ref AS media_ref, s."order" AS "order"
    FROM (SELECT doc_id, unnest(spans) AS s
          FROM read_parquet('{GOLDEN_MAIN}'))
"""
PDF_ORACLE_SQL["pdf_structure_text"] = _structure_oracle()
PDF_ORACLE_SQL["pdf_main_content_quality"] = f"""
    SELECT doc_id,
           count(*)::BIGINT AS n_text_spans,
           length(string_agg(txt, ' ' ORDER BY ord))::BIGINT AS n_chars,
           md5(string_agg(txt, ' ' ORDER BY ord)) AS text_md5
    FROM (SELECT doc_id, s.text AS txt, s."order" AS ord, s.kind AS kind
          FROM (SELECT doc_id, unnest(spans) AS s
                FROM read_parquet('{GOLDEN_MAIN}')))
    WHERE kind = 'text'
    GROUP BY doc_id
"""
PDF_ORACLE_SQL["pdf_image_features"] = _image_features_oracle()
PDF_ORACLE_SQL["pdf_annotations"] = _annotations_oracle()
PDF_ORACLE_SQL["pdf_outlines"] = _outlines_oracle()
PDF_ORACLE_SQL["pdf_actualtext_spans"] = _actualtext_oracle()
PDF_ORACLE_SQL["pdf_extract_recovered"] = _recovered_oracle()


def pdf_main_content_quality(sf_dir: str | None = None):
    """Chained pipeline: artifact-stripped extraction -> per-doc document
    assembly (text spans joined in span order) -> quality-shape features
    (span count, char count, content md5) — extraction output flowing
    straight into the text-analysis family with no intermediate
    materialization. Oracle: the same assembly recomputed by DuckDB over
    the hand-written golden_main parquet."""
    import hashlib as _hl

    import pandas as _pd

    from ..pipelines.extract import explode_spans

    N_QUALITY_BUCKETS = 64

    def text_only_with_bucket(t):
        """Prune to text spans BEFORE the shuffle, then bucket on
        crc32(doc_id) %% B — Ray's dynamic block splitting can cut a map
        task's output at any row boundary, so 'a doc's spans share a
        block' is NOT an invariant; the bucketed groupby is what
        guarantees each doc's spans reunite (round-3 ADVICE)."""
        import zlib

        import pyarrow as _pa
        import pyarrow.compute as _pc

        t = t.filter(_pc.equal(t.column("kind"), "text"))
        b = _pa.array(
            [
                zlib.crc32(d.encode()) % N_QUALITY_BUCKETS
                for d in t.column("doc_id").to_pylist()
            ],
            _pa.int32(),
        )
        return t.append_column("bucket", b)

    def assemble(df: _pd.DataFrame) -> _pd.DataFrame:
        out = []
        for doc_id, g in df.groupby("doc_id", sort=False):
            g = g.sort_values("order", kind="mergesort")
            # skip only None — empty strings contribute a separator
            # exactly as DuckDB string_agg does (round-3 ADVICE)
            text = " ".join(t for t in g["text"] if t is not None)
            out.append(
                (doc_id, len(g), len(text), _hl.md5(text.encode()).hexdigest())
            )
        return _pd.DataFrame(
            out, columns=["doc_id", "n_text_spans", "n_chars", "text_md5"]
        ).astype({"n_text_spans": "int64", "n_chars": "int64"})

    return (
        explode_spans(_load(strip_artifacts=True))
        .map_batches(text_only_with_bucket, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda g: assemble(g.drop(columns="bucket")), batch_format="pandas"
        )
    )


def pdf_form_fields(sf_dir: str | None = None):
    """Catalog-level AcroForm field extraction (dotted qualified names,
    /FT //V inheritance, widget-only kids don't split a field):
    the ``form_fields`` DocRowStage over the fixture corpus. Oracle: the
    hand-written F40_FORM golden expanded per replica."""
    return _fixture_stage_query("form_fields")


def _form_fields_oracle() -> str:
    from ..fixtures.corpus import F40_FORM
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for order, name, ftype, value in F40_FORM:
            rows.append(
                f"SELECT 'f40-{r:04d}' AS doc_id, {order}::INT AS field_order, "
                f"'{name}' AS name, '{ftype}' AS ftype, '{value}' AS value"
            )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, -1::INT AS field_order, "
                f"'__error__' AS name, NULL::VARCHAR AS ftype, "
                f"'{msg}'::VARCHAR AS value"
            )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["pdf_form_fields"] = _form_fields_oracle()


GOLDEN_OCG = os.path.join(FIXTURES_DIR, "golden_ocg.parquet")


def pdf_ocg_content(sf_dir: str | None = None):
    """Extraction with hidden optional-content stripped (strip_hidden_ocg):
    /OC marked scopes and /OC-tagged XObjects whose group is OFF in the
    /OCProperties default configuration are suppressed (pdfcore/ocg.py) —
    completing the main-content story alongside /Artifact stripping. The
    reference parses /OCProperties but never consults memberships
    (src/optional_content.rs:1-197). Oracle: the hand-written golden_ocg
    parquet (f43 keeps Shown/Layer/Tail; Secret, the OCMD'd AllOff and
    the hidden-group image are dropped)."""
    from ..pipelines.extract import explode_spans

    return explode_spans(_load(strip_hidden_ocg=True))


PDF_ORACLE_SQL["pdf_ocg_content"] = f"""
    SELECT doc_id, s.kind AS kind, s.text AS text,
           s.media_ref AS media_ref, s."order" AS "order"
    FROM (SELECT doc_id, unnest(spans) AS s
          FROM read_parquet('{GOLDEN_OCG}'))
"""


# -- image perceptual-hash dedup ---------------------------------------------

PHASH_MAX_HAMMING = 6
N_PHASH_BUCKETS = 32


def image_phash_dedup(sf_dir: str | None = None):
    """Image near-dup pairs via 63-bit dHash + hamming-LSH: the corpus's
    deduped image blobs UNIONED with their 32x32 nearest-neighbor
    resized re-encodes (media_ref + '#r32'), hashed with ``dhash63``
    (ImagePHashStage's hash), then paired with the SimHash block
    machinery — each hash emits 8 rows (block_id, 8-bit block_val),
    identical blocks colocate in a bucketed groupby, pairwise hamming is
    verified vectorized in-group, pair dedup in a second bucketed groupby. By
    pigeonhole a pair within hamming <= 7 shares >= 1 of the 8 blocks,
    so for k=6 the LSH is EXACT. Oracle: an independent pure-Python
    dHash recomputation from the fixtures' literal pixel constants,
    enumerated exhaustively over all hash pairs."""
    from ..pipelines.extract import extract_image_blobs
    from ..stages.multimodal import dhash63

    blobs = extract_image_blobs(*_fixture_payloads())

    import numpy as np
    import pandas as pd

    def phash_rows(t: pa.Table) -> pa.Table:
        """One decode per blob -> TWO hash rows: the original and its
        32x32 nearest-neighbor resize (ref + '#r32'). Emitting both from
        one stage avoids consuming the blob pipeline twice (a union of
        two branches re-executes the upstream extraction per consumer)."""
        from ..pdfcore.images import decode_png

        refs_out, hashes = [], []
        for ref, blob in zip(
            t.column("media_ref").to_pylist(), t.column("png").to_pylist()
        ):
            w, h, pixels = decode_png(blob)
            arr = np.frombuffer(pixels, dtype=np.uint8).reshape(h, w, 3)
            refs_out.append(ref)
            hashes.append(dhash63(w, h, arr))
            yi = (np.arange(32) * h // 32).clip(0, h - 1)
            xi = (np.arange(32) * w // 32).clip(0, w - 1)
            refs_out.append(ref + "#r32")
            hashes.append(dhash63(32, 32, arr[yi][:, xi]))
        return pa.table(
            {
                "media_ref": pa.array(refs_out, pa.string()),
                "phash": pa.array(hashes, pa.int64()),
            }
        )

    hashed = blobs.map_batches(phash_rows, batch_format="pyarrow")

    def block_rows(t: pa.Table) -> pa.Table:
        refs = t.column("media_ref").to_pylist()
        ph = t.column("phash").to_numpy().astype(np.uint64)
        n = len(refs)
        ref_col = [r for r in refs for _ in range(8)]
        phash = np.repeat(ph.astype(np.int64), 8)
        block_id = np.tile(np.arange(8, dtype=np.int64), n)
        block_val = (phash.astype(np.uint64) >> (8 * block_id.astype(np.uint64))
                     ).astype(np.int64) & 0xFF
        bucket = ((block_id * 257 + block_val) % N_PHASH_BUCKETS).astype("int32")
        return pa.table(
            {
                "bucket": pa.array(bucket),
                "block_id": pa.array(block_id),
                "block_val": pa.array(block_val),
                "media_ref": pa.array(ref_col, pa.string()),
                "phash": pa.array(phash),
            }
        )

    def pairs_of_bucket(g: pd.DataFrame) -> pd.DataFrame:
        out = []
        for _, grp in g.groupby(["block_id", "block_val"], sort=False):
            if len(grp) < 2:
                continue
            grp = grp.sort_values("media_ref")
            refs = grp["media_ref"].to_numpy()
            sh = grp["phash"].to_numpy().astype(np.uint64)
            bits = np.unpackbits(
                sh.view(np.uint8).reshape(len(sh), 8), axis=1
            ).astype(np.float32)
            ones = bits @ bits.T
            zeros = (1 - bits) @ (1 - bits).T
            hamming = 64 - ones - zeros
            hit = np.triu(hamming <= PHASH_MAX_HAMMING, k=1)
            ii, jj = np.where(hit)
            for a, b in zip(ii, jj):
                out.append((refs[a], refs[b], int(hamming[a, b])))
        return pd.DataFrame(
            out, columns=["ref_a", "ref_b", "hamming"]
        ).astype({"hamming": "int64"}) if out else pd.DataFrame(
            {
                "ref_a": pd.Series(dtype=object),
                "ref_b": pd.Series(dtype=object),
                "hamming": pd.Series(dtype="int64"),
            }
        )

    def add_pair_bucket(t: pa.Table) -> pa.Table:
        import hashlib as _hl

        pb = pa.array(
            [
                int.from_bytes(
                    _hl.md5((a + "|" + b).encode()).digest()[:4], "little"
                )
                % N_PHASH_BUCKETS
                for a, b in zip(
                    t.column("ref_a").to_pylist(), t.column("ref_b").to_pylist()
                )
            ],
            pa.int32(),
        )
        return t.append_column("pbucket", pb)

    return (
        hashed.map_batches(block_rows, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda g: pairs_of_bucket(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("pbucket")
        .map_groups(
            lambda g: g.drop(columns="pbucket").drop_duplicates(),
            batch_format="pandas",
        )
    )


def _phash_oracle() -> str:
    """Ground truth recomputed INDEPENDENTLY from the fixtures' literal
    pixel constants with plain-Python loops (no numpy, no engine code):
    luma -> 9x8 center-sampled grid -> dHash bits -> exhaustive pairwise
    hamming over originals + replicated 32x32 nearest-neighbor resizes."""
    def luma_grid(w, h, flat):
        # flat = [r,g,b, r,g,b, ...] row-major
        def lum(x, y):
            i = 3 * (y * w + x)
            return (flat[i] * 299 + flat[i + 1] * 587 + flat[i + 2] * 114) // 1000

        rows = [min((2 * j + 1) * h // 16, h - 1) for j in range(8)]
        cols = [min((2 * i + 1) * w // 18, w - 1) for i in range(9)]
        return [[lum(x, y) for x in cols] for y in rows]

    def dhash(w, h, flat):
        grid = luma_grid(w, h, flat)
        v = 0
        for j in range(8):
            for i in range(8):
                if grid[j][i] < grid[j][i + 1]:
                    v |= 1 << (j * 8 + i)
        return v & ((1 << 63) - 1)

    def resize32(w, h, flat):
        out = []
        for ty in range(32):
            sy = min(ty * h // 32, h - 1)
            for tx in range(32):
                sx = min(tx * w // 32, w - 1)
                i = 3 * (sy * w + sx)
                out.extend(flat[i : i + 3])
        return out

    hashes = {}
    for ref, w, h, px in _fixture_image_list():
        px = list(px)
        hashes[ref] = dhash(w, h, px)
        hashes[ref + "#r32"] = dhash(32, 32, resize32(w, h, px))

    rows = []
    refs = sorted(hashes)
    for x in range(len(refs)):
        for y in range(x + 1, len(refs)):
            hx, hy = hashes[refs[x]], hashes[refs[y]]
            d = bin(hx ^ hy).count("1")
            if d <= PHASH_MAX_HAMMING:
                rows.append(
                    f"SELECT '{refs[x]}' AS ref_a, '{refs[y]}' AS ref_b, "
                    f"{d}::BIGINT AS hamming"
                )
    if not rows:  # degenerate guard: never expected for this corpus
        rows.append(
            "SELECT ''::VARCHAR AS ref_a, ''::VARCHAR AS ref_b, "
            "0::BIGINT AS hamming WHERE 1=0"
        )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["image_phash_dedup"] = _phash_oracle()


def pdf_page_labels(sf_dir: str | None = None):
    """Catalog /PageLabels number-tree walk (Kids/Limits/Nums) with
    §12.4.2 label formatting (roman/decimal/letter styles, prefixes,
    start offsets): the ``page_labels`` DocRowStage over the fixture
    corpus.
    Oracle: the hand-written F45_LABELS golden expanded per replica.
    The reference ships the generic number-tree structure
    (src/data_structures/number_tree.rs) but never surfaces labels."""
    return _fixture_stage_query("page_labels")


def _page_labels_oracle() -> str:
    from ..fixtures.corpus import F45_LABELS
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for idx, label in F45_LABELS:
            rows.append(
                f"SELECT 'f45-{r:04d}' AS doc_id, {idx}::INT AS page_index, "
                f"'{label}' AS label"
            )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, -1::INT AS page_index, "
                f"'__error__ {msg}' AS label"
            )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["pdf_page_labels"] = _page_labels_oracle()


def pdf_metadata(sf_dir: str | None = None):
    """Trailer /Info extraction (title/author/subject/producer + parsed
    CreationDate): the ``metadata`` DocRowStage over the fixture corpus.
    Oracle: the hand-written F46_INFO golden expanded per replica."""
    return _fixture_stage_query("metadata")


def _metadata_oracle() -> str:
    from ..fixtures.corpus import F46_INFO
    from ..fixtures.tables import DEFAULT_REPLICAS

    t, a, s, p, (y, m, d) = F46_INFO
    rows = []
    for r in range(DEFAULT_REPLICAS):
        rows.append(
            f"SELECT 'f46-{r:04d}' AS doc_id, '{t}' AS title, "
            f"'{a}' AS author, '{s}' AS subject, '{p}' AS producer, "
            f"{y}::INT AS created_y, {m}::INT AS created_m, "
            f"{d}::INT AS created_d"
        )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, '__error__' AS title, "
                f"NULL::VARCHAR AS author, NULL::VARCHAR AS subject, "
                f"'{msg}' AS producer, -1::INT AS created_y, "
                f"-1::INT AS created_m, -1::INT AS created_d"
            )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["pdf_metadata"] = _metadata_oracle()


def pdf_embedded_files(sf_dir: str | None = None):
    """Attachment extraction from the /Names -> /EmbeddedFiles name tree
    (Kids/Limits recursion, /EF /F payload streams decoded): the
    ``embedded_files`` DocRowStage. Oracle: hand-derived md5/size constants of the
    literal ATTACH_A/ATTACH_B payload bytes, per replica."""
    return _fixture_stage_query("embedded_files")


def _embedded_files_oracle() -> str:
    import hashlib as _hl

    from ..fixtures.corpus import ATTACH_A, ATTACH_B
    from ..fixtures.tables import DEFAULT_REPLICAS

    files = [
        ("alpha.bin", "alpha-unicode.bin", ATTACH_A),
        ("beta.txt", "beta.txt", ATTACH_B),
    ]
    rows = []
    for r in range(DEFAULT_REPLICAS):
        for name, fname, data in files:
            rows.append(
                f"SELECT 'f47-{r:04d}' AS doc_id, '{name}' AS name, "
                f"'{fname}' AS filename, {len(data)}::BIGINT AS n_bytes, "
                f"'{_hl.md5(data).hexdigest()}' AS md5"
            )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, '__error__' AS name, "
                f"'{msg}' AS filename, -1::BIGINT AS n_bytes, "
                f"NULL::VARCHAR AS md5"
            )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["pdf_embedded_files"] = _embedded_files_oracle()


def pdf_font_spans(sf_dir: str | None = None):
    """Font-attributed text spans (/BaseFont + Tf size per show op,
    through form-XObject font scoping): the ``font_spans`` DocRowStage,
    projected to the f48 multi-font fixture docs (the corpus-wide stage
    is generic; the hand-written golden covers the fixture built for
    it). The reference carries this state for rendering
    (src/render/text_state.rs) but never exposes it."""
    def only_f48(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc

        return t.filter(
            _pc.starts_with(t.column("doc_id"), pattern="f48-")
        )

    return _fixture_stage_query("font_spans").map_batches(
        only_f48, batch_format="pyarrow"
    )


def _font_spans_oracle() -> str:
    from ..fixtures.corpus import F48_FONTS
    from ..fixtures.tables import DEFAULT_REPLICAS

    rows = []
    for r in range(DEFAULT_REPLICAS):
        for order, text, font, size_milli in F48_FONTS:
            rows.append(
                f"SELECT 'f48-{r:04d}' AS doc_id, {order}::INT AS span_order, "
                f"'{text}' AS text, '{font}' AS font, "
                f"{size_milli}::BIGINT AS size_milli"
            )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["pdf_font_spans"] = _font_spans_oracle()


def pdf_icc_profiles(sf_dir: str | None = None):
    """ICC profile introspection (/ICCBased colorspace streams): header
    fields + tag-table signatures per profile, the reference's
    src/icc_profile surface (round-4 verdict missing #4). The
    ``icc_profiles`` DocRowStage over the fixture corpus; oracle = the literal
    hand-built profile constants (corpus.ICC_HEADER / ICC_TAGS)."""
    return _fixture_stage_query("icc_profiles")


def _icc_profiles_oracle() -> str:
    from ..fixtures.corpus import ICC_HEADER, ICC_TAGS
    from ..fixtures.tables import DEFAULT_REPLICAS

    h = ICC_HEADER
    sigs = ",".join(s for s, _o, _l in ICC_TAGS)
    rows = []
    for r in range(DEFAULT_REPLICAS):
        rows.append(
            f"SELECT 'f49-{r:04d}' AS doc_id, 0::INT AS page_index, "
            f"'CS0' AS cs_name, {h['profile_size']}::BIGINT AS profile_size, "
            f"{h['version_major']}::INT AS version_major, "
            f"{h['version_minor']}::INT AS version_minor, "
            f"'{h['device_class']}' AS device_class, "
            f"'{h['colour_space']}' AS colour_space, '{h['pcs']}' AS pcs, "
            f"{h['rendering_intent']}::BIGINT AS rendering_intent, "
            f"{len(ICC_TAGS)}::BIGINT AS n_tags, '{sigs}' AS tag_sigs"
        )
        for fx, msg in _POISON_ERRORS:
            rows.append(
                f"SELECT '{fx}-{r:04d}' AS doc_id, -1::INT AS page_index, "
                f"'__error__' AS cs_name, -1::BIGINT AS profile_size, "
                f"-1::INT AS version_major, -1::INT AS version_minor, "
                f"'{msg}'::VARCHAR AS device_class, "
                f"NULL::VARCHAR AS colour_space, NULL::VARCHAR AS pcs, "
                f"-1::BIGINT AS rendering_intent, -1::BIGINT AS n_tags, "
                f"NULL::VARCHAR AS tag_sigs"
            )
    return " UNION ALL ".join(rows)


PDF_ORACLE_SQL["pdf_icc_profiles"] = _icc_profiles_oracle()
