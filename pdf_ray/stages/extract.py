"""The extraction stages: ``map_batches`` callables run as Ray Data tasks.

``ExtractStage`` emits the span sequence of every document (the hot
path, with columnar batch assembly). ``DocRowStage`` emits one of the
``EMITTERS`` kinds — annotations, outlines, image blobs, structure, form
fields, ... — as flat rows, with one poison rule for all of them.

Design (SURVEY.md §2.8, §4):
- a stage is passed to ``map_batches`` as an *instance*, so Ray Data runs
  it on a task pool (no actor pool to start per job); the instance holds
  only the payload ref (or resolver) and the flags, so it pickles small
- per-process state lives at module level and survives across tasks and
  jobs in a reused worker: the payload dict of the last ``ObjectRef``
  (``payload_fetcher``) and the font-program cache (``FONT_CACHE``)
- batches are Arrow in / Arrow out (``batch_format="pyarrow"``); the
  per-document parse is necessarily row-wise Python, but batch assembly is
  columnar
- a poison PDF fails the ROW (status='error'), never the task: the
  reference crashes by design (244 todo! sites) and a task-retry loop on a
  deterministic panic would hang a 10^12-doc job (SURVEY.md §4 retries row)
- ``payloads`` is a ``ray.ObjectRef`` to a dict ``media_ref -> bytes``
  placed once with ``ray.put`` on the driver (broadcast, not re-shipped per
  batch). For payload stores too large to broadcast, pass
  ``payload_resolver`` — any picklable callable ``media_ref -> bytes``
  (e.g. a bucketed lookup service); the per-row logic is identical.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

import pyarrow as pa

from ..pdfcore.interp import Interpreter
from ..pdfcore.document import Document
from ..schema import EXTRACTED
from ..state.cache import LruCache

_MAX_ERROR_LEN = 512

# doc_id partitioner: every doc_id co-location (the resume anti-join, the
# skew reassembly) buckets on crc32(doc_id) %% N_DOC_BUCKETS
N_DOC_BUCKETS = 64


def doc_bucket(ids: pa.Array | pa.ChunkedArray) -> pa.Array:
    """``crc32(doc_id) %% N_DOC_BUCKETS`` for every id, as int32."""
    import zlib

    return pa.array(
        [zlib.crc32(d.encode()) % N_DOC_BUCKETS for d in ids.to_pylist()],
        pa.int32(),
    )


def extracted_table(
    doc_ids: pa.Array, kinds, texts, refs, orders, offsets, n_spans, statuses, errors
) -> pa.Table:
    """An ``EXTRACTED`` table from flat span lists plus list offsets (one
    per doc, starting at 0); dict columns would break Ray's block schema
    hashing."""
    span_struct = pa.StructArray.from_arrays(
        [
            pa.array(kinds, pa.string()),
            pa.array(texts, pa.string()),
            pa.array(refs, pa.string()),
            pa.array(orders, pa.int32()),
        ],
        names=["kind", "text", "media_ref", "order"],
    )
    return pa.Table.from_arrays(
        [
            doc_ids,
            pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), span_struct),
            pa.array(n_spans, pa.int32()),
            pa.array(statuses, pa.string()),
            pa.array(errors, pa.string()),
        ],
        schema=EXTRACTED,
    )

# Parsed font programs, shared by every stage and job in this process.
# Keys are (parser name, sha256 of the program bytes), so an entry is
# right for any stage that finds it. LRU-bounded so adversarial corpora
# can't grow the worker heap (the reference reloads fonts per draw_text
# call, SURVEY §2.5).
FONT_CACHE = LruCache(max_entries=4096)

# The payload dict of the last ObjectRef this process resolved, as
# (ref.hex(), dict): one entry, so a new ref replaces the old store.
_store: tuple[str, dict] | None = None


def payload_fetcher(payloads=None, payload_resolver=None):
    """``media_ref -> bytes`` for a stage, read from the broadcast store
    (``payloads``: the dict or its ``ObjectRef``), else from the caller's
    ``payload_resolver`` (``media_ref -> bytes | None``). A payload found
    in neither raises ``KeyError``, which becomes the document's error
    row. An ``ObjectRef`` is resolved with ``ray.get`` once per process
    and kept until another ref is asked for."""
    global _store
    if isinstance(payloads, dict):
        get = payloads.get
    elif payloads is not None:
        key = payloads.hex()
        if _store is None or _store[0] != key:
            import ray

            _store = None  # never hold two stores at once
            _store = (key, ray.get(payloads))
        get = _store[1].get
    else:
        get = payload_resolver or (lambda ref: None)

    def fetch(ref):
        blob = get(ref)
        if blob is None:
            raise KeyError(f"payload {ref!r} not found")
        return blob

    return fetch


class ExtractStage:
    """Callable for ``ds.map_batches(ExtractStage(payloads=ref, ...),
    concurrency=N, batch_format="pyarrow")``."""

    def __init__(
        self,
        payloads=None,
        payload_resolver=None,
        collect_images=False,
        apply_tounicode=False,
        apply_actual_text=False,
        recover=False,
        strip_artifacts=False,
        strip_hidden_ocg=False,
    ):
        self.payloads = payloads
        self.payload_resolver = payload_resolver
        self.collect_images = collect_images
        self.apply_tounicode = apply_tounicode
        self.apply_actual_text = apply_actual_text
        self.recover = recover
        # main-content mode: drop spans painted inside /Artifact
        # marked-content scopes (page headers/footers/pagination — the PDF
        # analogue of the HTML boilerplate strip); span order is
        # re-enumerated over the kept sequence
        self.strip_artifacts = strip_artifacts
        # OCG mode: drop content inside /OC marked scopes and /OC-tagged
        # XObjects whose optional-content group is OFF in the default
        # configuration (pdfcore/ocg.py) — the other half of main-content
        # extraction (the reference parses /OCProperties but never
        # consults it, src/optional_content.rs)
        self.strip_hidden_ocg = strip_hidden_ocg

    def __call__(self, batch: pa.Table) -> pa.Table:
        """Columnar batch assembly: per-doc span tuples land in flat
        arrays + list offsets (no per-span dicts) — this path runs for
        every span in the corpus, so it stays allocation-light."""
        fetch = payload_fetcher(self.payloads, self.payload_resolver)
        doc_ids = batch.column("doc_id").to_pylist()
        in_spans = batch.column("spans").to_pylist()
        kinds: list[str] = []
        texts: list[str | None] = []
        refs: list[str | None] = []
        orders: list[int] = []
        offsets: list[int] = [0]
        statuses: list[str] = []
        errors: list[str | None] = []
        n_spans: list[int] = []
        for doc_id, spans in zip(doc_ids, in_spans):
            start = len(kinds)
            try:
                self._extract_doc(
                    fetch, spans or [], kinds, texts, refs, orders, start
                )
                statuses.append("ok")
                errors.append(None)
            except Exception as e:  # row-level containment
                del kinds[start:], texts[start:], refs[start:], orders[start:]
                statuses.append("error")
                errors.append(f"{type(e).__name__}: {e}"[:_MAX_ERROR_LEN])
            n_spans.append(len(kinds) - start)
            offsets.append(len(kinds))
        return extracted_table(
            batch.column("doc_id").combine_chunks(),
            kinds, texts, refs, orders, offsets, n_spans, statuses, errors,
        )

    def _extract_doc(
        self, fetch, in_spans, kinds, texts, refs, orders, start
    ) -> None:
        for sp in in_spans:
            kind = sp.get("kind")
            if kind == "text":
                kinds.append("text")
                texts.append(sp.get("text"))
                refs.append(None)
            elif kind == "media":
                ref = sp.get("media_ref")
                pdf_bytes = fetch(ref)
                if ref.startswith("html://"):
                    # HTML half of the main-content rule: boilerplate
                    # strip + DOM heuristics (htmlcore). Dispatch is by
                    # the corpus's payload-type scheme, never by content
                    # sniff — a malformed PDF must stay a PDF error row.
                    from ..htmlcore import extract_main_content

                    for hsp in extract_main_content(pdf_bytes)["spans"]:
                        kinds.append(hsp["kind"])
                        texts.append(hsp["text"])
                        refs.append(hsp["media_ref"])
                    continue
                doc = Document(pdf_bytes, recover=self.recover)
                hidden = None
                if self.strip_hidden_ocg:
                    from ..pdfcore.ocg import hidden_ocg_refs

                    hidden = hidden_ocg_refs(doc)
                interp = Interpreter(
                    doc,
                    collect_images=self.collect_images,
                    font_cache=FONT_CACHE,
                    apply_tounicode=self.apply_tounicode,
                    apply_actual_text=self.apply_actual_text,
                    collect_mcids=self.strip_artifacts,
                    hidden_ocgs=hidden,
                )
                for page in doc.pages:
                    interp._run_page(page)
                for i, (k, text, mref) in enumerate(interp.spans):
                    if self.strip_artifacts and interp.span_marks[i][2]:
                        continue
                    kinds.append(k)
                    texts.append(text)
                    refs.append(mref)
                interp.spans.clear()
                interp.span_marks.clear()
            else:
                raise ValueError(f"bad input span kind {kind!r}")
        orders.extend(range(len(kinds) - start))


class Emitter(NamedTuple):
    """One ``DocRowStage`` output kind.

    ``rows(blob, font_cache)`` yields one payload's row tuples: every
    column of ``schema`` after ``doc_id``. ``error_row(msg)`` is the row a
    failed payload emits instead, or ``None`` to emit nothing. Only media
    refs that start with ``scheme`` are read."""

    schema: pa.Schema
    rows: Callable[[bytes, object], Iterable[tuple]]
    error_row: Callable[[str], tuple] | None
    scheme: str = ""


def _annotation_rows(blob, font_cache):
    # FreeText/Text /Contents and Widget field values: the text a reader
    # misses if only content streams are extracted (src/annotation/mod.rs)
    from ..pdfcore.annotations import page_annotations

    doc = Document(blob)
    for pi, page in enumerate(doc.pages):
        for ai, a in enumerate(page_annotations(doc, page)):
            yield pi, ai, a["subtype"], a["text"], a["field_name"]


def _outline_rows(blob, font_cache):
    # the bookmark hierarchy in depth-first display order (src/catalog.rs)
    from ..pdfcore.outlines import document_outlines

    for o in document_outlines(Document(blob)):
        yield o["order"], o["level"], o["title"]


def _image_rows(blob, font_cache):
    # content-addressed (media_ref, png) blobs; extract_image_blobs
    # dedupes them across the corpus
    interp = Interpreter(Document(blob), collect_images=True, font_cache=font_cache)
    interp.run()
    return interp.images.items()


def _html_summary_rows(blob, font_cache):
    # the boilerplate classifier is total: only a missing payload fails
    from ..htmlcore import extract_main_content

    r = extract_main_content(blob)
    return [(r["title"], r["n_kept"], r["n_dropped"], "ok")]


def _structure_rows(blob, font_cache):
    # /StructTreeRoot depth-first walk, each element's text assembled from
    # its marked-content sequences: logical reading order, independent of
    # paint order (pdfcore/structure.py). Untagged docs emit nothing.
    from ..pdfcore.structure import structure_text

    for el in structure_text(Document(blob)):
        yield el["order"], el["role"], el["page_index"], el["text"]


def _form_field_rows(blob, font_cache):
    # catalog-level /AcroForm field tree, dotted qualified names and /FT
    # /V inheritance (pdfcore/acroform.py): catches fields whose widgets
    # span pages or are absent, which the annotation pass cannot
    from ..pdfcore.acroform import form_fields

    for f in form_fields(Document(blob)):
        yield f["order"], f["name"], f["ftype"], f["value"]


def _page_label_rows(blob, font_cache):
    # /PageLabels number tree + §12.4.2 formatting (pdfcore/pagelabels.py)
    from ..pdfcore.pagelabels import page_labels

    return page_labels(Document(blob))


def _metadata_rows(blob, font_cache):
    # one trailer /Info row per doc that has one
    from ..pdfcore.attachments import doc_metadata

    m = doc_metadata(Document(blob))
    if m is None:
        return []
    return [(
        m.get("title"), m.get("author"), m.get("subject"), m.get("producer"),
        m.get("created_y", -1), m.get("created_m", -1), m.get("created_d", -1),
    )]


def _embedded_file_rows(blob, font_cache):
    # the /Names -> /EmbeddedFiles name tree
    from ..pdfcore.attachments import embedded_files

    for f in embedded_files(Document(blob)):
        yield f["name"], f["filename"], f["n_bytes"], f["md5"]


def _font_span_rows(blob, font_cache):
    # /BaseFont + Tf size per show op: the heading-vs-body layout signal
    interp = Interpreter(Document(blob), collect_fonts=True, font_cache=font_cache)
    for (kind, text, _ref, order), (font, size) in zip(interp.run(), interp.span_fonts):
        if kind == "text":
            yield order, text, font, int(round(size * 1000))


def _icc_profile_rows(blob, font_cache):
    # one row per /ICCBased colour space in a page's /ColorSpace
    # resources: header fields and tag signatures, tag payloads not
    # interpreted (src/icc_profile/mod.rs IccProfileHeader + IccTagTable)
    from ..pdfcore.icc import parse_icc

    doc = Document(blob)
    for pi, page in enumerate(doc.pages):
        res = page.resources
        csd = doc.resolve(res.get("ColorSpace")) if isinstance(res, dict) else None
        if not isinstance(csd, dict):
            continue
        for cs_name in sorted(csd):
            arr = doc.resolve(csd[cs_name])
            if not isinstance(arr, list) or len(arr) < 2 or arr[0] != "ICCBased":
                continue
            p = parse_icc(doc.decoded(doc.resolve_stream(arr[1])))
            yield (
                pi, str(cs_name), p["profile_size"], p["version_major"],
                p["version_minor"], p["device_class"], p["colour_space"],
                p["pcs"], p["rendering_intent"], len(p["tags"]),
                ",".join(t["sig"] for t in p["tags"]),
            )


def _schema(**cols: pa.DataType) -> pa.Schema:
    return pa.schema([("doc_id", pa.string()), *cols.items()])


_STR, _I32, _I64 = pa.string(), pa.int32(), pa.int64()

# Error rows carry the message in one column and -1 / "__error__" markers
# that no real row can hold; the oracles check these layouts.
EMITTERS: dict[str, Emitter] = {
    "annotations": Emitter(
        _schema(page_index=_I32, annot_index=_I32, subtype=_STR, text=_STR,
                field_name=_STR),
        _annotation_rows,
        lambda msg: (-1, -1, "__error__", msg, None),
    ),
    "outlines": Emitter(
        _schema(order=_I32, level=_I32, title=_STR),
        _outline_rows,
        lambda msg: (-1, -1, "__error__ " + msg),
    ),
    "images": Emitter(
        _schema(media_ref=_STR, png=pa.large_binary()), _image_rows, None
    ),
    "html_summary": Emitter(
        _schema(title=_STR, n_kept=_I32, n_dropped=_I32, status=_STR),
        _html_summary_rows,
        lambda msg: (None, -1, -1, "error"),
        scheme="html://",
    ),
    "structure": Emitter(
        _schema(elem_order=_I32, role=_STR, page_index=_I32, text=_STR),
        _structure_rows,
        lambda msg: (-1, "__error__", -1, msg),
    ),
    "form_fields": Emitter(
        _schema(field_order=_I32, name=_STR, ftype=_STR, value=_STR),
        _form_field_rows,
        lambda msg: (-1, "__error__", None, msg),
    ),
    "page_labels": Emitter(
        _schema(page_index=_I32, label=_STR),
        _page_label_rows,
        lambda msg: (-1, "__error__ " + msg),
    ),
    "metadata": Emitter(
        _schema(title=_STR, author=_STR, subject=_STR, producer=_STR,
                created_y=_I32, created_m=_I32, created_d=_I32),
        _metadata_rows,
        lambda msg: ("__error__", None, None, msg, -1, -1, -1),
    ),
    "embedded_files": Emitter(
        _schema(name=_STR, filename=_STR, n_bytes=_I64, md5=_STR),
        _embedded_file_rows,
        lambda msg: ("__error__", msg, -1, None),
    ),
    "font_spans": Emitter(
        _schema(span_order=_I32, text=_STR, font=_STR, size_milli=_I64),
        _font_span_rows,
        lambda msg: (-1, "__error__", msg, -1),
    ),
    "icc_profiles": Emitter(
        _schema(page_index=_I32, cs_name=_STR, profile_size=_I64,
                version_major=_I32, version_minor=_I32, device_class=_STR,
                colour_space=_STR, pcs=_STR, rendering_intent=_I64,
                n_tags=_I64, tag_sigs=_STR),
        _icc_profile_rows,
        lambda msg: (-1, "__error__", -1, -1, -1, msg, None, None, -1, -1, None),
    ),
}


class DocRowStage:
    """Callable for ``ds.map_batches(DocRowStage(payloads=ref, emit=kind),
    concurrency=N, batch_format="pyarrow")``: the rows of
    ``EMITTERS[kind]`` for every media span of every document, with
    ``doc_id`` prepended.

    Poison rule, the same for every kind: a payload that is missing or
    whose ``rows`` raises contributes exactly its ``error_row`` (nothing
    when that is ``None``) and none of its partial rows; the task never
    fails."""

    def __init__(self, payloads=None, payload_resolver=None, *, emit: str):
        if emit not in EMITTERS:
            raise KeyError(emit)
        self.payloads = payloads
        self.payload_resolver = payload_resolver
        self.emit = emit

    def __call__(self, batch: pa.Table) -> pa.Table:
        em = EMITTERS[self.emit]
        fetch = payload_fetcher(self.payloads, self.payload_resolver)
        out: list[tuple] = []
        for doc_id, spans in zip(
            batch.column("doc_id").to_pylist(), batch.column("spans").to_pylist()
        ):
            for sp in spans or []:
                ref = sp.get("media_ref")
                if sp.get("kind") != "media" or not (ref or "").startswith(em.scheme):
                    continue
                try:
                    rows = list(em.rows(fetch(ref), FONT_CACHE))
                except Exception as e:  # row-level containment
                    if em.error_row is None:
                        continue
                    rows = [em.error_row(f"{type(e).__name__}: {e}"[:_MAX_ERROR_LEN])]
                out.extend((doc_id, *r) for r in rows)
        cols = list(zip(*out)) or [()] * len(em.schema)
        return pa.Table.from_pydict(dict(zip(em.schema.names, cols)), schema=em.schema)
