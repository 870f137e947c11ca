"""Spans around the public calls into each layer, for the traced run.

Everything here patches attributes in the benchmark's own process only,
for the length of one ``with`` block, and restores them on exit. Ray
workers run the program unpatched; their share is read from Ray Data's
``Dataset.stats()`` instead.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from passes import blocks


@contextmanager
def _patched(patches):
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in patches]
    try:
        for obj, attr, new in patches:
            setattr(obj, attr, new)
        yield
    finally:
        for obj, attr, old in reversed(saved):
            setattr(obj, attr, old)


@contextmanager
def parser_spans(tracer):
    """Spans for ``Document()`` (``pdfcore.document``) and its
    ``read_full_xref`` (``pdfcore.xref``), each page's interpreter run
    (``pdfcore.interp``) and, inside it, ``Document.page_content``
    (``pdfcore.filters``) and ``list(tokenize(...))`` (``pdfcore.content``),
    and ``extract_main_content`` (``htmlcore``). Counts decoded bytes,
    content tokens and emitted spans at the same boundaries."""
    import pdf_ray.htmlcore as htmlcore
    import pdf_ray.pdfcore.document as document
    import pdf_ray.pdfcore.interp as interp
    import pdf_ray.stages.extract as stage_mod

    page_content = document.Document.page_content
    tokenize = interp.tokenize
    run_page = interp.Interpreter._run_page

    def traced_page_content(self, page):
        with tracer.span("pdfcore.filters"):
            data = page_content(self, page)
        tracer.add("pdfcore.filters.bytes", len(data))
        return data

    def traced_tokenize(buf):
        with tracer.span("pdfcore.content"):
            toks = list(tokenize(buf))
        tracer.add("pdfcore.content.tokens", len(toks))
        return iter(toks)

    def traced_run_page(self, page):
        before = len(self.spans)
        with tracer.span("pdfcore.interp"):
            run_page(self, page)
        tracer.add("pdfcore.interp.spans", len(self.spans) - before)

    with _patched(
        [
            (stage_mod, "Document", tracer.wrap("pdfcore.document", stage_mod.Document)),
            (document, "read_full_xref", tracer.wrap("pdfcore.xref", document.read_full_xref)),
            (document.Document, "page_content", traced_page_content),
            (interp, "tokenize", traced_tokenize),
            (interp.Interpreter, "_run_page", traced_run_page),
            (htmlcore, "extract_main_content", tracer.wrap("htmlcore", htmlcore.extract_main_content)),
        ]
    ):
        yield


@contextmanager
def count_lex_objects(counter: list[int]):
    """Count every ``Lexer.lex_object`` call (nested ones included)."""
    from pdf_ray.pdfcore.lexer import Lexer

    lex_object = Lexer.lex_object

    def counted(self):
        counter[0] += 1
        return lex_object(self)

    with _patched([(Lexer, "lex_object", counted)]):
        yield


def traced_stage_pass(tracer, docs, payloads, batch: int) -> None:
    """``ExtractStage.__call__`` over ``docs`` in this process, one
    ``stages.extract`` span per batch and one ``doc`` span per document
    under it, so the stage's self time is its Arrow in/out assembly."""
    from pdf_ray.stages.extract import ExtractStage

    stage = ExtractStage(payloads=payloads)
    extract_doc = stage._extract_doc
    for k, b in enumerate(blocks(docs, batch)):
        pending = b.column("doc_id").to_pylist()[::-1]

        def traced_doc(*args, _pending=pending):
            with tracer.span("doc", trace_id=_pending.pop()):
                return extract_doc(*args)

        stage._extract_doc = traced_doc
        with tracer.span("stages.extract", trace_id=f"batch-{k}"):
            stage(b)


def traced_commit_pass(tracer, docs, payloads, batch: int, out_dir: str) -> dict:
    """``ExtractWriteStage.__call__`` over ``docs`` in this process, with
    its inner ``ExtractStage.__call__`` as a child span: the self time of
    ``pipelines.commit`` is the shard write and manifest commit."""
    from pdf_ray.pipelines.extract import ExtractWriteStage

    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    writer = ExtractWriteStage(payloads=payloads, output_dir=out_dir)
    writer.inner = tracer.wrap("stages.extract", writer.inner)
    for k, b in enumerate(blocks(docs, batch)):
        with tracer.span("pipelines.commit", trace_id=f"shard-{k}"):
            writer(b)
    n_bytes = 0
    for dirpath, _, files in os.walk(out_dir):
        n_bytes += sum(os.path.getsize(os.path.join(dirpath, f)) for f in files)
    return {
        "shards": len(os.listdir(os.path.join(out_dir, "_lineage"))),
        "bytes_written": n_bytes,
    }
