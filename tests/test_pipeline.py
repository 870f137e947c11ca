"""Ray pipeline end-to-end: corpus -> extract -> exact golden equality,
plus lineage/resume and parallelism-invariance."""

import pyarrow.parquet as pq
import pytest


@pytest.fixture(scope="module")
def corpus():
    from pdf_ray.fixtures.tables import build_corpus

    docs, pay, golden, _golden_uni, _golden_main, _golden_ocg = build_corpus(
        replicas=2
    )
    return docs, pay, golden


def _manifest_doc_ids(out_dir):
    """Every doc_id the ``_lineage/*.json`` manifests record as committed."""
    import glob
    import json

    done = set()
    for path in glob.glob(f"{out_dir}/_lineage/*.json"):
        with open(path) as f:
            done.update(json.load(f)["doc_ids"])
    return done


def _set_manifest_key(out_dir, key, value):
    """Rewrite one committed manifest with ``key`` set to ``value``;
    returns the value it had."""
    import glob
    import json

    path = sorted(glob.glob(f"{out_dir}/_lineage/*.json"))[0]
    with open(path) as f:
        m = json.load(f)
    old, m[key] = m[key], value
    with open(path, "w") as f:
        json.dump(m, f)
    return old


def _drop_manifest_key(out_dir, key):
    """Rewrite one committed manifest without ``key``."""
    import glob
    import json

    path = sorted(glob.glob(f"{out_dir}/_lineage/*.json"))[0]
    with open(path) as f:
        m = json.load(f)
    del m[key]
    with open(path, "w") as f:
        json.dump(m, f)


def _plant_crash_leftovers(out_dir):
    """The files a writer killed inside a shard or manifest write leaves:
    ``part-*.parquet.tmp`` and ``_lineage/*.json.tmp``. A resume's batches
    hold only the remaining docs, so no later write reuses their names;
    only the orphan GC removes them."""
    paths = [
        f"{out_dir}/part-crashed.parquet.tmp",
        f"{out_dir}/_lineage/crashed.json.tmp",
    ]
    for path in paths:
        with open(path, "w") as f:
            f.write("partial")
    return paths


def _remove_one_committed_shard(out_dir):
    """Delete the part file of one manifest, as an outside deletion or a
    partial copy of the directory would; returns that file's name."""
    import glob
    import json
    import os

    with open(sorted(glob.glob(f"{out_dir}/_lineage/*.json"))[0]) as f:
        name = json.load(f)["file"]
    os.remove(os.path.join(out_dir, name))
    return name


def _extract_table(docs, payload_tbl, **kw):
    import ray.data as rd

    from pdf_ray.pipelines.extract import extract_dataset

    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    ds = rd.from_arrow(docs)
    out = extract_dataset(ds, payloads, concurrency=2, **kw)
    return out.to_pandas().sort_values("doc_id").reset_index(drop=True)


def test_extract_matches_golden(ray_session, corpus):
    docs, payload_tbl, golden = corpus
    got = _extract_table(docs, payload_tbl)
    want = golden.to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert list(got["doc_id"]) == list(want["doc_id"])
    assert list(got["status"]) == list(want["status"])
    assert list(got["n_spans"]) == list(want["n_spans"])
    for i in range(len(got)):
        g = [tuple(sp.values()) for sp in got["spans"][i]]
        w = [tuple(sp.values()) for sp in want["spans"][i]]
        assert g == w, f"span mismatch for {got['doc_id'][i]}"


def test_batch_size_invariance(ray_session, corpus):
    docs, payload_tbl, _ = corpus
    a = _extract_table(docs, payload_tbl, batch_size=4)
    b = _extract_table(docs, payload_tbl, batch_size=64)
    assert list(a["doc_id"]) == list(b["doc_id"])
    for i in range(len(a)):
        assert [tuple(s.values()) for s in a["spans"][i]] == [
            tuple(s.values()) for s in b["spans"][i]
        ]


def test_run_extract_and_resume(ray_session, corpus, tmp_path):
    import ray

    from pdf_ray.pipelines.extract import run_extract

    docs, payload_tbl, golden = corpus
    in_path = str(tmp_path / "docs.parquet")
    out_dir = str(tmp_path / "out")
    pq.write_table(docs, in_path)
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    pref = ray.put(payloads)
    stats = run_extract(in_path, out_dir, pref, concurrency=2)
    assert stats["n_ok"] + stats["n_err"] == docs.num_rows
    assert stats["n_err"] == 2 * 2  # two poison fixtures x two replicas
    assert stats["skipped"] == 0
    assert len(_manifest_doc_ids(out_dir)) == docs.num_rows

    # resume: everything already done -> nothing re-extracted
    stats2 = run_extract(in_path, out_dir, pref, concurrency=2)
    assert stats2["skipped"] == docs.num_rows
    assert stats2["n_ok"] == 0 and stats2["n_err"] == 0

    # output rows == input rows, readable as one dataset
    import glob

    parts = glob.glob(f"{out_dir}/part-*.parquet")
    total = sum(pq.read_metadata(p).num_rows for p in parts)
    assert total == docs.num_rows


def test_resume_never_broadcasts_doc_ids(ray_session, corpus, tmp_path, monkeypatch):
    """Round-3 verdict #1 regression guard: the resume path must be the
    shuffle-based anti-join — NO ``ray.put`` of a doc-id collection (the
    done-set is tens of GB at 10^9+ docs) and no per-row Python
    membership filter."""
    import ray

    from pdf_ray.pipelines import extract as ex

    docs, payload_tbl, _ = corpus
    in_path = str(tmp_path / "docs.parquet")
    out_dir = str(tmp_path / "out")
    pq.write_table(docs, in_path)
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    pref = ray.put(payloads)
    ex.run_extract(in_path, out_dir, pref, concurrency=2)

    all_ids = set(docs.column("doc_id").to_pylist())
    offenders = []
    real_put = ray.put

    def spy_put(obj, **kw):
        # Ray Data internally puts ReadTask lists and read file-path
        # lists; the forbidden shape is a collection containing DOC IDS
        if isinstance(obj, (set, frozenset, list, tuple)) and any(
            isinstance(x, str) and x in all_ids for x in obj
        ):
            offenders.append(obj)
        return real_put(obj, **kw)

    monkeypatch.setattr(ray, "put", spy_put)
    stats = ex.run_extract(in_path, out_dir, pref, concurrency=2)
    assert stats["skipped"] == docs.num_rows
    assert stats["n_ok"] == 0 and stats["n_err"] == 0
    assert not offenders, f"resume path broadcast doc-id collections: {offenders}"


def test_resume_refuses_flag_mismatch(ray_session, corpus, tmp_path):
    """Manifests record extraction flags; resuming into an output_dir
    committed under different flags must raise, not silently mix
    stripped and unstripped docs (round-3 ADVICE)."""
    import ray

    import pytest

    from pdf_ray.pipelines.extract import run_extract

    docs, payload_tbl, _ = corpus
    in_path = str(tmp_path / "docs.parquet")
    out_dir = str(tmp_path / "out")
    pq.write_table(docs, in_path)
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    pref = ray.put(payloads)
    run_extract(in_path, out_dir, pref, concurrency=2)
    with pytest.raises(ValueError, match="resume refused"):
        run_extract(
            in_path, out_dir, pref, concurrency=2, strip_artifacts=True
        )
    # shards written under another EXTRACTED version are refused
    version = _set_manifest_key(out_dir, "schema_version", 0)
    with pytest.raises(ValueError, match="resume refused"):
        run_extract(in_path, out_dir, pref, concurrency=2)
    _set_manifest_key(out_dir, "schema_version", version)
    # a manifest without its flags is a mismatch too, even for the
    # default flags (no legacy default is assumed)
    _drop_manifest_key(out_dir, "flags")
    with pytest.raises(ValueError, match="resume refused"):
        run_extract(in_path, out_dir, pref, concurrency=2)
    # resume=False into a FRESH dir under the other flag is fine
    run_extract(
        in_path,
        str(tmp_path / "out2"),
        pref,
        concurrency=2,
        strip_artifacts=True,
        resume=False,
    )


def test_explode_spans(ray_session, corpus):
    import ray.data as rd

    from pdf_ray.pipelines.extract import explode_spans, extract_dataset

    docs, payload_tbl, golden = corpus
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    flat = explode_spans(
        extract_dataset(rd.from_arrow(docs), payloads, concurrency=2)
    ).to_pandas()
    n_expected = sum(
        len(sp) for sp in golden.column("spans").to_pylist()
    )
    assert len(flat) == n_expected
    assert set(flat.columns) == {"doc_id", "kind", "text", "media_ref", "order"}


def test_parallelism_level_invariance(ray_session, corpus):
    """SURVEY §5 pyramid item 4: same corpus at two parallelism levels ->
    bit-identical spans."""
    docs, payload_tbl, _ = corpus
    a = _extract_table(docs, payload_tbl)  # concurrency=2 (helper default)
    import ray.data as rd

    from pdf_ray.pipelines.extract import extract_dataset

    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    b = (
        extract_dataset(rd.from_arrow(docs), payloads, concurrency=1, batch_size=16)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(a["doc_id"]) == list(b["doc_id"])
    for i in range(len(a)):
        assert [tuple(s.values()) for s in a["spans"][i]] == [
            tuple(s.values()) for s in b["spans"][i]
        ]


def test_partial_resume(ray_session, corpus, tmp_path):
    """Resume-after-interruption equivalence: a run over HALF the corpus
    (simulating a killed job's completed partitions), then a resumed full
    run, must extract each doc exactly once and cover everything."""
    import glob

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from pdf_ray.pipelines.extract import run_extract

    docs, payload_tbl, golden = corpus
    half = docs.slice(0, docs.num_rows // 2)
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    pref = ray.put(payloads)
    half_path = str(tmp_path / "half.parquet")
    full_path = str(tmp_path / "full.parquet")
    out_dir = str(tmp_path / "out")
    pq.write_table(half, half_path)
    pq.write_table(docs, full_path)

    s1 = run_extract(half_path, out_dir, pref, concurrency=2)
    assert s1["n_ok"] + s1["n_err"] == half.num_rows
    s2 = run_extract(full_path, out_dir, pref, concurrency=2)
    assert s2["skipped"] == half.num_rows
    # the driver-side manifests carry counters, not the doc_ids lists
    from pdf_ray.pipelines.commit import read_manifests

    manifests = read_manifests(out_dir)
    assert manifests and not any("doc_ids" in m for m in manifests)
    assert s1["n_ok"] + s1["n_err"] + s2["n_ok"] + s2["n_err"] == docs.num_rows
    assert _manifest_doc_ids(out_dir) == set(docs.column("doc_id").to_pylist())
    total = sum(
        pq.read_metadata(p).num_rows
        for p in glob.glob(f"{out_dir}/part-*.parquet")
    )
    assert total == docs.num_rows  # each doc exactly once


def test_orphan_shard_gc_and_committed_read(ray_session, corpus, tmp_path):
    """A shard published WITHOUT its manifest (crash between the two
    writes) is an orphan: committed readers must skip it and resume must
    GC it (with any ``*.tmp`` crash leftovers), then re-extract its docs
    exactly once. A manifest whose part file is missing raises."""
    import glob

    import ray

    from pdf_ray.pipelines.commit import committed_part_files
    from pdf_ray.pipelines.extract import (
        gc_orphan_shards,
        read_extracted,
        run_extract,
    )

    docs, payload_tbl, golden = corpus
    in_path = str(tmp_path / "docs.parquet")
    out_dir = str(tmp_path / "out")
    pq.write_table(docs, in_path)
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    pref = ray.put(payloads)
    run_extract(in_path, out_dir, pref, concurrency=2)

    # simulate the crash: drop one manifest, keeping its (now-orphan) shard
    import json
    import os

    mdir = os.path.join(out_dir, "_lineage")
    victim = sorted(os.listdir(mdir))[0]
    with open(os.path.join(mdir, victim)) as f:
        lost = json.load(f)
    os.remove(os.path.join(mdir, victim))

    all_parts = set(glob.glob(f"{out_dir}/part-*.parquet"))
    committed = set(committed_part_files(out_dir))
    assert os.path.join(out_dir, lost["file"]) in all_parts - committed
    assert set(lost["doc_ids"]).isdisjoint(_manifest_doc_ids(out_dir))

    # resume: orphan GC'd with the crash leftovers, lost docs
    # re-extracted, output exactly-once
    leftovers = _plant_crash_leftovers(out_dir)
    stats = run_extract(in_path, out_dir, pref, concurrency=2)
    assert not any(os.path.exists(p) for p in leftovers)
    assert stats["skipped"] == docs.num_rows - len(lost["doc_ids"])
    assert stats["n_ok"] + stats["n_err"] == len(lost["doc_ids"])
    out = read_extracted(out_dir).to_pandas()
    assert sorted(out["doc_id"]) == sorted(docs.column("doc_id").to_pylist())
    assert gc_orphan_shards(out_dir) == 0

    # a manifest whose part file is gone would count its docs as done
    # while the committed read drops them: resume and read both raise
    name = _remove_one_committed_shard(out_dir)
    with pytest.raises(ValueError, match=name):
        run_extract(in_path, out_dir, pref, concurrency=2)
    with pytest.raises(ValueError, match=name):
        read_extracted(out_dir)


def test_write_stage_retry_is_idempotent(ray_session, corpus, tmp_path):
    """A Ray task retry re-runs a batch whose shard+manifest already
    committed: content-derived ids make the second attempt overwrite, not
    duplicate."""
    import glob
    import os

    import ray

    from pdf_ray.pipelines.extract import ExtractWriteStage, read_extracted

    docs, payload_tbl, golden = corpus
    payloads = dict(
        zip(
            payload_tbl.column("media_ref").to_pylist(),
            payload_tbl.column("bytes").to_pylist(),
        )
    )
    out_dir = str(tmp_path / "out")
    os.makedirs(os.path.join(out_dir, "_lineage"), exist_ok=True)
    stage = ExtractWriteStage(payloads=payloads, output_dir=out_dir)
    batch = docs.slice(0, 8)
    s1 = stage(batch)
    s2 = stage(batch)  # simulated retry of the same batch
    assert s1.to_pylist() == s2.to_pylist()
    assert len(glob.glob(f"{out_dir}/part-*.parquet")) == 1
    assert len(glob.glob(f"{out_dir}/_lineage/*.json")) == 1
    got = read_extracted(out_dir).to_pandas()
    assert sorted(got["doc_id"]) == sorted(
        batch.column("doc_id").to_pylist()
    )


# each kind's error row for message M, written out by hand (columns after
# doc_id): the markers the oracles and downstream consumers rely on
_ERROR_ROWS = {
    "annotations": lambda m: (-1, -1, "__error__", m, None),
    "outlines": lambda m: (-1, -1, "__error__ " + m),
    "images": None,
    "html_summary": lambda m: (None, -1, -1, "error"),
    "structure": lambda m: (-1, "__error__", -1, m),
    "form_fields": lambda m: (-1, "__error__", None, m),
    "page_labels": lambda m: (-1, "__error__ " + m),
    "metadata": lambda m: ("__error__", None, None, m, -1, -1, -1),
    "embedded_files": lambda m: ("__error__", m, -1, None),
    "font_spans": lambda m: (-1, "__error__", m, -1),
    "icc_profiles": lambda m: (
        -1, "__error__", -1, -1, -1, m, None, None, -1, -1, None
    ),
}


@pytest.mark.parametrize("case", ["corrupt", "missing"])
@pytest.mark.parametrize("kind", sorted(_ERROR_ROWS))
def test_doc_row_stage_emits_error_rows(kind, case):
    """One poison rule for every DocRowStage kind: a corrupt payload and a
    missing payload each surface as exactly the kind's error row (not a
    silently-empty doc); ``images`` has no error row, so they emit
    nothing. Every kind builds the message the same way, truncated to
    512 characters before any prefix, so ``outlines`` now truncates
    before adding ``__error__ `` as ``page_labels`` always did (only
    messages over 502 characters differ from the old stage)."""
    import pyarrow as pa

    from pdf_ray.stages.extract import EMITTERS, DocRowStage

    assert sorted(EMITTERS) == sorted(_ERROR_ROWS)
    em = EMITTERS[kind]
    ref = em.scheme + "m0"
    batch = pa.table(
        {
            "doc_id": ["bad1"],
            "spans": [
                [{"kind": "media", "text": None, "media_ref": ref, "offset": 0}]
            ],
        }
    )
    if case == "missing":
        payloads, msg = {}, f"KeyError: \"payload '{ref}' not found\""
    elif kind == "html_summary":
        # the boilerplate classifier is total over bytes and str
        payloads, msg = {ref: 0}, None
    else:
        payloads = {ref: b"%PDF-1.4 not really a pdf"}
        msg = "PdfParseError: startxref not found"

    out = DocRowStage(payloads=payloads, emit=kind)(batch)
    assert out.schema == em.schema
    want = _ERROR_ROWS[kind]
    if want is None:
        assert out.num_rows == 0
    else:
        assert [tuple(r.values()) for r in out.to_pylist()] == [("bad1", *want(msg))]


def test_doc_row_stage_drops_partial_rows_of_a_failed_payload(monkeypatch):
    """A payload whose row function raises after yielding some rows
    contributes only its error row, as ExtractStage drops the partial
    spans of a failed doc."""
    import pyarrow as pa

    from pdf_ray.stages import extract

    def rows(blob, font_cache):
        yield ("first",)
        raise ValueError("second row is bad")

    schema = pa.schema([("doc_id", pa.string()), ("v", pa.string())])
    monkeypatch.setitem(
        extract.EMITTERS, "probe", extract.Emitter(schema, rows, lambda m: (m,))
    )
    batch = pa.table(
        {
            "doc_id": ["d1"],
            "spans": [[{"kind": "media", "text": None, "media_ref": "m0"}]],
        }
    )
    out = extract.DocRowStage(payloads={"m0": b"x"}, emit="probe")(batch)
    assert out.to_pylist() == [
        {"doc_id": "d1", "v": "ValueError: second row is bad"}
    ]


def test_write_curated_resume_and_orphan_gc(ray_session, tmp_path):
    """Curated-corpus writer: exactly-once shards via manifests — a full
    write commits every shard; a rerun skips all of them; deleting one
    manifest (its shard becomes an orphan) re-writes exactly that shard
    with identical content, and the resume removes crash leftovers. A
    manifest whose part file is missing raises."""
    import json
    import os

    from pdf_ray.pipelines.commit import manifest_dir
    from pdf_ray.pipelines.curate import (
        gc_orphan_shards,
        read_curated,
        write_curated,
    )

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    r1 = write_curated(sf, out, n_shards=8)
    assert r1["skipped"] == 0 and r1["written"] > 0
    total = read_curated(out).count()
    assert total == r1["n_rows"] > 0

    # rerun: everything committed -> nothing re-written
    r2 = write_curated(sf, out, n_shards=8)
    assert r2["written"] == 0 and r2["skipped"] == r1["written"]
    assert read_curated(out).count() == total

    # crash simulation: shard published but manifest lost -> orphan is
    # GC'd and exactly that shard is recomputed, byte-identical rows
    mdir = manifest_dir(out)
    victim = sorted(os.listdir(mdir))[0]
    with open(os.path.join(mdir, victim)) as fh:
        man = json.load(fh)
    os.remove(os.path.join(mdir, victim))
    assert os.path.exists(os.path.join(out, man["file"]))
    leftovers = _plant_crash_leftovers(out)
    r3 = write_curated(sf, out, n_shards=8)
    assert not any(os.path.exists(p) for p in leftovers)
    assert r3["written"] == 1 and r3["n_rows"] == man["n_rows"]
    assert read_curated(out).count() == total
    assert not gc_orphan_shards(out)  # nothing orphaned after commit

    # a manifest whose part file is gone: resume and read both raise
    name = _remove_one_committed_shard(out)
    with pytest.raises(ValueError, match=name):
        write_curated(sf, out, n_shards=8)
    with pytest.raises(ValueError, match=name):
        read_curated(out)


def test_write_curated_refuses_n_shards_mismatch(ray_session, tmp_path):
    """Shard ids are ``doc_id %% n_shards``: resuming with another shard
    count would treat committed ids as done for the wrong doc sets, so
    it is refused."""
    from pdf_ray.pipelines.curate import write_curated

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curated")
    write_curated(sf, out, n_shards=8)
    with pytest.raises(ValueError, match="resume refused"):
        write_curated(sf, out, n_shards=4)
    version = _set_manifest_key(out, "schema_version", 0)
    with pytest.raises(ValueError, match="resume refused"):
        write_curated(sf, out, n_shards=8)
    _set_manifest_key(out, "schema_version", version)
    _drop_manifest_key(out, "n_shards")
    with pytest.raises(ValueError, match="resume refused"):
        write_curated(sf, out, n_shards=8)


def test_extracted_schema_is_pinned_to_its_version():
    """A change to EXTRACTED must come with a new
    EXTRACTED_SCHEMA_VERSION, or a resume would mix shards of both
    schemas. On a deliberate change, bump the version and pin the new
    fingerprint here."""
    import hashlib

    from pdf_ray.schema import EXTRACTED, EXTRACTED_SCHEMA_VERSION

    fields = repr([(f.name, str(f.type), f.nullable) for f in EXTRACTED])
    fingerprint = hashlib.sha256(fields.encode()).hexdigest()[:16]
    assert (EXTRACTED_SCHEMA_VERSION, fingerprint) == (1, "3cc63c381958d307")
