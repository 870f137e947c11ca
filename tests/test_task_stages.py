"""The extraction stages run as Ray Data tasks: no actor pool per job, a
stage instance that pickles without payload bytes, and one ``ray.get``
of the payload store per process and ref."""

import os
import pickle

import pyarrow as pa
import pytest


def _map_worker_actors() -> int:
    """Ray Data actor-pool workers created so far in this session, alive
    or dead (their class name is ``MapWorker(<operator>)``)."""
    from ray._private import state

    return sum(
        1
        for a in state.actors().values()
        if a["ActorClassName"].startswith("MapWorker(")
    )


def _run_extract(docs, ref, tmp_path):
    from pdf_ray.ops.pdf_queries import FIXTURES_DIR
    from pdf_ray.pipelines.extract import run_extract

    stats = run_extract(
        os.path.join(FIXTURES_DIR, "docs.parquet"),
        str(tmp_path / "out"),
        ref,
        concurrency=2,
    )
    assert stats["n_ok"] + stats["n_err"] == docs.count()


def _extract_dataset(docs, ref, tmp_path):
    from pdf_ray.pipelines.extract import extract_dataset

    assert extract_dataset(docs, ref, concurrency=2).count() == docs.count()


def _extract_image_blobs(docs, ref, tmp_path):
    from pdf_ray.pipelines.extract import extract_image_blobs

    assert extract_image_blobs(docs, ref, concurrency=2).count() > 0


def _extract_split(docs, ref, tmp_path):
    from pdf_ray.stages.skew import extract_split

    assert extract_split(docs, ref, concurrency=2).count() > 0


def _doc_row_query(docs, ref, tmp_path):
    from pdf_ray.ops.pdf_queries import _fixture_stage_query

    assert _fixture_stage_query("outlines").count() > 0


@pytest.mark.parametrize(
    "run",
    [_extract_dataset, _run_extract, _extract_image_blobs, _extract_split,
     _doc_row_query],
    ids=lambda f: f.__name__.lstrip("_"),
)
def test_extraction_path_creates_no_actor(ray_session, tmp_path, run):
    """Each extraction entry point runs its stage as tasks. A Ray release
    that starts running callable instances on an actor pool fails this."""
    from pdf_ray.ops.pdf_queries import _fixture_payloads

    docs, ref = _fixture_payloads()
    before = _map_worker_actors()
    run(docs, ref, tmp_path)
    assert _map_worker_actors() == before


def test_stages_pickle_without_payload_bytes(ray_session):
    """A stage carries its payload ref and flags, never the payloads: Ray
    Data ships the pickled instance with every task."""
    import ray

    from pdf_ray.pipelines.extract import ExtractWriteStage
    from pdf_ray.stages.extract import EMITTERS, DocRowStage, ExtractStage
    from pdf_ray.stages.multimodal import ImageFeatureStage
    from pdf_ray.stages.skew import RangeExtractStage

    ref = ray.put({f"pdf://p{i}": os.urandom(1024) for i in range(1024)})
    stages = [
        ExtractStage(payloads=ref, strip_artifacts=True),
        ExtractWriteStage(payloads=ref, output_dir="out"),
        RangeExtractStage(payloads=ref),
        ImageFeatureStage(),
        *(DocRowStage(payloads=ref, emit=kind) for kind in EMITTERS),
    ]
    for stage in stages:
        size = len(pickle.dumps(stage))
        assert size < 4096, (type(stage).__name__, size)


def _one_doc_batch(media_ref):
    from pdf_ray.schema import DOCS

    return pa.Table.from_pylist(
        [{"doc_id": "d0", "spans": [
            {"kind": "media", "text": None, "media_ref": media_ref, "offset": 0}
        ]}],
        schema=DOCS,
    )


def test_payload_fetcher_gets_each_ref_once_per_process(ray_session, monkeypatch):
    """Over many batches, each through a freshly unpickled stage as in a
    task, the payload dict of a ref is fetched once; a second ref replaces
    the first, so going back to the first fetches it again."""
    import ray

    from pdf_ray.fixtures.corpus import FIXTURES
    from pdf_ray.stages import extract
    from pdf_ray.stages.extract import DocRowStage, ExtractStage

    ref1 = ray.put({"pdf://f13": FIXTURES["f13"]()[0]})
    ref2 = ray.put({"pdf://f13": FIXTURES["f18"]()[0]})
    fetched = []
    real_get = ray.get

    def counting_get(obj, *args, **kwargs):
        fetched.append(obj.hex())
        return real_get(obj, *args, **kwargs)

    monkeypatch.setattr(extract, "_store", None)
    monkeypatch.setattr(ray, "get", counting_get)
    batch = _one_doc_batch("pdf://f13")

    def run(ref, n):
        outs = set()
        for _ in range(n):
            stage = pickle.loads(pickle.dumps(ExtractStage(payloads=ref)))
            out = stage(batch)
            assert out.column("status").to_pylist() == ["ok"]
            outs.add(str(out.column("spans").to_pylist()))
            DocRowStage(payloads=ref, emit="outlines")(batch)
        assert len(outs) == 1
        return outs.pop()

    spans1 = run(ref1, 6)
    assert fetched == [ref1.hex()]
    spans2 = run(ref2, 3)
    assert fetched == [ref1.hex(), ref2.hex()]
    assert spans2 != spans1  # the new ref's store, not the cached one
    assert extract._store[0] == ref2.hex()
    assert run(ref1, 2) == spans1
    assert fetched == [ref1.hex(), ref2.hex(), ref1.hex()]
