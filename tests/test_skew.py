"""Giant-doc splitting: page-range work units must reassemble to exactly
the unsplit span sequence (SURVEY.md §4 ordering invariant), and the
bounded LRU cache must evict."""

import pyarrow as pa


def test_lru_cache_bounds_and_evicts():
    from pdf_ray.state.cache import LruCache

    c = LruCache(max_entries=3)
    for i in range(5):
        c[i] = i * 10
    assert len(c) == 3
    assert c.get(0) is None and c.get(1) is None
    assert c.get(4) == 40
    c.get(2)
    c[9] = 90  # evicts 3 (LRU), not the just-touched 2
    assert c.get(3) is None and c.get(2) == 20


def test_split_extraction_matches_unsplit(ray_session):
    import ray
    import ray.data as rd

    from pdf_ray.fixtures.corpus import FIXTURES, f18_outlier_200pp
    from pdf_ray.pdfcore.interp import extract_spans
    from pdf_ray.pipelines.extract import extract_dataset
    from pdf_ray.schema import DOCS
    from pdf_ray.stages.skew import extract_split

    payloads = {
        "pdf://f18": FIXTURES["f18"]()[0],
        "pdf://f18x60": f18_outlier_200pp(60)[0],
        "pdf://f13": FIXTURES["f13"]()[0],
        "pdf://bad": FIXTURES["f19a"]()[0],
    }
    docs = pa.Table.from_pylist(
        [
            {
                "doc_id": f"d{i}",
                "spans": [
                    {"kind": "media", "text": None, "media_ref": ref, "offset": 0}
                ],
            }
            for i, ref in enumerate(
                ["pdf://f18", "pdf://f18x60", "pdf://f13", "pdf://bad",
                 "pdf://missing"]
            )
        ],
        schema=DOCS,
    )
    ref = ray.put(payloads)
    out = (
        extract_split(
            rd.from_arrow(docs),
            ref,
            pages_per_unit=30,
            concurrency=2,
            batch_size=4,
        )
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["status"]) == ["ok", "ok", "ok", "error", "error"]
    # a missing payload is planned as one unit and fails like a poison
    # one, with the same error row as the unsplit path
    unsplit = (
        extract_dataset(rd.from_arrow(docs), ref, concurrency=2)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(out["doc_id"]) == list(unsplit["doc_id"])
    assert list(out["status"]) == list(unsplit["status"])
    assert list(out["error"][3:]) == list(unsplit["error"][3:])
    assert out["error"][4] == "KeyError: \"payload 'pdf://missing' not found\""
    for i, ref in enumerate(["pdf://f18", "pdf://f18x60", "pdf://f13"]):
        expected, _ = extract_spans(payloads[ref])
        got = [
            (s["kind"], s["text"], s["media_ref"], s["order"])
            for s in out["spans"][i]
        ]
        assert got == expected, out["doc_id"][i]


def test_salted_groupby_matches_plain(ray_session):
    import pandas as pd
    import ray.data as rd

    from pdf_ray.stages.skew import salted_groupby

    rows = [{"k": f"key{i % 3}", "v": i} for i in range(300)]
    ds = rd.from_items(rows)

    # the combiner must be associative (sum of partial sums == total sum)
    def combiner2(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"k": [g["k"].iloc[0]], "v": [int(g["v"].sum())]})

    got = (
        salted_groupby(ds, "k", combiner2, salt_buckets=8)
        .to_pandas()
        .sort_values("k")
        .reset_index(drop=True)
    )
    want = (
        pd.DataFrame(rows)
        .groupby("k", as_index=False)["v"]
        .sum()
        .sort_values("k")
        .reset_index(drop=True)
    )
    assert got.to_dict("records") == want.to_dict("records")
