"""Seeded workload inputs, built through ``pdf_ray.fixtures``.

The seed chooses document order, which small fixtures fill the skew mix,
and which share of the output is lost before the resume pass. Shares are
exact, not sampled, so two seeds give corpora of the same page total and
the spread between runs is the host's, not the generator's.
"""

from __future__ import annotations

import random

import pyarrow as pa

from pdf_ray.schema import DOCS

# skew_pages mix, as in build_bench_corpus: share of docs per payload class
SKEW_MIX = (("pdf://f18x200", 0.10), ("pdf://f18x60", 0.20), ("pdf://f18x20", 0.20))
# skew_pages: share of each payload class re-extracted. Half, so that the
# re-extraction outweighs the job's actor start-up (about 2 s)
LOST_SHARE = 0.5
LOST_MANIFEST_SHARE = 0.25  # small_commit_resume: share of manifests removed


def media_doc(doc_id: str, ref: str) -> dict:
    return {
        "doc_id": doc_id,
        "spans": [{"kind": "media", "text": None, "media_ref": ref, "offset": 0}],
    }


def skew_pages(seed: int, n_docs: int):
    """The ROADMAP headline mix (50% 1-3 page fixtures, 20% 20-page, 20%
    60-page, 10% 200-page) with exact shares. Returns ``(docs, payloads,
    lost)``: the docs table, the ``media_ref -> bytes`` dict and the doc
    indices of the seeded lost share (the same share of every class)."""
    from pdf_ray.fixtures.tables import build_bench_corpus

    _, payloads = build_bench_corpus(n_docs=1, seed=seed)
    rng = random.Random(seed)
    refs: list[str] = []
    for ref, share in SKEW_MIX:
        refs += [ref] * round(share * n_docs)
    small = sorted(r for r in payloads if not r.startswith("pdf://f18x"))
    refs += [rng.choice(small) for _ in range(n_docs - len(refs))]
    rng.shuffle(refs)
    docs = pa.Table.from_pylist(
        [media_doc(f"bench-{i:07d}", ref) for i, ref in enumerate(refs)],
        schema=DOCS,
    )
    by_class: dict[str, list[int]] = {}
    for i, ref in enumerate(refs):
        key = ref if ref.startswith("pdf://f18x") else "small"
        by_class.setdefault(key, []).append(i)
    lost: list[int] = []
    for key in sorted(by_class):
        idx = by_class[key]
        lost += rng.sample(idx, max(1, round(LOST_SHARE * len(idx))))
    return docs, payloads, sorted(lost)


def golden_docs(seed: int, replicas: int):
    """The golden fixture corpus: ``build_corpus`` (PDF fixtures f01-f40,
    poison rows f19a/f19b, mixed f20 docs) plus ``build_html_corpus``, in a
    seeded order. Returns ``(docs, payloads, golden)``; ``golden`` is the
    hand-written expected output of every doc."""
    from pdf_ray.fixtures.htmlcorpus import build_html_corpus
    from pdf_ray.fixtures.tables import build_corpus

    docs, pay, golden, *_ = build_corpus(replicas)
    hdocs, hpay, hgolden, _ = build_html_corpus(replicas)
    docs = pa.concat_tables([docs, hdocs])
    pay = pa.concat_tables([pay, hpay])
    golden = pa.concat_tables([golden, hgolden])
    order = list(range(docs.num_rows))
    random.Random(seed).shuffle(order)
    payloads = dict(
        zip(pay.column("media_ref").to_pylist(), pay.column("bytes").to_pylist())
    )
    return docs.take(order), payloads, golden


def lost_manifests(names: list[str], seed: int, cycle: int) -> list[str]:
    """Seeded share of the committed manifests to remove before resume."""
    rng = random.Random(seed * 1000 + cycle)
    names = sorted(names)
    n = min(max(1, round(LOST_MANIFEST_SHARE * len(names))), max(1, len(names) - 1))
    return sorted(rng.sample(names, n))
