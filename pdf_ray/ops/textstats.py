"""Text-analysis operators over the ``documents`` table.

Each op is a Ray Data pipeline (vectorized pandas/pyarrow batches; no
per-row Python in hot paths except hashing, which is a C call per row)
paired with a DuckDB oracle. Integer/floor outputs are preferred over raw
float ratios so value-hash comparison is bit-stable across engines.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa

from .registry import register

STOPWORDS = {
    "en": ["the", "and", "of", "a", "to", "in"],
    "es": ["el", "la", "de", "y", "que", "en"],
    "de": ["der", "die", "und", "das", "ist", "zu"],
}


LM_BIGRAM_BUCKETS = 65536
LM_CTX_BUCKETS = 8192
LM_TRAIN_MOD = 10  # docs with doc_id % MOD == 0 are the training split
LM_REDUCE_BUCKETS = 64
LM_KEEP_THRESH_Q = -10_100_000  # mean per-bigram logprob floor, 1e-6 units


def _read_documents(sf_dir: str, columns=None):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)


def doc_token_stats(sf_dir: str):
    """Per-doc token statistics (whitespace tokenization)."""

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.split(" ")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_tokens": toks.map(len).astype("int64"),
                "n_uniq_tokens": toks.map(lambda t: len(set(t))).astype("int64"),
                "text_len": df["text"].str.len().astype("int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pandas"
    )


register(
    "doc_token_stats",
    doc_token_stats,
    """
    SELECT doc_id,
           len(string_split(text, ' '))::BIGINT AS n_tokens,
           len(list_distinct(string_split(text, ' ')))::BIGINT AS n_uniq_tokens,
           length(text)::BIGINT AS text_len
    FROM documents
    """,
)


def lang_stats(sf_dir: str):
    """Per-language rollup. Partial aggregation happens inside map_batches
    (one row per lang per batch) before the small groupby — the
    pre-aggregate pattern that keeps the shuffle tiny at scale."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("lang", as_index=False).agg(
            part_docs=("doc_id", "count"), part_chars=("n_chars", "sum")
        )
        return g

    ds = _read_documents(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(
        partial, batch_format="pandas"
    )
    return ds.groupby("lang").aggregate(
        Sum("part_docs", alias_name="n_docs"),
        Sum("part_chars", alias_name="total_chars"),
    )


register(
    "lang_stats",
    lang_stats,
    """
    SELECT lang, count(*)::BIGINT AS n_docs, sum(n_chars)::BIGINT AS total_chars
    FROM documents GROUP BY lang
    """,
)


def doc_fingerprint(sf_dir: str):
    """Content fingerprint: md5 of lowercased text (exact-dup key)."""

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "fingerprint": [
                    hashlib.md5(t.lower().encode()).hexdigest()
                    for t in df["text"]
                ],
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pandas"
    )


register(
    "doc_fingerprint",
    doc_fingerprint,
    "SELECT doc_id, md5(lower(text)) AS fingerprint FROM documents",
)


def lang_id(sf_dir: str):
    """Stopword-hit language ID (en/es/de; deterministic tie-break
    en > es > de). A real corpus would use char n-gram profiles; the
    Ray-side shape (vectorized scoring in map_batches) is identical."""

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ")
        hits = {
            lang: toks.map(lambda t, sw=set(sws): sum(x in sw for x in t))
            for lang, sws in STOPWORDS.items()
        }
        en, es, de = hits["en"], hits["es"], hits["de"]
        pred = np.where(
            (en >= es) & (en >= de), "en", np.where(es >= de, "es", "de")
        )
        return pd.DataFrame({"doc_id": df["doc_id"], "lang_pred": pred})

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


def _sw_sql(lang: str) -> str:
    lst = ", ".join(f"'{w}'" for w in STOPWORDS[lang])
    return (
        f"len(list_filter(string_split(lower(text), ' '), "
        f"x -> list_contains([{lst}], x)))"
    )


register(
    "lang_id",
    lang_id,
    f"""
    SELECT doc_id,
           CASE WHEN {_sw_sql("en")} >= {_sw_sql("es")}
                 AND {_sw_sql("en")} >= {_sw_sql("de")} THEN 'en'
                WHEN {_sw_sql("es")} >= {_sw_sql("de")} THEN 'es'
                ELSE 'de' END AS lang_pred
    FROM documents
    """,
)


def quality_score(sf_dir: str):
    """Heuristic doc quality: permille of English stopwords and mean token
    length (floored to ints for engine-stable comparison)."""

    def score(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ")
        n = toks.map(len).astype("int64")
        sw = set(STOPWORDS["en"])
        stop = toks.map(lambda t: sum(x in sw for x in t)).astype("int64")
        tok_chars = toks.map(lambda t: sum(len(x) for x in t)).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "stopword_permille": np.floor(1000.0 * stop / n).astype("int64"),
                "mean_token_len_x100": np.floor(100.0 * tok_chars / n).astype(
                    "int64"
                ),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


register(
    "quality_score",
    quality_score,
    f"""
    WITH t AS (SELECT doc_id, string_split(lower(text), ' ') tk,
                      {_sw_sql("en")} stop FROM documents)
    SELECT doc_id,
           CAST(FLOOR(1000.0 * stop / len(tk)) AS BIGINT) AS stopword_permille,
           CAST(FLOOR(100.0 * len(array_to_string(tk, '')) / len(tk)) AS BIGINT)
               AS mean_token_len_x100
    FROM t
    """,
)


def token_count_total(sf_dir: str):
    """Corpus-wide token count: per-batch partial sums -> one global sum
    (mergeable-sketch shape; output is a single row)."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"part": [int(df["text"].str.count(" ").sum() + len(df))]}
        )

    ds = _read_documents(sf_dir, ["text"]).map_batches(
        partial, batch_format="pandas"
    )
    out = ds.aggregate(Sum("part", alias_name="total_tokens"))
    import pandas as pd2

    return pd2.DataFrame({"total_tokens": [out["total_tokens"]]})


register(
    "token_count_total",
    token_count_total,
    "SELECT sum(len(string_split(text,' ')))::BIGINT AS total_tokens FROM documents",
)


def repetition_filter(sf_dir: str):
    """Repetition-based quality filter (the Gopher-style duplicate-ngram
    signal, public knowledge): per doc, the number of duplicated word
    BIGRAMS. ``keep`` = duplicated-bigram fraction <= 20%%, compared in
    integers (n_dup * 5 <= n_bigrams) so the oracle hash is float-free."""

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        n_bg = np.empty(len(df), dtype=np.int64)
        n_dup = np.empty(len(df), dtype=np.int64)
        for i, text in enumerate(df["text"]):
            toks = text.lower().split(" ")
            if len(toks) < 2:
                n_bg[i] = 0
                n_dup[i] = 0
                continue
            bigrams = [
                toks[j] + " " + toks[j + 1] for j in range(len(toks) - 1)
            ]
            n_bg[i] = len(bigrams)
            n_dup[i] = len(bigrams) - len(set(bigrams))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_bigrams": n_bg,
                "n_dup_bigrams": n_dup,
                "keep": n_dup * 5 <= n_bg,
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pandas"
    )


register(
    "repetition_filter",
    repetition_filter,
    """
    WITH t AS (SELECT doc_id, string_split(lower(text), ' ') tk FROM documents),
    b AS (SELECT doc_id,
                 CASE WHEN len(tk) < 2 THEN []
                      ELSE list_transform(range(1, len(tk)),
                                          i -> tk[i] || ' ' || tk[i+1])
                 END bg
          FROM t)
    SELECT doc_id,
           len(bg)::BIGINT AS n_bigrams,
           (len(bg) - len(list_distinct(bg)))::BIGINT AS n_dup_bigrams,
           ((len(bg) - len(list_distinct(bg))) * 5 <= len(bg)) AS keep
    FROM b
    """,
)


TOP_NGRAMS_K = 20
N_NGRAM_BUCKETS = 64


def top_bigrams(sf_dir: str, k: int = TOP_NGRAMS_K):
    """Corpus-wide top-k bigram frequencies — the bucketed top-k pattern:
    explode bigrams with ``bucket = hash(bigram) %% B`` -> one vectorized
    value_counts + local top-k per bucket group (each bigram lives in
    exactly ONE bucket, so per-bucket top-k is lossless) -> tiny driver
    merge of k x B rows. Ties break on the bigram string ascending."""
    import hashlib as _hl

    import pyarrow as pa

    def explode(batch: pa.Table) -> pa.Table:
        grams: list[str] = []
        for text in batch.column("text").to_pylist():
            toks = text.lower().split(" ")
            grams.extend(
                toks[j] + " " + toks[j + 1] for j in range(len(toks) - 1)
            )
        # map-side combiner: the exchange carries (bigram, partial cnt)
        # rows, not one row per occurrence — cuts shuffled volume by the
        # corpus repetition factor
        c = pd.Series(grams, dtype=object).value_counts()
        uniq = c.index.to_numpy()
        buckets = [
            int.from_bytes(_hl.md5(g.encode()).digest()[:4], "little")
            % N_NGRAM_BUCKETS
            for g in uniq
        ]
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int32()),
                "bigram": pa.array(uniq, pa.string()),
                "cnt": pa.array(c.to_numpy().astype("int64"), pa.int64()),
            }
        )

    def bucket_topk(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("bigram", as_index=False).agg(n=("cnt", "sum"))
        out["n"] = out["n"].astype("int64")
        return out.sort_values(
            ["n", "bigram"], ascending=[False, True], kind="mergesort"
        ).head(k)

    top = (
        _read_documents(sf_dir, ["text"])
        .map_batches(explode, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(
            lambda g: bucket_topk(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .to_pandas()  # <= k rows per bucket
        .sort_values(["n", "bigram"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    return top


register(
    "top_bigrams",
    top_bigrams,
    f"""
    WITH t AS (SELECT string_split(lower(text), ' ') tk FROM documents),
    b AS (SELECT unnest(list_transform(range(1, len(tk)),
                                       i -> tk[i] || ' ' || tk[i+1])) bg
          FROM t WHERE len(tk) >= 2)
    SELECT bg AS bigram, count(*)::BIGINT AS n
    FROM b GROUP BY bg
    ORDER BY n DESC, bigram
    LIMIT {TOP_NGRAMS_K}
    """,
)


# -- context-window chunking (training-data prep) ---------------------------

CHUNK_SIZE = 50
CHUNK_STRIDE = 40  # SIZE - STRIDE tokens of overlap between chunks


def doc_chunks(sf_dir: str):
    """Split every document into fixed-size overlapping token windows —
    the standard LLM training-data chunking op. One output row per chunk
    (doc_id, chunk_id, n_tokens, chunk_md5); emission stops at the first
    window that reaches the end of the doc, so every token is covered
    exactly once past the overlap. Pure map-side flat-map: no shuffle,
    output streams straight to the consumer."""

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        doc_ids: list[int] = []
        chunk_ids: list[int] = []
        n_tok: list[int] = []
        md5s: list[str] = []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            toks = text.split(" ")
            n = len(toks)
            nch = 1 + max(0, -(-(n - CHUNK_SIZE) // CHUNK_STRIDE))
            for k in range(nch):
                chunk = toks[k * CHUNK_STRIDE : k * CHUNK_STRIDE + CHUNK_SIZE]
                doc_ids.append(int(doc_id))
                chunk_ids.append(k)
                n_tok.append(len(chunk))
                md5s.append(hashlib.md5(" ".join(chunk).encode()).hexdigest())
        return pd.DataFrame(
            {
                "doc_id": pd.Series(doc_ids, dtype="int64"),
                "chunk_id": pd.Series(chunk_ids, dtype="int64"),
                "n_tokens": pd.Series(n_tok, dtype="int64"),
                "chunk_md5": md5s,
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        explode, batch_format="pandas"
    )


register(
    "doc_chunks",
    doc_chunks,
    f"""
    WITH t AS (SELECT doc_id, string_split(text, ' ') tk FROM documents),
    c AS (SELECT doc_id, tk, len(tk) n,
                 1 + CAST(ceil(greatest(len(tk) - {CHUNK_SIZE}, 0)
                               / CAST({CHUNK_STRIDE} AS DOUBLE)) AS INT) nch
          FROM t),
    e AS (SELECT doc_id, tk, n, unnest(generate_series(0, nch - 1)) k FROM c)
    SELECT doc_id, k::BIGINT AS chunk_id,
           least(n - k * {CHUNK_STRIDE}, {CHUNK_SIZE})::BIGINT AS n_tokens,
           md5(array_to_string(
               tk[k * {CHUNK_STRIDE} + 1 : k * {CHUNK_STRIDE} + {CHUNK_SIZE}],
               ' ')) AS chunk_md5
    FROM e
    """,
)


# -- term redaction (PII-scrub shape) ---------------------------------------

REDACT_PATTERN = r"\b(customer|key|hash)\b"


def redact_terms(sf_dir: str):
    """Redaction scrub — the PII-removal shape every training pipeline
    needs (here over a synthetic denylist, since the corpus has no real
    PII): vectorized regex replace + match count per doc, emitting the
    scrubbed text's md5 so the oracle is an exact value check."""

    def scrub(df: pd.DataFrame) -> pd.DataFrame:
        n_red = df["text"].str.count(REDACT_PATTERN).astype("int64")
        scrubbed = df["text"].str.replace(REDACT_PATTERN, "[X]", regex=True)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_redactions": n_red,
                "scrubbed_md5": [
                    hashlib.md5(t.encode()).hexdigest() for t in scrubbed
                ],
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        scrub, batch_format="pandas"
    )


register(
    "redact_terms",
    redact_terms,
    f"""
    SELECT doc_id,
           CAST(len(regexp_extract_all(text, '{REDACT_PATTERN}'))
                AS BIGINT) AS n_redactions,
           md5(regexp_replace(text, '{REDACT_PATTERN}', '[X]', 'g'))
               AS scrubbed_md5
    FROM documents
    """,
)


# -- distinctive terms per language (TF-IDF shape, integer-scored) -----------

TFIDF_TOP_K = 5
_TFIDF_BUCKETS = 64


def distinctive_terms(sf_dir: str):
    """Per-language distinctive terms — the TF-IDF shape with a pure-
    integer score (``tf * 100000 // df_all``) so ranking is bit-stable
    across engines. df_all (docs containing the term, any language) is
    computable inside the term's bucket because each doc has exactly one
    language: df_all = sum of per-language partial dfs.

    Shape: per-batch pandas explode + partial (lang, token) aggregates
    -> bucket = hash(token) %% B reduce (token colocation makes both tf
    and df_all local) -> per-bucket per-language top-K -> tiny driver
    merge of B x langs x K rows."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ex = (
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"],
                    "lang": df["lang"],
                    "token": df["text"].str.lower().str.split(" "),
                }
            )
            .explode("token")
        )
        tf = ex.groupby(["lang", "token"], as_index=False).agg(
            p_tf=("doc_id", "size")
        )
        dfl = (
            ex.drop_duplicates(["doc_id", "token"])
            .groupby(["lang", "token"], as_index=False)
            .agg(p_df=("doc_id", "size"))
        )
        out = tf.merge(dfl, on=["lang", "token"])
        out["bucket"] = (
            out["token"].map(hash_token) % _TFIDF_BUCKETS
        ).astype("int32")
        return out

    def hash_token(t: str) -> int:
        import hashlib as _hl

        return int.from_bytes(_hl.md5(t.encode()).digest()[:4], "little")

    def bucket_top(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["lang", "token"], as_index=False).agg(
            tf=("p_tf", "sum"), df_lang=("p_df", "sum")
        )
        df_all = agg.groupby("token")["df_lang"].sum().rename("df_all")
        agg = agg.merge(df_all, left_on="token", right_index=True)
        agg["score"] = agg["tf"] * 100000 // agg["df_all"]
        agg = agg.sort_values(
            ["lang", "score", "token"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return agg.groupby("lang", as_index=False).head(TFIDF_TOP_K)[
            ["lang", "token", "tf", "df_all", "score"]
        ]

    out = (
        _read_documents(sf_dir, ["doc_id", "lang", "text"])
        .map_batches(partial, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: bucket_top(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .to_pandas()  # <= B x langs x K rows: tiny
        .sort_values(
            ["lang", "score", "token"],
            ascending=[True, False, True],
            kind="mergesort",
        )
    )
    top = out.groupby("lang", as_index=False).head(TFIDF_TOP_K).copy()
    top["rank"] = top.groupby("lang").cumcount() + 1
    return top[["lang", "rank", "token", "tf", "df_all", "score"]].astype(
        {"tf": "int64", "df_all": "int64", "score": "int64", "rank": "int64"}
    ).reset_index(drop=True)


register(
    "distinctive_terms",
    distinctive_terms,
    f"""
    WITH tok AS (
      SELECT doc_id, lang,
             unnest(string_split(lower(text), ' ')) AS token
      FROM documents),
    tf AS (SELECT lang, token, count(*) tf FROM tok GROUP BY 1, 2),
    dfall AS (SELECT token, count(DISTINCT doc_id) df_all
              FROM tok GROUP BY 1),
    scored AS (
      SELECT lang, t.token, tf, df_all, tf * 100000 // df_all AS score
      FROM tf t JOIN dfall USING (token)),
    ranked AS (
      SELECT *, row_number() OVER (
          PARTITION BY lang ORDER BY score DESC, token) rn
      FROM scored)
    SELECT lang, rn::BIGINT AS rank, token, tf::BIGINT AS tf,
           df_all::BIGINT AS df_all, score::BIGINT AS score
    FROM ranked WHERE rn <= {TFIDF_TOP_K}
    """,
)


# -- BPE-style regex tokenization (system brief: "whitespace + a BPE-ish
#    regex") -----------------------------------------------------------------

# GPT-2-style pre-tokenizer, simplified to the ASCII classes both Python
# re and DuckDB's RE2 interpret identically (no lookahead, no \p classes):
# a leading optional space binds to the following letter/digit/symbol run.
BPE_PATTERN = r" ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+"


def bpe_token_stats(sf_dir: str):
    """Per-doc token counts under BOTH tokenizers the brief names:
    whitespace split and the BPE-ish pre-tokenizer regex (compiled once
    per actor batch; vectorized str.count does the matching)."""
    import re

    pat = re.compile(BPE_PATTERN)

    def stats(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                # len(split(' ')) == count(' ')+1, without materializing
                # the token lists (measured ~3.5x for this column)
                "n_ws_tokens": (df["text"].str.count(" ") + 1).astype(
                    "int64"
                ),
                "n_bpe_tokens": [
                    len(pat.findall(t)) for t in df["text"]
                ],
            }
        ).astype({"n_bpe_tokens": "int64"})

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        stats, batch_format="pandas"
    )


register(
    "bpe_token_stats",
    bpe_token_stats,
    f"""
    SELECT doc_id,
           len(string_split(text, ' '))::BIGINT AS n_ws_tokens,
           len(regexp_extract_all(text, '{BPE_PATTERN}'))::BIGINT
               AS n_bpe_tokens
    FROM documents
    """,
)


# -- rolling-window content fingerprint (winnowing-style) --------------------

FP_WINDOW = 32
FP_STRIDE = 4


def doc_rolling_fingerprint(sf_dir: str):
    """Shift-robust content fingerprint (the brief's rolling-hash
    fingerprinting): hash every FP_WINDOW-char window at FP_STRIDE
    offsets and keep the MINIMUM — the 1-fingerprint winnowing sketch.
    Unlike the exact md5 (`doc_fingerprint`), this survives local edits
    outside the minimizing window, so near-identical revisions collide.
    Short docs (< window) hash whole-text."""

    def fp(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for t in df["text"]:
            n = len(t)
            if n <= FP_WINDOW:
                out.append(hashlib.md5(t.encode()).hexdigest())
                continue
            out.append(
                min(
                    hashlib.md5(
                        t[i : i + FP_WINDOW].encode()
                    ).hexdigest()
                    for i in range(0, n - FP_WINDOW + 1, FP_STRIDE)
                )
            )
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "fingerprint": out}
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        fp, batch_format="pandas"
    )


register(
    "doc_rolling_fingerprint",
    doc_rolling_fingerprint,
    f"""
    SELECT doc_id,
           CASE WHEN len(text) <= {FP_WINDOW} THEN md5(text)
                ELSE list_aggregate(
                    list_transform(
                        range(1, len(text) - {FP_WINDOW} + 2, {FP_STRIDE}),
                        i -> md5(substr(text, i, {FP_WINDOW}))),
                    'min')
           END AS fingerprint
    FROM documents
    """,
)

# -- train/eval decontamination (training-data prep) -------------------------

DECON_N = 4  # word n-gram size; real pipelines use 13 (GPT-3 appendix C),
# but the synthetic corpus docs are ~40 tokens so 4 keeps the op non-trivial


def decontaminate(sf_dir: str, n: int = DECON_N):
    """Train/eval decontamination: flag every TRAIN document that shares a
    word ``n``-gram with the TEST split (the dataset_split assignment), and
    count how many distinct n-grams of the doc are contaminated. The
    standard pre-training hygiene pass (GPT-3 appendix C does this with
    13-grams; the corpus here is short-doc synthetic so n=4).

    Scale shape: the eval split of a benchmark is tiny by construction
    (thousands of docs vs 10^12 train docs), so this is the canonical
    broadcast-small-side pattern — pass 1 explodes the test split's
    DISTINCT n-grams (per-batch dedup, driver union of the small string
    set, one ``ray.put``); pass 2 is a pure map-side probe over train
    docs (per-doc distinct n-grams vs the broadcast frozenset, vectorized
    per batch, nothing shuffled). No join, no all-to-all."""
    import hashlib as _hl

    import ray

    def _split_pct(doc_ids) -> np.ndarray:
        return (
            np.array(
                [
                    int(_hl.md5(str(int(d)).encode()).hexdigest()[:4], 16)
                    for d in doc_ids
                ],
                dtype=np.int64,
            )
            * 100
            // 65536
        )

    def _doc_ngrams(text: str) -> set[str]:
        toks = text.lower().split(" ")
        if len(toks) < n:
            return set()
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    def eval_ngrams(df: pd.DataFrame) -> pd.DataFrame:
        pct = _split_pct(df["doc_id"])
        grams: set[str] = set()
        for text in df.loc[pct >= 90, "text"]:
            grams |= _doc_ngrams(text)
        return pd.DataFrame({"ng": sorted(grams)})

    # pass 1: distinct test-split n-grams (small side), broadcast once
    parts = _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        eval_ngrams, batch_format="pandas"
    )
    eval_set = frozenset(parts.to_pandas()["ng"])
    eval_ref = ray.put(eval_set)

    def probe(df: pd.DataFrame) -> pd.DataFrame:
        ev = ray.get(eval_ref)
        pct = _split_pct(df["doc_id"])
        tr = df.loc[pct < 80]
        ids: list[int] = []
        hits: list[int] = []
        for d, text in zip(tr["doc_id"], tr["text"]):
            k = len(_doc_ngrams(text) & ev)
            if k:
                ids.append(int(d))
                hits.append(k)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_contaminated_ngrams": pd.Series(hits, dtype="int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        probe, batch_format="pandas"
    )


register(
    "decontaminate",
    decontaminate,
    f"""
    WITH s AS (
      SELECT doc_id,
             ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4))::INT
               * 100 // 65536 AS pct,
             string_split(lower(text), ' ') tk
      FROM documents),
    g AS (
      SELECT doc_id, pct,
             unnest(list_distinct(list_transform(
                 range(1, len(tk) - {DECON_N - 2}),
                 i -> list_aggregate(tk[i:i+{DECON_N - 1}],
                                     'string_agg', ' ')))) ng
      FROM s WHERE len(tk) >= {DECON_N}),
    ev AS (SELECT DISTINCT ng FROM g WHERE pct >= 90)
    SELECT g.doc_id, count(*)::BIGINT AS n_contaminated_ngrams
    FROM g JOIN ev USING (ng)
    WHERE g.pct < 80
    GROUP BY g.doc_id
    """,
)


def lang_source_rollup(sf_dir: str):
    """GROUPING-SETS rollup in ONE streaming pass: per-batch partials are
    emitted for all four grouping sets — (lang, source), (lang), (source),
    () — with '__all__' sentinels, so the wide input is reduced 4x inside
    map_batches and a single tiny groupby finishes the job (one shuffle
    for the whole cube, not one per level)."""
    from ray.data.aggregate import Sum

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for keys in ((["lang", "source"]), (["lang"]), (["source"]), ([])):
            if keys:
                g = df.groupby(keys, as_index=False).agg(
                    part_docs=("doc_id", "count"), part_chars=("n_chars", "sum")
                )
            else:
                g = pd.DataFrame(
                    {
                        "part_docs": [len(df)],
                        "part_chars": [df["n_chars"].sum()],
                    }
                )
            for col in ("lang", "source"):
                if col not in g.columns:
                    g[col] = "__all__"
            outs.append(g[["lang", "source", "part_docs", "part_chars"]])
        return pd.concat(outs, ignore_index=True)

    ds = _read_documents(sf_dir, ["doc_id", "lang", "source", "n_chars"]).map_batches(
        partials, batch_format="pandas"
    )
    return ds.groupby(["lang", "source"]).aggregate(
        Sum("part_docs", alias_name="n_docs"),
        Sum("part_chars", alias_name="total_chars"),
    )


register(
    "lang_source_rollup",
    lang_source_rollup,
    """
    SELECT coalesce(lang, '__all__') AS lang,
           coalesce(source, '__all__') AS source,
           count(*)::BIGINT AS n_docs,
           sum(n_chars)::BIGINT AS total_chars
    FROM documents
    GROUP BY GROUPING SETS ((lang, source), (lang), (source), ())
    """,
)


def normalize_text(sf_dir: str):
    """Canonical text normalization (the pre-dedup cleanup op): lowercase,
    collapse ASCII whitespace runs to single spaces, trim. Output carries
    the md5 of the normalized text (hash-stable; no raw-text shuffle) and
    the byte shrinkage."""
    import re

    ws = re.compile(r"[ \t\r\n]+")

    def norm(df: pd.DataFrame) -> pd.DataFrame:
        normed = [ws.sub(" ", t.lower()).strip(" ") for t in df["text"]]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "norm_md5": [
                    hashlib.md5(t.encode()).hexdigest() for t in normed
                ],
                "n_chars_norm": pd.Series(
                    [len(t) for t in normed], dtype="int64"
                ),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        norm, batch_format="pandas"
    )


register(
    "normalize_text",
    normalize_text,
    r"""
    SELECT doc_id,
           md5(trim(regexp_replace(lower(text), '[ \t\r\n]+', ' ', 'g'), ' '))
               AS norm_md5,
           length(trim(regexp_replace(lower(text), '[ \t\r\n]+', ' ', 'g'), ' '))
               ::BIGINT AS n_chars_norm
    FROM documents
    """,
)


CURATE_MIN_STOPWORD_PERMILLE = 30
CURATE_TRAIN_PCT = 80
CURATE_EVAL_PCT = 90


def curate_corpus(sf_dir: str, n: int = DECON_N):
    """END-TO-END corpus curation — the composition a real pre-training
    pipeline runs, as ONE streaming job: every doc gets a keep/drop
    decision with its FIRST failing filter as the reason, priority
    heldout > dup > contaminated > repetition > quality > perplexity >
    keep.

    - heldout: split pct >= 80 (the val/test docs are not train corpus)
    - dup: not the lowest doc_id of its exact md5(lower(text)) group
    - contaminated: shares a word n-gram with the test split (pct >= 90)
    - repetition: duplicate-bigram fraction > 1/5 (Gopher-style)
    - quality: stopword permille < 30
    - perplexity: mean bigram-LM logprob below LM_KEEP_THRESH_Q (the
      CCNet-style LM filter — see lm_perplexity)

    Shape: two broadcasts (the test split's distinct n-grams and the
    fixed-size bigram-LM count arrays — both corpus-size-independent),
    one map pass computing every per-doc signal, ONE bucketed shuffle
    keyed by text-hash for the global dup decision. Nothing corpus-sized
    reaches the driver."""
    import ray

    def _split_pct(doc_ids) -> np.ndarray:
        return (
            np.array(
                [
                    int(hashlib.md5(str(int(d)).encode()).hexdigest()[:4], 16)
                    for d in doc_ids
                ],
                dtype=np.int64,
            )
            * 100
            // 65536
        )

    def _doc_ngrams(text: str) -> set:
        toks = text.lower().split(" ")
        if len(toks) < n:
            return set()
        return {" ".join(toks[i : i + n]) for i in range(len(toks) - n + 1)}

    def eval_ngrams(df: pd.DataFrame) -> pd.DataFrame:
        pct = _split_pct(df["doc_id"])
        grams: set = set()
        for text in df.loc[pct >= CURATE_EVAL_PCT, "text"]:
            grams |= _doc_ngrams(text)
        return pd.DataFrame({"ng": sorted(grams)})

    parts = _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        eval_ngrams, batch_format="pandas"
    )
    eval_ref = ray.put(frozenset(parts.to_pandas()["ng"]))
    lm_ref = ray.put(_lm_train(sf_dir))

    N_B = 128

    def signals(df: pd.DataFrame) -> pd.DataFrame:
        ev = ray.get(eval_ref)
        cbm, cum = ray.get(lm_ref)
        toks = df["text"].str.lower().str.split(" ")
        nt = toks.map(len).astype("int64")
        sw = set(STOPWORDS["en"])
        stop = toks.map(lambda t: sum(x in sw for x in t)).astype("int64")
        spm = np.floor(1000.0 * stop / nt).astype("int64")

        tok_cache: dict[str, int] = {}

        def lm_q(t: list) -> tuple[int, int]:
            m = len(t) - 1
            if m <= 0:
                return 0, 0
            bi = np.empty(m, np.int64)
            ci = np.empty(m, np.int64)
            for i in range(m):
                bi[i] = _md5_bucket32(t[i] + " " + t[i + 1]) % LM_BIGRAM_BUCKETS
                h = tok_cache.get(t[i])
                if h is None:
                    h = _md5_bucket32(t[i]) % LM_CTX_BUCKETS
                    tok_cache[t[i]] = h
                ci[i] = h
            p = (cbm[bi] + 1.0) / (cum[ci] + float(LM_BIGRAM_BUCKETS))
            return int(np.floor(np.log(p) * 1e6).astype(np.int64).sum()), m

        lm_pairs = toks.map(lm_q)
        lm_lp = lm_pairs.map(lambda x: x[0]).astype("int64")
        lm_n = lm_pairs.map(lambda x: x[1]).astype("int64")

        def rep_keep(t: list) -> bool:
            if len(t) < 2:
                return True
            bg = [t[i] + " " + t[i + 1] for i in range(len(t) - 1)]
            return (len(bg) - len(set(bg))) * 5 <= len(bg)

        rkeep = toks.map(rep_keep)
        contam = df["text"].map(
            lambda x: not _doc_ngrams(x).isdisjoint(ev)
        )
        th = [hashlib.md5(t.lower().encode()).hexdigest() for t in df["text"]]
        return pd.DataFrame(
            {
                "bucket": pd.Series(
                    [int(h[:4], 16) % N_B for h in th], dtype="int32"
                ),
                "doc_id": df["doc_id"].astype("int64"),
                "text_hash": th,
                "pct": _split_pct(df["doc_id"]),
                "spm": spm,
                "rkeep": rkeep.astype(bool),
                "contam": contam.astype(bool),
                "lm_lp": lm_lp,
                "lm_n": lm_n,
            }
        )

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        canon = g.groupby("text_hash")["doc_id"].transform("min")
        heldout = g["pct"].to_numpy() >= CURATE_TRAIN_PCT
        dup = g["doc_id"].to_numpy() != canon.to_numpy()
        contam = g["contam"].to_numpy()
        rep = ~g["rkeep"].to_numpy()
        qual = g["spm"].to_numpy() < CURATE_MIN_STOPWORD_PERMILLE
        ppl = g["lm_lp"].to_numpy() < LM_KEEP_THRESH_Q * g["lm_n"].to_numpy()
        reason = np.select(
            [heldout, dup, contam, rep, qual, ppl],
            ["heldout", "dup", "contaminated", "repetition", "quality",
             "perplexity"],
            default="keep",
        )
        # an Arrow block: Ray cannot size an empty pandas object column
        # (it logs "Error calculating size for column 'reason'")
        return pa.table(
            {
                "doc_id": g["doc_id"].to_numpy(np.int64),
                "keep": (reason == "keep").astype(np.int64),
                "reason": pa.array(reason, pa.string()),
            }
        )

    return (
        _read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(signals, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: decide(g.drop(columns="bucket")),
            batch_format="pandas",
        )
    )


register(
    "curate_corpus",
    curate_corpus,
    f"""
    WITH t AS (
      SELECT doc_id, lower(text) AS lt, string_split(lower(text), ' ') AS tk,
             ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 4))::INT
               * 100 // 65536 AS pct,
             {_sw_sql("en")} AS stop
      FROM documents),
    base AS (
      SELECT doc_id, pct,
             min(doc_id) OVER (PARTITION BY md5(lt)) AS canon,
             CAST(FLOOR(1000.0 * stop / len(tk)) AS BIGINT) AS spm,
             CASE WHEN len(tk) < 2 THEN []
                  ELSE list_transform(range(1, len(tk)),
                                      i -> tk[i] || ' ' || tk[i+1])
             END AS bg,
             tk
      FROM t),
    g AS (
      SELECT doc_id, pct,
             unnest(list_distinct(list_transform(
                 range(1, len(tk) - {DECON_N - 2}),
                 i -> list_aggregate(tk[i:i+{DECON_N - 1}],
                                     'string_agg', ' ')))) AS ng
      FROM base WHERE len(tk) >= {DECON_N}),
    ev AS (SELECT DISTINCT ng FROM g WHERE pct >= {CURATE_EVAL_PCT}),
    contam AS (SELECT DISTINCT g.doc_id FROM g JOIN ev USING (ng)),
    lmflat AS (
      SELECT doc_id,
             unnest(list_transform(range(1, len(tk)),
                                   i -> tk[i] || ' ' || tk[i+1])) AS bgr,
             unnest(list_transform(range(1, len(tk)), i -> tk[i])) AS ctx
      FROM base WHERE len(tk) >= 2),
    lmhb AS (
      SELECT doc_id,
             ('0x' || substr(md5(bgr), 1, 8))::BIGINT
                 % {LM_BIGRAM_BUCKETS} AS bb,
             ('0x' || substr(md5(ctx), 1, 8))::BIGINT
                 % {LM_CTX_BUCKETS} AS cc
      FROM lmflat),
    lmb AS (SELECT bb, count(*) AS n FROM lmhb
            WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
    lmc AS (SELECT cc, count(*) AS n FROM lmhb
            WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
    lmagg AS (
      SELECT h.doc_id, count(*)::BIGINT AS n_bigrams,
             sum(floor(ln((COALESCE(b.n, 0) + 1)::DOUBLE
                          / (COALESCE(c.n, 0) + {LM_BIGRAM_BUCKETS})::DOUBLE)
                       * 1e6)::BIGINT)::BIGINT AS logprob_q
      FROM lmhb h
      LEFT JOIN lmb b ON h.bb = b.bb
      LEFT JOIN lmc c ON h.cc = c.cc
      GROUP BY 1),
    decided AS (
      SELECT base.doc_id AS doc_id,
             CASE WHEN pct >= {CURATE_TRAIN_PCT} THEN 'heldout'
                  WHEN base.doc_id <> canon THEN 'dup'
                  WHEN base.doc_id IN (SELECT doc_id FROM contam)
                       THEN 'contaminated'
                  WHEN (len(bg) - len(list_distinct(bg))) * 5 > len(bg)
                       THEN 'repetition'
                  WHEN spm < {CURATE_MIN_STOPWORD_PERMILLE} THEN 'quality'
                  WHEN COALESCE(l.logprob_q, 0)
                       < {LM_KEEP_THRESH_Q} * COALESCE(l.n_bigrams, 0)
                       THEN 'perplexity'
                  ELSE 'keep' END AS reason
      FROM base LEFT JOIN lmagg l ON base.doc_id = l.doc_id)
    SELECT doc_id,
           CASE WHEN reason = 'keep' THEN 1 ELSE 0 END::BIGINT AS keep,
           reason
    FROM decided
    """,
)


def lang_confusion_matrix(sf_dir: str):
    """Classifier-evaluation shape: confusion matrix of the stopword
    language-ID prediction against the labeled ``lang`` column — both
    signals computed in ONE map pass (no join; label and text live on
    the same row), pre-aggregated per batch, tiny (pred, actual) reduce.
    The eval-harness pattern for any row-level model score."""
    from ray.data.aggregate import Sum

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ")
        hits = {
            lang: toks.map(lambda t, sw=set(sws): sum(x in sw for x in t))
            for lang, sws in STOPWORDS.items()
        }
        en, es, de = hits["en"], hits["es"], hits["de"]
        pred = np.where(
            (en >= es) & (en >= de), "en", np.where(es >= de, "es", "de")
        )
        g = (
            pd.DataFrame({"lang_pred": pred, "lang_actual": df["lang"]})
            .groupby(["lang_pred", "lang_actual"], as_index=False)
            .agg(p_n=("lang_pred", "size"))
        )
        return g

    return (
        _read_documents(sf_dir, ["doc_id", "text", "lang"])
        .map_batches(partial, batch_format="pandas")
        .groupby(["lang_pred", "lang_actual"])
        .aggregate(Sum("p_n", alias_name="n_docs"))
    )


register(
    "lang_confusion_matrix",
    lang_confusion_matrix,
    f"""
    SELECT CASE WHEN {_sw_sql("en")} >= {_sw_sql("es")}
                 AND {_sw_sql("en")} >= {_sw_sql("de")} THEN 'en'
                WHEN {_sw_sql("es")} >= {_sw_sql("de")} THEN 'es'
                ELSE 'de' END AS lang_pred,
           lang AS lang_actual,
           count(*)::BIGINT AS n_docs
    FROM documents GROUP BY 1, 2
    """,
)


# -- hash-bucketed bigram-LM perplexity filter (CCNet/Gopher-style) ---------



def _md5_bucket32(s: str) -> int:
    return int(hashlib.md5(s.encode()).hexdigest()[:8], 16)


def _lm_train(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    """Train the hash-bucketed bigram LM on the ``doc_id %% MOD == 0``
    split: one streaming pass emitting per-batch pre-aggregated
    (kind, bucket, cnt) partials (np.unique), a fixed-B bucket-hash
    reduce, then the driver materializes the model arrays — at most
    65536 + 8192 rows whatever the corpus size. The model is the
    broadcast-small-side of the scoring pass."""
    docs = _read_documents(sf_dir, ["doc_id", "text"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        bb: list[int] = []
        cc: list[int] = []
        tok_cache: dict[str, int] = {}
        for d, tx in zip(df["doc_id"], df["text"]):
            if d % LM_TRAIN_MOD:
                continue
            tk = tx.lower().split(" ")
            for i in range(len(tk) - 1):
                bb.append(
                    _md5_bucket32(tk[i] + " " + tk[i + 1]) % LM_BIGRAM_BUCKETS
                )
                h = tok_cache.get(tk[i])
                if h is None:
                    h = _md5_bucket32(tk[i]) % LM_CTX_BUCKETS
                    tok_cache[tk[i]] = h
                cc.append(h)
        kinds: list[str] = []
        buckets: list[int] = []
        cnts: list[int] = []
        for kind, arr in (("B", bb), ("C", cc)):
            if arr:
                u, c = np.unique(np.asarray(arr, np.int64), return_counts=True)
                kinds.extend([kind] * len(u))
                buckets.extend(int(x) for x in u)
                cnts.extend(int(x) for x in c)
        out = pd.DataFrame(
            {
                "kind": pd.Series(kinds, dtype=object),
                "bucket": pd.Series(buckets, dtype="int64"),
                "cnt": pd.Series(cnts, dtype="int64"),
            }
        )
        out["rb"] = (out["bucket"] % LM_REDUCE_BUCKETS).astype("int32")
        return out

    rows = (
        docs.map_batches(partials, batch_format="pandas")
        .groupby("rb")
        .map_groups(
            lambda g: g.drop(columns="rb")
            .groupby(["kind", "bucket"], as_index=False)
            .agg(cnt=("cnt", "sum")),
            batch_format="pandas",
        )
        .take_all()
    )
    cb = np.zeros(LM_BIGRAM_BUCKETS, np.int64)
    cu = np.zeros(LM_CTX_BUCKETS, np.int64)
    for r in rows:
        (cb if r["kind"] == "B" else cu)[r["bucket"]] = r["cnt"]
    return cb, cu


def lm_perplexity(sf_dir: str):
    """Per-doc bigram-LM quality signal (the CCNet/Gopher perplexity
    filter shape): P(w_i | w_{i-1}) from hash-bucketed training counts
    with add-one smoothing over the bigram bucket space; each bigram's
    logprob is floor-quantized to 1e-6 units BEFORE summation so the
    per-doc total is an order-independent integer the SQL oracle
    reproduces bit-for-bit (same md5 bucket hash, same float64 ln chain).
    ``keep`` = mean per-bigram logprob above LM_KEEP_THRESH_Q."""
    import ray

    cb, cu = _lm_train(sf_dir)
    model_ref = ray.put((cb, cu))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cbm, cum = ray.get(model_ref)
        tok_cache: dict[str, int] = {}
        ids: list[int] = []
        ns: list[int] = []
        lps: list[int] = []
        for d, tx in zip(df["doc_id"], df["text"]):
            tk = tx.lower().split(" ")
            n = len(tk) - 1
            if n <= 0:
                ids.append(d)
                ns.append(0)
                lps.append(0)
                continue
            bi = np.empty(n, np.int64)
            ci = np.empty(n, np.int64)
            for i in range(n):
                bi[i] = (
                    _md5_bucket32(tk[i] + " " + tk[i + 1]) % LM_BIGRAM_BUCKETS
                )
                h = tok_cache.get(tk[i])
                if h is None:
                    h = _md5_bucket32(tk[i]) % LM_CTX_BUCKETS
                    tok_cache[tk[i]] = h
                ci[i] = h
            p = (cbm[bi] + 1.0) / (cum[ci] + float(LM_BIGRAM_BUCKETS))
            q = np.floor(np.log(p) * 1e6).astype(np.int64)
            ids.append(d)
            ns.append(n)
            lps.append(int(q.sum()))
        n_arr = np.asarray(ns, np.int64)
        lp_arr = np.asarray(lps, np.int64)
        keep = (lp_arr >= LM_KEEP_THRESH_Q * n_arr).astype("int64")
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_bigrams": n_arr,
                "logprob_q": lp_arr,
                "keep": keep,
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


register(
    "lm_perplexity",
    lm_perplexity,
    f"""
    WITH tok AS (
      SELECT doc_id, string_split(lower(text), ' ') AS tk FROM documents),
    flat AS (
      SELECT doc_id,
             unnest(list_transform(range(1, len(tk)),
                                   i -> tk[i] || ' ' || tk[i+1])) AS g,
             unnest(list_transform(range(1, len(tk)), i -> tk[i])) AS c
      FROM tok WHERE len(tk) >= 2),
    hb AS (
      SELECT doc_id,
             ('0x' || substr(md5(g), 1, 8))::BIGINT % {LM_BIGRAM_BUCKETS} AS bb,
             ('0x' || substr(md5(c), 1, 8))::BIGINT % {LM_CTX_BUCKETS} AS cc
      FROM flat),
    bcnt AS (SELECT bb, count(*) AS n FROM hb
             WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
    ccnt AS (SELECT cc, count(*) AS n FROM hb
             WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
    q AS (
      SELECT h.doc_id,
             floor(ln((COALESCE(b.n, 0) + 1)::DOUBLE
                      / (COALESCE(c.n, 0) + {LM_BIGRAM_BUCKETS})::DOUBLE)
                   * 1e6)::BIGINT AS lp
      FROM hb h
      LEFT JOIN bcnt b ON h.bb = b.bb
      LEFT JOIN ccnt c ON h.cc = c.cc),
    agg AS (SELECT doc_id, count(*)::BIGINT AS n_bigrams,
                   sum(lp)::BIGINT AS logprob_q
            FROM q GROUP BY 1)
    SELECT d.doc_id,
           COALESCE(a.n_bigrams, 0)::BIGINT AS n_bigrams,
           COALESCE(a.logprob_q, 0)::BIGINT AS logprob_q,
           (CASE WHEN COALESCE(a.logprob_q, 0)
                      >= {LM_KEEP_THRESH_Q} * COALESCE(a.n_bigrams, 0)
                 THEN 1 ELSE 0 END)::BIGINT AS keep
    FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id
    """,
)


# -- BM25 top-k retrieval (inverted-index search shape) ----------------------

# Fixed query set (terms drawn from the corpus vocabulary). At 100 TB the
# query side is always the broadcast-small side of retrieval: corpus stats
# (N, total length, per-term document frequencies) are gathered in ONE
# streaming pass with a tiny keyed reduce, and scoring is a pure map pass
# with map-side top-k pre-trim — no shuffle ever carries corpus text.
BM25_QUERIES = {
    "q_hash_join": ["hash", "join"],
    "q_window_sort": ["window", "sort", "merge"],
    "q_customer_scan": ["customer", "table", "scan"],
}
BM25_K1 = 1.2
BM25_B = 0.75
BM25_TOP_K = 10
# Driver-computed float constants are inlined into the SQL oracle via
# repr() so both engines evaluate the identical IEEE-754 expression.
_BM25_K1P1 = BM25_K1 + 1.0
_BM25_OMB = 1.0 - BM25_B


def bm25_search(sf_dir: str):
    """BM25 (Lucene idf form) top-k document retrieval for a fixed query
    set. Per-term contributions are floor-quantized to 1e-6 units BEFORE
    the per-doc sum, so each doc's score is an order-independent integer
    the SQL oracle reproduces bit-for-bit (same float64 expression shape
    on both sides; see the parity note on ``lm_perplexity``).

    Two passes: (1) corpus stats — one map pass emitting per-batch
    (key, val) partials for doc count / total token count / per-query-term
    df, reduced by a tiny keyed groupby (#keys = 2 + #distinct terms);
    (2) scoring — stats broadcast in the UDF closure (O(#terms) bytes),
    map-side per-query top-k pre-trim, final per-query top-k in a
    #queries-group reduce. Reference has no retrieval ops (SURVEY §2.8);
    this is a north-rule training-data operator."""
    import math

    from ray.data.aggregate import Sum

    terms = sorted({t for ts in BM25_QUERIES.values() for t in ts})

    def stats_partial(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ")
        keys = ["N", "L"]
        vals = [len(df), int(toks.str.len().sum())]
        for t in terms:
            keys.append("df:" + t)
            vals.append(int(sum(t in tk for tk in toks)))
        return pd.DataFrame({"k": keys, "v": pd.Series(vals, dtype="int64")})

    rows = (
        _read_documents(sf_dir, ["text"])
        .map_batches(stats_partial, batch_format="pandas")
        .groupby("k")
        .aggregate(Sum("v", alias_name="v"))
        .take_all()
    )
    stats = {r["k"]: int(r["v"]) for r in rows}
    n_docs, total_len = stats["N"], stats["L"]
    avgdl = total_len / n_docs
    idf = {
        t: math.log(
            (n_docs - stats.get("df:" + t, 0) + 0.5)
            / (stats.get("df:" + t, 0) + 0.5)
            + 1.0
        )
        for t in terms
    }

    def score_trim(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ")
        dl = toks.str.len().to_numpy(np.int64)
        ids = df["doc_id"].to_numpy(np.int64)
        n = len(df)
        out = []
        tf_cache: dict[str, np.ndarray] = {}
        for t in terms:
            tf_cache[t] = np.fromiter(
                (tk.count(t) for tk in toks), np.int64, n
            )
        for qname, qterms in BM25_QUERIES.items():
            score = np.zeros(n, np.int64)
            for t in qterms:
                tf = tf_cache[t]
                score += np.floor(
                    idf[t]
                    * (
                        (tf * _BM25_K1P1)
                        / (tf + BM25_K1 * (_BM25_OMB + BM25_B * dl / avgdl))
                    )
                    * 1e6
                ).astype(np.int64)
            pos = score > 0
            if not pos.any():
                continue
            part = pd.DataFrame(
                {"query": qname, "doc_id": ids[pos], "score_q": score[pos]}
            ).sort_values(
                ["score_q", "doc_id"], ascending=[False, True],
                kind="mergesort",
            ).head(BM25_TOP_K)
            out.append(part)
        if not out:
            return pd.DataFrame(
                {
                    "query": pd.Series([], dtype=object),
                    "doc_id": pd.Series([], dtype="int64"),
                    "score_q": pd.Series([], dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["score_q", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(BM25_TOP_K)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        return g[["query", "rank", "doc_id", "score_q"]]

    return (
        _read_documents(sf_dir, ["doc_id", "text"])
        .map_batches(score_trim, batch_format="pandas")
        .groupby("query")
        .map_groups(final_topk, batch_format="pandas")
    )


def _bm25_oracle() -> str:
    qvals = ", ".join(
        f"('{q}', '{t}')" for q, ts in BM25_QUERIES.items() for t in ts
    )
    return f"""
    WITH tok AS (
      SELECT doc_id, string_split(lower(text), ' ') AS tk FROM documents),
    s AS (SELECT count(*)::BIGINT AS n, sum(len(tk))::BIGINT AS l FROM tok),
    q(query, term) AS (VALUES {qvals}),
    dfv AS (
      SELECT t.term, count(*)::BIGINT AS df
      FROM (SELECT DISTINCT term FROM q) t JOIN tok
        ON list_contains(tok.tk, t.term)
      GROUP BY 1),
    contrib AS (
      SELECT q.query, tok.doc_id,
             len(list_filter(tok.tk, x -> x = q.term))::BIGINT AS tf,
             len(tok.tk)::BIGINT AS dl,
             COALESCE(d.df, 0) AS df
      FROM q LEFT JOIN dfv d ON q.term = d.term CROSS JOIN tok),
    scored AS (
      SELECT c.query, c.doc_id,
             sum(floor(ln((s.n - c.df + 0.5) / (c.df + 0.5) + 1.0)
                       * ((c.tf * {_BM25_K1P1!r})
                          / (c.tf + {BM25_K1!r}
                             * ({_BM25_OMB!r}
                                + {BM25_B!r} * c.dl / (s.l::DOUBLE / s.n))))
                       * 1000000.0)::BIGINT)::BIGINT AS score_q
      FROM contrib c CROSS JOIN s
      GROUP BY 1, 2),
    ranked AS (
      SELECT query, doc_id, score_q,
             row_number() OVER (
               PARTITION BY query ORDER BY score_q DESC, doc_id
             )::BIGINT AS rank
      FROM scored WHERE score_q > 0)
    SELECT query, rank, doc_id, score_q
    FROM ranked WHERE rank <= {BM25_TOP_K}
    """


register("bm25_search", bm25_search, _bm25_oracle())


# -- distributed BPE merge learning ------------------------------------------

BPE_LEARN_ROUNDS = 6
BPE_LEARN_BUCKETS = 32
_BPE_SEP = "\x1f"  # unit separator: cannot occur inside a word


def bpe_learn(sf_dir: str):
    """Learn BPE merge rules distributively (the tokenizer-training shape).

    Vocabulary compression first: ONE streaming pass over the corpus
    emits per-batch (word, cnt) partials reduced on ``hash(word) %% B``
    buckets — every later round runs over the (word, cnt) table, whose
    size is bounded by the vocabulary, not the corpus. Each merge round
    is: per-batch weighted pair-count partials -> fixed-B pair-hash
    bucket reduce taking each bucket's best pair -> driver argmax over B
    rows (the global best is one bucket's best) -> merge rule broadcast
    in the map closure and applied vectorized. The vocab table is
    re-materialized per round (it is vocab-sized; re-executing lineage
    would instead replay r passes over the corpus by round r).

    Merge semantics (identical on both engines, bit-for-bit): a word is
    the U+001F-joined symbol string; applying merge (l, r) is a single
    left-to-right non-overlapping ``str.replace`` of SEP+l+SEP+r+SEP with
    SEP+lr+SEP — Python ``str.replace`` and DuckDB ``replace`` share
    these semantics exactly (a self-adjacent run 'a a a' merges only its
    first pair per round, unlike pass-wise BPE variants; documented,
    deterministic, and replayed by the chained-CTE oracle). Ties on pair
    count break lexicographically (lhs, rhs). Output: one row per round
    (round, lhs, rhs, pair_count)."""
    import hashlib as _hl

    def word_partials(df: pd.DataFrame) -> pd.DataFrame:
        ex = df["text"].str.lower().str.split(" ").explode()
        ex = ex[ex != ""]
        g = ex.value_counts().rename_axis("word").reset_index(name="cnt")
        g["bucket"] = (
            g["word"]
            .map(lambda w: int.from_bytes(_hl.md5(w.encode()).digest()[:4], "little"))
            % BPE_LEARN_BUCKETS
        ).astype("int32")
        return g

    def word_reduce(g: pd.DataFrame) -> pd.DataFrame:
        out = g.groupby("word", as_index=False).agg(cnt=("cnt", "sum"))
        out["sym"] = out["word"].map(
            lambda w: _BPE_SEP + _BPE_SEP.join(w) + _BPE_SEP
        )
        out["cnt"] = out["cnt"].astype("int64")
        return out

    vocab = (
        _read_documents(sf_dir, ["text"])
        .map_batches(word_partials, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: word_reduce(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .materialize()
    )
    # consolidate once: the reduce leaves ~one tiny block per bucket and
    # every merge round re-pays per-block overhead on all of them
    # (rows-proportional budget, same rationale as dedup.py's NB)
    vocab = vocab.repartition(max(1, vocab.count() // 100_000 + 1)).materialize()

    def pair_partials(df: pd.DataFrame) -> pd.DataFrame:
        ls: list[str] = []
        rs: list[str] = []
        cs: list[int] = []
        for sym, cnt in zip(df["sym"], df["cnt"]):
            sy = sym.split(_BPE_SEP)[1:-1]
            for i in range(len(sy) - 1):
                ls.append(sy[i])
                rs.append(sy[i + 1])
                cs.append(cnt)
        if not ls:  # a batch of all-single-symbol words emits no pairs
            return pd.DataFrame(
                {
                    "l": pd.Series(dtype=object),
                    "r": pd.Series(dtype=object),
                    "c": pd.Series(dtype="int64"),
                    "bucket": pd.Series(dtype="int32"),
                }
            )
        p = pd.DataFrame(
            {"l": ls, "r": rs, "c": pd.Series(cs, dtype="int64")}
        )
        p = p.groupby(["l", "r"], as_index=False).agg(c=("c", "sum"))
        p["bucket"] = (
            (p["l"] + " " + p["r"])
            .map(lambda s: int.from_bytes(_hl.md5(s.encode()).digest()[:4], "little"))
            % BPE_LEARN_BUCKETS
        ).astype("int32")
        return p

    def bucket_best(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["l", "r"], as_index=False).agg(c=("c", "sum"))
        agg = agg.sort_values(
            ["c", "l", "r"], ascending=[False, True, True], kind="mergesort"
        )
        return agg.head(1)

    merges: list[tuple[int, str, str, int]] = []
    for rnd in range(1, BPE_LEARN_ROUNDS + 1):
        cand = (
            vocab.map_batches(pair_partials, batch_format="pandas")
            .groupby("bucket")
            .map_groups(
                lambda g: bucket_best(g.drop(columns="bucket")),
                batch_format="pandas",
            )
            .take_all()
        )  # <= B rows
        if not cand:
            break
        cand.sort(key=lambda x: (-x["c"], x["l"], x["r"]))
        best = cand[0]
        l, r, c = best["l"], best["r"], int(best["c"])
        merges.append((rnd, l, r, c))
        pat = _BPE_SEP + l + _BPE_SEP + r + _BPE_SEP
        rep = _BPE_SEP + l + r + _BPE_SEP

        def apply_merge(df: pd.DataFrame, pat=pat, rep=rep) -> pd.DataFrame:
            df = df.copy()
            df["sym"] = df["sym"].str.replace(pat, rep, regex=False)
            return df

        vocab = vocab.map_batches(
            apply_merge, batch_format="pandas"
        ).materialize()

    return pd.DataFrame(
        merges, columns=["round", "lhs", "rhs", "pair_count"]
    ).astype({"round": "int64", "pair_count": "int64"})


def _bpe_cte_parts(include_final_vocab: bool = False) -> list[str]:
    """Shared CTE chain replaying the distributed BPE learn run in pure
    SQL (v0 = char-split vocab; per round t: pair counts p{t}, best pair
    b{t}, merged vocab v{t}). ``include_final_vocab`` adds the last
    v{ROUNDS} so downstream oracles (bpe_encode) can read the final
    symbolization."""
    parts = [
        """
    wrd AS (
      SELECT w AS word, count(*)::BIGINT AS cnt
      FROM (SELECT unnest(string_split(lower(text), ' ')) AS w
            FROM documents)
      WHERE w <> '' GROUP BY 1),
    v0 AS (SELECT word, cnt,
                  chr(31) || array_to_string(string_split(word, ''), chr(31))
                          || chr(31) AS sym
           FROM wrd)"""
    ]
    for t in range(1, BPE_LEARN_ROUNDS + 1):
        parts.append(
            f"""
    p{t} AS (
      SELECT l, r, sum(cnt)::BIGINT AS pcnt FROM (
        SELECT cnt,
               unnest(list_transform(range(1, len(sy)), i -> sy[i])) AS l,
               unnest(list_transform(range(1, len(sy)), i -> sy[i+1])) AS r
        FROM (SELECT cnt,
                     list_filter(string_split(sym, chr(31)),
                                 x -> x <> '') AS sy
              FROM v{t - 1}))
      GROUP BY 1, 2),
    b{t} AS (SELECT l, r, pcnt FROM p{t} ORDER BY pcnt DESC, l, r LIMIT 1)"""
        )
        if t < BPE_LEARN_ROUNDS or include_final_vocab:
            parts.append(
                f"""
    v{t} AS (SELECT word, cnt,
                    replace(sym, chr(31) || b.l || chr(31) || b.r || chr(31),
                                 chr(31) || b.l || b.r || chr(31)) AS sym
             FROM v{t - 1}, b{t} b)"""
            )
    return parts


def _bpe_learn_oracle() -> str:
    sel = "\n    UNION ALL ".join(
        f"SELECT {t}::BIGINT AS round, l AS lhs, r AS rhs, pcnt AS pair_count FROM b{t}"
        for t in range(1, BPE_LEARN_ROUNDS + 1)
    )
    return "WITH " + ",".join(_bpe_cte_parts()) + "\n    " + sel


register("bpe_learn", bpe_learn, _bpe_learn_oracle())


# -- CCNet-style perplexity terciles (head / middle / tail) ------------------

PPLX_BIN_W = 4096  # histogram bin width over mean_q (1e-6 logprob units)
PPLX_REDUCE_B = 32


def _lm_scored_with_lang(sf_dir: str):
    """lm_perplexity's scoring pass, carrying the lang column through
    (same model, same arithmetic; see lm_perplexity for the parity
    notes)."""
    import ray

    cb, cu = _lm_train(sf_dir)
    model_ref = ray.put((cb, cu))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        cbm, cum = ray.get(model_ref)
        tok_cache: dict[str, int] = {}
        ns: list[int] = []
        lps: list[int] = []
        for tx in df["text"]:
            tk = tx.lower().split(" ")
            n = len(tk) - 1
            if n <= 0:
                ns.append(0)
                lps.append(0)
                continue
            bi = np.empty(n, np.int64)
            ci = np.empty(n, np.int64)
            for i in range(n):
                bi[i] = (
                    _md5_bucket32(tk[i] + " " + tk[i + 1]) % LM_BIGRAM_BUCKETS
                )
                h = tok_cache.get(tk[i])
                if h is None:
                    h = _md5_bucket32(tk[i]) % LM_CTX_BUCKETS
                    tok_cache[tk[i]] = h
                ci[i] = h
            p = (cbm[bi] + 1.0) / (cum[ci] + float(LM_BIGRAM_BUCKETS))
            q = np.floor(np.log(p) * 1e6).astype(np.int64)
            ns.append(n)
            lps.append(int(q.sum()))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang": df["lang"],
                "n_bigrams": pd.Series(ns, dtype="int64", index=df.index),
                "logprob_q": pd.Series(lps, dtype="int64", index=df.index),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "lang", "text"]).map_batches(
        score, batch_format="pandas"
    )


def _kth_largest_from_counts(
    vals: np.ndarray, cnts: np.ndarray, k: int
) -> int:
    """Value at 1-indexed rank k, descending, counting duplicates."""
    order = np.argsort(-vals, kind="mergesort")
    cum = np.cumsum(cnts[order])
    idx = int(np.searchsorted(cum, k, side="left"))
    return int(vals[order[min(idx, len(order) - 1)]])


def perplexity_buckets(sf_dir: str):
    """CCNet-shape quality bucketing: per-language head/middle/tail
    terciles of the bigram-LM mean logprob (mean_q = exact int floor of
    logprob_q / n_bigrams; 0 for empty docs). head = mean_q >= t1 where
    t1 is the ceil(n/3)-th largest mean_q in the language (counting
    duplicates), middle >= t2 = ceil(2n/3)-th largest; ties share a
    bucket.

    Scale shape — exact distributed order statistics, NO per-lang global
    sort: (A) one pass builds per-lang fixed-width histograms over
    mean_q (bin = floor(mean_q / W); KBs per lang however big the
    corpus), reduced on ``bin %% B``; the driver walks each lang's bins
    to locate the tercile ranks' boundary BINS; (B) one filtered pass
    collects value counts inside boundary bins only (<= W distinct
    values per lang per bin), reduced the same way; the driver reads off
    the exact rank-k values. Thresholds broadcast; final pass assigns
    buckets. The SQL oracle does the same selection the easy way
    (row_number window) — identical semantics."""
    scored = _lm_scored_with_lang(sf_dir)

    def add_mean(df: pd.DataFrame) -> pd.DataFrame:
        n = df["n_bigrams"].to_numpy(np.int64)
        lp = df["logprob_q"].to_numpy(np.int64)
        mean = np.where(
            n > 0, np.floor_divide(lp, np.maximum(n, 1)), 0
        ).astype(np.int64)
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "lang": df["lang"], "mean_q": mean}
        )

    m = scored.map_batches(add_mean, batch_format="pandas").materialize()

    def hist_part(df: pd.DataFrame) -> pd.DataFrame:
        b = np.floor_divide(df["mean_q"].to_numpy(np.int64), PPLX_BIN_W)
        g = (
            pd.DataFrame({"lang": df["lang"], "bin": b})
            .groupby(["lang", "bin"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        g["rb"] = (g["bin"] % PPLX_REDUCE_B).astype("int32")
        return g

    hist_rows = (
        m.map_batches(hist_part, batch_format="pandas")
        .groupby("rb")
        .map_groups(
            lambda g: g.drop(columns="rb")
            .groupby(["lang", "bin"], as_index=False)
            .agg(cnt=("cnt", "sum")),
            batch_format="pandas",
        )
        .take_all()
    )  # <= langs * (range(mean_q)/W) rows: KBs
    hist = pd.DataFrame(hist_rows)

    # driver: locate each tercile rank's boundary bin per lang
    targets: dict[str, list[tuple[int, int, int]]] = {}  # lang -> [(which, bin, rank_in_bin)]
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("bin", ascending=False, kind="mergesort")
        cnts = g["cnt"].to_numpy(np.int64)
        bins = g["bin"].to_numpy(np.int64)
        cum = np.cumsum(cnts)
        n = int(cum[-1])
        for which, k in ((0, (n + 2) // 3), (1, (2 * n + 2) // 3)):
            i = int(np.searchsorted(cum, k, side="left"))
            rank_in_bin = k - (int(cum[i - 1]) if i else 0)
            targets.setdefault(str(lang), []).append(
                (which, int(bins[i]), rank_in_bin)
            )

    boundary = {
        (lang, b) for lang, ts in targets.items() for _, b, _ in ts
    }

    def boundary_counts(df: pd.DataFrame) -> pd.DataFrame:
        b = np.floor_divide(df["mean_q"].to_numpy(np.int64), PPLX_BIN_W)
        keep = np.fromiter(
            (
                (lang, bb) in boundary
                for lang, bb in zip(df["lang"], b)
            ),
            bool,
            len(df),
        )
        sub = df[keep]
        g = (
            pd.DataFrame({"lang": sub["lang"], "mean_q": sub["mean_q"]})
            .groupby(["lang", "mean_q"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        g["rb"] = (g["mean_q"] % PPLX_REDUCE_B).astype("int32")
        return g

    val_rows = (
        m.map_batches(boundary_counts, batch_format="pandas")
        .groupby("rb")
        .map_groups(
            lambda g: g.drop(columns="rb")
            .groupby(["lang", "mean_q"], as_index=False)
            .agg(cnt=("cnt", "sum")),
            batch_format="pandas",
        )
        .take_all()
    )  # <= langs * 2 * W rows
    vals = pd.DataFrame(val_rows)

    thresholds: dict[str, list[int]] = {}
    for lang, ts in targets.items():
        th = [0, 0]
        for which, b, rank_in_bin in ts:
            sub = vals[
                (vals["lang"] == lang)
                & (
                    np.floor_divide(
                        vals["mean_q"].to_numpy(np.int64), PPLX_BIN_W
                    )
                    == b
                )
            ]
            th[which] = _kth_largest_from_counts(
                sub["mean_q"].to_numpy(np.int64),
                sub["cnt"].to_numpy(np.int64),
                rank_in_bin,
            )
        thresholds[lang] = th

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        t1 = df["lang"].map(lambda x: thresholds[x][0]).to_numpy(np.int64)
        t2 = df["lang"].map(lambda x: thresholds[x][1]).to_numpy(np.int64)
        mq = df["mean_q"].to_numpy(np.int64)
        bucket = np.where(mq >= t1, "head", np.where(mq >= t2, "middle", "tail"))
        out = df[["doc_id", "lang", "mean_q"]].copy()
        out["bucket"] = bucket
        return out

    return m.map_batches(assign, batch_format="pandas")


def _pplx_buckets_oracle() -> str:
    return f"""
    WITH tok AS (
      SELECT doc_id, string_split(lower(text), ' ') AS tk FROM documents),
    flat AS (
      SELECT doc_id,
             unnest(list_transform(range(1, len(tk)),
                                   i -> tk[i] || ' ' || tk[i+1])) AS g,
             unnest(list_transform(range(1, len(tk)), i -> tk[i])) AS c
      FROM tok WHERE len(tk) >= 2),
    hb AS (
      SELECT doc_id,
             ('0x' || substr(md5(g), 1, 8))::BIGINT % {LM_BIGRAM_BUCKETS} AS bb,
             ('0x' || substr(md5(c), 1, 8))::BIGINT % {LM_CTX_BUCKETS} AS cc
      FROM flat),
    bcnt AS (SELECT bb, count(*) AS n FROM hb
             WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
    ccnt AS (SELECT cc, count(*) AS n FROM hb
             WHERE doc_id % {LM_TRAIN_MOD} = 0 GROUP BY 1),
    q AS (
      SELECT h.doc_id,
             floor(ln((COALESCE(b.n, 0) + 1)::DOUBLE
                      / (COALESCE(c.n, 0) + {LM_BIGRAM_BUCKETS})::DOUBLE)
                   * 1e6)::BIGINT AS lp
      FROM hb h
      LEFT JOIN bcnt b ON h.bb = b.bb
      LEFT JOIN ccnt c ON h.cc = c.cc),
    agg AS (SELECT doc_id, count(*)::BIGINT AS n_bigrams,
                   sum(lp)::BIGINT AS logprob_q
            FROM q GROUP BY 1),
    m AS (
      SELECT d.doc_id, d.lang,
             CASE WHEN COALESCE(a.n_bigrams, 0) = 0 THEN 0
                  ELSE CAST((a.logprob_q
                             - ((a.logprob_q % a.n_bigrams) + a.n_bigrams)
                               % a.n_bigrams) // a.n_bigrams AS BIGINT)
             END AS mean_q
      FROM documents d LEFT JOIN agg a ON d.doc_id = a.doc_id),
    r AS (
      SELECT m.*,
             row_number() OVER (
               PARTITION BY lang ORDER BY mean_q DESC, doc_id) AS rn,
             count(*) OVER (PARTITION BY lang) AS n
      FROM m),
    th AS (
      SELECT lang,
             max(CASE WHEN rn = (n + 2) // 3 THEN mean_q END) AS t1,
             max(CASE WHEN rn = (2 * n + 2) // 3 THEN mean_q END) AS t2
      FROM r GROUP BY lang)
    SELECT r.doc_id, r.lang, r.mean_q,
           CASE WHEN r.mean_q >= t.t1 THEN 'head'
                WHEN r.mean_q >= t.t2 THEN 'middle'
                ELSE 'tail' END AS bucket
    FROM r JOIN th t ON r.lang = t.lang
    """


register("perplexity_buckets", perplexity_buckets, _pplx_buckets_oracle())


# -- sequence packing (concat-and-chunk training batches) --------------------
#
# The GPT-style pretraining data layout: concatenate every document's
# tokens into ONE global stream (doc_id order) and cut it into fixed
# context windows of PACK_W tokens; a document that straddles a cut is
# split across the two windows. The hard part at scale is the exclusive
# prefix sum over 10^12 docs — done here as the textbook two-phase
# distributed scan (per-range-bucket partials -> tiny driver offsets ->
# per-bucket local cumsum), never a global sort and never a driver pass
# over the rows.

PACK_W = 128  # context-window length in whitespace tokens
PACK_BUCKETS = 32  # prefix-scan ranges (scale knob; driver sees B ints)


def pack_sequences(sf_dir: str):
    """One row per (window, doc) fragment: window_id, doc_id, start_tok
    (offset of the fragment inside its window), n_tok.

    Phase 0: Max(doc_id) (column-pruned scan) to fix the range buckets.
    Phase 1: map-side per-bucket token partial sums -> B rows to the
    driver -> exclusive bucket offsets (B ints, broadcast by closure).
    Phase 2: shuffle only (doc_id, n, bucket) int rows (never text) on
    bucket; each group sorts locally by doc_id, local-cumsums, adds its
    bucket offset, and emits fragments with vectorized numpy repeats."""
    from ray.data.aggregate import Max

    n_docs_hint = _read_documents(sf_dir, ["doc_id"]).aggregate(
        Max("doc_id", alias_name="m")
    )["m"] + 1
    B = PACK_BUCKETS

    def tok_counts(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy()
        n = (df["text"].str.count(" ") + 1).to_numpy().astype("int64")
        return pd.DataFrame(
            {
                "doc_id": ids,
                "n": n,
                "bucket": (ids * B // n_docs_hint).astype("int64"),
            }
        )

    def bucket_partials(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket", as_index=False)["n"].sum()
        return g.rename(columns={"n": "part"})

    from ray.data.aggregate import Sum

    docs = _read_documents(sf_dir, ["doc_id", "text"])
    # groupby-aggregate reduces the per-block partials IN TASKS (map-side
    # combine on B keys); the driver receives exactly <= B rows, not
    # O(n_blocks * B) (VERDICT r4 #2)
    parts_rows = (
        docs.map_batches(tok_counts, batch_format="pandas")
        .map_batches(bucket_partials, batch_format="pandas")
        .groupby("bucket")
        .aggregate(Sum("part", alias_name="part"))
        .take_all()  # <= B rows total
    )
    sums = np.zeros(B, dtype="int64")
    for r in parts_rows:
        sums[int(r["bucket"])] = int(r["part"])
    offsets = np.concatenate(([0], np.cumsum(sums)[:-1]))  # exclusive

    W = PACK_W

    def explode_fragments(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        ids = g["doc_id"].to_numpy()
        n = g["n"].to_numpy()
        off = offsets[int(g["bucket"].iat[0])] + np.cumsum(n) - n
        first_w = off // W
        last_w = (off + n - 1) // W
        reps = (last_w - first_w + 1).astype("int64")
        tot = int(reps.sum())
        within = np.arange(tot) - np.repeat(np.cumsum(reps) - reps, reps)
        win = np.repeat(first_w, reps) + within
        off_r = np.repeat(off, reps)
        end_r = np.repeat(off + n, reps)
        start_g = np.maximum(off_r, win * W)
        end_g = np.minimum(end_r, (win + 1) * W)
        return pd.DataFrame(
            {
                "window_id": win,
                "doc_id": np.repeat(ids, reps),
                "start_tok": start_g - win * W,
                "n_tok": end_g - start_g,
            }
        )

    return (
        docs.map_batches(tok_counts, batch_format="pandas")
        .groupby("bucket")
        .map_groups(explode_fragments, batch_format="pandas")
    )


register(
    "pack_sequences",
    pack_sequences,
    f"""
    WITH t AS (SELECT doc_id, len(string_split(text, ' '))::BIGINT n
               FROM documents),
    p AS (SELECT doc_id, n,
                 coalesce(sum(n) OVER (ORDER BY doc_id
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                   0)::BIGINT o0
          FROM t),
    f AS (SELECT doc_id, n, o0,
                 unnest(range(o0 // {PACK_W}, (o0 + n - 1) // {PACK_W} + 1)) w
          FROM p)
    SELECT w::BIGINT AS window_id, doc_id,
           (greatest(o0, w * {PACK_W}) - w * {PACK_W})::BIGINT AS start_tok,
           (least(o0 + n, (w + 1) * {PACK_W})
            - greatest(o0, w * {PACK_W}))::BIGINT AS n_tok
    FROM f
    """,
)


# -- temperature-based source mixing (training-mix rebalancing) --------------
#
# The multilingual/multi-source rebalancing step (alpha-temperature
# sampling, mT5/CC-100 style): sources are re-weighted proportional to
# c_s^alpha with alpha = 0.5, flattening the head. Everything is EXACT
# integer arithmetic — w_s = isqrt(c_s), keep decisions are rational
# comparisons against a 32-bit md5 key — so the DuckDB oracle replays
# the selection bit-for-bit (no float pow/sum anywhere).

MIX_ALPHA_DESC = "alpha = 0.5 via exact integer sqrt"
MIX_BUDGET_DEN = 2  # token budget = total_tokens // 2


def mix_sources_temperature(sf_dir: str):
    """Keep each doc with probability p_s = min(1, T*w_s / (SW*c_s))
    where c_s = source token mass, w_s = isqrt(c_s), SW = sum w_s, and
    T = total tokens // MIX_BUDGET_DEN. The decision is the exact
    integer comparison  md5_32(doc_id) * SW * c_s < T * w_s * 2^32.

    Scale shape: one map pass of per-source token partials (tiny rows:
    source cardinality, not corpus), a driver dict of per-source
    thresholds (exact ints), one broadcast-filter map pass. No shuffle
    of document rows at all."""
    import hashlib as _hl
    import math

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        n = (df["text"].str.count(" ") + 1).astype("int64")
        g = (
            pd.DataFrame({"source": df["source"], "n": n})
            .groupby("source", as_index=False)["n"]
            .sum()
        )
        return g

    c_by_src = (
        _read_documents(sf_dir, ["source", "text"])
        .map_batches(partials, batch_format="pandas")
        .to_pandas()  # <= n_sources rows per block
        .groupby("source")["n"]
        .sum()
        .to_dict()
    )
    w = {s: math.isqrt(int(c)) for s, c in c_by_src.items()}
    sw = sum(w.values())
    tgt = sum(int(c) for c in c_by_src.values()) // MIX_BUDGET_DEN
    # per-source exact rational threshold as (lhs_mult, rhs) int pair
    lhs = {s: sw * int(c) for s, c in c_by_src.items()}
    rhs = {s: tgt * w[s] * (1 << 32) for s in c_by_src}

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        hs = [
            int(_hl.md5(str(int(d)).encode()).hexdigest()[:8], 16)
            for d in df["doc_id"]
        ]
        mask = [
            h * lhs[s] < rhs[s] for h, s in zip(hs, df["source"])
        ]
        return df.loc[mask, ["doc_id", "source"]]

    return _read_documents(sf_dir, ["doc_id", "source"]).map_batches(
        keep, batch_format="pandas"
    )


register(
    "mix_sources_temperature",
    mix_sources_temperature,
    f"""
    WITH t AS (SELECT doc_id, source,
                      len(string_split(text, ' '))::BIGINT n
               FROM documents),
    c AS (SELECT source, sum(n)::BIGINT AS cs FROM t GROUP BY source),
    w AS (SELECT source, cs,
                 CASE WHEN (cand + 1) * (cand + 1) <= cs THEN cand + 1
                      WHEN cand * cand > cs THEN cand - 1
                      ELSE cand END AS ws
          FROM (SELECT source, cs,
                       CAST(floor(sqrt(cs::DOUBLE)) AS BIGINT) AS cand
                FROM c)),
    g AS (SELECT (SELECT sum(ws) FROM w)::BIGINT AS sw,
                 (SELECT sum(n) FROM t)::BIGINT // {MIX_BUDGET_DEN} AS tgt)
    SELECT t.doc_id, t.source
    FROM t JOIN w USING (source), g
    WHERE ('0x' || substr(md5(CAST(t.doc_id AS VARCHAR)), 1, 8))
            ::BIGINT::HUGEINT * (g.sw * w.cs)::HUGEINT
          < (g.tgt * w.ws)::HUGEINT * 4294967296::HUGEINT
    """,
)


# -- skyline / Pareto front over document metrics -----------------------------
#
# Distributed skyline: the Pareto front of (maximize vocabulary richness,
# minimize length) — the "most information per byte" docs a curation
# pass would inspect. Skylines are associative (skyline(A u B) ==
# skyline(skyline(A) u skyline(B))), so each batch reduces to its own
# tiny partial front and the driver merges fronts, never rows.


def _skyline2d(df: pd.DataFrame) -> pd.DataFrame:
    """Rows not strictly dominated under (u max, c min): b dominates a
    iff b.u >= a.u and b.c <= a.c with one strict. Vectorized: per
    u-level min-c, then a running cummin over levels in descending u."""
    if df.empty:
        return df
    lv = df.groupby("u")["c"].min().sort_index(ascending=False)
    prev = lv.cummin().shift(1)  # best c among strictly higher u
    keep_u = lv.index[prev.isna() | (lv < prev)]
    lvmin = df.groupby("u")["c"].transform("min")
    return df[df["u"].isin(set(keep_u)) & (df["c"] == lvmin)]


def pareto_docs(sf_dir: str):
    """Skyline docs: no other doc has >= distinct tokens AND <= chars
    (one strict). Duplicate metric points all survive (none dominates
    its twin). One map pass emits per-batch partial fronts; the driver
    merges fronts only — front size is O(distinct u-levels), not corpus
    size."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        u = (
            df["text"]
            .str.lower()
            .str.split(" ")
            .map(lambda t: len(set(t)))
            .astype("int64")
        )
        return _skyline2d(
            pd.DataFrame(
                {
                    "doc_id": df["doc_id"],
                    "u": u,
                    "c": df["n_chars"].astype("int64"),
                }
            )
        )

    parts = (
        _read_documents(sf_dir, ["doc_id", "text", "n_chars"])
        .map_batches(partial, batch_format="pandas")
        .to_pandas()  # partial fronts only
    )
    out = _skyline2d(parts).sort_values("doc_id").reset_index(drop=True)
    return pd.DataFrame(
        {
            "doc_id": out["doc_id"],
            "n_uniq_tokens": out["u"],
            "n_chars": out["c"],
        }
    )


register(
    "pareto_docs",
    pareto_docs,
    """
    WITH t AS (SELECT doc_id,
                      len(list_distinct(string_split(lower(text), ' ')))
                        ::BIGINT AS u,
                      n_chars
               FROM documents)
    SELECT a.doc_id, a.u AS n_uniq_tokens, a.n_chars
    FROM t a
    WHERE NOT EXISTS (
      SELECT 1 FROM t b
      WHERE b.u >= a.u AND b.n_chars <= a.n_chars
        AND (b.u > a.u OR b.n_chars < a.n_chars))
    """,
)


# -- phrase search (exact corpus grep) ----------------------------------------
#
# The decontamination-audit primitive: exact phrase-occurrence counts
# per document (token-anchored, non-overlapping left-to-right — the
# common str.count/replace semantic both engines share).

PHRASE_QUERIES = ["hash join", "table scan", "sort merge batch"]


def phrase_search(sf_dir: str):
    """One row per (phrase, doc) with n_hits > 0. One vectorized map
    pass (pandas str.count over padded text per phrase); no shuffle at
    all — the canonical embarrassingly-parallel scan."""
    import re

    pats = {
        p: re.compile(re.escape(" " + p + " ")) for p in PHRASE_QUERIES
    }

    def scan(df: pd.DataFrame) -> pd.DataFrame:
        padded = " " + df["text"].str.lower() + " "
        frames = []
        for p, rx in pats.items():
            n = padded.str.count(rx).astype("int64")
            m = n > 0
            if m.any():
                frames.append(
                    pd.DataFrame(
                        {
                            "phrase": p,
                            "doc_id": df["doc_id"][m],
                            "n_hits": n[m],
                        }
                    )
                )
        if not frames:
            return pd.DataFrame(
                {
                    "phrase": pd.Series(dtype=object),
                    "doc_id": pd.Series(dtype="int64"),
                    "n_hits": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(frames, ignore_index=True)

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        scan, batch_format="pandas"
    )


def _phrase_oracle() -> str:
    sel = " UNION ALL ".join(
        f"SELECT '{p}' AS phrase, doc_id, "
        f"((len(pt) - len(replace(pt, ' {p} ', ''))) "
        f"// len(' {p} '))::BIGINT AS n_hits "
        f"FROM (SELECT doc_id, ' ' || lower(text) || ' ' AS pt "
        f"FROM documents)"
        for p in PHRASE_QUERIES
    )
    return f"SELECT * FROM ({sel}) WHERE n_hits > 0"


register("phrase_search", phrase_search, _phrase_oracle())


# -- cross-source contamination matrix ----------------------------------------
#
# How much verbatim n-gram material each pair of sources shares — the
# leakage diagnostic run before mixing sources into one training set.

XSRC_N = 8  # word n-gram size


def cross_source_contamination(sf_dir: str):
    """(source_a < source_b, n_shared_grams): count of DISTINCT word
    8-grams appearing in both sources. Map pass emits distinct (gram
    md5, source) per doc; a bucketed reduce on the gram hash dedups
    per-source and expands per-gram source pairs (<= C(n_sources, 2)
    rows per gram — source cardinality, not corpus); a tiny second
    reduce sums pair counts."""
    import hashlib as _hl

    B = LM_REDUCE_BUCKETS

    def grams(df: pd.DataFrame) -> pd.DataFrame:
        gs: list[str] = []
        srcs: list[str] = []
        for src, text in zip(df["source"], df["text"]):
            tk = text.lower().split(" ")
            seen = set()
            for i in range(len(tk) - XSRC_N + 1):
                seen.add(" ".join(tk[i : i + XSRC_N]))
            for g in seen:
                gs.append(g)
                srcs.append(src)
        h = [
            int.from_bytes(_hl.md5(g.encode()).digest()[:8], "little")
            & ((1 << 63) - 1)
            for g in gs
        ]
        out = pd.DataFrame(
            {
                "gh": pd.Series(h, dtype="int64"),
                "source": srcs,
            }
        ).drop_duplicates()
        out["bucket"] = (out["gh"] % B).astype("int32")
        return out

    def gram_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates()
        a_parts, b_parts = [], []
        for _, grp in g.groupby("gh", sort=False):
            ss = np.sort(grp["source"].unique())
            if len(ss) < 2:
                continue
            ii, jj = np.triu_indices(len(ss), 1)
            a_parts.append(ss[ii])
            b_parts.append(ss[jj])
        if not a_parts:
            return pd.DataFrame(
                {
                    "source_a": pd.Series(dtype=object),
                    "source_b": pd.Series(dtype=object),
                    "n": pd.Series(dtype="int64"),
                }
            )
        p = pd.DataFrame(
            {
                "source_a": np.concatenate(a_parts),
                "source_b": np.concatenate(b_parts),
            }
        )
        out = p.groupby(["source_a", "source_b"], as_index=False).size()
        return out.rename(columns={"size": "n"}).astype({"n": "int64"})

    parts = (
        _read_documents(sf_dir, ["source", "text"])
        .map_batches(grams, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: gram_pairs(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .to_pandas()  # <= B * C(n_sources, 2) pre-aggregated rows
    )
    out = parts.groupby(["source_a", "source_b"], as_index=False)["n"].sum()
    return out.rename(columns={"n": "n_shared_grams"}).astype(
        {"n_shared_grams": "int64"}
    )


register(
    "cross_source_contamination",
    cross_source_contamination,
    f"""
    WITH s AS (SELECT source, string_split(lower(text), ' ') tk
               FROM documents),
    g AS (SELECT DISTINCT source,
                 unnest(list_distinct(list_transform(
                     range(1, len(tk) - {XSRC_N - 2}),
                     i -> list_aggregate(tk[i:i+{XSRC_N - 1}],
                                         'string_agg', ' ')))) AS ng
          FROM s WHERE len(tk) >= {XSRC_N}),
    p AS (SELECT a.source AS source_a, b.source AS source_b
          FROM g a JOIN g b ON a.ng = b.ng AND a.source < b.source)
    SELECT source_a, source_b, count(*)::BIGINT AS n_shared_grams
    FROM p GROUP BY 1, 2
    """,
)


# -- BPE encode: apply the learned merges to the corpus ------------------------


def bpe_encode(sf_dir: str):
    """Per-doc token count under the learned BPE vocabulary — the apply
    half of the learn/encode pair (the sizing pass a training pipeline
    runs after vocabulary induction). Learns the merge table first
    (tiny: BPE_LEARN_ROUNDS rows on the driver), broadcasts it by
    closure, then ONE map pass re-symbolizes each batch's DISTINCT words
    (memoized per batch) and sums symbols per doc. No shuffle."""
    merges = bpe_learn(sf_dir)
    pats = [
        (
            _BPE_SEP + l + _BPE_SEP + r + _BPE_SEP,
            _BPE_SEP + l + r + _BPE_SEP,
        )
        for l, r in zip(merges["lhs"], merges["rhs"])
    ]

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        cache: dict[str, int] = {}

        def n_sym(w: str) -> int:
            n = cache.get(w)
            if n is None:
                sym = _BPE_SEP + _BPE_SEP.join(w) + _BPE_SEP
                for pat, rep in pats:
                    sym = sym.replace(pat, rep)
                n = sym.count(_BPE_SEP) - 1
                cache[w] = n
            return n

        counts = [
            sum(n_sym(w) for w in text.lower().split(" ") if w != "")
            for text in df["text"]
        ]
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"],
                "n_bpe_tokens": pd.Series(counts, dtype="int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        encode, batch_format="pandas"
    )


def _bpe_encode_oracle() -> str:
    r = BPE_LEARN_ROUNDS
    return (
        "WITH "
        + ",".join(_bpe_cte_parts(include_final_vocab=True))
        + f""",
    m AS (SELECT word,
                 len(list_filter(string_split(sym, chr(31)),
                                 x -> x <> ''))::BIGINT AS ns
          FROM v{r}),
    dw AS (SELECT doc_id, unnest(string_split(lower(text), ' ')) AS w
           FROM documents)
    SELECT doc_id, sum(m.ns)::BIGINT AS n_bpe_tokens
    FROM dw JOIN m ON dw.w = m.word
    GROUP BY doc_id"""
    )


register("bpe_encode", bpe_encode, _bpe_encode_oracle())


# -- column profiling (data-quality summary) -----------------------------------
#
# The first thing anyone runs on a new corpus drop: per-column null
# counts, exact distinct counts, and min/max (value for numerics,
# LENGTH for strings — integer-only output keeps the oracle hash-exact).

_PROFILE_NUM_COLS = ["doc_id", "n_chars"]
_PROFILE_STR_COLS = ["text", "lang", "source"]


def profile_documents(sf_dir: str):
    """One row per column: n_nulls, n_distinct (exact), min_v / max_v
    (value for numeric columns, length for string columns). Scalar
    stats: per-batch partials -> tiny driver merge. Distinct counts: a
    single TAGGED bucket-hash reduce over (col, value-hash) rows — one
    shuffle for all five columns, counting inside each bucket."""
    import hashlib as _hl

    cols = _PROFILE_NUM_COLS + _PROFILE_STR_COLS
    B = LM_REDUCE_BUCKETS

    def scalar_partials(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in _PROFILE_NUM_COLS:
            v = df[c]
            ok = v.dropna()
            rows.append(
                (
                    c,
                    int(v.isna().sum()),
                    int(ok.min()) if len(ok) else None,
                    int(ok.max()) if len(ok) else None,
                )
            )
        for c in _PROFILE_STR_COLS:
            v = df[c]
            ln = v.dropna().str.len()
            rows.append(
                (
                    c,
                    int(v.isna().sum()),
                    int(ln.min()) if len(ln) else None,
                    int(ln.max()) if len(ln) else None,
                )
            )
        return pd.DataFrame(
            rows, columns=["col", "p_nulls", "p_min", "p_max"]
        )

    def distinct_rows(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for c in cols:
            vals = df[c].dropna()
            h = [
                int.from_bytes(
                    _hl.md5(str(x).encode()).digest()[:8], "little"
                )
                & ((1 << 63) - 1)
                for x in vals.unique()
            ]
            frames.append(pd.DataFrame({"col": c, "h": pd.Series(h, dtype="int64")}))
        out = pd.concat(frames, ignore_index=True)
        out["bucket"] = (out["h"] % B).astype("int32")
        return out

    def count_distinct(g: pd.DataFrame) -> pd.DataFrame:
        d = g.drop_duplicates()
        out = d.groupby("col", as_index=False).size()
        return out.rename(columns={"size": "nd"}).astype({"nd": "int64"})

    docs = _read_documents(sf_dir, cols)
    scal = docs.map_batches(scalar_partials, batch_format="pandas").to_pandas()
    nd = (
        docs.map_batches(distinct_rows, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: count_distinct(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .to_pandas()  # <= B * n_cols pre-aggregated rows
        .groupby("col")["nd"]
        .sum()
    )
    agg = scal.groupby("col").agg(
        n_nulls=("p_nulls", "sum"), min_v=("p_min", "min"), max_v=("p_max", "max")
    )
    out = pd.DataFrame(
        {
            "col": cols,
            "n_nulls": [int(agg.loc[c, "n_nulls"]) for c in cols],
            "n_distinct": [int(nd.get(c, 0)) for c in cols],
            "min_v": [int(agg.loc[c, "min_v"]) for c in cols],
            "max_v": [int(agg.loc[c, "max_v"]) for c in cols],
        }
    )
    return out


def _profile_oracle() -> str:
    sel = []
    for c in _PROFILE_NUM_COLS:
        sel.append(
            f"SELECT '{c}' AS col, (count(*) - count({c}))::BIGINT AS n_nulls, "
            f"count(DISTINCT {c})::BIGINT AS n_distinct, "
            f"min({c})::BIGINT AS min_v, max({c})::BIGINT AS max_v "
            f"FROM documents"
        )
    for c in _PROFILE_STR_COLS:
        sel.append(
            f"SELECT '{c}' AS col, (count(*) - count({c}))::BIGINT AS n_nulls, "
            f"count(DISTINCT {c})::BIGINT AS n_distinct, "
            f"min(len({c}))::BIGINT AS min_v, max(len({c}))::BIGINT AS max_v "
            f"FROM documents"
        )
    return " UNION ALL ".join(sel)


register("profile_documents", profile_documents, _profile_oracle())


# -- Gopher quality-rule battery (Rae et al. 2021, Appendix A) ----------------
#
# The published heuristic document filters, each reported as its own flag
# so downstream mixes can pick rules a la carte. Every rule is an exact
# integer/rational comparison (no floats), so the DuckDB oracle replays
# the flags bit-for-bit. Map-only: one streaming pass, no shuffle.

GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_STOPWORDS = ("the", "be", "to", "of", "and", "that", "have", "with")
GOPHER_MIN_STOPWORDS = 2


def gopher_quality_filter(sf_dir: str):
    """Per-doc Gopher rule flags + keep (the AND of all rules):

    - word_count_ok: 50 <= n_words <= 100000
    - mean_len_ok:   mean token length in [3, 10]  (3n <= chars <= 10n)
    - symbol_ok:     (# + '...' occurrences) <= 0.1 * n_words
    - alpha_ok:      >= 80%% of words contain an [a-z] letter (5a >= 4n)
    - stopword_ok:   >= 2 hits from the 8-word Gopher stopword list
    """
    import re

    alpha_re = re.compile(r"[a-z]")
    sw = set(GOPHER_STOPWORDS)

    def flags(df: pd.DataFrame) -> pd.DataFrame:
        lt = df["text"].str.lower()
        n = (lt.str.count(" ") + 1).to_numpy("int64")
        chars = (lt.str.len() - (n - 1)).to_numpy("int64")
        syms = (
            lt.str.count("#") + lt.str.count(r"\.\.\.")
        ).to_numpy("int64")
        toks = lt.str.split(" ")
        alpha = toks.map(
            lambda t: sum(1 for w in t if alpha_re.search(w))
        ).to_numpy("int64")
        stop = toks.map(lambda t: sum(w in sw for w in t)).to_numpy("int64")
        f_wc = (GOPHER_MIN_WORDS <= n) & (n <= GOPHER_MAX_WORDS)
        f_ml = (3 * n <= chars) & (chars <= 10 * n)
        f_sy = 10 * syms <= n
        f_al = 5 * alpha >= 4 * n
        f_sw = stop >= GOPHER_MIN_STOPWORDS
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_words": n,
                "word_count_ok": f_wc.astype("int64"),
                "mean_len_ok": f_ml.astype("int64"),
                "symbol_ok": f_sy.astype("int64"),
                "alpha_ok": f_al.astype("int64"),
                "stopword_ok": f_sw.astype("int64"),
                "keep": (f_wc & f_ml & f_sy & f_al & f_sw).astype("int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        flags, batch_format="pandas"
    )


def _gopher_oracle() -> str:
    swl = ", ".join(f"'{w}'" for w in GOPHER_STOPWORDS)
    return f"""
    WITH t AS (
      SELECT doc_id, lower(text) lt, string_split(lower(text), ' ') tk
      FROM documents),
    s AS (
      SELECT doc_id,
             len(tk)::BIGINT n,
             (length(lt) - (len(tk) - 1))::BIGINT chars,
             ((length(lt) - length(replace(lt, '#', '')))
              + (length(lt) - length(replace(lt, '...', ''))) / 3)::BIGINT syms,
             len(list_filter(tk, w -> regexp_matches(w, '[a-z]')))::BIGINT alpha,
             len(list_filter(tk, w -> list_contains([{swl}], w)))::BIGINT sw
      FROM t)
    SELECT doc_id, n AS n_words,
           (n >= {GOPHER_MIN_WORDS} AND n <= {GOPHER_MAX_WORDS})::BIGINT
             AS word_count_ok,
           (3 * n <= chars AND chars <= 10 * n)::BIGINT AS mean_len_ok,
           (10 * syms <= n)::BIGINT AS symbol_ok,
           (5 * alpha >= 4 * n)::BIGINT AS alpha_ok,
           (sw >= {GOPHER_MIN_STOPWORDS})::BIGINT AS stopword_ok,
           (n >= {GOPHER_MIN_WORDS} AND n <= {GOPHER_MAX_WORDS}
            AND 3 * n <= chars AND chars <= 10 * n
            AND 10 * syms <= n AND 5 * alpha >= 4 * n
            AND sw >= {GOPHER_MIN_STOPWORDS})::BIGINT AS keep
    FROM s
    """


register("gopher_quality_filter", gopher_quality_filter, _gopher_oracle())


# -- DSIR importance resampling (Xie et al. 2023 shape) -----------------------
#
# Data Selection via Importance Resampling: hashed unigram features, a
# target distribution fit on the in-domain split (lang = 'en') and a raw
# distribution fit on the whole corpus, per-doc importance log-weight
# = sum over tokens of (log p_target(f) - log p_raw(f)). Distributed
# shape: ONE streaming training pass emitting per-batch pre-aggregated
# (kind, bucket, cnt) partials into a fixed-B keyed reduce (at most
# 2 * DSIR_BUCKETS rows reach the driver whatever the corpus size);
# the two model vectors broadcast via ray.put; scoring is map-only.
# Each per-bucket log is floor-quantized to 1e-6 units BEFORE the
# per-doc sum (order-independent integers), so the DuckDB oracle
# replays keep/weight bit-for-bit via the same float64 ln chain.

DSIR_BUCKETS = 4096
DSIR_TARGET_LANG = "en"
# keep docs whose mean per-token importance clears this floor (1e-6 log
# units; sits between the target-lang and off-target population means on
# the synthetic corpus, so the flag is a real selection, not a constant)
DSIR_KEEP_PER_TOK_Q = -157_000


def _dsir_train(sf_dir: str) -> tuple[np.ndarray, np.ndarray]:
    docs = _read_documents(sf_dir, ["doc_id", "text", "lang"])

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        kinds: list[str] = []
        buckets: list[int] = []
        cnts: list[int] = []
        tok_cache: dict[str, int] = {}
        tgt: list[int] = []
        raw: list[int] = []
        for lang, tx in zip(df["lang"], df["text"]):
            for w in tx.lower().split(" "):
                h = tok_cache.get(w)
                if h is None:
                    h = _md5_bucket32(w) % DSIR_BUCKETS
                    tok_cache[w] = h
                raw.append(h)
                if lang == DSIR_TARGET_LANG:
                    tgt.append(h)
        for kind, arr in (("T", tgt), ("R", raw)):
            if arr:
                u, c = np.unique(np.asarray(arr, np.int64), return_counts=True)
                kinds.extend([kind] * len(u))
                buckets.extend(int(x) for x in u)
                cnts.extend(int(x) for x in c)
        out = pd.DataFrame(
            {
                "kind": pd.Series(kinds, dtype=object),
                "bucket": pd.Series(buckets, dtype="int64"),
                "cnt": pd.Series(cnts, dtype="int64"),
            }
        )
        out["rb"] = (out["bucket"] % LM_REDUCE_BUCKETS).astype("int32")
        return out

    rows = (
        docs.map_batches(partials, batch_format="pandas")
        .groupby("rb")
        .map_groups(
            lambda g: g.drop(columns="rb")
            .groupby(["kind", "bucket"], as_index=False)
            .agg(cnt=("cnt", "sum")),
            batch_format="pandas",
        )
        .take_all()
    )
    ct = np.zeros(DSIR_BUCKETS, np.int64)
    cr = np.zeros(DSIR_BUCKETS, np.int64)
    for r in rows:
        (ct if r["kind"] == "T" else cr)[r["bucket"]] = r["cnt"]
    return ct, cr


def dsir_select(sf_dir: str):
    """Per-doc DSIR importance weight (1e-6 log units) and keep flag
    (keep = mean per-token weight >= DSIR_KEEP_PER_TOK_Q, an exact
    integer comparison both engines replay)."""
    import ray

    ct, cr = _dsir_train(sf_dir)
    tt, tr = int(ct.sum()), int(cr.sum())
    # per-bucket quantized logs (computed once, broadcast with the model)
    qt = np.floor(
        np.log((ct + 1.0) / float(tt + DSIR_BUCKETS)) * 1e6
    ).astype(np.int64)
    qr = np.floor(
        np.log((cr + 1.0) / float(tr + DSIR_BUCKETS)) * 1e6
    ).astype(np.int64)
    model_ref = ray.put(qt - qr)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        qd = ray.get(model_ref)
        tok_cache: dict[str, int] = {}
        ids: list[int] = []
        ns: list[int] = []
        ws: list[int] = []
        for d, tx in zip(df["doc_id"], df["text"]):
            tk = tx.lower().split(" ")
            tot = 0
            for w in tk:
                h = tok_cache.get(w)
                if h is None:
                    h = _md5_bucket32(w) % DSIR_BUCKETS
                    tok_cache[w] = h
                tot += int(qd[h])
            ids.append(d)
            ns.append(len(tk))
            ws.append(tot)
        w_arr = np.asarray(ws, np.int64)
        return pd.DataFrame(
            {
                "doc_id": pd.Series(ids, dtype="int64"),
                "n_tokens": pd.Series(ns, dtype="int64"),
                "logweight_q": w_arr,
                "keep": (
                    w_arr >= DSIR_KEEP_PER_TOK_Q * np.asarray(ns, np.int64)
                ).astype("int64"),
            }
        )

    return _read_documents(sf_dir, ["doc_id", "text"]).map_batches(
        score, batch_format="pandas"
    )


def _dsir_oracle() -> str:
    return f"""
    WITH tok AS (
      SELECT doc_id, lang, unnest(string_split(lower(text), ' ')) AS w
      FROM documents),
    hb AS (
      SELECT doc_id, lang,
             ('0x' || substr(md5(w), 1, 8))::BIGINT % {DSIR_BUCKETS} AS f
      FROM tok),
    tcnt AS (SELECT f, count(*)::BIGINT n FROM hb
             WHERE lang = '{DSIR_TARGET_LANG}' GROUP BY 1),
    rcnt AS (SELECT f, count(*)::BIGINT n FROM hb GROUP BY 1),
    tt AS (SELECT COALESCE(sum(n), 0)::BIGINT s FROM tcnt),
    tr AS (SELECT COALESCE(sum(n), 0)::BIGINT s FROM rcnt),
    q AS (
      SELECT h.doc_id,
             (floor(ln((COALESCE(t.n, 0) + 1)::DOUBLE
                       / ((SELECT s FROM tt) + {DSIR_BUCKETS})::DOUBLE) * 1e6)
              - floor(ln((COALESCE(r.n, 0) + 1)::DOUBLE
                         / ((SELECT s FROM tr) + {DSIR_BUCKETS})::DOUBLE)
                      * 1e6))::BIGINT AS lw
      FROM hb h
      LEFT JOIN tcnt t ON h.f = t.f
      LEFT JOIN rcnt r ON h.f = r.f),
    agg AS (SELECT doc_id, count(*)::BIGINT n_tokens,
                   sum(lw)::BIGINT logweight_q
            FROM q GROUP BY 1)
    SELECT d.doc_id,
           a.n_tokens,
           a.logweight_q,
           (CASE WHEN a.logweight_q >= {DSIR_KEEP_PER_TOK_Q} * a.n_tokens
                 THEN 1 ELSE 0 END)::BIGINT AS keep
    FROM documents d JOIN agg a ON d.doc_id = a.doc_id
    """


register("dsir_select", dsir_select, _dsir_oracle())


# -- corpus diversity + heavy-hitter coverage ---------------------------------
#
# Two corpus-health measurements a data curator runs before/after dedup:
# distinct-trigram diversity per source (template-heavy or boilerplate
# sources score low) and exact top-K token mass coverage (how much of
# the stream the heaviest tokens absorb — the Zipf head check). Both
# ride the bucketed inverted-index pattern: each (key) lives in exactly
# one hash bucket, so per-bucket distinct/top-k is lossless, the
# exchange carries map-side pre-aggregated partials, and the driver
# receives O(B + sources) rows.

NGRAM_DIV_N = 3
TOKEN_MASS_K = 20


def ngram_diversity(sf_dir: str):
    """Per-source trigram diversity: distinct trigrams / total trigrams
    (basis points). Docs with < 3 tokens contribute nothing."""
    import hashlib as _hl

    from ray.data.aggregate import Sum

    n = NGRAM_DIV_N

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        src_l: list[str] = []
        gram_l: list[str] = []
        for src, text in zip(df["source"], df["text"]):
            toks = text.lower().split(" ")
            for j in range(len(toks) - n + 1):
                src_l.append(src)
                gram_l.append(" ".join(toks[j : j + n]))
        if not src_l:
            return pd.DataFrame(
                {
                    "source": pd.Series(dtype=object),
                    "gram": pd.Series(dtype=object),
                    "cnt": pd.Series(dtype="int64"),
                    "bucket": pd.Series(dtype="int32"),
                }
            )
        g = (
            pd.DataFrame({"source": src_l, "gram": gram_l})
            .groupby(["source", "gram"], as_index=False)
            .size()
            .rename(columns={"size": "cnt"})
        )
        g["cnt"] = g["cnt"].astype("int64")
        g["bucket"] = [
            int.from_bytes(_hl.md5((s + "\x1f" + w).encode()).digest()[:4],
                           "little") % N_NGRAM_BUCKETS
            for s, w in zip(g["source"], g["gram"])
        ]
        return g

    def bucket_reduce(g: pd.DataFrame) -> pd.DataFrame:
        # every copy of a (source, gram) shares this bucket: distinct and
        # total are both exact within the group
        out = g.groupby("source", as_index=False).agg(
            nd=("gram", "nunique"), tot=("cnt", "sum")
        )
        return out.astype({"nd": "int64", "tot": "int64"})

    per_src = (
        _read_documents(sf_dir, ["text", "source"])
        .map_batches(partials, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: bucket_reduce(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .groupby("source")
        .aggregate(
            Sum("nd", alias_name="n_distinct"), Sum("tot", alias_name="n_total")
        )
        .to_pandas()  # one row per source
    )
    per_src["n_distinct"] = per_src["n_distinct"].astype("int64")
    per_src["n_total"] = per_src["n_total"].astype("int64")
    per_src["diversity_bp"] = (
        per_src["n_distinct"] * 10_000 // per_src["n_total"]
    ).astype("int64")
    return per_src


register(
    "ngram_diversity",
    ngram_diversity,
    f"""
    WITH t AS (SELECT source, string_split(lower(text), ' ') tk
               FROM documents),
    g AS (SELECT source,
                 unnest(list_transform(range(1, len(tk) - {NGRAM_DIV_N - 2}),
                     i -> tk[i] || ' ' || tk[i+1] || ' ' || tk[i+2])) gram
          FROM t WHERE len(tk) >= {NGRAM_DIV_N})
    SELECT source,
           count(DISTINCT gram)::BIGINT AS n_distinct,
           count(*)::BIGINT AS n_total,
           (count(DISTINCT gram) * 10000 // count(*))::BIGINT AS diversity_bp
    FROM g GROUP BY source
    """,
)


def token_mass_topk(sf_dir: str, k: int = TOKEN_MASS_K):
    """Exact top-K tokens by frequency with their share of the total
    token stream (basis points) — the Zipf-head coverage check. One
    bucketed exchange: per-batch value_counts partials -> per-bucket
    exact counts + lossless local top-k + one per-bucket total row ->
    driver merges B top-k lists and sums B totals."""
    import hashlib as _hl

    def partials(df: pd.DataFrame) -> pd.DataFrame:
        toks = df["text"].str.lower().str.split(" ").explode()
        c = toks.value_counts()
        uniq = c.index.to_numpy()
        return pd.DataFrame(
            {
                "token": uniq,
                "cnt": c.to_numpy().astype("int64"),
                "bucket": pd.Series(
                    [
                        int.from_bytes(
                            _hl.md5(w.encode()).digest()[:4], "little"
                        )
                        % N_NGRAM_BUCKETS
                        for w in uniq
                    ],
                    dtype="int32",
                ),
            }
        )

    def bucket_reduce(g: pd.DataFrame) -> pd.DataFrame:
        c = g.groupby("token", as_index=False).agg(n=("cnt", "sum"))
        c["n"] = c["n"].astype("int64")
        top = c.sort_values(
            ["n", "token"], ascending=[False, True], kind="mergesort"
        ).head(k)
        total = pd.DataFrame(
            {"token": ["\x00total"], "n": [int(c["n"].sum())]}
        )
        return pd.concat([top, total], ignore_index=True)

    rows = (
        _read_documents(sf_dir, ["text"])
        .map_batches(partials, batch_format="pandas")
        .groupby("bucket")
        .map_groups(
            lambda g: bucket_reduce(g.drop(columns="bucket")),
            batch_format="pandas",
        )
        .to_pandas()  # <= (k + 1) rows per bucket
    )
    is_total = rows["token"] == "\x00total"
    total = int(rows.loc[is_total, "n"].sum())
    top = (
        rows[~is_total]
        .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        .head(k)
        .copy()
    )
    top["share_bp"] = (top["n"].astype("int64") * 10_000 // total).astype(
        "int64"
    )
    return top[["token", "n", "share_bp"]].reset_index(drop=True)


register(
    "token_mass_topk",
    token_mass_topk,
    f"""
    WITH t AS (SELECT unnest(string_split(lower(text), ' ')) w
               FROM documents),
    c AS (SELECT w, count(*)::BIGINT n FROM t GROUP BY 1),
    tot AS (SELECT sum(n)::BIGINT s FROM c)
    SELECT w AS token, n,
           (n * 10000 // (SELECT s FROM tot))::BIGINT AS share_bp
    FROM c
    ORDER BY n DESC, w
    LIMIT {TOKEN_MASS_K}
    """,
)
