"""Same-process A/B timing of two checkouts' extraction code.

    python tools/ab_inproc.py <checkout_a> <checkout_b> [--rounds N] [--seed S]

Copies each checkout's ``pdf_ray/`` package under a unique package name,
loads both copies into this process and times in-process ``ExtractStage``
passes over the skew_pages corpus of ``perfbench`` (600 docs for
``--seed``). Each round runs one pass per side, interleaved batch by
batch, A first in even rounds and B first in odd ones. Every pass must
give the same output table. Prints per-side min and
median docs/s, then the paired ratio B/A: its median and how many rounds
B won.

Both sides share one process, one heap and one CPU window, so a layer
change shows without the drift between separately started processes
(15-25% on a shared host). It times no Ray scheduling: use
``perfbench/run.py`` for the end-to-end figures.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BATCH = 64  # docs per ExtractStage call, as in BENCHMARK.json
sys.path[:0] = [ROOT, os.path.join(ROOT, "perfbench")]


def load_stage(checkout: str, package: str, into: str):
    """``ExtractStage`` of ``checkout``'s ``pdf_ray``, imported as
    ``package`` from a copy under ``into``."""
    src = os.path.join(os.path.abspath(checkout), "pdf_ray")
    if not os.path.isdir(src):
        sys.exit(f"{checkout}: no pdf_ray/ package")
    shutil.copytree(src, os.path.join(into, package),
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{package}.stages.extract").ExtractStage


def timed_round(stages, order, blocks):
    """One pass of each stage over ``blocks``, interleaved batch by batch
    (``order`` says which side runs first), so both sides see the same
    host window. Returns ``{side: (output, seconds)}``."""
    import pyarrow as pa

    outs = {side: [] for side in order}
    secs = dict.fromkeys(order, 0.0)
    gc.collect()
    for b in blocks:
        for side in order:
            t0 = time.perf_counter()
            outs[side].append(stages[side](b))
            secs[side] += time.perf_counter() - t0
    return {side: (pa.concat_tables(outs[side]), secs[side]) for side in order}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("checkout_a")
    p.add_argument("checkout_b")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()

    import corpora
    from passes import blocks as split

    docs, payloads, _ = corpora.skew_pages(args.seed, 600)
    batches = split(docs, BATCH)
    with tempfile.TemporaryDirectory(prefix="ab_inproc_") as tmp:
        sys.path.insert(0, tmp)
        tag = f"{os.getpid()}"
        sides = {
            "A": load_stage(args.checkout_a, f"pdf_ray_a{tag}", tmp),
            "B": load_stage(args.checkout_b, f"pdf_ray_b{tag}", tmp),
        }
        stages = {side: cls(payloads=payloads) for side, cls in sides.items()}
        # warm-up: first-use costs (imports, font cache) of both copies
        first = timed_round(stages, "AB", batches)
        want = first["A"][0]
        if not first["B"][0].equals(want):
            sys.exit("outputs differ between A and B")
        rates: dict[str, list[float]] = {"A": [], "B": []}
        for r in range(args.rounds):
            for side, (out, wall) in timed_round(stages, "AB" if r % 2 == 0 else "BA", batches).items():
                if not out.equals(want):
                    sys.exit(f"round {r}: side {side} output differs")
                rates[side].append(docs.num_rows / wall)
    for side in "AB":
        v = rates[side]
        print(f"{side}: min {min(v):.1f}  median {statistics.median(v):.1f} docs/s"
              f"  ({args.checkout_a if side == 'A' else args.checkout_b})")
    ratios = [b / a for a, b in zip(rates["A"], rates["B"])]
    wins = sum(x > 1 for x in ratios)
    print(f"B/A: median {statistics.median(ratios):.3f}x, B won {wins} of {len(ratios)} rounds")


if __name__ == "__main__":
    main()
