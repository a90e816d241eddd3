#!/usr/bin/env python3
"""Reproduce the ROADMAP re-anchor table: python3 bench/reanchor.py

Times, in-process with `time.perf_counter` and as the median of a few
repeats, the costs the ROADMAP's open items were written against:

* `kstable` on the doubling tail at `--budget 64` and `--budget 8000`;
* `fm_profile(max_m=39)` on stationary tails of width 6 and 8;
* the criterion-6 engine work (`fm_dimension` for m in {1, 3} on the 1000
  diagrams of `tests/test_acceptance.py`) and the share of it spent in
  `colimit_dimension`.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import afk.cli  # noqa: E402
import afk.colimit  # noqa: E402
from afk.io import parse, to_diagram  # noqa: E402
from corpus import DOUBLING, stationary_tail  # noqa: E402
from generators import random_stationary_tail_diagram  # noqa: E402
from run import invoke  # noqa: E402

REPEATS = 3


def median_ms(fn):
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        samples.append(1000 * (time.perf_counter() - start))
    return statistics.median(samples)


def kstable_doubling(budget):
    argv = ["kstable", "--budget", str(budget), "--input", "-"]
    return median_ms(lambda: invoke(afk.cli.main, argv, json.dumps(DOUBLING)))


def profile(width):
    doc = stationary_tail(random.Random(f"reanchor:{width}"), width)
    diagram = to_diagram(parse(json.dumps(doc)))
    return median_ms(lambda: afk.colimit.fm_profile(diagram, 39))


def criterion_6():
    """(engine ms, colimit_dimension ms) over the criterion-6 corpus."""
    rng = random.Random(160914)
    diagrams = [random_stationary_tail_diagram(rng, max_summands=4, max_levels=5, max_entry=3) for _ in range(1000)]
    inner = afk.colimit.colimit_dimension
    spent = [0.0]

    def timed(system):
        start = time.perf_counter()
        try:
            return inner(system)
        finally:
            spent[0] += time.perf_counter() - start

    afk.colimit.colimit_dimension = timed
    try:
        start = time.perf_counter()
        for d in diagrams:
            for m in (1, 3):
                afk.colimit.fm_dimension(d, m, budget=64)
        total = time.perf_counter() - start
    finally:
        afk.colimit.colimit_dimension = inner
    return 1000 * total, 1000 * spent[0]


def main():
    engine, colimit = criterion_6()
    rows = [
        ("`kstable` on the doubling tail, `--budget 64`", kstable_doubling(64)),
        ("`kstable` on the doubling tail, `--budget 8000`", kstable_doubling(8000)),
        ("`fm_profile(max_m=39)` on a width-6 stationary tail", profile(6)),
        ("`fm_profile(max_m=39)` on a width-8 stationary tail", profile(8)),
        ("criterion-6 engine work (1000 diagrams, m in {1,3})", engine),
        ("of which `colimit_dimension`", colimit),
    ]
    print("| what | ms |\n|---|---|")
    for label, ms in rows:
        print(f"| {label} | {ms:.0f} |")
    print(f"| colimit share of the criterion-6 work | {colimit / engine:.0%} |")


if __name__ == "__main__":
    main()
