"""Seeded benchmark corpora and their independent references.

A corpus is one JSON file: the diagram documents of one workload, the list
of CLI invocations run over them, and for every document the reference
values its reports are checked against.  Everything here is plain lists and
integers; nothing imports `afk`, so the inputs of a seed stay the same
whatever the program under test becomes.

The diagram families follow `tests/generators.py` and `tests/cases.py`.
References come from three places:

* tails: the clamped-size orbit gives the cycle of the degree-m mask, and
  the brute-force elimination of `tests/oracles.py` ranks the composite
  over enough turns of that cycle (twice, to see the plateau);
* tail-less diagrams: the closed forms of a finite-dimensional algebra
  (F_m counts the last level's summands with m <= 2p - 1, K0 is its width);
* the generator family: growing tails are K-stable, pinned tails are not.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

GEN_VERSION = 6
COMMITTED_SEED = 0
WORKLOADS = ("profile-wide", "tail-deep", "cli-small")

PROFILE_MAX_M = 39
# tail width -> documents per corpus.  Width 12 gets only the single-degree
# queries: one width-12 fm-profile takes 4-10 s, so one document would decide
# up to a third of a pass.  The counts put each percentile in the middle of
# a group of like calls, not at the edge between two groups, so that it stays
# steady from seed to seed: of the 256 calls a pass, the median falls among
# the 72 width-6 single-degree calls, and the 90th percentile among the 36
# width-6 profiles (the 26 slowest calls are the 4 width-8 profiles, about
# two width-12 calls and 20 of those 36).
PROFILE_WIDTHS = {4: 44, 6: 36, 8: 4, 12: 2}
PROFILE_ONLY_SINGLE = {12}
TAIL_BUDGET = 1024
TAIL_WIDTHS = {"growing": (1, 2, 3, 4), "pinned": (2, 3, 4)}
# `kstable` on a growing tail is the slowest call, the more so the wider
# the tail.  8 growing tails a width and 5 pinned ones give 200 calls a pass
# and put the 90th percentile (the 20th slowest call) in the middle of the 8
# width-2 growing `kstable` calls.
TAIL_DOCS_PER_WIDTH = {"growing": 8, "pinned": 5}
TAIL_MIN_DIM = 6
# (with a tail, last-level width) -> (documents, injective ones) per corpus:
# 72 of 120 with a tail, and each width equally often, since a tail's cost
# grows with its width.  `kstable` and `telescope` stop at once on a
# non-injective document but run the chain search on an injective tail, so
# the injective count is fixed too, at about the share `random_document`
# draws (46-77 % with a tail, 48-81 % without, growing with the width).
SMALL_DOCS = {(True, 1): (18, 8), (True, 2): (18, 10), (True, 3): (18, 12), (True, 4): (18, 14),
              (False, 1): (12, 6), (False, 2): (12, 8), (False, 3): (12, 9), (False, 4): (12, 10)}
SMALL_SLICE = 60
ORBIT_HORIZON = 4096  # clamped-orbit search limit when computing references


# --- generators (plain-list ports of tests/generators.py) -----------------


def _no_zero_rows(rows, rng):
    for row in rows:
        if all(x == 0 for x in row):
            row[rng.randrange(len(row))] = 1
    return rows


def _no_zero_cols(rows, rng):
    for j in range(len(rows[0])):
        if all(rows[i][j] == 0 for i in range(len(rows))):
            rows[rng.randrange(len(rows))][j] = 1
    return rows


def _next_level(rng, levels, matrices, width, max_mult=2):
    src = levels[-1]
    mat = [[rng.randint(0, max_mult) for _ in src] for _ in range(width)]
    dst = [
        max(1, sum(mat[i][j] * src[j] for j in range(len(src))) + rng.randint(0, 2))
        for i in range(width)
    ]
    levels.append(dst)
    matrices.append(mat)


def _prefix(rng, max_levels, max_summands=4):
    levels = [[rng.randint(1, 4) for _ in range(rng.randint(1, max_summands))]]
    matrices: list = []
    for _ in range(rng.randint(1, max_levels) - 1):
        _next_level(rng, levels, matrices, rng.randint(1, max_summands))
    return levels, matrices


def stationary_tail(rng, width):
    """`random_stationary_tail_diagram` with the tail width fixed to `width`."""
    levels, matrices = _prefix(rng, max_levels=5)
    if len(levels[-1]) != width:
        _next_level(rng, levels, matrices, width)
    rows = _no_zero_rows([[rng.randint(0, 3) for _ in range(width)] for _ in range(width)], rng)
    return {"levels": levels, "matrices": matrices, "tail": {"matrix": rows, "slack": [0] * width}}


def growing_tail(rng, width):
    """`random_growing_tail_diagram` of a given width: a slack of ones pumps every coordinate, K-stable."""
    rows = [[rng.randint(0, 2) for _ in range(width)] for _ in range(width)]
    rows = _no_zero_cols(_no_zero_rows(rows, rng), rng)
    start = [rng.randint(1, 3) for _ in range(width)]
    return {"levels": [start], "matrices": [], "tail": {"matrix": rows, "slack": [1] * width}}


def pinned_tail(rng, width):
    """`random_pinned_tail_diagram` of a given width: coordinate 1 keeps an identity row
    and no slack, an eternal chain, so not K-stable."""
    rows = [[1] + [0] * (width - 1)]
    rows += [[rng.randint(0, 2) for _ in range(width)] for _ in range(width - 1)]
    rows = _no_zero_cols(_no_zero_rows(rows, rng), rng)
    rows[0] = [1] + [0] * (width - 1)
    slack = [0] + [rng.randint(0, 2) for _ in range(width - 1)]
    start = [rng.randint(1, 3) for _ in range(width)]
    return {"levels": [start], "matrices": [], "tail": {"matrix": rows, "slack": slack}}


def small_document(rng, with_tail, width, injective=None):
    """`random_document` drawn until its last level has `width` summands
    (and, unless `injective` is None, until its injectivity is that):
    at most 4 levels of at most 4 summands, with or without a tail."""
    while True:
        levels, matrices = _prefix(rng, max_levels=4)
        if len(levels[-1]) != width:
            continue
        doc = {"levels": levels, "matrices": matrices}
        if with_tail:
            rows = _no_zero_rows([[rng.randint(0, 2) for _ in range(width)] for _ in range(width)], rng)
            doc["tail"] = {"matrix": rows, "slack": [rng.randint(0, 2) for _ in range(width)]}
        if injective is None or is_injective(doc) == injective:
            break
    if rng.random() < 0.4:
        doc["metadata"] = {"name": f"case-{rng.randint(0, 999)}"}
    return doc


# the fixed diagrams of tests/cases.py
TWO_COLUMN = {
    "levels": [[1, 1], [2, 2], [3, 4]],
    "matrices": [[[1, 0], [1, 1]], [[1, 0], [1, 1]]],
    "tail": {"matrix": [[1, 0], [1, 1]], "slack": [1, 0]},
    "metadata": {"name": "two growing columns"},
}
DOUBLING = {"levels": [[1]], "matrices": [], "tail": {"matrix": [[2]], "slack": [0]}, "metadata": {"name": "doubling"}}
CONSTANT_COLUMN = {
    "levels": [[1, 1]],
    "matrices": [],
    "tail": {"matrix": [[1, 0], [1, 2]], "slack": [0, 0]},
    "metadata": {"name": "constant column"},
}


# --- plain arithmetic on documents ----------------------------------------


def _apply(rows, q, slack):
    return [sum(r * x for r, x in zip(row, q)) + s for row, s in zip(rows, slack)]


def unroll(doc, levels):
    """First `levels` size profiles and the matrices joining them."""
    profiles = [list(p) for p in doc["levels"][:levels]]
    matrices = [m for m in doc["matrices"][: max(0, levels - 1)]]
    tail = doc.get("tail")
    while len(profiles) < levels:
        profiles.append(_apply(tail["matrix"], profiles[-1], tail["slack"]))
        matrices.append(tail["matrix"])
    return profiles, matrices


def is_injective(doc):
    mats = list(doc["matrices"]) + ([doc["tail"]["matrix"]] if doc.get("tail") else [])
    return all(any(row[j] for row in m) for m in mats for j in range(len(m[0])))


def validity(doc):
    """What `afk validate` must say: size inequalities, unitality, injectivity."""
    valid = True
    unital = []
    for k, m in enumerate(doc["matrices"]):
        src, dst = doc["levels"][k], doc["levels"][k + 1]
        mapped = [sum(r * p for r, p in zip(row, src)) for row in m]
        ok = all(got <= cap for got, cap in zip(mapped, dst))
        valid = valid and ok
        unital.append(ok and mapped == list(dst))
    tail = doc.get("tail")
    if tail is not None:
        if any(not any(row) for row in tail["matrix"]):
            valid = False
        if any(v < 1 for v in _apply(tail["matrix"], doc["levels"][-1], tail["slack"])):
            valid = False
    return {"valid": valid, "injective": is_injective(doc), "edge_unital": unital}


def _kept(profile, m):
    return [j for j, p in enumerate(profile) if m <= 2 * p - 1]


def mask_cycle(doc, m):
    """(start, period) of the degree-m mask, from the orbit of min(q, (m+1)/2).

    The clamped vector evolves on its own (a clamped coordinate only feeds
    values that clamp again), so its first repeat repeats forever.
    """
    h = (m + 1) // 2
    tail = doc["tail"]
    state = [min(q, h) for q in doc["levels"][-1]]
    seen = {}
    for lvl in range(len(doc["levels"]), len(doc["levels"]) + ORBIT_HORIZON):
        key = tuple(state)
        if key in seen:
            return seen[key], lvl - seen[key]
        seen[key] = lvl
        state = [min(v, h) for v in _apply(tail["matrix"], state, tail["slack"])]
    raise ValueError(f"degree-{m} mask did not repeat within {ORBIT_HORIZON} levels")


def _oracle():
    """The suite's brute-force oracle module, `tests/oracles.py`."""
    root = Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "tests"))
    try:
        import oracles
    finally:
        sys.path.remove(str(root / "tests"))
    return oracles


def reference_fm(doc, m, oracles):
    """Exact F_m (m odd) of a document; F_1 is the rank of rational K0."""
    if doc.get("tail") is None:
        return len(_kept(doc["levels"][-1], m))
    start, period = mask_cycle(doc, m)
    width = len(_kept(unroll(doc, start)[0][start - 1], m))
    if width == 0:
        return 0
    profiles, matrices = unroll(doc, start + (width + 1) * period)
    kept = [_kept(p, m) for p in profiles]
    comp = oracles.naive_identity(width)
    ranks = []
    for k in range(start - 1, len(matrices)):
        block = [[matrices[k][i][j] for j in kept[k]] for i in kept[k + 1]]
        comp = oracles.naive_matmul(block, comp) if block else []
        if (k + 2 - start) % period == 0 and (k + 2 - start) // period >= width:
            ranks.append(oracles.naive_rank(comp) if comp else 0)
    if len(ranks) != 2 or ranks[0] != ranks[1]:
        raise AssertionError(f"degree-{m} composite rank did not plateau: {ranks}")
    return ranks[-1]


# --- workloads -------------------------------------------------------------


def _docs_and_ops(workload, rng):
    """Documents, the K-stability verdict their family implies (or None), and the calls."""
    docs: list = []
    families: list = []
    ops: list = []
    if workload == "profile-wide":
        for width, count in PROFILE_WIDTHS.items():
            docs += [stationary_tail(rng, width) for _ in range(count)]
        rng.shuffle(docs)
        for i, doc in enumerate(docs):
            if len(doc["levels"][-1]) not in PROFILE_ONLY_SINGLE:
                ops.append({"doc": i, "argv": ["fm-profile", "--max-m", str(PROFILE_MAX_M)]})
            ops.append({"doc": i, "argv": ["k0q"]})
            ops.append({"doc": i, "argv": ["fm", "--m", "9"]})
    elif workload == "tail-deep":
        pool = [(TWO_COLUMN, "k-stable"), (DOUBLING, "k-stable"), (CONSTANT_COLUMN, "not-k-stable")]
        for family, make in (("growing", growing_tail), ("pinned", pinned_tail)):
            for width in TAIL_WIDTHS[family] * TAIL_DOCS_PER_WIDTH[family]:
                doc = make(rng, width)
                while not (is_injective(doc) and validity(doc)["valid"]):
                    doc = make(rng, width)
                pool.append((doc, "k-stable" if family == "growing" else "not-k-stable"))
        rng.shuffle(pool)
        docs, families = [doc for doc, _ in pool], [verdict for _, verdict in pool]
        budget = ["--budget", str(TAIL_BUDGET)]
        for i in range(len(docs)):
            ops.append({"doc": i, "argv": ["kstable"] + budget})
            ops.append({"doc": i, "argv": ["telescope", "--min-dim", str(TAIL_MIN_DIM)] + budget})
            ops.append({"doc": i, "argv": ["fm", "--m", "5"] + budget})
            ops.append({"doc": i, "argv": ["export-dot"] + budget})
    elif workload == "cli-small":
        docs = [
            small_document(rng, tail, width, n < injective)
            for (tail, width), (count, injective) in SMALL_DOCS.items()
            for n in range(count)
        ]
        rng.shuffle(docs)
        commands = [
            ["validate"], ["fm", "--m", "3"], ["fm-profile", "--max-m", "9"], ["k0q"],
            ["kstable"], ["telescope", "--min-dim", "3"], ["export-dot"],
        ]
        for i in range(len(docs)):
            ops += [{"doc": i, "argv": list(c)} for c in commands]
        tails = [i for i, doc in enumerate(docs) if doc.get("tail")]
        for n in range(SMALL_SLICE):
            cmd = ["fm", "--m", str(rng.choice((3, 5, 9)))] if n % 2 == 0 else ["k0q"]
            ops.append({"doc": rng.choice(tails), "argv": cmd + ["--budget", str(rng.randint(2, 4))]})
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return docs, families or [None] * len(docs), ops


def _degrees(argv):
    if argv[0] == "fm-profile":
        return range(1, int(argv[argv.index("--max-m") + 1]) + 1, 2)
    if argv[0] == "fm":
        m = int(argv[argv.index("--m") + 1])
        return [m] if m % 2 else []
    if argv[0] == "k0q":
        return [1]
    return []


def _references(docs, families, ops):
    oracles = _oracle()
    wanted = [set() for _ in docs]
    for op in ops:
        wanted[op["doc"]].update(_degrees(op["argv"]))
    refs = []
    for doc, family, degrees in zip(docs, families, wanted):
        ref = validity(doc)
        ref["fm"] = {str(m): reference_fm(doc, m, oracles) for m in sorted(degrees)}
        ref["family"] = family
        refs.append(ref)
    return refs


def digest(corpus):
    body = {k: v for k, v in corpus.items() if k != "digest"}
    return "sha256:" + hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    docs, families, ops = _docs_and_ops(workload, rng)
    corpus = {
        "gen_version": GEN_VERSION,
        "workload": workload,
        "seed": seed,
        "documents": docs,
        "references": _references(docs, families, ops),
        "ops": ops,
    }
    corpus["digest"] = digest(corpus)
    return corpus


def committed_path(workload):
    return Path(__file__).resolve().parent / "corpus" / f"{workload}.seed{COMMITTED_SEED}.json"


def corpus_path(root, workload, seed):
    if seed == COMMITTED_SEED:
        return committed_path(workload)
    return Path(root) / ".bench_cache" / f"{workload}.seed{seed}.v{GEN_VERSION}.json"


def load(path):
    corpus = json.loads(Path(path).read_text())
    if corpus.get("gen_version") != GEN_VERSION or corpus.get("digest") != digest(corpus):
        raise ValueError(f"{path}: stale or altered corpus")
    return corpus


def write(corpus, path):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(corpus, sort_keys=True, separators=(",", ":")) + "\n")
    tmp.replace(path)
