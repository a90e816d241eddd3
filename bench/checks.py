"""Check one CLI report against the corpus references.

`check` returns the failures of one invocation as (kind, message) pairs; an
empty list means the report agrees with everything the references can say.
Inconclusive answers (exit 2) are not failures, but a number they carry as a
lower bound must not exceed the exact value.  That overshoot is the known
"lower bound" defect of budget-exhausted tails (ROADMAP item 2): it is
counted apart from the failed invocations, in the record, and it is the one
kind that leaves a run `correct`.
"""

from __future__ import annotations

import json
import re

from corpus import unroll

KNOWN_DEFECTS = frozenset({"lower-bound-overclaim"})
DEFAULT_BUDGET = 64
WITNESS_WINDOW = 32  # levels a tail witness is replayed past its path and two periods

_DOT_NODE = re.compile(r'^\s*"L\d+S\d+" \[label=', re.M)
_DOT_EDGE = re.compile(r'^\s*"L\d+S\d+" -> ', re.M)


def _flag(argv, name, default=None):
    return int(argv[argv.index(name) + 1]) if name in argv else default


def _dimension(block, want, label):
    got = block.get("dimension")
    if block.get("exact"):
        if got != want:
            return [("exact-mismatch", f"{label}: exact {got}, reference {want}")]
    elif got is not None and got > want:
        return [("lower-bound-overclaim", f"{label}: lower bound {got} > exact {want}")]
    return []


def replay(doc, w):
    """Chain conditions of a witness over the levels it covers (a window for tails)."""
    if w["kind"] == "identity-completion" and doc.get("tail") is not None:
        return ["identity-completion witness on a diagram with a tail"]
    period = w["cycle"]["period"]
    summands = w["cycle"]["summands"]
    path = w["node_path"]
    start = w["start_level"]
    if doc.get("tail") is None:
        last = len(doc["levels"])
    else:
        last = start + len(path) + 2 * period + WITNESS_WINDOW
    profiles, matrices = unroll(doc, last)

    def summand(t):
        off = t - start
        return path[off] - 1 if off < len(path) else summands[(off - len(path)) % period] - 1

    problems = []
    for t in range(start, last + 1):
        i = summand(t)
        if i >= len(profiles[t - 1]) or profiles[t - 1][i] != w["k"]:
            problems.append(f"level {t}: summand {i + 1} is not of size {w['k']}")
    for t in range(start, last):
        i, nxt = summand(t), summand(t + 1)
        row = matrices[t - 1][nxt] if nxt < len(matrices[t - 1]) else []
        if [j for j, x in enumerate(row) if x] != [i] or row[i] != 1:
            problems.append(f"edge {t}->{t + 1}: summand {i + 1} is not the sole simple predecessor")
    return problems


def _witness(doc, ref, w):
    fails = [("witness", p) for p in replay(doc, w)[:3]]
    if ref["family"] == "k-stable":
        fails.append(("verdict", "infinite chain reported for a K-stable family"))
    return fails


def _certificate(doc, entries):
    fails = []
    for entry in entries:
        cut = entry["cuts"][-1] if entry["cuts"] else 1
        profiles, _ = unroll(doc, cut + WITNESS_WINDOW)
        if min(min(p) for p in profiles[cut - 1 :]) < entry["m"]:
            fails.append(("verdict", f"m={entry['m']}: a summand below {entry['m']} after cut {cut}"))
    return fails


def _telescoped(diagram, min_dim):
    profiles, _ = unroll(diagram, len(diagram["levels"]) + (WITNESS_WINDOW if diagram.get("tail") else 0))
    if min(min(p) for p in profiles) < min_dim:
        return [("telescope-min-dim", f"a summand is smaller than {min_dim}")]
    return []


def dot_shape(doc, budget):
    levels = len(doc["levels"]) if doc.get("tail") is None else max(budget, len(doc["levels"]))
    profiles, matrices = unroll(doc, levels)
    return sum(len(p) for p in profiles), sum(1 for m in matrices for row in m for x in row if x)


def check(argv, doc, ref, code, out):
    if code == 3:
        return [("internal-error", out.strip()[-200:])]
    if code not in (0, 1, 2):
        return [("bad-exit", f"exit {code}")]
    try:
        report = json.loads(out)
    except ValueError:
        return [("bad-output", "stdout is not one JSON report")]
    command = argv[0]
    result = report.get("result", {})
    if command == "validate":
        got = {k: result.get(k) for k in ("valid", "injective", "edge_unital")}
        want = {k: ref[k] for k in ("valid", "injective", "edge_unital")}
        return [] if got == want and code == (0 if want["valid"] else 1) else [("validate", f"{got} != {want}")]
    if not ref["valid"]:
        return [] if code == 1 else [("bad-exit", f"invalid document, exit {code}")]
    if command in ("kstable", "telescope") and not ref["injective"]:
        return [] if code == 1 else [("bad-exit", f"non-injective document, exit {code}")]
    if command == "fm":
        m = _flag(argv, "--m")
        if m % 2 == 0:
            ok = result.get("dimension") == 0 and result.get("exact")
            return [] if ok else [("exact-mismatch", f"F_{m} of even degree is {result.get('dimension')}")]
        return _dimension(result, ref["fm"][str(m)], f"F_{m}")
    if command == "k0q":
        return _dimension(result, ref["fm"]["1"], "K0")
    if command == "fm-profile":
        fails = []
        for row in result.get("profile", []):
            m = row["m"]
            want = ref["fm"][str(m)] if m % 2 else 0
            fails += _dimension(row, want, f"F_{m}")
        if len(result.get("profile", [])) != _flag(argv, "--max-m"):
            fails.append(("exact-mismatch", "profile does not list every degree"))
        return fails
    if command == "kstable":
        verdict = result.get("verdict")
        if verdict == "not-k-stable":
            return _witness(doc, ref, result["witness"])
        if verdict == "k-stable":
            if ref["family"] == "not-k-stable" or doc.get("tail") is None:
                return [("verdict", "K-stable verdict for a diagram with a finite-dimensional quotient")]
            return _certificate(doc, result.get("certificate", []))
        return [] if code == 2 else [("bad-exit", f"verdict {verdict!r}, exit {code}")]
    if command == "telescope":
        outcome = result.get("outcome")
        if outcome == "telescoped":
            return _telescoped(result["diagram"], _flag(argv, "--min-dim"))
        if outcome == "infinite-chain":
            return _witness(doc, ref, result["witness"])
        return [] if code == 2 else [("bad-exit", f"outcome {outcome!r}, exit {code}")]
    if command == "export-dot":
        dot = result.get("dot", "")
        got = (len(_DOT_NODE.findall(dot)), len(_DOT_EDGE.findall(dot)))
        want = dot_shape(doc, _flag(argv, "--budget", DEFAULT_BUDGET))
        return [] if got == want else [("dot-shape", f"nodes/edges {got} != {want}")]
    raise ValueError(f"no check for command {command!r}")
