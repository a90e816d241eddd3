"""Pinned report bytes: every command, in both formats, on fixed inputs.

`golden_reports.json` maps each call, written "<input> | <argv>", to its
exit code and the sha256 of its stdout.  A change that must leave every
report as it was keeps this test passing.  A change that means to alter
reports regenerates the file with

    PYTHONPATH=src python tests/test_golden_reports.py

and says in CHANGES.md which reports changed and why.  The same comparison
runs without pytest, on any interpreter, with

    PYTHONPATH=src python tests/test_golden_reports.py --check

which lists the changed keys and exits 1 when there are any.  `--check`
also replays every op of the seed-0 bench corpora in `bench/corpus/`
(read only) in both formats, against the per-op entries the golden file
keeps under keys starting with "bench/corpus/"; pytest leaves those out.
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from afk.cli import main
from afk.io import from_diagram, serialize
from cases import (
    constant_column,
    doubling,
    fibonacci,
    permutation_tail,
    single_level,
    stationary_identity,
    two_column,
    worked_example,
)
from generators import random_document, stationary_tail_of_width

GOLDEN = Path(__file__).with_name("golden_reports.json")
BENCH_KEY = "bench/corpus/"
BENCH_CORPORA = Path(__file__).resolve().parent.parent / BENCH_KEY

COMMANDS = (
    ("validate",),
    ("fm", "--m", "1"),
    ("fm", "--m", "2"),
    ("fm", "--m", "3"),
    ("fm", "--m", "5", "--budget", "3"),
    ("fm-profile", "--max-m", "7", "--budget", "16"),
    ("k0q",),
    ("kstable", "--budget", "16"),
    ("telescope", "--min-dim", "3", "--budget", "16"),
    ("export-dot", "--budget", "4"),
    ("export-dot", "--degree", "3", "--budget", "4"),
    ("kstable", "--budget", "1024"),
    ("kstable", "--budget", "1"),
    ("telescope", "--min-dim", "3", "--budget", "1024"),
    ("fm", "--m", "5", "--budget", "1024"),
    ("fm-profile", "--max-m", "39"),
)

# a nilpotent degree-3 cycle: the early-exit trap for per-level plateaus
NILPOTENT = '{"levels":[[3],[1,3,3]],"matrices":[[[0],[1],[0]]],"tail":{"matrix":[[1,0,0],[3,0,0],[0,1,0]],"slack":[0,0,0]}}'


def inputs() -> dict[str, str]:
    named = {
        "worked_example": worked_example(),
        "two_column": two_column(),
        "constant_column": constant_column(),
        "single_level_1": single_level(1),
        "single_level_4": single_level(4),
        "doubling": doubling(),
        "stationary_identity_2": stationary_identity(2),
        "stationary_identity_3": stationary_identity(3),
        "permutation_3_4_5_7": permutation_tail((3, 4, 5, 7)),
        "fibonacci": fibonacci(),
    }
    out = {name: serialize(from_diagram(d)) for name, d in named.items()}
    out["nilpotent"] = NILPOTENT
    # refused input: an edge overflows; and a name not valid UTF-8, as stdin decodes it
    out["invalid_overflow"] = '{"levels":[[2],[1]],"matrices":[[[1]]]}'
    out["name_0xff"] = '{"levels":[[1]],"matrices":[],"metadata":{"name":"\udcff"}}'
    rng = random.Random(4423)
    for i in range(40):
        out[f"random_{i:02d}"] = serialize(random_document(rng))
    # wide stationary tails: degrees whose masks agree share one colimit
    rng = random.Random(2005)
    for width in (4, 6):
        for i in range(2):
            out[f"stationary_w{width}_{i}"] = serialize(from_diagram(stationary_tail_of_width(rng, width)))
    return out


def run(argv: list[str], text: str) -> tuple[int, str]:
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _entry(argv: list[str], text: str) -> list:
    code, out = run(argv, text)
    return [code, hashlib.sha256(out.encode("utf-8")).hexdigest()]


def reports() -> dict[str, list]:
    table = {}
    for name, text in inputs().items():
        for command in COMMANDS:
            for fmt in ("json", "text"):
                argv = [*command, "--format", fmt, "--input", "-"]
                table[f"{name} | {' '.join(argv)}"] = _entry(argv, text)
    return table


def bench_reports() -> dict[str, list]:
    """Every op of the seed-0 bench corpora in both formats, each document fed as `json.dumps` of it."""
    table = {}
    for path in sorted(BENCH_CORPORA.glob("*.seed0.json")):
        corpus = json.loads(path.read_text(encoding="utf-8"))
        texts = [json.dumps(doc) for doc in corpus["documents"]]
        for i, op in enumerate(corpus["ops"]):
            for fmt in ("json", "text"):
                argv = [*op["argv"], "--format", fmt, "--input", "-"]
                table[f"{BENCH_KEY}{path.name} #{i} | {' '.join(argv)}"] = _entry(argv, texts[op["doc"]])
    return table


def changed_reports(bench: bool = False) -> list[str]:
    """The keys whose exit code or stdout differs from the golden file, or that only one side has.

    Without `bench` the bench-corpus entries are left out on both sides.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = reports()
    if bench:
        got.update(bench_reports())
    else:
        golden = {k: v for k, v in golden.items() if not k.startswith(BENCH_KEY)}
    return sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))


def test_reports_match_golden():
    changed = changed_reports()
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


def test_kstable_reads_no_budget():
    # the same report at budget 1 as at 1024, apart from the budget it echoes
    for name, text in inputs().items():
        for fmt in ("json", "text"):
            small, large = (run(["kstable", "--budget", b, "--format", fmt, "--input", "-"], text) for b in ("1", "1024"))
            if fmt == "json":
                small, large = ((code, json.loads(out)) for code, out in (small, large))
                for _, report in (small, large):
                    report.get("flags", {}).pop("budget", None)
                    report.get("timing", {}).pop("budget_levels", None)
            assert small == large, (name, fmt)


def test_exit_code_is_set_by_the_report_status():
    for text in inputs().values():
        for command in COMMANDS:
            code, out = run([*command, "--format", "json", "--input", "-"], text)
            assert code == {"ok": 0, "invalid": 1, "inconclusive": 2}[json.loads(out)["status"]], command


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        changed = changed_reports(bench=True)
        for key in changed:
            print(key)
        print(f"{len(changed)} reports changed" if changed else "every report matches")
        raise SystemExit(1 if changed else 0)
    GOLDEN.write_text(json.dumps({**reports(), **bench_reports()}, indent=1, sort_keys=True) + "\n", encoding="utf-8")
