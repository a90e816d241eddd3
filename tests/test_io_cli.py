import argparse
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afk
from afk import cli
from afk.cli import main
from afk.diagram import AffineTail, BratteliDiagram
from afk.io import (
    JSONText,
    ParseError,
    export_dot,
    from_diagram,
    input_digest,
    parse,
    serialize,
    to_diagram,
)
from afk.linalg import IntMatrix, matvec
from cases import single_level, two_column, worked_example
from generators import (
    random_document,
    random_growing_tail_diagram,
    random_permutation_tail_diagram,
    random_pinned_tail_diagram,
    random_stationary_tail_diagram,
)
from oracles import oracle_dot

TWO_COLUMN_JSON = (
    '{"levels":[[1,1],[2,2],[3,4]],'
    '"matrices":[[[1,0],[1,1]],[[1,0],[1,1]]],'
    '"tail":{"matrix":[[1,0],[1,1]],"slack":[1,0]}}'
)

WORKED_JSON = (
    '{"levels":[[1,2,3],[1,3,5,8]],'
    '"matrices":[[[1,0,0],[1,1,0],[2,0,1],[0,1,2]]]}'
)


# --- parsing and serialization ----------------------------------------------


def test_parse_two_column_document():
    doc = parse(TWO_COLUMN_JSON)
    assert doc["levels"] == [[1, 1], [2, 2], [3, 4]]
    assert doc["tail"] == {"matrix": [[1, 0], [1, 1]], "slack": [1, 0]}
    assert to_diagram(doc) == two_column()


def test_parse_one_node_document():
    doc = parse('{"levels":[[1]],"matrices":[]}')
    assert to_diagram(doc) == single_level(1)


def test_parse_worked_example_document():
    assert to_diagram(parse(WORKED_JSON)) == worked_example()


@pytest.mark.parametrize(
    "text, locus_part",
    [
        ("{", "line 1"),
        ('{"matrices":[]}', "$"),
        ('{"levels":[[0]],"matrices":[]}', "levels[0][0]"),
        ('{"levels":[[1],[2]],"matrices":[]}', "matrices"),
        ('{"levels":[[1],[2]],"matrices":[[[1],[2]]]}', "matrices[0]"),
        ('{"levels":[[1]],"matrices":[],"tail":{"matrix":[[1,0]],"slack":[0]}}', "tail.matrix"),
        ('{"levels":[[1]],"matrices":[],"tail":{"matrix":[[1]],"slack":[0,0]}}', "tail.slack"),
        ('{"levels":[[1]],"matrices":[],"bogus":1}', "$"),
    ],
)
def test_parse_errors_carry_locus(text, locus_part):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert locus_part in str(exc.value)


ONE_LEVEL_TAIL = '{"levels":[[1,1]],"matrices":[],"tail":{"matrix":%s,"slack":%s}}'


@pytest.mark.parametrize(
    "text, locus, reason",
    [
        ('{"levels":[[1,true]],"matrices":[]}', "levels[0][1]", "expected an integer"),
        ('{"levels":[[1.0]],"matrices":[]}', "levels[0][0]", "expected an integer"),
        ('{"levels":[["1"]],"matrices":[]}', "levels[0][0]", "expected an integer"),
        ('{"levels":[[[1]]],"matrices":[]}', "levels[0][0]", "expected an integer"),
        ('{"levels":[[1],[2,0]],"matrices":[[[1],[1]]]}', "levels[1][1]", "expected a positive size, got 0"),
        ('{"levels":[[1],[2]],"matrices":[[[-1]]]}', "matrices[0][0][0]", "expected a non-negative integer, got -1"),
        (ONE_LEVEL_TAIL % ("[[1,0],[-2,1]]", "[0,0]"), "tail.matrix[1][0]", "expected a non-negative integer, got -2"),
        (ONE_LEVEL_TAIL % ("[[1,0],[0,1]]", "[0,-1]"), "tail.slack[1]", "expected a non-negative integer, got -1"),
    ],
)
def test_parse_names_the_bad_entry_and_why(text, locus, reason):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.locus, exc.value.reason) == (locus, reason)


def test_roundtrip_on_200_random_documents():
    rng = random.Random(8601)
    for _ in range(220):
        doc = random_document(rng)
        assert parse(serialize(doc)) == doc


ONE_LEVEL = '{"levels":[[1,2]],"matrices":[]}'
SPELLINGS = [  # (text, another spelling of its document): whitespace, key order, or a default written out
    ('{ "levels": [[1, 1], [2, 2], [3, 4]], "matrices": [[[1,0],[1,1]],[[1,0],[1,1]]], '
     '"tail": {"matrix": [[1,0],[1,1]], "slack": [1,0]} }', TWO_COLUMN_JSON),
    ('{"levels":[[1,2]]}', ONE_LEVEL),
    ('{"levels":[[1,2]],"matrices":[],"tail":null}', ONE_LEVEL),
    ('{"levels":[[1,2]],"matrices":[],"metadata":null}', ONE_LEVEL),
    ('{"metadata":null,"tail":null,"levels":[[1,2]]}', ONE_LEVEL),
    ('{"levels":[[1,2]],"matrices":[],"tail":{"matrix":[[1,0],[0,1]]}}',
     '{"levels":[[1,2]],"matrices":[],"tail":{"matrix":[[1,0],[0,1]],"slack":[0,0]}}'),
]


def test_digest_ignores_whitespace():
    for text, other in SPELLINGS:
        assert parse(text) == parse(other) == parse(serialize(parse(text))), text
        assert input_digest(parse(text)) == input_digest(parse(other)), text


def test_input_digest_is_hashlib_sha256_of_the_canonical_text():
    # the digest comes from CPython's own SHA-256 module where it has one; hashlib's is the reference
    rng = random.Random("digest")
    for n in range(300):
        doc = random_document(rng)
        if n % 3 == 0:  # a longer, non-ASCII text
            doc["metadata"] = {"name": "Bratteli \u00fc" * rng.randint(0, 40), "n": n}
        want = hashlib.sha256(serialize(doc).encode("utf-8")).hexdigest()
        assert input_digest(doc) == "sha256:" + want


def test_from_diagram_roundtrip():
    for d in (two_column(), worked_example(), single_level(3)):
        assert to_diagram(from_diagram(d)) == d


# --- DOT export --------------------------------------------------------------


def test_export_dot_worked_example():
    dot = export_dot(worked_example())
    node_lines = [l for l in dot.splitlines() if "[label=" in l and "->" not in l]
    edge_lines = [l for l in dot.splitlines() if "->" in l]
    assert len(node_lines) == 7
    # the connecting matrix has 7 positive entries (two of them doubled edges)
    assert len(edge_lines) == 7
    assert '"L1S1" -> "L2S3" [label="2"];' in dot
    assert dot == export_dot(worked_example())


def test_export_dot_degree_five_labels():
    dot = export_dot(worked_example(), degree=5)
    labels = [
        l.split('label="')[1][0]
        for l in dot.splitlines()
        if "[label=" in l and "->" not in l
    ]
    assert labels == ["0", "0", "1", "0", "1", "1", "1"]


def test_export_dot_single_node():
    dot = export_dot(single_level(4))
    assert dot.count("label=") == 1
    assert "->" not in dot


def test_export_dot_budget_bounds_tail():
    dot = export_dot(two_column(), budget=5)
    assert '"L5S1"' in dot and '"L6S1"' not in dot


DOT_FAMILIES = {
    "growing": random_growing_tail_diagram,
    "pinned": random_pinned_tail_diagram,
    "stationary": random_stationary_tail_diagram,
    "permutation": random_permutation_tail_diagram,
    "document": lambda rng: to_diagram(random_document(rng)),  # width changes, tail-less diagrams
}


def _first_difference(got, want):
    """None when the texts are equal, else both around their first difference.

    pytest's own diff of two long DOT texts takes minutes.
    """
    if got == want:
        return None
    at = max(len(os.path.commonprefix([got, want])) - 60, 0)
    return got[at : at + 120], want[at : at + 120]


@pytest.mark.parametrize("family", sorted(DOT_FAMILIES))
def test_export_dot_matches_the_line_oracle_raw_and_quoted(family):
    rng = random.Random(f"dot-{family}")
    for _ in range(6):
        d = DOT_FAMILIES[family](rng)
        for budget in sorted({1, d.prefix_len, 64, 300}):
            levels = d.prefix_len if d.tail is None else max(budget, d.prefix_len)
            for degree in (None, rng.choice((1, 2, 3, 5, 9))):
                want = oracle_dot(d, degree, levels)
                assert _first_difference(export_dot(d, degree, budget), want) is None
                quoted = export_dot(d, degree, budget, quoted=True)
                assert type(quoted) is JSONText
                assert _first_difference(quoted, encode_basestring_ascii(want)) is None


def test_export_dot_matches_the_line_oracle_on_wide_levels_past_level_1000():
    # summands 10 and 11, level numbers across 9->10, 99->100 and 999->1000, and two prefix maps of one
    # shape: the first with multiplicities past 9, the second equal to the tail's matrix but another object
    n = 11
    cycle = [[int(j == (i + 1) % n) for j in range(n)] for i in range(n)]
    first = IntMatrix.from_rows([[(3 * i + j) % 13 for j in range(n)] for i in range(n)])
    ones = (1,) * n
    middle = matvec(first, ones)
    d = BratteliDiagram(
        (ones, middle, tuple(x + 1 for x in matvec(IntMatrix.from_rows(cycle), middle))),
        (first, IntMatrix.from_rows(cycle)),
        AffineTail(IntMatrix.from_rows(cycle), ones),
    )
    assert d.validation.ok and d.prefix_matrices[1] == d.tail.matrix and d.prefix_matrices[1] is not d.tail.matrix
    for degree in (None, 3):
        want = oracle_dot(d, degree, 1001)
        assert _first_difference(export_dot(d, degree, 1001), want) is None
        assert _first_difference(export_dot(d, degree, 1001, quoted=True), encode_basestring_ascii(want)) is None


def test_export_dot_matches_the_line_oracle_on_21_summands_across_chunk_edges():
    # 21 summands, past a slot scheme that names each label slot by one character; K - 1, K, K + 1 and
    # 2K + 1 levels, with the width-21 run starting at level 1 and at level 2, so that a chunk edge falls
    # on every side of the last level
    K, n = afk.io._CHUNK, 21
    rows = [[int(j == (i + 1) % n) + int(i == j and i % 4 == 0) for j in range(n)] for i in range(n)]
    tail = AffineTail(IntMatrix.from_rows(rows), tuple(i % 3 for i in range(n)))
    diagrams = (
        BratteliDiagram(((1,) * n,), (), tail),
        BratteliDiagram(((1,), (2,) * n), (IntMatrix.from_rows([[2]] * n),), tail),
    )
    for d in diagrams:
        assert d.validation.ok
        for levels in (K - 1, K, K + 1, 2 * K + 1):
            for degree in (None, 5):
                want = oracle_dot(d, degree, levels)
                assert _first_difference(export_dot(d, degree, levels), want) is None
                got = export_dot(d, degree, levels, quoted=True)
                assert _first_difference(got, encode_basestring_ascii(want)) is None


# `str` and `int` refuse integers of more than 4300 digits by default
needs_digit_limit = pytest.mark.skipif(
    getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300, reason="needs the default int-to-str digit limit"
)
LONG_LITERAL_JSON = '{"levels":[[' + "9" * 4400 + ']],"matrices":[]}'
# sizes 20^(L-1): level 3307 is the first with more than 4300 digits
TWENTY_FOLD_JSON = '{"levels":[[1]],"matrices":[],"tail":{"matrix":[[20]],"slack":[0]}}'


@needs_digit_limit
def test_parse_refuses_an_integer_literal_past_the_digit_limit():
    with pytest.raises(ParseError) as exc:
        parse(LONG_LITERAL_JSON)
    assert exc.value.locus == "$"


@needs_digit_limit
def test_export_dot_refuses_a_size_past_the_digit_limit():
    d = to_diagram(parse(TWENTY_FOLD_JSON))
    for quoted in (False, True):
        with pytest.raises(ValueError) as exc:  # the library names the level; `cli` names the flag
            export_dot(d, budget=4000, quoted=quoted)
        assert exc.type is ValueError
        assert str(exc.value) == "level 3307 has a summand size too long to print"
        assert export_dot(d, budget=3306, quoted=quoted).count("rank=same") == 3306
        assert export_dot(d, degree=3, budget=4000, quoted=quoted).count("rank=same") == 4000  # 0/1 labels


def _first_level_past_the_digit_limit(d):
    """(level, sizes) of the first level with a size of more than 4300 digits, by a plain simulation."""
    q, level = list(d.prefix_levels[-1]), d.prefix_len
    rows, slack = d.tail.matrix.to_rows(), list(d.tail.slack)
    while max(q) < 10**4300:
        q = [sum(a * x for a, x in zip(row, q)) + s for row, s in zip(rows, slack)]
        level += 1
    return level, q


def _doubling_past_the_digit_limit_at(level):
    """A width-1 doubling tail whose first size of more than 4300 digits is at `level`."""
    first = -(-(10**4300) // 2 ** (level - 1))  # the least size whose doubling reaches 10^4300 at `level`
    return BratteliDiagram(((first,),), (), AffineTail(IntMatrix.from_rows([[2]]), (0,)))


@needs_digit_limit
@pytest.mark.parametrize("case", ["first-of-a-chunk", "last-of-a-chunk", "second-coordinate-first"])
def test_export_dot_names_the_first_level_past_the_digit_limit_at_most_one_chunk_past_it(case, monkeypatch):
    K = afk.io._CHUNK  # a width-1 or width-2 run starts at level 1: its chunks start at levels 1, K + 1, ...
    if case == "first-of-a-chunk":
        d, where = _doubling_past_the_digit_limit_at(2 * K + 1), 1
    elif case == "last-of-a-chunk":
        d, where = _doubling_past_the_digit_limit_at(2 * K), 0
    else:  # 2^629 * 10^4000 has 4190 digits, 3^629 * 10^4000 has 4301
        d, where = BratteliDiagram(((10**4000, 10**4000),), (), AffineTail(IntMatrix.from_rows([[2, 0], [0, 3]]), (0, 0))), None
    level, sizes = _first_level_past_the_digit_limit(d)
    assert level % K == where if where is not None else sizes[0] < 10**4300 <= sizes[1]
    step, steps = afk.diagram.tail_step, []

    def counting(tail, q):
        steps.append(None)
        return step(tail, q)

    monkeypatch.setattr(afk.diagram, "tail_step", counting)
    for quoted in (False, True):
        for degree in (None, 1):
            steps.clear()
            if degree is None:
                with pytest.raises(ValueError) as exc:
                    export_dot(d, degree, budget=level + 3 * K, quoted=quoted)
                assert str(exc.value) == f"level {level} has a summand size too long to print"
                assert len(steps) <= level - 2 + K  # to the end of the level's chunk, and no chunk past it
            else:  # 0/1 labels print at any size
                assert export_dot(d, degree, budget=level + 3 * K, quoted=quoted).count("rank=same") == level + 3 * K


@needs_digit_limit
def test_cli_export_dot_refuses_at_the_first_long_size_without_unrolling_the_budget(tmp_path, capsys, monkeypatch):
    step, steps = afk.diagram.tail_step, []

    def counting(tail, q):
        steps.append(None)
        if len(steps) > 4000:
            raise AssertionError("export-dot unrolled past the level it refuses")
        return step(tail, q)

    monkeypatch.setattr(afk.diagram, "tail_step", counting)
    for fmt in ("json", "text"):  # the JSON report draws the quoted DOT, the text report the raw one
        steps.clear()
        tracemalloc.start()
        try:
            code, out = run_cli(tmp_path, capsys, TWENTY_FOLD_JSON, "export-dot", "--budget", str(10**9), "--format", fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1
        # the 3306 levels drawn before the refusal hold about 7.1 MB of digits; nothing may grow with the budget
        assert peak < 10 * 2**20, peak
        if fmt == "json":
            assert json.loads(out)["error"] == {
                "locus": "--budget",
                "message": "level 3307 has a summand size too long to print; draw fewer levels",
            }
        else:  # the error report and nothing before it
            assert out.startswith(f"afk {afk.__version__} — export-dot\nstatus: invalid\nerror at --budget: level 3307 ")


# --- CLI ----------------------------------------------------------------------


def run_cli(tmp_path, capsys, doc_text, *argv):
    path = tmp_path / "diagram.json"
    path.write_text(doc_text, encoding="utf-8")
    code = main([argv[0], "--input", str(path), *argv[1:]])
    out = capsys.readouterr().out
    return code, out


def test_cli_fm_worked_example_lower_bound(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, WORKED_JSON, "fm", "--m", "3")
    report = json.loads(out)
    assert code == 0  # no tail: the algebra of the last level, exactly
    assert report["status"] == "ok"
    assert report["result"]["maps"] == [[[1, 0], [0, 1], [1, 2]]]
    assert report["result"]["dimension"] == 3
    assert report["result"]["exact"] is True


def test_cli_fm_budget_exhausted_tail_has_no_number(tmp_path, capsys):
    # the clamped sizes repeat at level 3, past the budget; the exact F_9 is 1,
    # and the first-level probe once reported 2 here
    doc = '{"levels":[[2,3]],"matrices":[],"tail":{"matrix":[[1,1],[1,1]],"slack":[1,1]}}'
    code, out = run_cli(tmp_path, capsys, doc, "fm", "--m", "9", "--budget", "2")
    report = json.loads(out)
    assert code == 2
    assert report["result"]["dimension"] is None
    assert report["result"]["budget_exceeded"] is True
    code, out = run_cli(tmp_path, capsys, doc, "fm", "--m", "9", "--budget", "2", "--format", "text")
    assert code == 2
    [line] = [ln for ln in out.splitlines() if ln.startswith("F_9 dimension:")]
    assert not any(ch.isdigit() for ch in line.split(":", 1)[1])
    assert "inconclusive" in line


def test_cli_fm_even_shortcut(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "2")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["dimension"] == 0
    assert "note" in report["result"]


def test_cli_kstable_two_column(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "kstable")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["verdict"] == "k-stable"
    assert report["result"]["certificate"]


def test_cli_validate_failure_exit_code(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, capsys, '{"levels":[[2],[1]],"matrices":[[[1]]]}', "validate"
    )
    report = json.loads(out)
    assert code == 1
    assert report["status"] == "invalid"
    assert report["result"]["problems"][0]["kind"] == "size-overflow"


def test_cli_parse_failure_exit_code(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, "{not json", "validate")
    assert code == 1
    assert json.loads(out)["status"] == "invalid"


def test_cli_fm_profile(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm-profile", "--max-m", "6")
    report = json.loads(out)
    assert code == 0
    dims = [(row["m"], row["dimension"]) for row in report["result"]["profile"]]
    assert dims == [(1, 2), (2, 0), (3, 2), (4, 0), (5, 2), (6, 0)]


def _held(d, m, budget):
    """Levels a plain unroll holds for degree m: to the first repeat of the sizes clamped at (m + 1) / 2
    from the last prefix level on, else the horizon; none for an even degree."""
    if m % 2 == 0:
        return 0
    horizon, h, q, seen = d.horizon(budget), (m + 1) // 2, d.prefix_levels[-1], set()
    for level in range(d.prefix_len, horizon + 1):  # without a tail, the horizon is the prefix
        if (key := tuple(min(x, h) for x in q)) in seen:
            return level
        seen.add(key)
        if level < horizon:
            q = tuple(sum(a * x for a, x in zip(row, q)) + s for row, s in zip(d.tail.matrix.to_rows(), d.tail.slack))
    return horizon


# The counter rule: `timing.levels_materialized` is the levels a call builds one after another, by
# command, from (diagram, argv, budget).  kstable and telescope build the prefix alone, as their
# searches jump through powers of the tail.  A refused input reports 0.
COUNTER_RULE = {
    "validate": lambda d, argv, budget: d.prefix_len,
    "kstable": lambda d, argv, budget: d.prefix_len,
    "telescope": lambda d, argv, budget: d.prefix_len,
    "fm": lambda d, argv, budget: _held(d, int(argv[2]), budget),
    "fm-profile": lambda d, argv, budget: _held(d, int(argv[2]) - (int(argv[2]) % 2 == 0), budget),  # its top odd degree
    "k0q": lambda d, argv, budget: _held(d, 1, budget),
    "export-dot": lambda d, argv, budget: d.horizon(budget),
}


def _expected_levels(text, argv, budget, report):
    if report["status"] == "invalid" and argv[0] != "validate":  # validate reports on what others refuse
        return 0
    return COUNTER_RULE[argv[0]](to_diagram(parse(text)), argv, budget)


def test_cli_levels_materialized_counts_the_levels_held(tmp_path, capsys):
    counting = '{"levels":[[1]],"matrices":[],"tail":{"matrix":[[1]],"slack":[1]}}'  # sizes 1, 2, 3, ...
    doubling = '{"levels":[[1]],"matrices":[],"tail":{"matrix":[[2]],"slack":[0]}}'
    pinned = '{"levels":[[1,1],[1,2]],"matrices":[[[1,0],[1,1]]],"tail":{"matrix":[[1,0],[1,1]],"slack":[0,1]}}'
    cases = (  # (document, argv, the counter, worked out by hand)
        (TWO_COLUMN_JSON, ("validate",), 3),
        (WORKED_JSON, ("validate",), 2),
        # the unroll's first repeat: the two-column sizes clamped at 1, 2 or 3 repeat at level 4
        (TWO_COLUMN_JSON, ("k0q",), 4),
        (TWO_COLUMN_JSON, ("fm", "--m", "5"), 4),
        (TWO_COLUMN_JSON, ("fm-profile", "--max-m", "6"), 4),
        (TWO_COLUMN_JSON, ("fm", "--m", "2"), 0),  # an even degree holds no system
        (WORKED_JSON, ("k0q",), 2),
        (WORKED_JSON, ("fm-profile", "--max-m", "9"), 2),
        (counting, ("k0q",), 2),
        (counting, ("fm-profile", "--max-m", "9"), 6),  # degree 9 clamps at 5, so its sizes repeat at level 6
        (counting, ("fm-profile", "--max-m", "9", "--budget", "4"), 4),  # inconclusive: the horizon
        # the prefix, wherever the search's cut lies and whatever the budget
        (doubling, ("kstable", "--budget", "8000"), 1),
        (counting, ("kstable", "--budget", "3"), 1),  # its cut for m = 8 is level 8
        (FIBONACCI_JSON, ("kstable", "--budget", "1"), 1),
        (counting, ("telescope", "--min-dim", "9", "--budget", "4"), 1),
        (TWO_COLUMN_JSON, ("telescope", "--min-dim", "2"), 3),
        (pinned, ("kstable", "--budget", "8000"), 2),  # a copy cycle answers
        (pinned, ("telescope", "--min-dim", "2", "--budget", "8000"), 2),
        (WORKED_JSON, ("kstable",), 2),
        (WORKED_JSON, ("telescope", "--min-dim", "2"), 2),
        (TWO_COLUMN_JSON, ("export-dot", "--budget", "7"), 7),
        (WORKED_JSON, ("export-dot",), 2),
        (OVERFLOW_JSON, ("fm", "--m", "3"), 0),
        (NON_INJECTIVE_JSON, ("telescope", "--min-dim", "2"), 0),
    )
    for text, argv, levels in cases:
        report = json.loads(run_cli(tmp_path, capsys, text, *argv)[1])
        budget = report["timing"]["budget_levels"]
        assert report["timing"]["levels_materialized"] == levels == _expected_levels(text, argv, budget, report), argv


def test_cli_export_dot_counts_the_levels_drawn(tmp_path, capsys):
    def levels(doc, *argv):
        return json.loads(run_cli(tmp_path, capsys, doc, "export-dot", *argv)[1])["timing"]["levels_materialized"]

    assert levels(WORKED_JSON) == levels(WORKED_JSON, "--budget", "1") == 2  # the prefix alone
    assert levels(TWO_COLUMN_JSON, "--budget", "7") == 7  # the tail continues it
    assert levels(TWO_COLUMN_JSON, "--budget", "2") == 3  # never fewer than the prefix


# every command, with a degree that some tails cannot certify at a small budget
COUNTER_ARGV = (
    ("validate",), ("fm", "--m", "3"), ("fm", "--m", "9"), ("fm-profile", "--max-m", "9"), ("k0q",),
    ("kstable",), ("telescope", "--min-dim", "3"), ("export-dot",),
)


def test_cli_levels_materialized_never_passes_the_horizon(tmp_path, capsys):
    # the horizon: the prefix, continued by a tail to the budget; every counter follows the rule and
    # stays within it, and an inconclusive report held all of it
    rng = random.Random(2020)
    docs = [TWO_COLUMN_JSON, WORKED_JSON] + [serialize(random_document(rng)) for _ in range(16)]
    inconclusive_below_prefix = tailless = refused = 0
    for text in docs:
        d = to_diagram(parse(text))
        for budget in range(1, d.prefix_len + 3):
            horizon = d.prefix_len if d.tail is None else max(budget, d.prefix_len)
            for argv in COUNTER_ARGV:
                report = json.loads(run_cli(tmp_path, capsys, text, *argv, "--budget", str(budget))[1])
                levels = report["timing"]["levels_materialized"]
                assert levels == _expected_levels(text, argv, budget, report) <= horizon, (text, argv, budget)
                if report["status"] == "inconclusive":
                    assert argv[0] not in ("kstable", "telescope"), (text, argv, budget)
                    assert levels == horizon, (text, argv, budget)
                    inconclusive_below_prefix += budget < d.prefix_len
                tailless += d.tail is None
                refused += levels == 0
    assert inconclusive_below_prefix >= 10 and tailless >= 100 and refused >= 10, (inconclusive_below_prefix, tailless, refused)
    # the 3-level two-column prefix: degree 3 finds no repeat at budget 1, having held all 3 levels
    report = json.loads(run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "3", "--budget", "1")[1])
    assert report["status"] == "inconclusive"
    assert report["timing"]["levels_materialized"] == len(report["result"]["dims"]) == 3


def test_cli_k0q(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "k0q")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["dimension"] == 2


def test_cli_telescope(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "telescope", "--min-dim", "2")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["outcome"] == "telescoped"
    assert report["result"]["diagram"]["levels"][0] == [2, 2]


def test_cli_telescope_infinite_chain(tmp_path, capsys):
    doc = '{"levels":[[1,1]],"matrices":[],"tail":{"matrix":[[1,0],[1,2]],"slack":[0,0]}}'
    code, out = run_cli(tmp_path, capsys, doc, "telescope", "--min-dim", "2")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["outcome"] == "infinite-chain"
    assert report["result"]["witness"]["k"] == 1


# Fibonacci sizes (1,1), (2,1), (3,2), ...: no copy cycle, and the minimum first reaches 8 at level 6
FIBONACCI_JSON = '{"levels":[[1,1]],"matrices":[],"tail":{"matrix":[[1,1],[1,0]],"slack":[0,0]}}'


# one n-cycle of copies but one, which adds a unit of slack: its minimum reaches 8 at level 1 + 7n
SLOW_8_CYCLE_JSON = json.dumps({
    "levels": [[1] * 8], "matrices": [],
    "tail": {"matrix": [[int(j == (i - 1) % 8) for j in range(8)] for i in range(8)], "slack": [1] + [0] * 7},
})


def _without_budget(out):
    report = json.loads(out)
    del report["flags"]["budget"], report["timing"]["budget_levels"]
    return report


LINEAR_JSON = '{"levels":[[1]],"matrices":[],"tail":{"matrix":[[1]],"slack":[1]}}'


def test_cli_kstable_and_telescope_answer_alike_at_every_budget(tmp_path, capsys, monkeypatch):
    # telescope: the same report at --budget 1, 2 and 1024 and from AFK_BUDGET=1; its cut for m = 8
    # lies at level 6, 57 and 8 of the three tails, and in the prefix of the tail-less document
    tailless = '{"levels":[[1],[9]],"matrices":[[[1]]]}'
    monkeypatch.setenv("AFK_BUDGET", "1")
    for doc in (FIBONACCI_JSON, SLOW_8_CYCLE_JSON, LINEAR_JSON, tailless):
        for fmt in ("json", "text"):
            outs = set()
            for budget in (("--budget", "1"), ("--budget", "2"), ("--budget", "1024"), ()):
                code, out = run_cli(tmp_path, capsys, doc, "telescope", "--min-dim", "8", *budget, "--format", fmt)
                assert code == 0, (doc, budget)
                outs.add(json.dumps(_without_budget(out)) if fmt == "json" else out)
            assert len(outs) == 1, (doc, fmt)
        assert json.loads(run_cli(tmp_path, capsys, doc, "telescope", "--min-dim", "8")[1])["result"]["outcome"] == "telescoped"
    monkeypatch.delenv("AFK_BUDGET")
    # kstable: the same report at every budget up to one past its search's bound, prefix + 7n
    for doc, bound in ((FIBONACCI_JSON, 15), (SLOW_8_CYCLE_JSON, 57)):
        for fmt in ("json", "text"):
            outs = set()
            for budget in range(1, bound + 2):
                code, out = run_cli(tmp_path, capsys, doc, "kstable", "--budget", str(budget), "--format", fmt)
                assert code == 0
                outs.add(json.dumps(_without_budget(out)) if fmt == "json" else out)
            assert len(outs) == 1, (doc, fmt)
        report = _without_budget(run_cli(tmp_path, capsys, doc, "kstable")[1])
        assert report["result"]["verdict"] == "k-stable"
        assert report["timing"]["levels_materialized"] == 1  # the prefix: the search jumps to its cuts


def test_cli_export_dot_text_is_raw(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, WORKED_JSON, "export-dot", "--format", "text")
    assert code == 0
    assert out.startswith("digraph bratteli {")


# sizes grow about fivefold a level: at budget 1024 the JSON report is 2.2 MB
GROWING_JSON = (
    '{"levels":[[1,2,1,3]],"matrices":[],'
    '"tail":{"matrix":[[1,1,1,2],[1,1,1,2],[2,2,1,1],[0,0,2,1]],"slack":[1,1,1,1]}}'
)


def test_cli_export_dot_json_holds_no_escaped_copy_of_the_dot(monkeypatch):
    # the DOT comes quoted, so a call holds at most two texts of the report's size at once:
    # the parts and their join while drawing, then the DOT and the joined report
    written = []

    class Sink:
        def write(self, text):
            written.append(len(text))

    monkeypatch.setattr(sys, "stdout", Sink())
    argv = ["export-dot", "--budget", "1024", "--input", "-"]
    monkeypatch.setattr(sys, "stdin", io.StringIO(GROWING_JSON))
    assert main(argv) == 0  # the first call loads what the command imports
    written.clear()
    monkeypatch.setattr(sys, "stdin", io.StringIO(GROWING_JSON))
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert sum(written) > 2_000_000
    assert peak < 2.5 * sum(written)


def test_cli_export_dot_degree(tmp_path, capsys):
    code, out = run_cli(
        tmp_path, capsys, WORKED_JSON, "export-dot", "--degree", "5", "--format", "text"
    )
    assert code == 0
    assert 'label="0"' in out and 'label="1"' in out


def test_cli_reports_are_byte_identical(tmp_path, capsys):
    _, first = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "7")
    _, second = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "7")
    assert first == second
    _, k1 = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "kstable")
    _, k2 = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "kstable")
    assert k1 == k2


def test_cli_budget_env_and_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("AFK_BUDGET", "1")
    code, _ = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "3")
    assert code == 2  # env budget too small: degree 3 repeats past the 3-level prefix
    code, _ = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "3", "--budget", "16")
    assert code == 0  # flag wins over the environment
    code, out = run_cli(tmp_path, capsys, FIBONACCI_JSON, "kstable")
    assert code == 0 and json.loads(out)["timing"]["budget_levels"] == 1  # read, and only reported


@pytest.mark.parametrize("env", ["0", "-5"])
def test_cli_bad_budget_env_is_blamed_on_the_environment(tmp_path, capsys, monkeypatch, env):
    monkeypatch.setenv("AFK_BUDGET", env)
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "3")
    assert code == 1
    assert json.loads(out)["error"]["locus"] == "AFK_BUDGET"


def test_cli_stdin_input(capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(TWO_COLUMN_JSON))
    code = main(["validate", "--input", "-"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["result"]["valid"] is True


def test_cli_text_format(tmp_path, capsys):
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "3", "--format", "text")
    assert code == 0
    assert "F_3 dimension: 2 (exact)" in out


def test_cli_internal_error_exit_three(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "afk.colimit.profile_systems", lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom"))
    )
    code, out = run_cli(tmp_path, capsys, TWO_COLUMN_JSON, "fm", "--m", "3")
    report = json.loads(out)
    assert code == 3
    assert report["status"] == "error"
    assert report["error"]["type"] == "RuntimeError"


@pytest.mark.parametrize(
    "argv",
    [
        ["fm", "--input", "-", "--m", "x"],
        ["fm", "--input", "-"],
        ["bogus", "--input", "-"],
        ["k0q", "--input", "-", "--format", "xml"],
    ],
    ids=["m-not-an-integer", "m-missing", "unknown-command", "unknown-format"],
)
def test_cli_usage_errors_exit_one(capsys, argv):
    # exit 2 means inconclusive at the budget, so a typo must not read as one
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_cli_stray_argument_usage_lists_every_command(capsys):
    # the flag reader refuses --bogus, so the afk parser reports it in its own words
    with pytest.raises(SystemExit) as exc:
        main(["fm", "--m", "3", "--input", "-", "--bogus"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert "{" + ",".join(cli.COMMANDS) + "}" in err
    assert err.endswith("afk: error: unrecognized arguments: --bogus\n")


def test_cli_builds_no_parser_for_a_well_formed_call(monkeypatch, capsys):
    parsers, subparsers = [], []
    parser_init = argparse.ArgumentParser.__init__
    subparsers_init = argparse._SubParsersAction.__init__

    def counting_parser(self, *args, **kwargs):
        parsers.append(kwargs.get("prog"))
        parser_init(self, *args, **kwargs)

    def counting_subparsers(self, *args, **kwargs):
        subparsers.append(self)
        subparsers_init(self, *args, **kwargs)

    def run(argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO(TWO_COLUMN_JSON))
        assert main(argv) == 0
        return capsys.readouterr().out

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_parser)
    monkeypatch.setattr(argparse._SubParsersAction, "__init__", counting_subparsers)
    report = run(["fm", "--m", "3", "--input", "-"])
    assert parsers == [] and subparsers == []
    # another spelling of the same call builds the afk parser, which reads the same flags
    assert run(["fm", "--m=3", "--input=-"]) == report
    assert parsers == ["afk", *(f"afk {name}" for name in cli.COMMANDS)] and len(subparsers) == 1


READER_FLAGS = sorted({flag for c in cli.COMMANDS.values() for flag, _ in cli._SHARED_FLAGS + c.flags})
READER_TOKENS = READER_FLAGS + ["--bud", "--input=-", "--m=3", "-h", "--help", "--version", "--"]
READER_VALUES = ["-", "-3", " 4", "1_0", "\u0663", "+5", "", "xml", "text", "--m"]
REQUIRED_FLAGS = {name: [f for f, o in cli._SHARED_FLAGS + c.flags if o.get("required")] for name, c in cli.COMMANDS.items()}


@settings(max_examples=500, deadline=None)
@given(
    command=st.sampled_from([*cli.COMMANDS, "bogus"]),
    required_value=st.one_of(st.none(), st.sampled_from(READER_VALUES)),
    groups=st.lists(
        st.one_of(
            st.tuples(st.sampled_from(READER_FLAGS), st.sampled_from(READER_VALUES)),
            st.tuples(st.sampled_from(READER_TOKENS + READER_VALUES)),  # odd lengths, other spellings
        ),
        max_size=3,
    ),
)
def test_the_flag_reader_agrees_with_the_afk_parser(command, required_value, groups):
    # every required flag with one drawn value first, unless it is None, so that many argvs are well formed
    required = [] if required_value is None else REQUIRED_FLAGS.get(command, [])
    argv = [command, *(t for flag in required for t in (flag, required_value)), *(t for g in groups for t in g)]
    args = cli._read_flags(argv)
    if args is not None:
        assert vars(args) == vars(cli._build_parser().parse_args(argv)), argv


def test_the_flag_reader_reads_every_benchmark_call():
    # so the benchmark times the table path, and each call's flags are the parser's
    parser = cli._build_parser()
    corpora = sorted((Path(__file__).resolve().parents[1] / "bench" / "corpus").glob("*.seed0.json"))
    assert len(corpora) == 3
    for path in corpora:
        for op in json.loads(path.read_text(encoding="utf-8"))["ops"]:
            argv = op["argv"] + ["--input", "-"]
            args = cli._read_flags(argv)
            assert args is not None, (path.name, argv)
            assert vars(args) == vars(parser.parse_args(argv)), (path.name, argv)


# runs `afk` as a process would (argv from sys.argv) beside the all-commands parser
PARSER_CHILD = """
import contextlib, io, json, sys
from afk import cli
out = []
for argv in json.loads(sys.argv[1]):
    got = []
    for call in (cli.main, lambda: cli._build_parser().parse_args(argv)):
        sys.argv = ["afk", *argv]
        buf, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
            try:
                call()
                code = None
            except SystemExit as exc:
                code = exc.code
        got.append([code, buf.getvalue(), err.getvalue()])
    out.append(got)
print(json.dumps(out))
"""


def run_parser_child(argvs):
    """[cli.main's, the full parser's] (exit code, stdout, stderr) for each argv, in a child process."""
    src = Path(afk.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", PARSER_CHILD, json.dumps(argvs)], stdin=subprocess.DEVNULL,
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_cli_help_and_version_match_the_all_commands_parser():
    argvs = [
        ["--help"], ["--version"], *([name, "--help"] for name in cli.COMMANDS),
        ["fm", "--bogus", "-h"], ["telescope", "--min-dim", "3", "-h"],
    ]
    got_all = run_parser_child(argvs)
    for argv, (got, want) in zip(argvs, got_all):
        assert got == want, argv
        assert got[0] == 0 and got[1], argv
    help_text = got_all[0][0][1]
    listed = help_text.split("positional arguments:\n")[1].split("\n\n")[0].splitlines()
    assert listed[0].strip() == "{" + ",".join(cli.COMMANDS) + "}"
    assert [line.split()[0] for line in listed[1:]] == list(cli.COMMANDS)


def test_cli_usage_errors_match_the_all_commands_parser():
    argvs = [
        ["fm", "--m", "3", "--input", "-", "--bogus"],
        ["fm", "--version"],
        ["kstable", "--input", "-", "extra"],
        ["validate", "--input", "-", "--", "x"],
        ["fm", "--m", "x", "--input", "-"],
        ["fm", "--input", "-"],
        ["fm", "--m", "x", "--bogus"],
        ["fm", "--=x", "--m", "3", "--input", "-"],  # ambiguous to the afk parser, before fm's sees it
        ["bogus"],
        [],
    ]
    for argv, (got, want) in zip(argvs, run_parser_child(argvs)):
        assert got == want, argv
        assert got[0] == 1 and not got[1] and "usage: afk" in got[2], argv


def test_cli_non_utf8_input_file_exits_one(tmp_path, capsys):
    path = tmp_path / "diagram.json"
    path.write_bytes(b'{"levels":[[1]],"matrices":[]}\xff')
    code = main(["validate", "--input", str(path)])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "invalid"
    assert report["error"]["locus"] == str(path)


NAME_0XFF = b'{"levels":[[1]],"matrices":[],"metadata":{"name":"\xff"}}'


def test_cli_non_utf8_stdin_bytes_exit_one():
    # a real byte stream: whatever the locale's error handler, 0xff is refused
    src = Path(afk.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    for extra in ({}, {"LC_ALL": "C", "PYTHONUTF8": "1"}):
        proc = subprocess.run(
            [sys.executable, "-m", "afk.cli", "validate", "--input", "-"],
            input=NAME_0XFF, capture_output=True, env={**env, **extra}, timeout=60,
        )
        report = json.loads(proc.stdout)
        assert proc.returncode == 1, extra
        assert report["status"] == "invalid"
        assert report["error"]["locus"] == "-"


def test_cli_non_utf8_stdin_text_exits_one(monkeypatch, capsys):
    # a text stream already decoded with surrogateescape, as io.StringIO can hold
    text = NAME_0XFF.decode("utf-8", "surrogateescape")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(["validate", "--input", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["error"]["locus"] == "-"
    monkeypatch.setattr(sys, "stdin", io.StringIO(NAME_0XFF.decode("latin-1")))
    assert main(["validate", "--input", "-"]) == 0  # the same name as valid text


@pytest.mark.parametrize(
    "argv, doc, flags",
    [
        (["fm", "--m", "3"], '{"levels":[[2],[1]],"matrices":[[[1]]]}', {"m": 3, "budget": 64}),
        (["export-dot", "--budget", "4"], '{"levels":[[2],[1]],"matrices":[[[1]]]}', {"degree": None, "budget": 4}),
        (["telescope", "--min-dim", "2"], '{"levels":[[1,1],[1]],"matrices":[[[1,0]]]}', {"min_dim": 2, "budget": 64}),
    ],
    ids=["invalid-fm", "invalid-export-dot", "non-injective-telescope"],
)
def test_cli_refusal_report_carries_the_command_flags(monkeypatch, capsys, argv, doc, flags):
    monkeypatch.delenv("AFK_BUDGET", raising=False)
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code = main([*argv, "--input", "-"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1
    assert report["status"] == "invalid" and report["result"]["problems"]
    assert report["flags"] == flags


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize(
    "argv, doc, locus",
    [
        (["fm", "--m", "-1"], TWO_COLUMN_JSON, "--m"),
        (["fm", "--m", "0"], TWO_COLUMN_JSON, "--m"),
        (["fm-profile", "--max-m", "0"], TWO_COLUMN_JSON, "--max-m"),
        (["telescope", "--min-dim", "0"], TWO_COLUMN_JSON, "--min-dim"),
        (["telescope", "--min-dim", "-4"], TWO_COLUMN_JSON, "--min-dim"),
        (["export-dot", "--degree", "0"], WORKED_JSON, "--degree"),
        (["export-dot", "--degree", "-3"], WORKED_JSON, "--degree"),
        (["validate"], DEEP_JSON, "$"),
        pytest.param(["validate"], LONG_LITERAL_JSON, "$", marks=needs_digit_limit),
        pytest.param(["export-dot", "--budget", "4000"], TWENTY_FOLD_JSON, "--budget", marks=needs_digit_limit),
    ],
    ids=["m-1", "m0", "max-m0", "min-dim0", "min-dim-4", "degree0", "degree-3", "deep-document", "long-literal", "long-size"],
)
def test_cli_rejects_out_of_range_input_with_locus(tmp_path, capsys, argv, doc, locus):
    for fmt in ("json", "text"):
        code, out = run_cli(tmp_path, capsys, doc, *argv, "--format", fmt)
        assert code == 1
        if fmt == "json":
            report = json.loads(out)
            assert report["status"] == "invalid"
            assert report["error"]["locus"] == locus
        else:
            assert f"error at {locus}: " in out



SEVEN_THOUSAND_FOLD_JSON = '{"levels":[[1]],"matrices":[],"tail":{"matrix":[[7000]],"slack":[0]}}'


@pytest.mark.parametrize(
    "min_dim, code",
    [
        ("1" + "0" * 4298, 0),  # 7000^1118, the first size past it, has 4299 digits
        pytest.param("9" * 4299, 1, marks=needs_digit_limit),  # 7000^1119 has 4303
    ],
    ids=["printable", "too-long"],
)
def test_cli_telescope_to_a_huge_min_dim_is_bounded_and_never_internal(tmp_path, capsys, min_dim, code):
    start = time.perf_counter()
    got, out = run_cli(tmp_path, capsys, SEVEN_THOUSAND_FOLD_JSON, "telescope", "--min-dim", min_dim, "--budget", "2000")
    assert time.perf_counter() - start < 1
    report = json.loads(out)
    assert got == code
    if code == 0:
        assert report["result"]["diagram"]["levels"] == [[7000**1118]]
    else:
        assert report["error"]["locus"] == "--min-dim"


def test_cli_telescope_past_the_budget_telescopes(tmp_path, capsys, monkeypatch):
    # the cut for 10^5 on the linear tail is level 10^5, past the default budget of 64; the report
    # counts the one prefix level, the only level built one after another
    start = time.perf_counter()
    code, out = run_cli(tmp_path, capsys, LINEAR_JSON, "telescope", "--min-dim", "100000")
    assert time.perf_counter() - start < 1
    report = json.loads(out)
    assert code == 0 and report["result"]["diagram"]["levels"] == [[100000]]
    assert report["timing"]["levels_materialized"] == 1
    # the slow 8-cycle reaches 10^30 at level 1 + 8.(10^30 - 1): a few hundred tail steps, not a walk
    spent = []
    for _ in range(3):  # the best of three, so a busy host does not fail it
        start = time.perf_counter()
        code, out = run_cli(tmp_path, capsys, SLOW_8_CYCLE_JSON, "telescope", "--min-dim", str(10**30), "--budget", "1")
        spent.append(time.perf_counter() - start)
        assert code == 0
    assert min(spent) < 0.05, spent
    report = json.loads(out)
    assert report["timing"]["levels_materialized"] == 1
    assert min(report["result"]["diagram"]["levels"][0]) == 10**30
    from afk import kstability

    reached, reach = [], kstability._reach

    def recorded(*args):
        out = reach(*args)
        reached.append(out[1])
        return out

    monkeypatch.setattr(kstability, "_reach", recorded)
    run_cli(tmp_path, capsys, SLOW_8_CYCLE_JSON, "telescope", "--min-dim", str(10**30))
    assert reached[-1] == 1 + 8 * (10**30 - 1)


@needs_digit_limit
def test_cli_telescope_refuses_what_it_cannot_print_before_building_it(tmp_path, capsys):
    # summand 2 grows by 1 a level and summand 1 doubles: the cut for 10^12 is level 10^12, whose
    # first summand, 2^(10^12 - 1), is never built; the search stops once a size passes the digit limit
    doubling_and_counting = '{"levels":[[1,1]],"matrices":[],"tail":{"matrix":[[2,0],[0,1]],"slack":[0,1]}}'
    start = time.perf_counter()
    code, out = run_cli(tmp_path, capsys, doubling_and_counting, "telescope", "--min-dim", str(10**12))
    assert time.perf_counter() - start < 1
    assert code == 1 and json.loads(out)["error"] == {
        "locus": "--min-dim",
        "message": "the telescoped first level has a summand size too long to print; ask for a smaller --min-dim",
    }
    assert run_cli(tmp_path, capsys, doubling_and_counting, "kstable")[0] == 0


def test_cli_kstable_certifies_cuts_past_the_budget(tmp_path, capsys):
    # sizes 1, 2, 3, ...: the cut for m = 8 is level 8, past a budget of 4
    linear = '{"levels":[[1]],"matrices":[],"tail":{"matrix":[[1]],"slack":[1]}}'
    code, out = run_cli(tmp_path, capsys, linear, "kstable", "--budget", "4")
    report = json.loads(out)
    assert code == 0
    assert report["result"]["certificate"][-1] == {"m": 8, "cuts": [2, 3, 4, 5, 6, 7, 8]}
    assert report["timing"] == {"budget_levels": 4, "levels_materialized": 1}


OVERFLOW_JSON = '{"levels":[[2],[1]],"matrices":[[[1]]]}'
NON_INJECTIVE_JSON = '{"levels":[[1],[1,1]],"matrices":[[[1],[1]]],"tail":{"matrix":[[1,0],[1,0]],"slack":[0,0]}}'


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["fm", "--m", "3"], OVERFLOW_JSON),
        (["fm-profile", "--max-m", "3"], OVERFLOW_JSON),
        (["k0q"], OVERFLOW_JSON),
        (["kstable"], OVERFLOW_JSON),
        (["telescope", "--min-dim", "2"], OVERFLOW_JSON),
        (["export-dot"], OVERFLOW_JSON),
        (["kstable"], NON_INJECTIVE_JSON),
        (["telescope", "--min-dim", "2"], NON_INJECTIVE_JSON),
    ],
    ids=["fm", "fm-profile", "k0q", "kstable", "telescope", "export-dot", "kstable-non-injective", "telescope-non-injective"],
)
def test_cli_text_report_of_refused_input(tmp_path, capsys, argv, doc):
    code, out = run_cli(tmp_path, capsys, doc, *argv, "--format", "text")
    assert code == 1
    assert "status: invalid\nproblem: " in out

@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(
        [("fm", "--m"), ("fm-profile", "--max-m"), ("telescope", "--min-dim"), ("export-dot", "--degree")]
    ),
    st.integers(-3, 12),
    st.integers(-2, 8),
    st.sampled_from([TWO_COLUMN_JSON, WORKED_JSON]),
    st.sampled_from(["json", "text"]),
)
def test_cli_integer_flags_never_exit_three(tmp_path_factory, command, value, budget, doc, fmt):
    path = tmp_path_factory.mktemp("flags") / "diagram.json"
    path.write_text(doc, encoding="utf-8")
    argv = [command[0], "--input", str(path), command[1], str(value), "--budget", str(budget), "--format", fmt]
    assert main(argv) != 3


# runs `afk` with its address space capped at argv[1] bytes, so that a value past memory fails soon
CAPPED_CHILD = """
import resource, sys
cap = int(sys.argv[1])
_, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (cap if hard == resource.RLIM_INFINITY else min(cap, hard), hard))
from afk.cli import main
raise SystemExit(main(sys.argv[2:]))
"""


def test_cli_flag_values_past_any_list_never_exit_three(tmp_path, capsys):
    # 10^30 degrees are past a tuple's length: fm-profile refuses them as it refuses --max-m 0, and
    # every other integer flag answers at 10^30 (10^30 + 1 for an odd degree) on both tails
    huge = 10**30
    for doc in (LINEAR_JSON, SLOW_8_CYCLE_JSON):
        code, out = run_cli(tmp_path, capsys, doc, "fm-profile", "--max-m", str(huge))
        assert code == 1 and json.loads(out)["error"]["locus"] == "--max-m"
        for argv in (
            ("fm", "--m", str(huge + 1)), ("telescope", "--min-dim", str(huge)), ("export-dot", "--degree", str(huge + 1)),
            ("fm", "--m", "3", "--budget", str(huge)), ("k0q", "--budget", str(huge)),
            ("kstable", "--budget", str(huge)), ("validate", "--budget", str(huge)),
        ):
            start = time.perf_counter()
            code, out = run_cli(tmp_path, capsys, doc, *argv)
            assert code != 3 and time.perf_counter() - start < 2, (doc, argv, out)
    # 10^10 degrees fit a tuple's length but not 1 GiB: the MemoryError is refused alike; an fm unroll
    # and a drawing that hold every level up to --budget 10^9 run out of 384 MiB and are refused at --budget
    linear, constant = tmp_path / "linear.json", tmp_path / "constant.json"
    linear.write_text(LINEAR_JSON, encoding="utf-8")
    constant.write_text('{"levels":[[1]],"tail":{"matrix":[[1]]}}', encoding="utf-8")
    src = Path(afk.__file__).resolve().parents[1]
    children = [
        (2**30, "--max-m", ("fm-profile", "--input", str(linear), "--max-m", str(10**10))),
        (384 * 2**20, "--budget", ("fm", "--input", str(linear), "--m", str(huge + 1), "--budget", str(10**9))),
        (384 * 2**20, "--budget", ("export-dot", "--input", str(constant), "--budget", str(10**9))),
    ]
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", CAPPED_CHILD, str(cap), *argv], stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env={**os.environ, "PYTHONPATH": str(src)},
        )
        for cap, _, argv in children
    ]
    try:
        for proc, (_, locus, argv) in zip(procs, children):
            out, err = proc.communicate(timeout=60)
            assert proc.returncode == 1, (argv, out, err)
            assert json.loads(out)["error"]["locus"] == locus, (argv, out, err)
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


# --- the report writer ------------------------------------------------------


def written(value):
    out = []
    cli._json_chunks(value, out, "\n")
    return "".join(out)


JSON_LEAVES = st.one_of(
    st.text(st.characters(exclude_categories=())),  # any code point, non-ASCII included
    st.text(st.characters(categories=["Cc", "Cs"])),  # control characters and lone surrogates
    st.integers(),
    st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from([n, -n])),
    st.booleans(),
    st.none(),
    st.lists(st.integers()),  # all-int lists, joined in one call
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.dictionaries(st.text(st.characters(exclude_categories=()), max_size=4), kids, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert written(value) == json.dumps(value, sort_keys=True, indent=2)


@pytest.mark.parametrize("value", [1.5, {"a": [0.0]}, {1, 2}, [frozenset()], {1: "x"}, {"a": {None: 1}}])
def test_the_writer_refuses_what_a_report_never_holds(value):
    with pytest.raises(TypeError):
        written(value)


def test_the_writer_matches_json_dumps_on_every_benchmark_report(monkeypatch):
    reports, ops = [], 0
    monkeypatch.setattr(cli, "_write_json", reports.append)
    corpora = sorted((Path(__file__).resolve().parents[1] / "bench" / "corpus").glob("*.seed0.json"))
    assert len(corpora) == 3
    for path in corpora:
        corpus = json.loads(path.read_text(encoding="utf-8"))
        texts = [json.dumps(doc) for doc in corpus["documents"]]
        for op in corpus["ops"]:
            monkeypatch.setattr(sys, "stdin", io.StringIO(texts[op["doc"]]))
            main(op["argv"] + ["--input", "-"])
        ops += len(corpus["ops"])
    assert len(reports) == ops
    quoted = 0
    for report in reports:
        plain = report
        dot = report.get("result", {}).get("dot")
        if dot is not None:  # export-dot hands the writer its DOT already quoted
            assert type(dot) is JSONText
            plain = {**report, "result": {**report["result"], "dot": json.loads(dot)}}
            quoted += 1
        assert written(report) == json.dumps(plain, sort_keys=True, indent=2)
    assert quoted > 0
