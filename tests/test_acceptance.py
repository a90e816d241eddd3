"""Acceptance suite: one criterion per test, one printed pass/fail line each.

Run standalone (with the printed lines visible) via:

    pytest tests/test_acceptance.py -v -s
"""

import io
import json
import random
import sys
import time
from contextlib import contextmanager

from afk.colimit import fm_dimension, fm_profile
from afk.diagram import BratteliDiagram, validate
from afk.cli import main
from afk.io import from_diagram, parse, serialize
from afk.kstability import classify, find_infinite_k_chain, telescope
from afk.linalg import matvec, multiply
from afk.truncation import d as survives
from cases import build_systems, constant_column, doubling, single_level, two_column, worked_example
from generators import (
    random_document,
    random_growing_tail_diagram,
    random_pinned_tail_diagram,
    random_stationary_tail_diagram,
    random_valid_triple,
)
from oracles import oracle_replay_chain, oracle_truncated_colimit


@contextmanager
def criterion(number, description, limit_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL — {description}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= limit_seconds:
        print(f"criterion {number}: FAIL — {description} ({elapsed:.2f}s over the {limit_seconds}s limit)")
        raise AssertionError(f"criterion {number} exceeded its {limit_seconds}s limit")
    print(f"criterion {number}: PASS — {description} ({elapsed:.3f}s)")


def test_criterion_1_worked_example_truncated_maps():
    with criterion(1, "worked-example truncated maps in degrees 1, 3, 5", 1.0):
        d = worked_example()
        assert d.prefix_levels == ((1, 2, 3), (1, 3, 5, 8))
        m1, m3, m5 = (sys.maps[0] for sys in build_systems(d, (1, 3, 5), budget=2))

        assert m1 == d.prefix_matrices[0]
        assert m1.to_rows() == [[1, 0, 0], [1, 1, 0], [2, 0, 1], [0, 1, 2]]
        a, b, c = 5, 7, 11
        assert matvec(m1, (a, b, c)) == (a, a + b, 2 * a + c, b + 2 * c)

        assert m3.to_rows() == [[1, 0], [0, 1], [1, 2]]
        assert matvec(m3, (b, c)) == (b, c, b + 2 * c)

        assert m5.to_rows() == [[0], [1], [2]]
        assert matvec(m5, (c,)) == (0, c, 2 * c)


def test_criterion_2_two_column_profile():
    with criterion(2, "two-column profile: dimension 2 for odd m, 0 for even m, m = 1..19", 1.0):
        for m, res in fm_profile(two_column(), 19):
            if m % 2 == 1:
                assert res.exact, f"m={m} not certified exact"
                assert res.dimension == 2, f"m={m} gave {res.dimension}"
            else:
                assert res.exact and res.dimension == 0


def test_criterion_3_two_column_k_stable():
    with criterion(3, "two-column example classified K-stable with a telescoping certificate", 1.0):
        verdict = classify(two_column())
        assert verdict.status == "k-stable"
        assert verdict.witness is None
        assert verdict.certificate, "certificate missing"
        for m, cuts in verdict.certificate:
            assert len(cuts) == m - 1


def test_criterion_4_constant_column_witness():
    with criterion(4, "constant-column diagram: K=1 chain witness that replays cleanly", 1.0):
        d = constant_column()
        verdict = classify(d)
        assert verdict.status == "not-k-stable"
        w = verdict.witness
        assert w is not None and w.k == 1
        assert w.start_level == 1
        assert set(w.cycle_summands) == {1}
        assert oracle_replay_chain(d, w) == []


def test_criterion_5_finite_dimensional_closed_form():
    with criterion(5, "single-level diagrams match the closed form for n = 1..6", 1.0):
        for n in range(1, 7):
            for m, res in fm_profile(single_level(n), 13):
                expected = 1 if (m % 2 == 1 and m <= 2 * n - 1) else 0
                assert res.dimension == expected, f"n={n}, m={m}: {res.dimension} != {expected}"
                if m % 2 == 0:
                    assert res.exact


def test_criterion_6_oracle_equivalence():
    with criterion(6, "1000 random stationary-tail diagrams agree with the brute-force oracle", 60.0):
        rng = random.Random(160914)
        agreements = 0
        for _ in range(1000):
            d = random_stationary_tail_diagram(rng, max_summands=4, max_levels=5, max_entry=3)
            width = len(d.prefix_levels[-1])
            for m in (1, 3):
                res = fm_dimension(d, m, budget=64)
                assert res.exact, "stationary tail failed to certify a cycle"
                [sys] = build_systems(d, (m,), budget=64)
                extra = max(3 * width, (sys.period or 1) * (width + 2))
                got = oracle_truncated_colimit(d, m, sys.cycle_start, sys.cycle_start + extra)
                assert got == res.dimension, (
                    f"oracle {got} != engine {res.dimension} for m={m}, diagram {d}"
                )
            agreements += 1
        assert agreements == 1000


def test_criterion_7_k_stable_cross_check():
    with criterion(7, "K-stable corpus: odd-degree dimensions equal the rational K0 rank", 30.0):
        rng = random.Random(170915)
        corpus = [two_column(), doubling(), telescope(two_column(), 3)]
        for _ in range(80):
            d = random_growing_tail_diagram(rng)
            if d.validation.injective:
                corpus.append(d)
        checked = 0
        for d in corpus:
            verdict = classify(d)
            if verdict.status != "k-stable":
                continue
            k0 = fm_dimension(d, 1, budget=96)
            assert k0.exact
            threshold = 2 * min(d.prefix_levels[0]) - 1
            for m, res in fm_profile(d, max(13, threshold + 4), budget=96):
                if m % 2 == 1:
                    assert res.exact
                    assert res.dimension == k0.dimension, (
                        f"m={m}: {res.dimension} != K0 rank {k0.dimension}"
                    )
            checked += 1
        assert checked >= 40, f"only {checked} K-stable diagrams in the corpus"


def test_criterion_8a_truncation_functoriality():
    with criterion("8a", "property: truncation commutes with composition (>= 200 cases)", 30.0):
        rng = random.Random(881)
        cases = 0
        for _ in range(300):
            src, phi1, mid, phi2, dst = random_valid_triple(rng)
            d = BratteliDiagram((src, mid, dst), (phi1, phi2))
            for m, sys in zip((1, 3, 5, 7), build_systems(d, (1, 3, 5, 7))):
                kept = [tuple(j for j, p in enumerate(q) if survives(m, p)) for q in d.prefix_levels]
                for k in range(len(sys.maps) - 1):
                    composite = multiply(d.matrix_after(k + 2), d.matrix_after(k + 1))
                    assert multiply(sys.maps[k + 1], sys.maps[k]) == composite.submatrix(kept[k + 2], kept[k])
            cases += 1
        assert cases >= 200


def test_criterion_8b_telescope_preserves_profile():
    with criterion("8b", "property: telescoping preserves every degree's dimension (>= 200 cases)", 60.0):
        rng = random.Random(882)
        cases = 0
        while cases < 200:
            d = random_growing_tail_diagram(rng)
            if not d.validation.injective:
                continue
            target = rng.choice([2, 3, 4])
            scoped = telescope(d, target)
            before = [r.dimension for _, r in fm_profile(d, 7, budget=96)]
            after = [r.dimension for _, r in fm_profile(scoped, 7, budget=96)]
            assert before == after
            cases += 1
        assert cases >= 200


def test_criterion_8c_witness_replay():
    with criterion("8c", "property: every reported chain witness replays cleanly (>= 200 cases)", 60.0):
        rng = random.Random(883)
        cases = 0
        while cases < 200:
            d = random_pinned_tail_diagram(rng)
            if not validate(d).ok:
                continue
            w = find_infinite_k_chain(d)
            assert oracle_replay_chain(d, w) == []
            cases += 1
        assert cases >= 200


def test_criterion_8d_parse_serialize_roundtrip():
    with criterion("8d", "property: parse/serialize round-trip is the identity (>= 200 cases)", 30.0):
        rng = random.Random(884)
        for _ in range(300):
            doc = random_document(rng)
            assert parse(serialize(doc)) == doc


def _telescope_report(d, budget):
    """The JSON report of `telescope --min-dim 9 --budget <budget>` on d, less the budget it echoes."""
    stdin, stdout = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(serialize(from_diagram(d))), io.StringIO()
    try:
        assert main(["telescope", "--input", "-", "--min-dim", "9", "--budget", str(budget)]) == 0
        report = json.loads(sys.stdout.getvalue())
    finally:
        sys.stdin, sys.stdout = stdin, stdout
    del report["flags"]["budget"], report["timing"]["budget_levels"]
    return report


def test_criterion_9_work_scales_with_the_repeat_not_the_budget():
    # one time limit per call, two-column first: code that unrolled the whole
    # budget fails on the linear sizes before the doubling sizes fill memory
    for name, d in (("two-column", two_column()), ("doubling", doubling())):
        with criterion(9, f"{name}: telescope to 9 at budget 10^6 equals budget 64", 5.0):
            assert _telescope_report(d, 10**6) == _telescope_report(d, 64)
        with criterion(9, f"{name}: F_9 at budget 10^6 equals budget 64", 5.0):
            res = fm_dimension(d, 9, 10**6)
            assert res.exact and res == fm_dimension(d, 9, 64)
