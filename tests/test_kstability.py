import io
import json
import math
import random
import time

import pytest

from afk import diagram, kstability, linalg
from afk.cli import main
from afk.colimit import fm_dimension, fm_profile, profile_systems
from afk.diagram import AffineTail, BratteliDiagram, materialize, tail_step, validate
from afk.io import from_diagram, serialize, to_diagram
from afk.kstability import (
    K_STABLE,
    M_MAX,
    InjectivityRequired,
    KChainWitness,
    classify,
    find_infinite_k_chain,
    telescope,
)
from afk.linalg import IntMatrix
from cases import constant_column, fibonacci, identity, permutation_tail, single_level, two_column, worked_example
from generators import (
    random_document,
    random_growing_tail_diagram,
    random_permutation_tail_diagram,
    random_pinned_tail_diagram,
    random_prefix,
    random_stationary_tail_diagram,
)
from moves import MOVES, power_tail
from oracles import check_coordinate_classes, coordinate_classes, copy_cycle_coordinates, oracle_cut, oracle_replay_chain


# --- coordinate growth classification (the test-side fixpoint) ------------


def test_classes_two_column():
    bounded, divergent = coordinate_classes([[1, 0], [1, 1]], (1, 0))
    assert bounded == () and divergent == (0, 1)


def test_classes_constant_column():
    bounded, divergent = coordinate_classes([[1, 0], [1, 2]], (0, 0))
    assert bounded == (0,) and divergent == (1,)


def test_classes_swap_is_bounded():
    bounded, divergent = coordinate_classes([[0, 1], [1, 0]], (0, 0))
    assert bounded == (0, 1) and divergent == ()


def test_classes_cycle_feeding_cycle():
    # 1 -> 1 and 1 -> 2 -> 2: the downstream loop is pumped by the upstream one
    bounded, divergent = coordinate_classes([[1, 0], [1, 1]], (0, 0))
    assert bounded == (0,) and divergent == (1,)


def test_classes_slack_pumped_loop():
    bounded, divergent = coordinate_classes([[1]], (1,))
    assert bounded == () and divergent == (0,)


def test_classes_agree_with_a_plain_simulation():
    rng = random.Random(409)
    families = (*FAMILIES, random_permutation_tail_diagram)
    split = 0
    for family in families:
        for _ in range(60):
            d = family(rng)
            if not d.validation.ok:
                continue  # the oracle's growth bound needs positive sizes
            tail = d.tail
            rows, start = tail.matrix.to_rows(), d.prefix_levels[-1]
            bounded, divergent = coordinate_classes(rows, tail.slack)
            assert check_coordinate_classes(rows, tail.slack, start, bounded, divergent) == [], d
            split += bool(bounded) and bool(divergent)
    assert split >= 40


# --- chain search ----------------------------------------------------------


def test_find_chain_constant_column():
    w = find_infinite_k_chain(constant_column())
    assert isinstance(w, KChainWitness)
    assert w.k == 1
    assert w.start_level == 1
    assert set(w.cycle_summands) == {1}
    assert oracle_replay_chain(constant_column(), w) == []


def test_find_chain_two_column_none():
    assert find_infinite_k_chain(two_column()) is None


def test_find_chain_prefix_only_reads_the_identity_tail():
    w = find_infinite_k_chain(worked_example())
    assert w.kind == "identity-completion" and (w.k, w.start_level, w.cycle_period) == (1, 1, 1)
    assert oracle_replay_chain(worked_example(), w) == []


def test_a_tail_less_chain_is_the_chain_of_its_identity_tail():
    # without a tail the copy cycles are the last level's summands, each copying itself
    rng = random.Random(413)
    for _ in range(100):
        levels, matrices = random_prefix(rng)
        d = BratteliDiagram(tuple(levels), tuple(matrices))
        n = len(d.prefix_levels[-1])
        identity_tailed = BratteliDiagram(d.prefix_levels, d.prefix_matrices, AffineTail(identity(n), (0,) * n))
        w = find_infinite_k_chain(d)
        assert w.kind == "identity-completion", d
        assert w == find_infinite_k_chain(identity_tailed)._replace(kind="identity-completion"), d


def test_find_chain_swap_tail():
    # sizes alternate (2,3)/(3,2): both values ride a period-2 chain
    d = BratteliDiagram(
        prefix_levels=((2, 3),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[0, 1], [1, 0]]), slack=(0, 0)),
    )
    w = find_infinite_k_chain(d)
    assert isinstance(w, KChainWitness)
    assert w.k == 2
    assert w.cycle_period == 2
    assert oracle_replay_chain(d, w) == []


def test_find_chain_needs_no_budget():
    # the swap's sizes repeat only at level 3, but the copy cycle answers at level 1
    d = BratteliDiagram(
        prefix_levels=((2, 3),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[0, 1], [1, 0]]), slack=(0, 0)),
    )
    verdict = classify(d)
    assert verdict.status == "not-k-stable" and verdict.witness == find_infinite_k_chain(d)
    assert (verdict.witness.start_level, verdict.witness.cycle_summands) == (1, (1, 2))
    assert telescope(d, 3) == verdict.witness


# sizes, p (row i copies column p[i]) and the witness (k, start, node_path, cycle_period, cycle_summands)
WITNESS_CHOICES = (
    ((1, 1, 1, 1, 1), (1, 0, 3, 4, 2), (1, 1, (), 2, (1, 2))),
    ((2, 2, 1, 1, 1), (1, 0, 3, 4, 2), (1, 1, (), 3, (3, 5, 4))),
    ((1, 2, 1, 2), (3, 0, 1, 2), (1, 1, (), 4, (1, 2, 3, 4))),
    # the chain's period is its own cycle's length, not lcm(2, 3) = 6
    ((3, 1, 1, 2, 1), (1, 0, 3, 4, 2), (1, 1, (), 2, (2, 1))),
)


def test_replay_refuses_a_cycle_that_is_not_a_copy_cycle():
    # the sizes 1, 2, 3, ... have a sole simple predecessor, but slack 1 breaks the chain at level 2
    w = KChainWitness(1, 1, (), 1, (1,))
    swapped = KChainWitness(2, 1, (), 1, (1,))  # the swap moves size 2 to summand 2
    d = BratteliDiagram(((2, 3),), (), AffineTail(IntMatrix.from_rows([[0, 1], [1, 0]]), (0, 0)))
    for diagram, witness in ((LINEAR, w), (SEVEN_THOUSAND_FOLD, w), (d, swapped)):
        failures = oracle_replay_chain(diagram, witness)
        assert failures and failures[0].startswith("level 2: "), (diagram, failures)


def test_witness_starts_at_the_smallest_coordinate_of_the_smallest_copy_size():
    for sizes, p, expected in WITNESS_CHOICES:
        rows = [[int(j == p[i]) for j in range(len(p))] for i in range(len(p))]
        d = BratteliDiagram((sizes,), (), AffineTail(IntMatrix.from_rows(rows), (0,) * len(p)))
        w = find_infinite_k_chain(d)
        assert (w.k, w.start_level, w.node_path, w.cycle_period, w.cycle_summands) == expected
        assert oracle_replay_chain(d, w) == []


# --- telescoping -----------------------------------------------------------


def test_telescope_two_column_drops_first_level():
    out = telescope(two_column(), 2)
    assert isinstance(out, BratteliDiagram)
    assert out.prefix_levels == ((2, 2), (3, 4))
    assert out.tail == two_column().tail


def test_telescope_unchanged_when_min_dim_suffices():
    d = BratteliDiagram(
        prefix_levels=((5, 6),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[1, 0], [1, 1]]), slack=(1, 0)),
    )
    assert telescope(d, 3) is d


def test_telescope_constant_column_returns_the_witness():
    w = telescope(constant_column(), 2)
    assert isinstance(w, KChainWitness) and w.k == 1
    assert oracle_replay_chain(constant_column(), w) == []


def test_telescope_min_dim_and_validity():
    for m in (2, 3, 5, 8):
        out = telescope(two_column(), m)
        assert isinstance(out, BratteliDiagram)
        assert min(out.prefix_levels[0]) >= m
        assert validate(out).ok
        assert out.validation.injective


def test_telescope_requires_injectivity():
    d = BratteliDiagram(
        prefix_levels=((1, 1), (3,)),
        prefix_matrices=(IntMatrix.from_rows([[1, 0]]),),
    )
    with pytest.raises(InjectivityRequired):
        telescope(d, 2)


def test_telescope_preserves_fm_profile_two_column():
    d = two_column()
    base = [(m, r.dimension, r.exact) for m, r in fm_profile(d, 9)]
    scoped = telescope(d, 4)
    assert [(m, r.dimension, r.exact) for m, r in fm_profile(scoped, 9)] == base


SEVEN_THOUSAND_FOLD = BratteliDiagram(
    prefix_levels=((1,),), prefix_matrices=(), tail=AffineTail(IntMatrix.from_rows([[7000]]), (0,))
)
# sizes 1, 2, 3, ...: the cut for target m is level m
LINEAR = BratteliDiagram(
    prefix_levels=((1,),), prefix_matrices=(), tail=AffineTail(IntMatrix.from_rows([[1]]), (1,))
)


def test_telescope_jumps_over_stages_below_the_smallest_summand():
    start = time.perf_counter()
    out = telescope(SEVEN_THOUSAND_FOLD, 10**100)
    assert time.perf_counter() - start < 1
    assert out.prefix_levels == ((7000**27,),)  # the first size >= 10^100
    # level 1 is the only one with a summand < 8, so every target keeps level 2 on
    verdict = classify(SEVEN_THOUSAND_FOLD)
    assert verdict.status == K_STABLE
    assert verdict.certificate == tuple((m, (2,) * (m - 1)) for m in range(1, 9))


def test_telescope_finds_the_cut_past_any_level_budget():
    # the cut for target m is level m, past the default budget of 64 from m = 65 on
    for m in (64, 65, 100000, 10**30):
        start = time.perf_counter()
        assert telescope(LINEAR, m) == (((m,),), (), LINEAR.tail)
        assert time.perf_counter() - start < 1


def test_telescope_of_a_tail_less_diagram_does_not_depend_on_the_budget():
    # telescope reads no budget; without a tail the cut lies in the prefix, and no level is stepped
    d = BratteliDiagram(
        prefix_levels=((1,), (2,), (3,)), prefix_matrices=(identity(1), identity(1))
    )
    assert telescope(d, 3) == (((3,),), (), None)


# summand 1 stays at size 2 forever; summand 2 starts at 1 and grows
PINNED_AT_TWO = BratteliDiagram(
    prefix_levels=((2, 1),), prefix_matrices=(), tail=AffineTail(IntMatrix.from_rows([[1, 0], [1, 1]]), (0, 1))
)
FAMILIES = (random_growing_tail_diagram, random_pinned_tail_diagram, random_stationary_tail_diagram)


def _count_tail_steps(monkeypatch):
    steps = []
    step = diagram.tail_step

    def counted(tail, q):
        steps.append(q)
        return step(tail, q)

    monkeypatch.setattr(diagram, "tail_step", counted)
    return steps


def test_a_persistent_small_summand_answers_before_any_tail_step(monkeypatch):
    assert PINNED_AT_TWO.validation.ok  # validation steps the tail once; count after it is cached
    steps = _count_tail_steps(monkeypatch)
    w = telescope(PINNED_AT_TWO, 10**6)
    assert steps == []
    assert isinstance(w, KChainWitness) and w.k == 2
    assert oracle_replay_chain(PINNED_AT_TWO, w) == []


def slow_cycle(n):
    """A single n-cycle of copies but one, which adds a unit of slack; all sizes 1."""
    rows = [[int(j == (i - 1) % n) for j in range(n)] for i in range(n)]
    return BratteliDiagram(((1,) * n,), (), AffineTail(IntMatrix.from_rows(rows), (1,) + (0,) * (n - 1)))


def _count_searches(monkeypatch):
    """(m, steps, squarings, level reached) for each `_reach` call: a squaring is one product and one tail step."""
    searches, steps, products = [], [], []
    step, multiply, reach = diagram.tail_step, linalg.multiply, kstability._reach

    def counted_reach(d, m, *args):
        before = len(steps), len(products)
        out = reach(d, m, *args)
        squarings = len(products) - before[1]
        searches.append((m, len(steps) - before[0] - squarings, squarings, out[1]))
        return out

    monkeypatch.setattr(diagram, "tail_step", lambda tail, q: steps.append(q) or step(tail, q))
    monkeypatch.setattr(linalg, "multiply", lambda a, b: products.append(a) or multiply(a, b))
    monkeypatch.setattr(kstability, "_reach", counted_reach)
    return searches


def _assert_searches_double(searches, n):
    # each target's search doubles its way to the cut: at most 2.ceil(log2(n.m)) + 2 steps that
    # move a level, and ceil(log2(n.m)) squarings
    for m, steps, squarings, _ in searches:
        bound = math.ceil(math.log2(n * m))
        assert steps <= 2 * bound + 2 and squarings <= bound, (m, steps, squarings)


def test_telescope_never_unrolls_past_the_budget(monkeypatch):
    # telescope takes no budget, and however many levels past one the cut lies, it steps the
    # tail only in its doubling searches; an infinite chain answers before any search
    rng = random.Random(407)
    draws = [LINEAR, PINNED_AT_TWO, two_column(), constant_column()]
    draws += [family(rng) for family in FAMILIES for _ in range(30)]
    draws = [d for d in draws if d.validation.ok and d.validation.injective]
    slow = [slow_cycle(n) for n in range(1, 9)]
    searches = _count_searches(monkeypatch)
    telescoped = 0
    for d in draws + slow:
        n, is_slow = len(d.prefix_levels[-1]), any(d is s for s in slow)
        for m in (2, 3, 5, 9) + (10**3, 10**30) * is_slow:
            searches.clear()
            if isinstance(telescope(d, m), KChainWitness):
                assert searches == [], (d, m)
                continue
            assert searches, (d, m)
            _assert_searches_double(searches, n)
            telescoped += 1
        if is_slow:
            searches.clear()
            telescope(d, 10**30)
            assert searches[-1][3] == d.prefix_len + n * (10**30 - 1), d
    assert telescoped >= 200, telescoped


def test_classify_never_unrolls_past_prefix_plus_n_levels_per_target(monkeypatch):
    # the bound prefix + n.(m - 1) of the module docstring, met exactly by the slow n-cycle; each
    # target's search doubles its way there, as telescope's do
    rng = random.Random(411)
    draws = [LINEAR, PINNED_AT_TWO, two_column(), constant_column(), fibonacci()]
    draws += [family(rng) for family in (*FAMILIES, random_permutation_tail_diagram) for _ in range(30)]
    draws += [to_diagram(random_document(rng)) for _ in range(30)]
    draws = [d for d in draws if d.validation.ok and d.validation.injective]
    slow = [slow_cycle(n) for n in range(1, 9)]
    for d in slow:
        assert d.validation.ok
    searches = _count_searches(monkeypatch)
    stable = 0
    for d in draws + slow:
        n, is_slow = len(d.prefix_levels[-1]), any(d is s for s in slow)
        searches.clear()
        verdict = classify(d)
        _assert_searches_double(searches, n)
        if verdict.status == K_STABLE:
            reached = searches[-1][3]  # the search for M_MAX goes deepest
            assert reached <= d.prefix_len + n * (M_MAX - 1), d
            assert min(list(materialize(d, reached)[0])[-1]) >= M_MAX, d
            stable += 1
            if is_slow:
                assert reached == d.prefix_len + n * (M_MAX - 1), d
        else:
            assert not is_slow and searches == [], d
    assert stable >= 50
    assert classify(LINEAR).certificate[-1] == (8, (2, 3, 4, 5, 6, 7, 8))


def test_telescope_and_classify_cut_where_a_plain_unroll_does(monkeypatch):
    # the oracle unrolls n.999 levels of the slow n-cycle for m = 1000: the narrowest and the widest do
    rng = random.Random(414)
    draws = [family(rng) for family in (*FAMILIES, random_permutation_tail_diagram) for _ in range(40)]
    cases = [(d, (2, 3, 5, 9, 1000)) for d in draws if d.validation.ok and d.validation.injective]
    cases += [(slow_cycle(n), (2, 3, 5, 9) + (1000,) * (n in (1, 8))) for n in range(1, 9)]
    searches = _count_searches(monkeypatch)
    compared = certified = 0
    for d, targets in cases:
        chain = find_infinite_k_chain(d)
        for m in targets:
            if chain is not None and chain.k < m:
                continue
            cut, reached, first = oracle_cut(d, m)
            searches.clear()
            out = telescope(d, m)
            assert searches[-1][3] == reached, (d, m)
            if cut > d.prefix_len:
                assert out == ((first,), (), d.tail), (d, m)
            else:
                assert out == (d.prefix_levels[cut - 1 :], d.prefix_matrices[cut - 1 :], d.tail), (d, m)
            compared += 1
        searches.clear()
        verdict = classify(d)
        if verdict.status == K_STABLE:
            cuts = verdict.certificate[-1][1]
            assert cuts == tuple(oracle_cut(d, m)[0] for m in range(2, M_MAX + 1)), d
            assert searches[-1][3] == oracle_cut(d, M_MAX)[1], d
            certified += 1
    assert compared >= 300 and certified >= 80, (compared, certified)


def test_an_answer_at_a_small_budget_is_the_answer_at_a_large_one(monkeypatch, capsys):
    # telescope reads no budget: its report is the same at every --budget and from AFK_BUDGET
    rng = random.Random(408)
    compared = 0
    for family in FAMILIES:
        for _ in range(40):
            d = family(rng)
            if not (d.validation.ok and d.validation.injective):
                continue
            text = serialize(from_diagram(d))
            for m in (2, 9):
                reports = set()
                for budget in ("1", "2", "3", "4", "8", "1024", None):
                    monkeypatch.setattr("sys.stdin", io.StringIO(text))
                    monkeypatch.setenv("AFK_BUDGET", "1")
                    argv = ["telescope", "--input", "-", "--min-dim", str(m)] + ["--budget", budget] * (budget is not None)
                    main(argv)
                    report = json.loads(capsys.readouterr().out)
                    del report["flags"]["budget"], report["timing"]["budget_levels"]
                    reports.add(json.dumps(report, sort_keys=True))
                assert len(reports) == 1, (d, m)
                compared += 1
    assert compared >= 150


# --- classification --------------------------------------------------------


def test_classify_two_column_k_stable():
    verdict = classify(two_column())
    assert verdict.status == "k-stable"
    assert verdict.witness is None
    assert verdict.certificate is not None
    assert [m for m, _ in verdict.certificate] == list(range(1, 9))


def test_classify_constant_column_not_k_stable():
    verdict = classify(constant_column())
    assert verdict.status == "not-k-stable"
    assert verdict.witness is not None and verdict.witness.k == 1
    assert verdict.certificate is None
    assert oracle_replay_chain(constant_column(), verdict.witness) == []


def test_classify_single_level_not_k_stable():
    for n in range(1, 5):
        verdict = classify(single_level(n))
        assert verdict.status == "not-k-stable"
        assert verdict.witness is not None
        assert verdict.witness.k == n
        assert verdict.witness.kind == "identity-completion"


def test_classify_prefix_only_is_finite_dimensional():
    # no tail means the presentation stops: the limit is the last level's
    # algebra, which represents itself finite-dimensionally
    verdict = classify(worked_example())
    assert verdict.status == "not-k-stable"
    w = verdict.witness
    assert w is not None and w.kind == "identity-completion"
    assert w.k == 1 and w.start_level == 1
    assert oracle_replay_chain(worked_example(), w) == []


def test_classify_rejects_non_injective():
    d = BratteliDiagram(
        prefix_levels=((1, 1), (3,)),
        prefix_matrices=(IntMatrix.from_rows([[1, 0]]),),
        tail=AffineTail(matrix=IntMatrix.from_rows([[2]]), slack=(0,)),
    )
    with pytest.raises(InjectivityRequired):
        classify(d)


def test_classify_mutual_exclusion_and_cross_check():
    for d in (two_column(), constant_column(), single_level(3)):
        verdict = classify(d)
        assert not (verdict.witness is not None and verdict.certificate is not None)
        if verdict.status == "k-stable":
            k0 = fm_dimension(d, 1)
            for m, res in fm_profile(d, 11):
                if m % 2 == 1:
                    assert res.dimension == k0.dimension


# --- randomized families ---------------------------------------------------


def _telescope_outcome(d, m):
    """telescope(d, m) as (the witness's (k, kind), or None once each listed summand is >= m)."""
    out = telescope(d, m)
    if isinstance(out, KChainWitness):
        return out.k, out.kind
    assert all(min(q) >= m for q in out.prefix_levels), (d, m)
    return None


def test_kstable_verdict_and_witness_survive_diagram_moves():
    # a move keeps the algebra, so it keeps the verdict and the chain's size k, and telescope's
    # outcome for each target
    rng = random.Random(412)
    families = (*FAMILIES, random_permutation_tail_diagram, lambda rng: to_diagram(random_document(rng)))
    pairs, verdicts, powered, outcomes = 0, set(), 0, set()
    for family in families:
        for _ in range(60):
            d = family(rng)
            if not (d.validation.ok and d.validation.injective):
                continue
            before = classify(d)
            telescoped = {m: _telescope_outcome(d, m) for m in (2, 3, 5, 9)}
            for move in MOVES:
                moved = move(d, rng)
                if moved is None:
                    continue
                assert moved.validation.ok and moved.validation.injective, (move.__name__, d)
                after = classify(moved)
                assert after.status == before.status, (move.__name__, d)
                if before.witness is not None:
                    assert (after.witness.k, after.witness.kind) == (before.witness.k, before.witness.kind), (move.__name__, d)
                for m, outcome in telescoped.items():
                    assert _telescope_outcome(moved, m) == outcome, (move.__name__, d, m)
                    outcomes.add(outcome is None)
                if move is power_tail:
                    # the L-th power turns every copy cycle into fixed points; the chain keeps its start
                    first = before.witness.cycle_summands[:1]
                    assert after.witness == before.witness._replace(cycle_period=1, cycle_summands=first), d
                    powered += 1
                pairs += 1
                verdicts.add(before.status)
    assert pairs >= 800 and verdicts == {K_STABLE, "not-k-stable"} and powered >= 30, (pairs, powered)
    assert outcomes == {True, False}


def test_random_growing_diagrams_are_k_stable():
    rng = random.Random(404)
    stable = 0
    for _ in range(120):
        d = random_growing_tail_diagram(rng)
        if not d.validation.injective:
            continue
        verdict = classify(d)
        assert verdict.status == "k-stable"
        stable += 1
    assert stable >= 60


def test_random_pinned_diagrams_yield_sound_witnesses():
    rng = random.Random(405)
    found = 0
    for _ in range(120):
        d = random_pinned_tail_diagram(rng)
        if not d.validation.injective or not validate(d).ok:
            continue
        w = find_infinite_k_chain(d)
        assert isinstance(w, KChainWitness)
        assert oracle_replay_chain(d, w) == []
        found += 1
    assert found >= 60


def _assert_minimal_cut(d, cut, m):
    """Level cut - 1 of d holds a summand < m, and none does over 40 levels from the cut on."""
    profiles = list(materialize(d, cut + 39)[0])
    assert cut == 1 or min(profiles[cut - 2]) < m
    assert all(min(q) >= m for q in profiles[cut - 1 :])


def test_telescope_preserves_fm_profile_random():
    rng = random.Random(406)
    done = 0
    for _ in range(80):
        d = random_growing_tail_diagram(rng)
        if not d.validation.injective:
            continue
        m_target = rng.choice([2, 3, 4])
        out = telescope(d, m_target)
        verdict = classify(d)
        for m, cuts in verdict.certificate[1:]:
            _assert_minimal_cut(d, cuts[-1], m)
        profiles = list(materialize(d, 96)[0])
        cut = profiles.index(out.prefix_levels[0], d.prefix_len - out.prefix_len) + 1
        assert out.tail == d.tail
        _assert_minimal_cut(d, cut, m_target)
        for m in (1, 3, 5):
            a = [r.dimension for _, r in fm_profile(d, m, budget=96)]
            b = [r.dimension for _, r in fm_profile(out, m, budget=96)]
            assert a == b
        done += 1
    assert done >= 40


def test_permutation_tail_answers_at_budget_one():
    # sizes repeat only after lcm(3, 4, 5, 7) = 420 levels; the 3-cycle's copies answer at once
    d = permutation_tail((3, 4, 5, 7))
    start = time.perf_counter()
    verdict = classify(d)
    spent = time.perf_counter() - start
    assert verdict.status == "not-k-stable"
    w = verdict.witness
    assert (w.k, w.start_level, w.cycle_period, w.cycle_summands) == (1, 1, 3, (1, 2, 3))
    assert oracle_replay_chain(d, w) == []
    assert telescope(d, 2) == w
    assert spent < 1.0


def test_a_tail_without_copy_cycles_telescopes_with_no_budget(monkeypatch):
    # Fibonacci sizes: the smallest summand first reaches 8 at level 6, which telescope and
    # classify find alike, without a budget
    d = fibonacci()
    searches = _count_searches(monkeypatch)
    assert telescope(d, 8) == (((13, 8),), (), d.tail)
    assert searches[-1][3] == 6
    searches.clear()
    verdict = classify(d)
    assert verdict.status == K_STABLE and searches[-1][3] == 6
    assert verdict.certificate[-1] == (8, (3, 4, 5, 5, 6, 6, 6))


def test_every_copy_cycle_answers_at_budget_one():
    # the witness is checked by a plain simulation sharing no code with afk
    rng = random.Random(410)
    draws = [permutation_tail(cycles) for cycles in ((1,), (2, 3), (3, 4, 5, 7), (6, 6))]
    for family in (*FAMILIES, random_permutation_tail_diagram):
        draws += [family(rng) for _ in range(80)]
    draws += [to_diagram(random_document(rng)) for _ in range(80)]
    chains = tail_less = 0
    for d in draws:
        if not (d.validation.ok and d.validation.injective):
            continue
        verdict = classify(d)
        last = d.prefix_levels[-1]
        # a tail-less diagram is read as the identity tail, every summand a copy cycle
        strands = copy_cycle_coordinates(d.tail.matrix.to_rows(), d.tail.slack) if d.tail else range(len(last))
        if not strands:
            assert verdict.status != "not-k-stable", d
            continue
        assert verdict.status == "not-k-stable", d
        w = verdict.witness
        assert w.k == min(last[i] for i in strands), (d, w)
        assert oracle_replay_chain(d, w) == [], (d, w)
        assert telescope(d, w.k + 1) == w
        chains += 1
        tail_less += d.tail is None
    assert chains >= 150 and tail_less >= 10


# --- the theorem: K-stable iff F_{2B+1} = F_1 ------------------------------

THEOREM_BUDGET = 4096


def _bounded_size(d):
    """B: the largest bounded-coordinate size once the bounded sizes repeat, or the largest last-level size."""
    if d.tail is None:
        return max(d.prefix_levels[-1])
    bounded, _ = coordinate_classes(d.tail.matrix.to_rows(), d.tail.slack)
    seen, q = [], d.prefix_levels[-1]
    while (key := tuple(q[i] for i in bounded)) not in seen:
        seen.append(key)
        q = tail_step(d.tail, q)
    return max((x for later in seen[seen.index(key):] for x in later), default=0)


def test_classify_agrees_with_the_rational_k_stability_comparison():
    # F_m embeds in F_1 = rank K0 (degree m keeps a coordinate subsystem), so F_m
    # does not grow with m; from m = 2B+1 on only the divergent coordinates
    # survive, and the algebra is K-stable iff nothing was lost by then
    rng = random.Random(2)
    families = {
        "growing": lambda: random_growing_tail_diagram(rng),
        "pinned": lambda: random_pinned_tail_diagram(rng),
        "stationary": lambda: random_stationary_tail_diagram(rng),
        "document": lambda: to_diagram(random_document(rng)),
    }
    verdicts = set()
    for family, draw in families.items():
        for _ in range(300):
            d = draw()
            if not (d.validation.ok and d.validation.injective):
                continue  # classify refuses it
            verdict = classify(d)
            b = _bounded_size(d)
            rows = profile_systems(d, range(1, 2 * b + 4, 2), THEOREM_BUDGET)
            assert all(res.exact for _, _, res in rows)
            f = [res.dimension for _, _, res in rows]  # F_1, F_3, ..., F_{2B+3}
            assert all(later <= earlier for earlier, later in zip(f, f[1:])), (family, f)
            assert f[b + 1] == f[b], (family, f)
            assert (verdict.status == K_STABLE) == (f[b] == f[0]), (family, verdict.status, b, f)
            verdicts.add(verdict.status)
    assert verdicts == {"k-stable", "not-k-stable"}
