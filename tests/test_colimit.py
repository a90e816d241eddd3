import random
from collections import Counter

import pytest

import afk.colimit
import afk.diagram
from afk.colimit import fm_dimension, fm_profile, profile_systems
from afk.diagram import DEFAULT_BUDGET, AffineTail, BratteliDiagram
from afk.io import parse, to_diagram
from afk.linalg import IntMatrix, multiply, rank
from cases import build_systems, doubling, identity, permutation_tail, single_level, stationary_identity, two_column, worked_example
from generators import (
    random_document,
    random_functional_graph_tail_diagram,
    random_growing_tail_diagram,
    random_permutation_tail_diagram,
    random_pinned_tail_diagram,
    random_prefix,
    random_stationary_tail_diagram,
    stationary_tail_of_width,
)
from moves import MOVES, power_tail
from oracles import oracle_closed_form_fm, oracle_truncated_colimit


def test_two_column_every_odd_degree_is_two():
    d = two_column()
    for m in (1, 3, 5, 7, 9, 11, 19):
        res = fm_dimension(d, m)
        assert res.exact
        assert res.dimension == 2


def test_even_degrees_vanish_without_computation():
    res = fm_dimension(two_column(), 2)
    assert res.dimension == 0 and res.exact
    assert res.note is not None
    assert res.stabilized_at is None


def test_degrees_below_one_are_refused_even_or_odd():
    # 0 and -2 are even but not degrees: they must not vanish as an exact 0
    for m in (0, -1, -2):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            fm_dimension(two_column(), m)
    for build in (lambda: profile_systems(two_column(), (1, 2, 0)), lambda: build_systems(two_column(), (0,))):
        with pytest.raises(ValueError, match="degree must be >= 1"):
            build()


def test_doubling_tail_dimension_one():
    res = fm_dimension(doubling(), 1)
    assert res.exact and res.dimension == 1


def test_stationary_small_node_eventually_zero():
    # degree 5 deletes the lone size-2 summand at every level
    res = fm_dimension(stationary_identity(2), 5)
    assert res.exact and res.dimension == 0


def test_k0q_two_column():
    res = fm_dimension(two_column(), 1)
    assert res.exact and res.dimension == 2


def test_k0q_doubling():
    res = fm_dimension(doubling(), 1)
    assert res.exact and res.dimension == 1


def test_k0q_single_level_counts_summands():
    res = fm_dimension(single_level(4), 1)
    assert res.dimension == 1
    assert res.exact  # no tail: the algebra of the last level, exactly


def test_fm_profile_two_column():
    prof = fm_profile(two_column(), 7)
    assert [(m, r.dimension) for m, r in prof] == [
        (1, 2), (2, 0), (3, 2), (4, 0), (5, 2), (6, 0), (7, 2),
    ]


def test_fm_profile_single_m3():
    prof = dict((m, r.dimension) for m, r in fm_profile(single_level(3), 7))
    assert prof == {1: 1, 2: 0, 3: 1, 4: 0, 5: 1, 6: 0, 7: 0}


def test_worked_example_prefix_only_lower_bound():
    res = fm_dimension(worked_example(), 5, budget=2)
    assert res.exact
    assert res.dimension == 3  # last level (1,3,5,8): sizes 3, 5, 8 survive
    assert res.stabilized_at == 2


def first_level_reaching(d, m, res, probe_to):
    """The first level whose image, by the brute-force oracle, has the whole dimension."""
    return next(k for k in range(1, probe_to - 1) if oracle_truncated_colimit(d, m, k, probe_to) == res.dimension)


def test_stabilized_at_is_the_first_level_reaching_the_dimension():
    # the tail-less worked example is checked on its identity-tailed twin, which the oracle can unroll
    example = worked_example()
    twin = BratteliDiagram(
        example.prefix_levels,
        example.prefix_matrices,
        AffineTail(matrix=identity(4), slack=(0,) * 4),
    )
    for d, probed in [(d, d) for d in (two_column(), doubling(), stationary_identity(3))] + [(example, twin)]:
        for m in (1, 3, 5):
            res = fm_dimension(d, m, budget=12)
            assert res.exact
            [sys] = build_systems(probed, (m,), budget=12)
            probe_to = sys.cycle_start + sys.period * (sys.dims[-1] + 3) + 2
            assert res == fm_dimension(probed, m, budget=12)
            assert res.stabilized_at == first_level_reaching(probed, m, res, probe_to)


def test_invertible_cycle_dimension_equals_kept_count():
    res = fm_dimension(two_column(), 11)
    [sys] = build_systems(two_column(), (11,))
    assert res.dimension == sys.dims[sys.cycle_start - 1]


def test_budget_exceeded_reported():
    d = BratteliDiagram(
        prefix_levels=((1,),),
        prefix_matrices=(),
        tail=AffineTail(matrix=identity(1), slack=(1,)),
    )
    res = fm_dimension(d, 9, budget=3)
    assert not res.exact
    assert res.dimension is None


def test_determinism():
    a = fm_dimension(two_column(), 7)
    b = fm_dimension(two_column(), 7)
    assert a == b


def test_dimension_bounded_by_final_width():
    rng = random.Random(31)
    from generators import random_stationary_tail_diagram

    for _ in range(40):
        d = random_stationary_tail_diagram(rng, max_summands=3, max_levels=3)
        width = len(d.prefix_levels[-1])
        for m in (1, 3, 5):
            assert fm_dimension(d, m).dimension <= width


def test_probe_ranks_nonincreasing_in_probe_level():
    # the rank of the composite out of a fixed level can only drop as the
    # probe level grows
    d = two_column()
    for m in (1, 3):
        previous = None
        for budget in range(4, 10):
            [sys] = build_systems(d, (m,), budget=budget)
            comp = identity(sys.dims[0])
            for mat in sys.maps:
                comp = multiply(mat, comp)
            r = rank(comp)
            if previous is not None:
                assert r <= previous
            previous = r


def test_exact_dimensions_match_naive_oracle_on_examples():
    for d, m in [
        (two_column(), 1),
        (two_column(), 9),
        (doubling(), 1),
        (doubling(), 3),
        (stationary_identity(3), 3),
    ]:
        res = fm_dimension(d, m)
        [sys] = build_systems(d, (m,))
        probe_from = sys.cycle_start
        width = len(d.prefix_levels[-1])
        probe_to = probe_from + (sys.period or 1) * (width + 3)
        assert res.dimension == oracle_truncated_colimit(d, m, probe_from, probe_to)


def test_random_stationary_tails_match_oracle():
    rng = random.Random(2718)
    for _ in range(60):
        width = rng.randint(1, 3)
        tail_rows = []
        for _ in range(width):
            row = [rng.randint(0, 2) for _ in range(width)]
            if all(x == 0 for x in row):
                row[rng.randrange(width)] = 1
            tail_rows.append(row)
        start = tuple(rng.randint(1, 3) for _ in range(width))
        d = BratteliDiagram(
            prefix_levels=(start,),
            prefix_matrices=(),
            tail=AffineTail(matrix=IntMatrix.from_rows(tail_rows), slack=(0,) * width),
        )
        for m in (1, 3):
            res = fm_dimension(d, m, budget=64)
            if not res.exact:
                continue
            [sys] = build_systems(d, (m,), budget=64)
            probe_from = sys.cycle_start
            probe_to = probe_from + (sys.period or 1) * (width + 3)
            assert res.dimension == oracle_truncated_colimit(d, m, probe_from, probe_to)
            assert res.stabilized_at == first_level_reaching(d, m, res, probe_to)


def test_nilpotent_cycle_is_certified_on_powers_not_per_level():
    # degree 3 keeps summands 2 and 3 of (1,3,3): the cycle is [[0,0],[1,0]].
    # Level 1's image keeps rank 1 through one period but dies in the next.
    d = to_diagram(
        parse(
            '{"levels":[[3],[1,3,3]],"matrices":[[[0],[1],[0]]],'
            '"tail":{"matrix":[[1,0,0],[3,0,0],[0,1,0]],"slack":[0,0,0]}}'
        )
    )
    res = fm_dimension(d, 3)
    assert res.exact
    assert res.dimension == 0
    assert res.stabilized_at == 1  # a dimension of 0 is reached at level 1
    assert oracle_truncated_colimit(d, 3, 1, 8) == oracle_truncated_colimit(d, 3, 2, 8) == 0


def test_fm_profile_equals_fm_dimension_field_for_field():
    # the profile's shared colimits must be the ones each degree gets alone
    rng = random.Random(39)
    cases = [(stationary_tail_of_width(rng, w), 64) for w in range(2, 7) for _ in range(2)]
    for _ in range(6):
        levels, matrices = random_prefix(rng)
        cases.append((BratteliDiagram(prefix_levels=tuple(levels), prefix_matrices=tuple(matrices)), 64))
    cases += [(random_growing_tail_diagram(rng), budget) for budget in (1, 2, 3) for _ in range(3)]
    exhausted = 0
    for d, budget in cases:
        profile = fm_profile(d, 39, budget)
        assert profile == [(m, fm_dimension(d, m, budget)) for m in range(1, 40)]
        exhausted += any(not res.exact for _, res in profile)
    assert exhausted >= 3


def test_fm_profile_mixes_exact_and_budget_exhausted_degrees():
    # sizes 1, 2, ..., 10: min(q, h) repeats by level 10 for h <= 9 (m <= 17) only
    d = to_diagram(parse('{"levels":[[1]],"matrices":[],"tail":{"matrix":[[1]],"slack":[1]}}'))
    profile = fm_profile(d, 39, 10)
    assert profile == [(m, fm_dimension(d, m, 10)) for m in range(1, 40)]
    odd = {m: res for m, res in profile if m % 2}
    assert all(res.exact and res.dimension == 1 for m, res in odd.items() if m <= 17)
    assert all(not res.exact and res.dimension is None for m, res in odd.items() if m >= 19)


# functional-graph tails: some degrees' cycle composites have equal sizes but
# different stable powers, so the profile may share a power only by value
SAME_SIZE_COMPOSITES = (
    '{"levels":[[5,4,5,5,2]],"matrices":[],"tail":{"matrix":[[0,0,0,0,1],[0,0,1,0,0],[1,0,0,0,0],[0,0,1,0,0],[0,0,0,1,0]],"slack":[0,0,0,0,0]}}',
    '{"levels":[[1,2,6,6,5]],"matrices":[],"tail":{"matrix":[[0,0,1,0,0],[1,0,0,0,0],[1,0,0,0,0],[0,0,0,1,0],[0,1,0,0,0]],"slack":[0,0,0,0,0]}}',
    '{"levels":[[4,2,2,6,3]],"matrices":[],"tail":{"matrix":[[1,0,0,0,1],[0,0,0,1,0],[1,0,0,0,0],[0,1,0,0,0],[0,0,0,1,1]],"slack":[0,0,0,0,0]}}',
    '{"levels":[[1,5,3,4,6]],"matrices":[],"tail":{"matrix":[[1,0,0,0,0],[0,0,0,0,1],[0,1,0,0,0],[0,0,0,0,1],[0,0,1,0,0]],"slack":[0,0,0,0,0]}}',
)


def test_fm_profile_shares_a_stable_power_only_between_equal_composites():
    for text in SAME_SIZE_COMPOSITES:
        d = to_diagram(parse(text))
        assert fm_profile(d, 13) == [(m, fm_dimension(d, m)) for m in range(1, 14)]


def test_fm_profile_unrolls_the_tail_once(monkeypatch):
    rng = random.Random(1717)
    cases = [two_column(), doubling(), stationary_identity(3)]
    cases += [stationary_tail_of_width(rng, w) for w in (3, 4, 5, 6) for _ in range(3)]
    several = 0
    for d in cases:
        d.validation  # validation steps the tail once; count only the unroll
        steps = []
        step = afk.diagram.tail_step
        monkeypatch.setattr(afk.diagram, "tail_step", lambda t, q: steps.append(q) or step(t, q))
        fm_profile(d, 39)
        monkeypatch.setattr(afk.diagram, "tail_step", step)
        held = {s.levels for _, s, _ in profile_systems(d, range(1, 40, 2))}
        assert len(steps) <= max(held) - d.prefix_len
        several += len(held) > 1
    assert several >= 3  # one unroll per degree would step more than the largest system


def test_profile_systems_sweeps_each_cap_class_once(monkeypatch):
    rng = random.Random(2040)
    cases = [permutation_tail((3, 4, 5, 7))] + [stationary_tail_of_width(rng, w) for w in (6, 8)]
    colimit = afk.colimit._colimit
    for d in cases:
        swept = []
        monkeypatch.setattr(afk.colimit, "_colimit", lambda sys, powers: swept.append(sys) or colimit(sys, powers))
        rows = profile_systems(d, range(1, 40), 512)
        monkeypatch.setattr(afk.colimit, "_colimit", colimit)
        distinct = {id(sys) for _, sys, _ in rows if sys is not None}
        assert len(swept) == len(distinct) < 20  # 20 odd degrees share fewer systems
        assert {id(sys) for sys in swept} == distinct


def test_the_colimit_never_multiplies_or_ranks_an_identity(monkeypatch):
    # per swept class: period - 1 products for the composite, one per stable-power step after
    # the first, and at most one per walk step.  No operand is an identity the colimit built:
    # an I_n (n >= 1; I_0 is the empty matrix) is one of the system's own maps.
    rng = random.Random(2811)
    cases = [stationary_tail_of_width(rng, w) for w in range(3, 9)] + [permutation_tail((3, 4, 5, 7))]
    cases += [to_diagram(parse(text)) for text in SAME_SIZE_COMPOSITES] + [worked_example(), single_level(3)]
    calls, operands, where = Counter(), [], ["walk"]
    multiply, rank, stable_power, colimit = afk.linalg.multiply, afk.linalg.rank, afk.linalg.stable_power, afk.colimit._colimit

    def counted_multiply(a, b):
        calls["multiply"] += 1
        operands.extend((a, b))
        return multiply(a, b)

    def counted_rank(a):
        calls[where[-1]] += 1
        operands.append(a)
        return rank(a)

    def powered(m):
        where.append("power")
        try:
            return stable_power(m)
        finally:
            where.pop()

    def swept(sys, powers):
        before = calls.copy()
        operands.clear()
        res = colimit(sys, powers)
        spent = calls - before
        assert spent["multiply"] <= (sys.period or 1) - 1 + max(spent["power"] - 1, 0) + spent["walk"], sys
        identities = [a for a in operands if a.rows and a == identity(a.rows)]
        assert all(any(a is m for m in sys.maps) for a in identities), sys
        return res

    monkeypatch.setattr(afk.linalg, "multiply", counted_multiply)
    monkeypatch.setattr(afk.linalg, "rank", counted_rank)
    monkeypatch.setattr(afk.linalg, "stable_power", powered)
    monkeypatch.setattr(afk.colimit, "_colimit", swept)
    for d in cases:
        fm_profile(d, 39)
    assert calls["multiply"] and calls["power"] and calls["walk"]


def test_fm_profile_validates_the_diagram_once(monkeypatch):
    calls = []
    validate = afk.diagram.validate
    monkeypatch.setattr(afk.diagram, "validate", lambda d: calls.append(d) or validate(d))
    fm_profile(two_column(), 39)
    assert len(calls) == 1


def test_closed_form_matches_every_exact_degree():
    # F_m = rank(D^n) + #{copy-cycle strands of size >= (m+1)/2}, read off the tail matrix alone
    rng = random.Random(1709)
    makers = (
        random_growing_tail_diagram,
        random_pinned_tail_diagram,
        random_stationary_tail_diagram,
        random_permutation_tail_diagram,
        lambda r: to_diagram(random_document(r)),
    )
    cases = [(make(rng), DEFAULT_BUDGET) for make in makers for _ in range(150)]
    cases += [(stationary_tail_of_width(rng, w), DEFAULT_BUDGET) for w in range(4, 9) for _ in range(6)]
    cases.append((permutation_tail((3, 4, 5, 7)), 1024))
    compared = 0
    for d, budget in cases:
        top = 2 * max(d.prefix_levels[-1]) + 5
        for m, res in fm_profile(d, top, budget):
            if res.exact:
                assert res.dimension == oracle_closed_form_fm(d, m), (d, m)
                compared += m % 2
    assert compared >= 20000


def _exact_invariants(d):
    """F_1..F_21 of `d`, each a dimension or None where it is not exact.

    The K0 rank `k0q` reports is F_1, the first of them.
    """
    return [res.dimension if res.exact else None for _, res in fm_profile(d, 21)]


def test_exact_fm_and_k0q_survive_diagram_moves():
    # a move keeps the algebra: it may make an inconclusive value exact, never change an exact one
    rng = random.Random(2402)
    families = (
        random_growing_tail_diagram,
        random_pinned_tail_diagram,
        random_stationary_tail_diagram,
        random_permutation_tail_diagram,
        lambda rng: to_diagram(random_document(rng)),
        random_functional_graph_tail_diagram,
    )
    compared, moved_by = 0, Counter()
    for family in families:
        for _ in range(60):
            d = family(rng)
            if not d.validation.ok:
                continue
            before = _exact_invariants(d)
            for move in MOVES:
                moved = move(d, rng)
                if moved is None:
                    continue
                assert moved.validation.ok, (move.__name__, d)
                after = _exact_invariants(moved)
                pairs = [(old, new) for old, new in zip(before, after) if old is not None and new is not None]
                assert all(old == new for old, new in pairs), (move.__name__, before, after, d)
                compared += len(pairs)
                moved_by[move.__name__] += 1
    # the L-th power applies only where a copy cycle has length 2 to 12: mostly the permutation family
    least = {move.__name__: 30 if move is power_tail else 50 for move in MOVES}
    assert compared >= 20000 and all(moved_by[name] >= n for name, n in least.items()), (compared, moved_by)
