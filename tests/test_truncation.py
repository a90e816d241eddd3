import random

import pytest

from afk.colimit import profile_systems
from afk.diagram import AffineTail, BratteliDiagram, materialize
from afk.linalg import IntMatrix, multiply
from afk.truncation import TruncatedSystem, d
from cases import build_systems, doubling, identity, permutation_tail, stationary_identity, two_column, worked_example
from generators import (
    random_growing_tail_diagram,
    random_pinned_tail_diagram,
    random_prefix,
    random_stationary_tail_diagram,
    random_valid_triple,
    stationary_tail_of_width,
)


def kept(profile, m):
    """0-based indices of the summands surviving in degree m."""
    return tuple(j for j, p in enumerate(profile) if d(m, p))


def test_d_examples():
    assert d(3, 2) == 1
    assert d(2, 100) == 0
    assert d(5, 3) == 1
    assert d(7, 3) == 0
    assert d(1, 1) == 1


def test_d_rejects_nonpositive_degree():
    with pytest.raises(ValueError):
        d(0, 4)


def test_truncate_worked_example_m1_full():
    dg = worked_example()
    out = build_systems(dg, (1,))[0].maps[0]
    assert out == dg.prefix_matrices[0]
    # (a,b,c) -> (a, a+b, 2a+c, b+2c)
    assert out.to_rows() == [[1, 0, 0], [1, 1, 0], [2, 0, 1], [0, 1, 2]]


def test_truncate_worked_example_m3():
    out = build_systems(worked_example(), (3,))[0].maps[0]
    # (b,c) -> (b, c, b+2c)
    assert out.to_rows() == [[1, 0], [0, 1], [1, 2]]


def test_truncate_worked_example_m5():
    out = build_systems(worked_example(), (5,))[0].maps[0]
    # c -> (0, c, 2c)
    assert out.to_rows() == [[0], [1], [2]]


def test_an_even_degree_has_no_system_and_the_exact_zero_row():
    for dg in (stationary_identity(2), two_column(), worked_example()):
        [(m, sys, res)] = profile_systems(dg, (4,))
        assert m == 4 and sys is None
        assert res.exact and res.dimension == 0 and res.stabilized_at is None and res.note


def test_truncate_all_kept_is_identity_transformation():
    # degree 1 keeps every summand, so the system's maps are the diagram's matrices
    rng = random.Random(5)
    for _ in range(20):
        dg = BratteliDiagram(*map(tuple, random_prefix(rng)))
        sys = build_systems(dg, (1,))[0]
        assert sys.maps == dg.prefix_matrices
        assert sys.dims == tuple(map(len, dg.prefix_levels))


def test_build_system_two_column_high_degree():
    # sizes 1,2,3,... and 1,2,4,7,...; degree 9 keeps sizes >= 5
    # the clamped sizes min(q, 5) first repeat at level 6, so the system ends there
    [sys] = build_systems(two_column(), (9,), budget=8)
    assert sys.dims == (0, 0, 0, 1, 2, 2)
    assert (sys.cycle_start, sys.period) == (5, 1)
    assert sys.maps[-1] == IntMatrix.from_rows([[1, 0], [1, 1]])
    assert sys.maps[-2] == IntMatrix.from_rows([[0], [1]])


def test_build_system_m1_keeps_everything():
    dg = worked_example()
    [sys] = build_systems(dg, (1,), budget=8)
    assert sys.dims == (3, 4)
    assert sys.maps == dg.prefix_matrices
    assert sys.cycle_start is None and not sys.budget_exceeded


def test_build_system_small_stationary_node():
    [sys] = build_systems(stationary_identity(2), (5,), budget=12)
    assert all(dim == 0 for dim in sys.dims)
    assert sys.cycle_start is not None


def test_even_degrees_among_odd_ones_get_no_system():
    rows = profile_systems(two_column(), (1, 2, 3))
    assert [sys is None for _, sys, _ in rows] == [False, True, False]
    assert rows[1][2].dimension == 0 and rows[1][2].exact


def test_kept_mask_monotone_in_degree():
    rng = random.Random(9)
    for _ in range(100):
        profile = tuple(rng.randint(1, 9) for _ in range(rng.randint(1, 5)))
        for m in (1, 3, 5, 7):
            higher = set(kept(profile, m + 2))
            lower = set(kept(profile, m))
            assert higher <= lower


def test_truncation_functorial_under_composition():
    # on valid adjacent pairs, sizes never shrink along edges, so no flow from
    # a kept source ever threads a deleted middle summand; truncating the
    # composite equals composing the truncations
    rng = random.Random(71)
    checked = 0
    for _ in range(400):
        src, phi1, mid, phi2, dst = random_valid_triple(rng)
        dg = BratteliDiagram((src, mid, dst), (phi1, phi2))
        for m, sys in zip((1, 3, 5, 7), build_systems(dg, (1, 3, 5, 7))):
            profiles = dg.prefix_levels
            for k in range(len(sys.maps) - 1):
                composite = multiply(dg.matrix_after(k + 2), dg.matrix_after(k + 1))
                lhs = composite.submatrix(kept(profiles[k + 2], m), kept(profiles[k], m))
                assert multiply(sys.maps[k + 1], sys.maps[k]) == lhs
                checked += 1
    assert checked >= 200


def test_build_system_budget_exceeded_flag():
    # growth is linear (one new unit per level), so a tiny budget cannot see
    # the degree-9 mask settle
    dg = BratteliDiagram(
        prefix_levels=((1,),),
        prefix_matrices=(),
        tail=AffineTail(matrix=identity(1), slack=(1,)),
    )
    [sys] = build_systems(dg, (9,), budget=3)
    assert sys.budget_exceeded
    assert sys.cycle_start is None


def _reference_system(dg, m, budget):
    """The degree-m system from its definition: min(q, h) scanned over `materialize`."""
    h = (m + 1) // 2
    profiles, matrices, cycle = dg.prefix_levels, dg.prefix_matrices, None
    if dg.tail is not None:
        levels, joins = map(list, materialize(dg, max(budget, dg.prefix_len)))
        seen = {}
        for level in range(dg.prefix_len, budget + 1):
            key = tuple(min(x, h) for x in levels[level - 1])
            if key in seen:
                cycle = (seen[key], level - seen[key])
                profiles, matrices = levels[:level], joins[: level - 1]
                break
            seen[key] = level
    return TruncatedSystem(
        dims=tuple(len(kept(q, m)) for q in profiles),
        maps=tuple(
            phi.submatrix(kept(profiles[k + 1], m), kept(profiles[k], m)) for k, phi in enumerate(matrices)
        ),
        cycle_start=cycle and cycle[0],
        period=cycle and cycle[1],
        budget_exceeded=dg.tail is not None and cycle is None,
    )


def test_build_systems_from_one_unroll_match_each_degree_alone():
    # every degree is cut from the unroll clamped at the largest one
    rng = random.Random(6106)
    makers = (
        random_growing_tail_diagram,
        random_pinned_tail_diagram,
        random_stationary_tail_diagram,
        lambda r: BratteliDiagram(*map(tuple, random_prefix(r))),
    )
    cases = [(make(rng), budget) for make in makers for _ in range(6) for budget in (1, 2, 3, 5, 9, 40)]
    cases += [(dg, budget) for dg in (two_column(), doubling(), worked_example()) for budget in (1, 4, 64)]
    # many caps cut these alike, so they share systems
    cases += [(permutation_tail((3, 4, 5, 7)), budget) for budget in (1, 64, 512)]
    wide = [stationary_tail_of_width(rng, w) for w in (6, 8) for _ in range(3)]
    cases += [(dg, budget) for dg in wide for budget in (1, 4, 64)]
    seen = set()
    shared = 0
    for dg, budget in cases:
        for degrees in (range(1, 40, 2), (9, 3, 3, 21), (5,)):
            got = build_systems(dg, degrees, budget)
            assert got == [_reference_system(dg, m, budget) for m in degrees]
            seen.update((s.cycle_start is not None, s.budget_exceeded) for s in got)
            shared += len({id(s) for s in got}) < len({(m + 1) // 2 for m in degrees})
    assert seen == {(True, False), (False, True), (False, False)}  # cycles, exhausted, no tail
    assert shared >= 200


def test_build_systems_refuse_a_negative_degree_and_skip_the_even_ones():
    assert build_systems(two_column(), (1, 3, 4))[2] is None
    with pytest.raises(ValueError):
        build_systems(two_column(), (3, -1))
