import random
import re

import pytest

from afk.colimit import fm_profile
from afk.diagram import (
    AffineTail,
    BratteliDiagram,
    DiagramError,
    EmptyLevel,
    LevelOutOfRange,
    ShapeMismatch,
    SizeOverflowAtEdge,
    ValidationProblem,
    ensure_valid,
    materialize,
    tail_step,
    unroll_to_repeat,
    validate,
)
from afk.io import export_dot
from afk.kstability import KChainWitness, classify, telescope
from afk.linalg import DimensionMismatch, IntMatrix, multiply
from cases import build_systems, constant_column, identity, single_level, two_column, worked_example
from generators import (
    random_growing_tail_diagram,
    random_pinned_tail_diagram,
    random_prefix,
    random_stationary_tail_diagram,
)
from oracles import coordinate_classes


def compose_multiplicities(d, frm, to, seed=None):
    """seed . (connecting matrices from level `frm` up to `to`)."""
    profiles, matrices = map(list, materialize(d, to))
    out = identity(len(profiles[frm - 1]))
    for phi in matrices[frm - 1 :]:
        out = multiply(phi, out)
    return out if seed is None else multiply(seed, out)


def predecessors(d, level, summand):
    """(source summand, multiplicity) of the DOT edges into one node."""
    edge = re.compile(rf'"L{level - 1}S(\d+)" -> "L{level}S{summand}" \[label="(\d+)"\]')
    return [(int(j), int(mult)) for j, mult in edge.findall(export_dot(d, budget=level))]


def test_validate_worked_example_unital():
    report = validate(worked_example())
    assert report.ok
    assert report.edge_unital == (True,)
    assert report.injective


def test_validate_single_level():
    report = validate(single_level(1))
    assert report.ok
    assert report.injective
    assert report.edge_unital == ()


def test_validate_size_overflow():
    d = BratteliDiagram(
        prefix_levels=((2,), (1,)),
        prefix_matrices=(IntMatrix.from_rows([[1]]),),
    )
    report = validate(d)
    assert not report.ok
    assert report.problems[0].kind == "size-overflow"
    with pytest.raises(SizeOverflowAtEdge) as exc:
        ensure_valid(d)
    assert exc.value.level == 1
    assert exc.value.summand == 1


def test_validate_is_pure_and_idempotent():
    d = two_column()
    assert validate(d) == validate(d)


@pytest.mark.parametrize(
    "call",
    [
        lambda d: build_systems(d, (3,)),
        lambda d: fm_profile(d, 5),
        lambda d: telescope(d, 2),
        lambda d: classify(d),
    ],
    ids=["build_systems", "fm_profile", "telescope", "classify"],
)
def test_every_entry_point_refuses_an_invalid_diagram(call):
    overflow = BratteliDiagram(
        prefix_levels=((2,), (1,)),
        prefix_matrices=(IntMatrix.from_rows([[1]]),),
        tail=AffineTail(matrix=identity(1), slack=(0,)),
    )
    zero_row = BratteliDiagram(
        prefix_levels=((1, 1),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[1, 1], [0, 0]]), slack=(0, 1)),
    )
    for d in (overflow, zero_row):
        for _ in range(2):  # the cached report refuses again
            with pytest.raises(DiagramError):
                call(d)


def test_construction_rejects_bad_shapes():
    with pytest.raises(ShapeMismatch):
        BratteliDiagram(
            prefix_levels=((1, 2), (1, 3)),
            prefix_matrices=(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]),),
        )
    with pytest.raises(EmptyLevel):
        BratteliDiagram(prefix_levels=((),), prefix_matrices=())
    with pytest.raises(EmptyLevel):
        BratteliDiagram(prefix_levels=((0,),), prefix_matrices=())
    with pytest.raises(ShapeMismatch):
        AffineTail(matrix=IntMatrix.from_rows([[1, 0]]), slack=(0,))
    with pytest.raises(ShapeMismatch):
        AffineTail(matrix=identity(2), slack=(0,))


@pytest.mark.parametrize("build, error", [
    (lambda: IntMatrix(2, 2, (1, 2, 3)), DimensionMismatch),
    (lambda: IntMatrix(-1, 0, ()), DimensionMismatch),
    (lambda: IntMatrix.from_rows([[1, 2], [3]]), DimensionMismatch),
    (lambda: AffineTail(identity(1), (-1,)), ShapeMismatch),
    (lambda: AffineTail(IntMatrix.from_rows([[-1]]), (0,)), ShapeMismatch),
    (lambda: BratteliDiagram((), ()), EmptyLevel),
    (lambda: BratteliDiagram(((1,), (2,)), ()), ShapeMismatch),
    (lambda: BratteliDiagram(((1,), (2,)), (IntMatrix.from_rows([[-1]]),)), ShapeMismatch),
    (lambda: BratteliDiagram(((1,),), (), AffineTail(identity(2), (0, 0))), ShapeMismatch),
])
def test_records_with_invariants_reject_bad_shapes(build, error):
    with pytest.raises(error):
        build()


def test_records_are_immutable_tuples():
    d = two_column()
    verdict = classify(d)
    records = [
        (d.tail.matrix, "rows"), (d.tail, "slack"), (d, "tail"), (d.validation, "ok"),
        (ValidationProblem("k", None, 1, "m"), "kind"), (verdict, "status"),
        (KChainWitness(1, 1, (), 1, (1,)), "k"), (fm_profile(d, 1)[0][1], "dimension"),
        (build_systems(d, (3,))[0], "dims"), (telescope(d, 2), "prefix_levels"),
    ]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        assert tuple(record) == tuple(getattr(record, f) for f in record._fields)
    # a NamedTuple compares like the tuple of its fields
    assert IntMatrix(1, 1, (5,)) == (1, 1, (5,))
    assert not hasattr(IntMatrix(1, 1, (5,)), "__dict__")
    assert d.validation is d.validation


def test_tail_zero_row_reported():
    # with slack 0 the first tail size of summand 2 is 0, with slack 1 it is 1: one problem either way
    for slack in (0, 1):
        d = BratteliDiagram(
            prefix_levels=((1, 1),),
            prefix_matrices=(),
            tail=AffineTail(matrix=IntMatrix.from_rows([[0, 1], [0, 0]]), slack=(0, slack)),
        )
        report = validate(d)
        assert not report.ok
        assert [(p.kind, p.level, p.summand) for p in report.problems] == [("tail-zero-row", None, 2)]


def test_validation_injective_is_the_zero_column_scan():
    rng = random.Random(30)
    draws = [BratteliDiagram(*map(tuple, random_prefix(rng))) for _ in range(40)]
    for family in (random_growing_tail_diagram, random_pinned_tail_diagram, random_stationary_tail_diagram):
        draws += [family(rng) for _ in range(40)]
    seen = set()
    for d in draws:
        mats = [*d.prefix_matrices, *([d.tail.matrix] if d.tail else [])]
        want = all(any(m.to_rows()[i][j] for i in range(m.rows)) for m in mats for j in range(m.cols))
        assert d.validation.injective == want, d
        seen.add(want)
    assert seen == {False, True}


def test_materialize_two_column():
    profiles, matrices = map(list, materialize(two_column(), 4))
    assert profiles == [(1, 1), (2, 2), (3, 4), (4, 7)]
    phi = IntMatrix.from_rows([[1, 0], [1, 1]])
    assert matrices == [phi, phi, phi]


def test_materialize_prefix_only_identity():
    d = worked_example()
    profiles, matrices = map(list, materialize(d, 2))
    assert profiles == [(1, 2, 3), (1, 3, 5, 8)]
    assert matrices == list(d.prefix_matrices)
    with pytest.raises(LevelOutOfRange):
        materialize(d, 3)


def test_materialize_doubling_tail():
    d = BratteliDiagram(
        prefix_levels=((1,),),
        prefix_matrices=(),
        tail=AffineTail(matrix=IntMatrix.from_rows([[2]]), slack=(0,)),
    )
    profiles, _ = materialize(d, 5)
    assert [p[0] for p in profiles] == [1, 2, 4, 8, 16]


def test_materialize_prefix_property():
    d = two_column()
    for k in range(1, 8):
        a, ma = map(list, materialize(d, k))
        b, mb = map(list, materialize(d, k + 1))
        assert b[:k] == a
        assert mb[: k - 1] == ma


def test_tail_step_is_the_plain_affine_step():
    # q' = phi.q + slack row by row: zero entries, multiplicities up to 10**6, sizes past 1000 digits
    rng = random.Random(2403)
    for _ in range(300):
        n = rng.randint(1, 6)
        rows = [[rng.choice((0, 0, 1, rng.randint(2, 10**6))) for _ in range(n)] for _ in range(n)]
        slack = tuple(rng.choice((0, 1, rng.randint(2, 10**6))) for _ in range(n))
        q = tuple(rng.choice((1, rng.randint(2, 10**6), rng.randint(10**1000, 10**1100))) for _ in range(n))
        got = tail_step(AffineTail(IntMatrix.from_rows(rows), slack), q)
        assert type(got) is tuple
        assert got == tuple(sum(a * b for a, b in zip(row, q)) + s for row, s in zip(rows, slack))


def _first_repeat(profiles, key, prefix_len):
    """(last level scanned, cycle): the first repeated key from the last prefix level on."""
    keys = []
    for level in range(prefix_len, len(profiles) + 1):
        k = key(profiles[level - 1])
        if k in keys:
            start = keys.index(k) + prefix_len
            return level, (start, level - start)
        keys.append(k)
    return len(profiles), None


def test_unroll_to_repeat_matches_a_scan_over_materialize():
    rng = random.Random(3021)
    makers = (random_growing_tail_diagram, random_pinned_tail_diagram, random_stationary_tail_diagram)
    cases = 0
    for _ in range(12):
        for make in makers:
            d = make(rng)
            bounded, _ = coordinate_classes(d.tail.matrix.to_rows(), d.tail.slack)
            keys = [lambda q, c=c: tuple(min(x, c) for x in q) for c in range(1, 7)]
            keys.append(lambda q: tuple(q[i] for i in bounded))
            for budget in range(1, 41):
                profiles = list(materialize(d, max(budget, d.prefix_len))[0])
                for key in keys:
                    got_profiles, cycle = unroll_to_repeat(d, key, budget)
                    # a repeat ends the unroll; otherwise it keeps every level it scanned
                    end, expected = _first_repeat(profiles, key, d.prefix_len)
                    assert cycle == expected
                    assert got_profiles == profiles[:end]
                    cases += cycle is not None
    assert cases >= 1000
    # no tail, nothing to unroll: the prefix, whatever the budget
    rng = random.Random(3022)
    for d in [worked_example()] + [BratteliDiagram(*map(tuple, random_prefix(rng))) for _ in range(12)]:
        for budget in (1, d.prefix_len, d.prefix_len + 1, 64):
            assert unroll_to_repeat(d, tuple, budget) == (list(d.prefix_levels), None)


def test_compose_identity_at_same_level():
    d = worked_example()
    assert compose_multiplicities(d, 2, 2) == identity(4)


def test_compose_two_column_square():
    assert compose_multiplicities(two_column(), 1, 3) == IntMatrix.from_rows([[1, 0], [2, 1]])


def test_compose_worked_example_single_step():
    d = worked_example()
    assert compose_multiplicities(d, 1, 2) == d.prefix_matrices[0]


def test_compose_transitivity():
    d = two_column()
    rng = random.Random(3)
    for _ in range(25):
        a = rng.randint(1, 6)
        c = rng.randint(a, 8)
        b = rng.randint(a, c)
        left = compose_multiplicities(d, a, c)
        right = multiply(compose_multiplicities(d, b, c), compose_multiplicities(d, a, b))
        assert left == right
        seed = IntMatrix.from_rows([[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)])
        assert compose_multiplicities(d, a, c, seed) == multiply(seed, left)


def test_predecessors_worked_example():
    assert predecessors(worked_example(), 2, 2) == [(1, 1), (2, 1)]


def test_predecessors_orphan_empty():
    d = BratteliDiagram(
        prefix_levels=((1,), (1, 1)),
        prefix_matrices=(IntMatrix.from_rows([[1], [0]]),),
    )
    assert predecessors(d, 2, 2) == []
    assert predecessors(d, 2, 1) == [(1, 1)]


def test_predecessors_two_column():
    d = two_column()
    for level in (2, 3, 4, 5):
        assert predecessors(d, level, 2) == [(1, 1), (2, 1)]


def test_equal_size_chain_edges_have_multiplicity_one():
    # forced by the size inequality: an edge between equal-size summands
    # saturates the target, so its multiplicity is exactly 1
    rng = random.Random(11)
    for _ in range(50):
        n1 = rng.randint(1, 4)
        n2 = rng.randint(1, 4)
        src = tuple(rng.randint(1, 5) for _ in range(n1))
        mat = [[rng.randint(0, 2) for _ in range(n1)] for _ in range(n2)]
        dst = tuple(
            max(1, sum(mat[i][j] * src[j] for j in range(n1)) + rng.randint(0, 3))
            for i in range(n2)
        )
        d = BratteliDiagram(
            prefix_levels=(src, dst),
            prefix_matrices=(IntMatrix.from_rows(mat),),
        )
        if not validate(d).ok:
            continue
        for i in range(n2):
            for j in range(n1):
                if mat[i][j] > 0 and src[j] == dst[i]:
                    assert mat[i][j] == 1


def test_injective_flag():
    assert two_column().validation.injective
    assert constant_column().validation.injective
    d = BratteliDiagram(
        prefix_levels=((1, 1), (3,)),
        prefix_matrices=(IntMatrix.from_rows([[1, 0]]),),
    )
    assert not d.validation.injective
