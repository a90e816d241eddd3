"""Tests of the benchmark itself: PYTHONPATH=src python3 -m pytest -q bench/test_bench.py"""

import json
import shutil
import subprocess
import sys

import pytest

import corpus
import run
from checks import KNOWN_DEFECTS, check
from tracer import Tracer


def _ops(workload, limit):
    _, _, ops = run.prepare(workload, corpus.COMMITTED_SEED)
    return ops[:limit]


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_committed_corpus_regenerates_from_its_seed(workload):
    committed = corpus.load(corpus.committed_path(workload))
    assert corpus.generate(workload, corpus.COMMITTED_SEED)["digest"] == committed["digest"]


def test_another_seed_gives_another_corpus():
    assert corpus.generate("cli-small", 1)["digest"] != corpus.generate("cli-small", 2)["digest"]


def test_traced_counts_repeat_exactly():
    cli, _, _ = run.prepare("cli-small", corpus.COMMITTED_SEED)
    ops = _ops("cli-small", 40) + _ops("tail-deep", 8) + _ops("profile-wide", 3)
    counts = []
    for _ in range(2):
        loop, metrics, _ = run.per_layer(cli, ops)
        assert set(loop.failures) <= KNOWN_DEFECTS
        counts.append({k: v for k, v in metrics.items() if run.PER_LAYER[k] != "ms"})
    assert counts[0] == counts[1]
    assert counts[0]["diagram.materialize_calls"] > 0 and counts[0]["linalg.rank_calls"] > 0


def test_tracer_restores_bindings_and_skips_missing_names(monkeypatch):
    import afk.cli
    import afk.linalg

    original = afk.cli.fm_profile
    monkeypatch.delattr(afk.linalg, "image_through")
    with Tracer() as t:
        assert afk.cli.fm_profile is not original
    assert afk.cli.fm_profile is original
    assert t.get("linalg", "image_through", "calls") == 0


def _report(argv, doc):
    cli, _, _ = run.prepare("cli-small", corpus.COMMITTED_SEED)
    _, code, out = run.invoke(cli.main, argv + ["--input", "-"], json.dumps(doc))
    return code, json.loads(out)


def test_checks_catch_wrong_reports():
    doc = corpus.TWO_COLUMN
    ref = dict(corpus.validity(doc), family="k-stable", fm={"1": 2, "3": 2})

    code, report = _report(["fm", "--m", "3"], doc)
    assert check(["fm", "--m", "3"], doc, ref, code, json.dumps(report)) == []
    report["result"]["dimension"] += 1
    assert check(["fm", "--m", "3"], doc, ref, code, json.dumps(report))[0][0] == "exact-mismatch"

    code, report = _report(["export-dot"], doc)
    report["result"]["dot"] = report["result"]["dot"].replace("->", "--", 1)
    assert check(["export-dot"], doc, ref, code, json.dumps(report))[0][0] == "dot-shape"

    pinned = corpus.CONSTANT_COLUMN
    code, report = _report(["kstable"], pinned)
    pref = dict(corpus.validity(pinned), family="not-k-stable", fm={})
    assert check(["kstable"], pinned, pref, code, json.dumps(report)) == []
    report["result"]["witness"]["k"] = 2
    assert check(["kstable"], pinned, pref, code, json.dumps(report))[0][0] == "witness"


def test_lower_bound_above_the_exact_value_is_counted():
    doc = {"levels": [[2, 3]], "matrices": [], "tail": {"matrix": [[1, 1], [1, 1]], "slack": [1, 1]}}
    ref = dict(corpus.validity(doc), family=None, fm={"9": corpus.reference_fm(doc, 9, corpus._oracle())})
    code, report = _report(["fm", "--m", "9", "--budget", "2"], doc)
    assert code == 2 and ref["fm"]["9"] == 1
    assert check(["fm", "--m", "9", "--budget", "2"], doc, ref, code, json.dumps(report)) == [
        ("lower-bound-overclaim", "F_9: lower bound 2 > exact 1")
    ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli-small", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert done.returncode != 0 and not done.stdout.strip()


def test_latencies_are_scaled_to_the_reference_speed():
    ref = run.PROBE_REF_S
    assert run.scaled([0.010, 0.020], [ref, ref]) == [0.010, 0.020]
    assert run.scaled([0.010, 0.020], [2 * ref, 2 * ref]) == [0.005, 0.010]


def test_known_defects_are_kept_apart_from_failures():
    doc = {"levels": [[2, 3]], "matrices": [], "tail": {"matrix": [[1, 1], [1, 1]], "slack": [1, 1]}}
    ref = dict(corpus.validity(doc), family=None, fm={"9": 1})
    cli, _, _ = run.prepare("cli-small", corpus.COMMITTED_SEED)
    text = json.dumps(doc)
    ops = [(["fm", "--m", "9", "--budget", "2", "--input", "-"], text, doc, ref),
           (["fm", "--m", "9", "--budget", "2", "--input", "-"], text, doc, dict(ref, fm={"9": 0}))]
    loop = run.Loop(cli, ops)
    loop.run_pass()
    assert (loop.known_defect_ops, loop.failed_ops) == (2, 0)
    ops[1] = (["fm", "--m", "9", "--input", "-"], text, doc, dict(ref, fm={"9": 0}))
    loop = run.Loop(cli, ops)
    loop.run_pass()
    assert (loop.known_defect_ops, loop.failed_ops) == (1, 1)
