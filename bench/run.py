#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the afk command line.

    python3 bench/run.py --workload profile-wide --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seconds 30      # every workload, as a table

Run from anywhere inside a checkout; the program is imported from its
`src/`.  One client drives `afk.cli.main` in-process, closed loop, over the
seeded corpus of one workload, and checks every report against the corpus
references.  `--trace 0` times whole passes over the corpus (as many as
fill about `--seconds`) and prints the end-to-end metrics; `--trace 1` runs
one untraced and one traced pass and prints the per-layer metrics.  The
last line of stdout is one JSON object; the line before it is the full
record of the run.

End-to-end times are given at a fixed reference speed of the host.  A short
pure-Python speed probe runs before every timed call, and each call's time
is scaled by the probe's reference time over its median time around that
call.  A child process (set-up and cold-start samples) is scaled the same
way by the start of a bare interpreter just before and after it.  On a
shared host whose speed swings by 1.5-2x for minutes at a time, that is
what lets two runs of the same code agree.  The raw wall times stay in the
record.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import corpus as corpora  # noqa: E402
from checks import KNOWN_DEFECTS, check  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SETUP_PROBES = 11
COLD_COMMANDS = (
    ["validate"], ["fm", "--m", "3"], ["fm-profile", "--max-m", "9"], ["k0q"],
    ["kstable"], ["telescope", "--min-dim", "3"], ["export-dot"],
)
COLD_ROUNDS = 3
DRIFT_ITERATIONS = 2_000_000
PROBE_ITERATIONS = 1_000
PROBE_REF_S = 250e-6  # the speed probe's time at the reference host speed
SPEED_WINDOW = 16  # calls on each side whose probes scale a call's latency
BARE_START_REF_S = 0.045  # `python -c pass` at the reference host speed
PROBE_TIMEOUT = 120

END_TO_END = {
    "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms", "setup_s": "s",
    "peak_rss_mb": "MB", "cold_start_ms": "ms",
}
PER_LAYER = {
    "cli.self_ms": "ms", "cli.stdout_bytes": "bytes",
    "io.self_ms": "ms", "io.parse_ms": "ms", "io.digest_ms": "ms",
    "io.export_dot_ms": "ms", "io.export_dot_bytes": "bytes",
    "diagram.self_ms": "ms", "diagram.validate_ms": "ms", "diagram.validate_calls": "count",
    "diagram.materialize_ms": "ms", "diagram.materialize_calls": "count",
    "diagram.levels_materialized": "count",
    "truncation.self_ms": "ms", "truncation.build_system_ms": "ms",
    "truncation.build_system_calls": "count", "truncation.useful_level_ratio": "ratio",
    "colimit.self_ms": "ms", "colimit.calls": "count",
    "linalg.self_ms": "ms", "linalg.rank_ms": "ms", "linalg.rank_calls": "count",
    "linalg.multiply_ms": "ms", "linalg.multiply_calls": "count",
    "linalg.image_through_ms": "ms", "linalg.image_through_calls": "count",
    "linalg.max_entry_bits": "bits",
    "kstability.self_ms": "ms", "kstability.find_chain_ms": "ms", "kstability.telescope_ms": "ms",
    "kstability.classify_self_ms": "ms", "kstability.classify_calls": "count",
    "trace.wall_ms": "ms", "trace.overhead_ms": "ms",
}


# --- corpus and set-up ------------------------------------------------------


def ensure_corpus(workload, seed):
    """Make the corpus of a fresh seed (with its references) in a child process."""
    path = corpora.corpus_path(ROOT, workload, seed)
    try:
        corpora.load(path)
        return
    except (OSError, ValueError):
        pass
    cmd = [sys.executable, str(HERE / "run.py"), "--build-corpus", "--workload", workload, "--seed", str(seed)]
    subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT, cwd=ROOT)


def prepare(workload, seed):
    """The set-up a timed run pays: import the program, load the corpus and its references."""
    sys.path.insert(0, str(ROOT / "src"))
    import afk.cli

    corpus = corpora.load(corpora.corpus_path(ROOT, workload, seed))
    texts = [json.dumps(doc) for doc in corpus["documents"]]
    ops = [
        (op["argv"] + ["--input", "-"], texts[op["doc"]], corpus["documents"][op["doc"]],
         corpus["references"][op["doc"]])
        for op in corpus["ops"]
    ]
    return afk.cli, corpus, ops


_PROBE_TABLE = dict.fromkeys(range(97), 0)
_PROBE_ROW = list(range(64))


def speed_probe():
    """Time of a fixed snippet of dict, list and int work.

    It creates no objects the cyclic collector tracks, so it neither triggers
    a collection nor moves one into the calls it is timed between.
    """
    table, row = _PROBE_TABLE, _PROBE_ROW
    acc = 0
    start = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        k = (i * 7) % 97
        table[k] = (table[k] + i) & 0xFFFF
        acc += row[i & 63] * k
    return time.perf_counter() - start


def scaled(latencies, probes):
    """Each latency at the reference speed, by the median probe of the calls around it."""
    return [
        spent * PROBE_REF_S / statistics.median(probes[max(0, i - SPEED_WINDOW) : i + SPEED_WINDOW + 1])
        for i, spent in enumerate(latencies)
    ]


def bare_start():
    """Wall time of starting and ending a bare interpreter."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, capture_output=True, cwd=ROOT, timeout=PROBE_TIMEOUT)
    return time.perf_counter() - start


def setup_sample(workload, seed):
    """Wall time from spawning a fresh interpreter until it is ready to time its first call."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT) as child:
        try:
            line = child.stdout.readline()
            spent = time.perf_counter() - start
            child.wait(timeout=PROBE_TIMEOUT)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
    if line.strip() != b"ready" or child.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return spent


def cold_start_sample(command):
    """Wall time of `python -m afk.cli <command>` on one small document, in ms."""
    cmd = [sys.executable, "-m", "afk.cli", *command, "--input", "-"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    done = subprocess.run(cmd, input=json.dumps(corpora.TWO_COLUMN).encode(), capture_output=True,
                          env=env, cwd=ROOT, timeout=PROBE_TIMEOUT)
    spent = 1000 * (time.perf_counter() - start)
    if done.returncode not in (0, 2):
        raise RuntimeError(f"cold start of {command[0]} exited {done.returncode}")
    return spent


class Probes:
    """Set-up and cold-start samples, spread evenly over the timed run.

    Each probe is a child process run between two timed calls, so the probes
    see the same machine as the calls do, not just its state at the start.
    A bare interpreter started just before and after each child scales its time.
    """

    def __init__(self, workload, seed, seconds):
        plan = [(i / SETUP_PROBES, "setup", None) for i in range(SETUP_PROBES)]
        cold = [c for _ in range(COLD_ROUNDS) for c in COLD_COMMANDS]
        plan += [(i / len(cold), "cold", c) for i, c in enumerate(cold)]
        self.plan = [(kind, arg) for _, kind, arg in sorted(plan, key=lambda p: p[0])]
        self.total = len(self.plan)
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.samples = {"setup": [], "cold": []}
        self.raw = {"setup": [], "cold": []}
        self.start = time.perf_counter()

    def _run_until(self, done):
        while self.plan and self.total - len(self.plan) < done:
            kind, arg = self.plan.pop(0)
            before = bare_start()
            if kind == "setup":
                spent = setup_sample(self.workload, self.seed)
            else:
                spent = cold_start_sample(arg)
            bare = (before + bare_start()) / 2
            self.raw[kind].append(spent)
            self.samples[kind].append(spent * BARE_START_REF_S / bare)

    def poll(self):
        self._run_until(self.total * (time.perf_counter() - self.start) / self.seconds)

    def finish(self):
        self._run_until(self.total)
        return self.samples


def drift_seconds():
    """A fixed pure-Python loop, kept with each record to show machine drift."""
    start = time.perf_counter()
    acc = 0
    for i in range(DRIFT_ITERATIONS):
        acc += i & 7
    return time.perf_counter() - start


# --- the closed loop --------------------------------------------------------


def invoke(main, argv, text):
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code = main(argv)
            except SystemExit:  # argparse rejected the flags
                code = -1
            spent = time.perf_counter() - start
    finally:
        sys.stdin = saved
    return spent, code, out.getvalue()


class Loop:
    """Runs the ops through `cli.main`, checking every report; the first pass fixes the expected bytes.

    A call whose only failures are known defects of the program (`KNOWN_DEFECTS`)
    is counted in `known_defect_ops`, any other failing call in `failed_ops`.
    """

    def __init__(self, cli, ops, probe=False):
        self.cli = cli
        self.ops = ops
        self.probe = probe
        self.latencies: list[float] = []
        self.probes: list[float] = []  # a speed probe before each call, if `probe`
        self.failures: Counter = Counter()
        self.examples: list[str] = []
        self.failed_ops = 0
        self.known_defect_ops = 0
        self.stdout_bytes = 0
        self._first: list = []  # (report digest, failures) of each op in the first pass

    def run_op(self, i):
        argv, text, doc, ref = self.ops[i]
        if self.probe:
            self.probes.append(speed_probe())
        spent, code, out = invoke(self.cli.main, argv, text)  # looked up per call, so traced when wrapped
        self.latencies.append(spent)
        self.stdout_bytes += len(out.encode())
        digest = hashlib.sha256(out.encode()).digest()
        if len(self._first) <= i:
            fails = check(argv, doc, ref, code, out)
            self._first.append((digest, fails))
        elif digest != self._first[i][0]:
            fails = [("nondeterministic", "report differs from the first pass")]
        else:
            fails = self._first[i][1]
        if fails:
            if all(kind in KNOWN_DEFECTS for kind, _ in fails):
                self.known_defect_ops += 1
            else:
                self.failed_ops += 1
            for kind, message in fails:
                self.failures[kind] += 1
                if len(self.examples) < 5:
                    self.examples.append(f"{' '.join(argv[:-2])}: {kind}: {message}")
        return spent

    def run_pass(self, between=lambda: None):
        spent = 0.0
        for i in range(len(self.ops)):
            spent += self.run_op(i)
            between()
        return spent


def latency_metrics(latencies):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
    }


def end_to_end(cli, ops, seconds, probes):
    loop = Loop(cli, ops, probe=True)
    first = loop.run_pass(probes.poll)
    for _ in range(max(1, round(seconds / first)) - 1):
        loop.run_pass(probes.poll)
    metrics = latency_metrics(scaled(loop.latencies, loop.probes))
    raw = {f"raw_{name}": value for name, value in latency_metrics(loop.latencies).items()}
    extra = {
        "passes": len(loop.latencies) // len(ops),
        "timed_s": sum(loop.latencies),
        "host_speed": PROBE_REF_S / statistics.median(loop.probes),
        **raw,
    }
    return loop, metrics, extra


def per_layer(cli, ops):
    """One pass untraced and one traced, interleaved op by op (alternating which goes
    first) so that both see the same machine and the difference is the tracing overhead."""
    plain, traced, t = Loop(cli, ops), Loop(cli, ops), Tracer()
    plain_wall = traced_wall = 0.0
    for i in range(len(ops)):
        if i % 2:
            plain_wall += plain.run_op(i)
        with t:
            traced_wall += traced.run_op(i)
        if not i % 2:
            plain_wall += plain.run_op(i)
    c = t.counters
    metrics = {
        "cli.stdout_bytes": traced.stdout_bytes,
        "io.parse_ms": t.get("io", "parse", "own"),
        "io.digest_ms": t.get("io", "input_digest", "own"),
        "io.export_dot_ms": t.get("io", "export_dot", "own"),
        "io.export_dot_bytes": c["export_dot_bytes"],
        "diagram.validate_ms": t.get("diagram", "validate", "own"),
        "diagram.validate_calls": t.get("diagram", "validate", "calls"),
        "diagram.materialize_ms": t.get("diagram", "materialize", "own"),
        "diagram.materialize_calls": t.get("diagram", "materialize", "calls"),
        "diagram.levels_materialized": c["levels_materialized"],
        "truncation.build_system_ms": t.get("truncation", "build_system", "own"),
        "truncation.build_system_calls": t.get("truncation", "build_system", "calls"),
        "truncation.useful_level_ratio": c["useful_levels"] / c["system_levels"] if c["system_levels"] else 0.0,
        "colimit.calls": t.get("colimit", "colimit_dimension", "calls"),
        "linalg.rank_ms": t.get("linalg", "rank", "own"),
        "linalg.rank_calls": t.get("linalg", "rank", "calls"),
        "linalg.multiply_ms": t.get("linalg", "multiply", "own"),
        "linalg.multiply_calls": t.get("linalg", "multiply", "calls"),
        "linalg.image_through_ms": t.get("linalg", "image_through", "own"),
        "linalg.image_through_calls": t.get("linalg", "image_through", "calls"),
        "linalg.max_entry_bits": c["max_entry_bits"],
        "kstability.find_chain_ms": t.get("kstability", "find_infinite_k_chain", "own"),
        "kstability.telescope_ms": t.get("kstability", "telescope", "own"),
        "kstability.classify_self_ms": t.get("kstability", "classify", "self"),
        "kstability.classify_calls": t.get("kstability", "classify", "calls"),
        "trace.wall_ms": 1000 * traced_wall,
        "trace.overhead_ms": 1000 * (traced_wall - plain_wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = t.layer_self_ms(layer)
    plain.latencies += traced.latencies
    plain.failures += traced.failures
    plain.failed_ops += traced.failed_ops
    plain.known_defect_ops += traced.known_defect_ops
    return plain, metrics, {"passes": 2, "untraced_wall_s": plain_wall}


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run(args):
    ensure_corpus(args.workload, args.seed)
    cli, corpus, ops = prepare(args.workload, args.seed)
    samples = {}
    if args.trace:
        loop, metrics, extra = per_layer(cli, ops)
        units = PER_LAYER
    else:
        probes = Probes(args.workload, args.seed, args.seconds)
        loop, metrics, extra = end_to_end(cli, ops, args.seconds, probes)
        samples = probes.finish()
        metrics["setup_s"] = statistics.median(samples["setup"])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["cold_start_ms"] = statistics.median(samples["cold"])
        extra["raw_setup_s"] = statistics.median(probes.raw["setup"])
        extra["raw_cold_start_ms"] = statistics.median(probes.raw["cold"])
        units = END_TO_END
    if loop.known_defect_ops:
        print(f"bench: {loop.known_defect_ops} of {len(loop.latencies)} calls hit a known defect "
              f"({', '.join(sorted(KNOWN_DEFECTS))}); see the record", file=sys.stderr)
    result = {
        "correct": loop.failed_ops == 0,
        "attempted": len(loop.latencies),
        "failed": loop.failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "corpus_digest": corpus["digest"],
        "python": platform.python_version(),
        "src_lines": src_lines(),
        "samples": len(loop.latencies),
        "fail_share": (loop.failed_ops + loop.known_defect_ops) / len(loop.latencies),
        "known_defect_failures": loop.known_defect_ops,
        "failures": dict(loop.failures),
        "failure_examples": loop.examples,
        "setup_samples_s": samples.get("setup"),
        "cold_start_samples_ms": samples.get("cold"),
        "drift_loop_s": drift_seconds(),
        **extra,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Every workload in its own process, printed as one table."""
    rows, merged = [], {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in corpora.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT, check=True, timeout=900)
        *_, record, result = (json.loads(line) for line in done.stdout.decode().strip().splitlines()[-2:])
        record = record["record"]
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
            rows.append(f"{workload:<13} {name:<32} {metric['value']:>14.4f} {metric['unit']}")
        rows.append(f"{workload:<13} {'fail_share':<32} {record['fail_share']:>14.4f} "
                    f"({result['failed']} failed, {record['known_defect_failures']} known defects"
                    f" of {result['attempted']})")
    print("\n".join(rows))
    print(json.dumps(merged, sort_keys=True))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=corpora.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=corpora.COMMITTED_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="timed work per run, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--build-corpus", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "afk" / "cli.py").is_file():
        print(f"bench: no afk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.build_corpus:
        corpora.write(corpora.generate(args.workload, args.seed), corpora.corpus_path(ROOT, args.workload, args.seed))
        return 0
    if args.setup_probe:
        prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
