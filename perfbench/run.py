#!/usr/bin/env python3
"""trajhedge benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py                  # every workload, untraced and traced

Run from the root of a source checkout; the library is imported from ``src/``.
One process, one thread, one query at a time (closed loop).  A run

1. sets up: the package import, timed in a fresh interpreter, and the seeded
   input generation and rendering (``setup_s`` is the median of one set-up
   before the run and one before each pass);
2. runs every query once, untimed, and checks each exact answer against
   independent routes (the gate); the canonical answers become the reference;
3. with ``--trace 0``, repeats passes over all queries for ``--seconds`` and
   reports the end-to-end metrics; with ``--trace 1``, spends half the time
   untraced and half with the layer tracer installed, and reports the
   per-layer metrics and the tracing overhead.

Every timed answer is compared with the reference outside the timed interval.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the run
(input and answer digests, sample counts, and in traced runs every span) goes
to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
PINNED = HERE / "pinned.json"

WORKLOAD_NAMES = ("corpus", "explicit-scale", "family-drift", "ibar-lp")
DEFAULT_SEED = 0
MIN_SAMPLES = 100  # ten samples beyond p90; the workloads are sized to reach it

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "pass_share": "share",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import trajhedge\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time ``import trajhedge`` in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def setup(workload: str, seed: int):
    """One set-up: the package import in a fresh interpreter, then the input
    generation and rendering in this one.  Returns the queries and the time."""
    seconds = import_seconds()
    sys.path[:0] = [p for p in (str(SRC), str(HERE)) if p not in sys.path]
    import workloads

    t0 = time.perf_counter()
    queries = workloads.WORKLOADS[workload](seed)
    return queries, seconds + time.perf_counter() - t0


# per-entry latencies of the corpus, filled while cli.main runs it
ENTRY_LATENCIES: list[float] = []


def time_corpus_entries() -> None:
    """Time each corpus entry as one query, from outside the library."""
    from trajhedge import corpus

    entries = corpus._entries

    def timed(fn):
        def run():
            t0 = time.perf_counter()
            try:
                return fn()
            finally:
                ENTRY_LATENCIES.append(time.perf_counter() - t0)
        return run

    corpus._entries = lambda: [(name, timed(fn)) for name, fn in entries()]


class Gate:
    """Reference answers of one untimed pass, and the queries whose check failed."""

    def __init__(self, queries):
        self.canon, self.failures = [], {}
        for i, q in enumerate(queries):
            try:
                ans = q.run()
                c = q.canon(ans)
                bad = q.check(ans)
            except Exception as exc:  # an answer that raises is a failed query
                c, bad = None, [f"raised {exc!r}"]
            if c is not None and "INTERVAL" in c:
                bad = bad + ["returned an interval"]
            if bad:
                self.failures[q.name] = bad
            self.canon.append(c)

    def failed(self, i: int, q, ans) -> bool:
        if q.name in self.failures or isinstance(ans, Exception):
            return True
        return q.canon(ans) != self.canon[i]


@dataclass
class Pass:
    wall: float
    cpu: float
    samples: list  # query latencies; a corpus query gives one per entry
    by_query: list  # latency of each query
    attempted: int
    failed: int
    spans: tuple  # (first, last) span index of a traced pass


def one_pass(queries, gate: Gate, tracer=None) -> Pass:
    gc.collect()
    first = len(tracer.spans) if tracer else 0
    answers, latencies = [], []
    c0, t0 = time.process_time(), time.perf_counter()
    for i, q in enumerate(queries):
        ENTRY_LATENCIES.clear()
        s = time.perf_counter()
        try:
            ans = tracer.run_query(i, q.run) if tracer else q.run()
        except Exception as exc:  # counted as a failed query below
            ans = exc
        latencies.append(ENTRY_LATENCIES[:] or [time.perf_counter() - s])
        answers.append(ans)
    wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    last = len(tracer.spans) if tracer else 0
    attempted = failed = 0
    for i, (q, ans, lat) in enumerate(zip(queries, answers, latencies)):
        attempted += len(lat)
        if gate.failed(i, q, ans):
            failed += len(lat)
    samples = [x for lat in latencies for x in lat]
    return Pass(wall, cpu, samples, [sum(lat) for lat in latencies], attempted, failed,
                (first, last))


def measure(queries, gate: Gate, seconds: float, tracer=None, between=None) -> list:
    """Whole passes until ``seconds`` of passes have run (at least one).

    ``between`` runs before each pass, outside the measured time.
    """
    passes, spent = [], 0.0
    while not passes or spent < seconds:
        if between:
            between()
        t0 = time.perf_counter()
        passes.append(one_pass(queries, gate, tracer))
        spent += time.perf_counter() - t0
    return passes


def end_to_end(passes, setups: list) -> dict:
    samples = [x for p in passes for x in p.samples]
    attempted = sum(p.attempted for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "query_p50_ms": 1000 * statistics.median(samples),
        "query_p90_ms": 1000 * statistics.quantiles(samples, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_share": 1 - sum(p.failed for p in passes) / attempted,
    }


def by_size(queries, passes) -> list:
    """Median latency per tree size (ibar-lp: the i_bar column of the size ladder)."""
    rows = {}
    for i, q in enumerate(queries):
        rows.setdefault(q.nodes, []).extend(p.by_query[i] for p in passes)
    return [{"nodes": n, "samples": len(v), "median_ms": 1000 * statistics.median(v)}
            for n, v in sorted(rows.items())]


def run_one(args) -> int:
    queries, first_setup = setup(args.workload, args.seed)
    setups = [first_setup]
    import workloads
    from tracer import LAYER_METRICS, PINNED_COUNTS, Tracer

    if args.workload == "corpus":
        time_corpus_entries()
    inputs_sha = workloads.sha256("\n".join(t for q in queries for t in q.texts))
    gate = Gate(queries)
    answers_sha = workloads.sha256(
        "\n".join(f"{q.name} {c}" for q, c in zip(queries, gate.canon)))
    pinned = json.loads(PINNED.read_text()).get(args.workload, {}) if PINNED.exists() else {}
    problems = [f"{name}: {'; '.join(why)}" for name, why in gate.failures.items()]
    if args.seed == DEFAULT_SEED and pinned and pinned["answers_sha256"] != answers_sha:
        problems.append("answers differ from the pinned answers of the default seed")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs_sha256": inputs_sha, "answers_sha256": answers_sha,
              "queries": len(queries), "problems": problems}
    if args.trace:
        half = args.seconds / 2
        plain = measure(queries, gate, half)
        tracer = Tracer()
        tracer.install()
        try:
            traced = measure(queries, gate, half, tracer)
        finally:
            tracer.uninstall()
        per_pass = [tracer.layer_metrics(*p.spans) for p in traced]
        values = {m: statistics.median_low(pm[m] for pm in per_pass) for m in LAYER_METRICS}
        values["trace.overhead_ratio"] = (statistics.median(p.wall for p in traced)
                                          / statistics.median(p.wall for p in plain))
        units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
        counts = {m: per_pass[0][m] for m in PINNED_COUNTS}
        record["counts"] = counts
        record["counts_repeat_in_run"] = all(
            {m: pm[m] for m in PINNED_COUNTS} == counts for pm in per_pass)
        if args.seed == DEFAULT_SEED and pinned:
            record["counts_match_pinned"] = counts == pinned.get("counts")
        passes = plain + traced
    else:
        # set-up samples spread over the run meet the same machine load as the passes
        passes = measure(queries, gate, args.seconds,
                         between=lambda: setups.append(setup(args.workload, args.seed)[1]))
        values, units = end_to_end(passes, setups), END_TO_END
        record["samples"] = sum(len(p.samples) for p in passes)
        record["pass_wall_s"] = [p.wall for p in passes]
        record["setup_samples_s"] = setups
        if record["samples"] < MIN_SAMPLES:
            print(f"warning: {record['samples']} latency samples; p90 rests on fewer "
                  "than ten beyond it", file=sys.stderr)
        if args.workload == "ibar-lp":
            record["by_size"] = by_size(queries, passes)
    record["passes"] = len(passes)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units},
    }
    record["result"] = result
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    if args.trace:
        record["spans"] = tracer.dump()
    (OUT / name).write_text(json.dumps(record))

    for line in problems:
        print(f"problem: {line}", file=sys.stderr)
    for m, unit in units.items():
        print(f"{args.workload:15s} {m:32s} {values[m]:14.6g} {unit}")
    for row in record.get("by_size", ()):
        print(f"{args.workload:15s} nodes={row['nodes']:<5d} samples={row['samples']:<4d} "
              f"median_ms={row['median_ms']:.3f}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    ok = True
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(done.stderr)
            lines = done.stdout.splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} trace={trace}: exit code {done.returncode}")
                ok = False
                continue
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{workload:15s} correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one workload (default: all, untraced and traced)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "trajhedge" / "__init__.py").is_file():
        print(f"error: no trajhedge sources under {SRC}", file=sys.stderr)
        return 2
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
