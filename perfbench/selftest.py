#!/usr/bin/env python3
"""Self-test of the benchmark's tracer and of its pinned counts.

    python3 perfbench/selftest.py          # check
    python3 perfbench/selftest.py --pin    # record perfbench/pinned.json

1. On one query of each workload, the tracer is installed and the query runs
   under cProfile.  The tracer's call count of every traced function must
   equal cProfile's count for the original function; a call that reaches the
   original through a binding the tracer missed shows up as a shortfall.
2. The traced benchmark runs twice per workload on the default seed, each
   time in a fresh process.  The counts that do not depend on the machine,
   the input digest and the answer digest must agree between the two runs and
   with ``pinned.json``.  ``--pin`` writes them there instead of comparing.

Exit status 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import subprocess
import sys

import run

# the query of each workload that the profile check runs
PROFILED = {
    "corpus": "corpus",
    "explicit-scale": "explicit-0",
    "family-drift": "model-0:decompose",
    "ibar-lp": "ibar-0",
}


def profile_check(workload: str) -> list:
    import workloads
    from tracer import Tracer

    query = next(q for q in workloads.WORKLOADS[workload](run.DEFAULT_SEED)
                 if q.name == PROFILED[workload])
    tracer = Tracer()
    tracer.install()
    prof = cProfile.Profile()
    try:
        prof.enable()
        tracer.run_query(0, query.run)
        prof.disable()
    finally:
        tracer.uninstall()
    wrapped = tracer.call_counts()
    profiled = pstats.Stats(prof).stats
    out = []
    for name, fn in tracer.originals.items():
        code = fn.__code__
        calls = profiled.get((code.co_filename, code.co_firstlineno, code.co_name),
                             (0, 0))[1]
        if calls != wrapped.get(name, 0):
            out.append(f"{workload}: {name} traced {wrapped.get(name, 0)} calls, "
                       f"cProfile {calls}")
    print(f"{workload:15s} profile check: {len(tracer.originals)} functions, "
          f"{sum(wrapped.values()) - wrapped.get('query', 0)} traced calls, "
          f"{len(out)} mismatches")
    return out


def traced_record(workload: str) -> dict:
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed",
           str(run.DEFAULT_SEED), "--seconds", "0", "--trace", "1"]
    subprocess.run(cmd, cwd=run.ROOT, check=True, capture_output=True, timeout=600)
    path = run.OUT / f"{workload}-seed{run.DEFAULT_SEED}-trace1.json"
    record = json.loads(path.read_text())
    keep = ("inputs_sha256", "answers_sha256", "counts")
    return {k: record[k] for k in keep} | {"correct": record["result"]["correct"]}


def pin_check(pin: bool) -> list:
    out, pins = [], {}
    old = json.loads(run.PINNED.read_text()) if run.PINNED.exists() else {}
    if pin:  # the runs must not judge their answers by the pins being replaced
        run.PINNED.unlink(missing_ok=True)
    for workload in run.WORKLOAD_NAMES:
        first, second = traced_record(workload), traced_record(workload)
        correct = [first.pop("correct"), second.pop("correct")]
        if not all(correct):
            out.append(f"{workload}: a traced run reported incorrect answers")
        if first != second:
            out.append(f"{workload}: two traced runs disagree: {first} != {second}")
        pins[workload] = first
        if not pin and old.get(workload) != first:
            diff = {k: (old.get(workload, {}).get(k), v) for k, v in first.items()
                    if old.get(workload, {}).get(k) != v}
            out.append(f"{workload}: differs from pinned.json (pinned, now): {diff}")
        print(f"{workload:15s} pinned counts: two runs "
              f"{'agree' if first == second else 'DISAGREE'}")
    if pin:
        run.PINNED.write_text(json.dumps(old if out else pins, indent=1, sort_keys=True) + "\n")
        print(f"{'kept' if out else 'wrote'} {run.PINNED}")
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pin", action="store_true", help="write pinned.json")
    args = p.parse_args()
    if not (run.SRC / "trajhedge" / "__init__.py").is_file():
        print(f"error: no trajhedge sources under {run.SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.SRC), str(run.HERE)]
    problems = []
    for workload in run.WORKLOAD_NAMES:
        problems += profile_check(workload)
    problems += pin_check(args.pin)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
