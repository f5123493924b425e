"""Run one workload in this process and print one JSON report line.

Usage: python3 perfbench/session.py --workload NAME --seed N
           (--seconds S | --passes K [--trace] | --setup-only)

run.py starts this script as a child process with PYTHONPATH pointing at the
checkout's ``src`` and a fixed PYTHONHASHSEED.  Every pass runs the same
queries in a fresh session.  With ``--seconds`` it repeats passes until S
seconds of timed work and at least MIN_PASSES passes; with ``--passes`` it runs
exactly K passes, which is what makes traced counts repeatable.
``--setup-only`` stops where the first timed query would start and reports
that moment on the monotonic clock, and the best of REF_SAMPLES reference
computations run after it.

Each query's reported time is its best over the passes.  On shared virtual
machines speed changes by 10-40% from one few-second stretch to the next, and
the slowdowns only ever add time, so the best of a few cold repetitions is
the steadiest estimate of the program's own cost.  Slower spells can last for
minutes, so after every session the process also times REF_SAMPLES runs of
the fixed reference computation (reference.py), and keeps the best time of
each of these runs over the passes exactly as it does for the queries; run.py
scales the query times by their mean.
"""

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from collections import Counter

import reference

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_PASSES = 2
REF_SAMPLES = 2


def keep_best(best, position, seconds):
    if position == len(best):
        best.append(seconds)
    else:
        best[position] = min(best[position], seconds)


class Recorder:
    """Runs and times one query at a time, keeping the best time of the query
    at the same position over all passes, and hands the outcomes of a session
    to ``check`` when the workload ends that session, then times the
    reference computation, keeping its best times in ``ref_best`` the same
    way."""

    def __init__(self, keys, best, check, ref_best):
        self.keys = keys
        self.best = best
        self.check = check
        self.ref_best = ref_best
        self.records = []
        self.position = 0
        self.ref_position = 0
        self.memo_entries = 0

    def __call__(self, key, fn, meta):
        position = self.position
        self.position += 1
        if position == len(self.keys):
            self.keys.append(key)
        elif self.keys[position] != key:
            raise RuntimeError(f"pass differs from the first one at query {position}")
        start = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as exc:  # a raised or refused query counts as failed
            result, error = None, f"{type(exc).__name__}: {exc}"
        keep_best(self.best, position, time.perf_counter() - start)
        self.records.append((key, result, error, meta))
        return result

    def end_session(self, memo_entries=0):
        """Check the answers of a session that has ended, and collect it now
        (memo caches hold reference cycles: system -> element -> system)
        rather than inside a later query."""
        self.memo_entries += memo_entries
        records, self.records = self.records, []
        self.check(records)
        records = None
        gc.collect()
        for _ in range(REF_SAMPLES):
            keep_best(self.ref_best, self.ref_position, reference.sample())
            self.ref_position += 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--seconds", type=float)
    mode.add_argument("--passes", type=int)
    mode.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import coxkit

    expected_home = os.path.join(ROOT, "src", "coxkit")
    if os.path.dirname(os.path.abspath(coxkit.__file__)) != expected_home:
        sys.exit(f"coxkit imported from {coxkit.__file__}, not {expected_home}")
    from checks import CheckFailed
    from spans import Tracer
    import workloads

    workload = {"straight-sweep": workloads.StraightSweep,
                "conjugacy-stream": workloads.ConjugacyStream}[args.workload]()
    session = workload.prepare(args.seed)
    ready = time.monotonic()
    if args.setup_only:
        ref_s = min(reference.sample() for _ in range(REF_SAMPLES))
        print(json.dumps({"ready": ready, "ref_s": ref_s}))
        return

    tracer = Tracer() if args.trace else None
    keys, best, failures, ref_best = [], [], [], []
    timed = 0.0
    attempted = failed = decided = passes = 0
    layer_counts = Counter()

    def check(records):
        nonlocal attempted, failed, decided
        if tracer is not None:
            tracer.remove()
        for key, result, error, meta in records:
            attempted += 1
            if error is None:
                try:
                    decided += workload.check(result, meta, tally)
                except CheckFailed as exc:
                    error = str(exc)
            if error is not None:
                failed += 1
                failures.append(f"{key}: {error}")
        if tracer is not None:
            tracer.install()

    while True:
        if passes:
            session = workload.prepare(args.seed)
        tally = Counter()
        query = Recorder(keys, best, check, ref_best)
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        workload.run(session, query)
        timed += time.perf_counter() - start
        if tracer is not None:
            tracer.remove()
        layer_counts["core.memo_entries"] = query.memo_entries
        passes += 1
        try:
            workload.finish(tally)
        except CheckFailed as exc:
            failed += 1
            failures.append(str(exc))
        layer_counts["conjugacy.certificate_steps"] = tally["conjugacy.certificate_steps"]
        session = query = None
        gc.collect()

        if args.passes is not None:
            if passes == args.passes:
                break
        elif timed >= args.seconds and passes >= MIN_PASSES:
            break

    if tracer is not None:
        # the README's CLI examples, each in a fresh traced process, give the
        # cli layer's spans; their stdout must match README byte for byte
        for argv, expected in workloads.README_CASES:
            probe = workloads.run_cli(argv, ROOT)
            tracer.merge(probe["spans"], prefix="cli.")
            attempted += 1
            if probe["code"] != 0 or probe["stdout"] != expected:
                failed += 1
                failures.append(f"cli {' '.join(argv)}: exit {probe['code']}, "
                                f"stdout {probe['stdout']!r}")
        layer_counts.update(tracer.counts)
    report = {
        "ready": ready, "best": best, "timed_s": timed, "passes": passes,
        "ref_s": sum(ref_best) / len(ref_best), "ref_positions": len(ref_best),
        "attempted": attempted, "failed": failed, "decided": decided,
        "failures": failures[:20],
        "digest": hashlib.sha256("\n".join(keys).encode()).hexdigest(),
    }
    if tracer is not None:
        report["spans"] = tracer.snapshot()
        report["spans"]["counts"] = dict(layer_counts)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
