"""coxkit benchmark: run one workload and print its metrics.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload straight-sweep --seed 1 --seconds 50 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer ones; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
lines before it give each metric with its unit and base, the digest of the
queries run and the environment.  See perfbench/README.md for the workloads
and for which layer metric should move which end-to-end metric.

The workload runs in a child process (session.py) with a fixed
PYTHONHASHSEED, because early exits in coxkit depend on set iteration order,
and under a wall-clock limit, so that a hang is reported as a failed run.
Load is one closed-loop client: one process, one thread, each query sent
after the previous one returns.  Timings are scaled to a nominal machine
speed measured in the same run by a fixed reference computation
(reference.py); the unscaled values are printed as well.
"""

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import reference
from spans import TRACED

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HASH_SEED = "0"
SETUP_PROBES = 7
IMPORT_PROBES = 3
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
WORKLOADS = ("straight-sweep", "conjugacy-stream")
# counters measured at span boundaries or from answers (see spans.Tracer)
COUNTERS = ("core.braid_class.words", "core.memo_entries", "core.multiply.memo_hits",
            "conjugacy.certificate_steps", "conjugacy.has_cent_prime.multiplies",
            "oracle.enumerate_elements.elements")


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def run_process(cmd, timeout):
    """Run a child in its own process group; kill the group on timeout.
    Returns (stdout, stderr, seconds from start to exit)."""
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{' '.join(cmd[1:3])}: exceeded the {timeout:.0f} s wall-clock limit")
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited with {proc.returncode}: {err.strip()[-500:]}")
    return out, err, time.monotonic() - start


def session(args, timeout):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "session.py"), *map(str, args)]
    return json.loads(run_process(cmd, timeout)[0].splitlines()[-1])


def setup_seconds(workload, seed):
    """Spawn-to-first-query time of one fresh workload process, and the time
    of the reference computation that process ran next."""
    start = time.monotonic()
    report = session(["--workload", workload, "--seed", seed, "--setup-only"], 30)
    return report["ready"] - start, report["ref_s"]


def tail_percentile(values):
    """The highest of TAIL_LADDER with at least 10 samples beyond it (nearest
    rank): (percentile, value, samples beyond)."""
    ordered = sorted(values)
    for pct in reversed(TAIL_LADDER):
        rank = math.ceil(len(ordered) * pct / 100)
        if len(ordered) - rank >= 10:
            return pct, ordered[rank - 1], len(ordered) - rank
    raise BenchError(f"{len(ordered)} samples are too few for a tail percentile")


def end_to_end(args):
    # the workload child runs first, so RUSAGE_CHILDREN holds its peak alone
    report = session(["--workload", args.workload, "--seed", args.seed,
                      "--seconds", args.seconds], args.seconds + 100)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    probes = [setup_seconds(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    raw_setup = statistics.median(seconds for seconds, _ in probes)
    # each set-up time is scaled by the reference run in its own process
    setup = statistics.median(seconds * reference.NOMINAL_S / ref_s for seconds, ref_s in probes)
    # timings are scaled to the machine speed at which the reference
    # computation takes reference.NOMINAL_S (see reference.py)
    scale = reference.NOMINAL_S / report["ref_s"]
    raw, passes = report["best"], report["passes"]
    best = [t * scale for t in raw]
    pct, tail, beyond = tail_percentile(best)
    n = report["attempted"]
    metrics = {
        "setup_s": (setup, f"median of {SETUP_PROBES} fresh processes, "
                    f"{raw_setup:.4f} s unscaled"),
        "ops_per_s": (len(best) / sum(best), f"{len(best)} queries in {sum(best):.3f} s, each "
                      f"the best of {passes} passes, {len(raw) / sum(raw):.3f} 1/s unscaled "
                      f"({n} queries in {report['timed_s']:.3f} s of wall time overall)"),
        "latency_p50_ms": (statistics.median(best) * 1e3,
                           f"{len(best)} samples, each the best of {passes} passes, "
                           f"{statistics.median(raw) * 1e3:.4f} ms unscaled"),
        "latency_tail_ms": (tail * 1e3, f"p{pct:g} of {len(best)} samples, "
                            f"{beyond} beyond it, each the best of {passes} passes, "
                            f"{tail / scale * 1e3:.4f} ms unscaled"),
        "speed_scale": (scale, f"{reference.NOMINAL_S * 1e3:g} ms nominal / "
                        f"{report['ref_s'] * 1e3:.3f} ms, the mean of the best of "
                        f"{passes} passes of {report['ref_positions']} reference computations"),
        "decided_ratio": (report["decided"] / n, f"{report['decided']}/{n} decided"),
        "failed_ratio": (report["failed"] / n, f"{report['failed']}/{n} failed"),
        "peak_rss_mb": (peak_kb / 1024, "max RSS of the workload process tree"),
    }
    return report, metrics, {"query_digest": report["digest"]}


def cli_probes():
    """Interpreter start and the import costs of coxkit.cli (-X importtime)."""
    interp = [run_process([sys.executable, "-c", "pass"], 30)[2] for _ in range(IMPORT_PROBES)]
    imports = {"coxkit.cli": [], "networkx": [], "numpy": []}
    for _ in range(IMPORT_PROBES):
        err = run_process([sys.executable, "-X", "importtime", "-c", "import coxkit.cli"], 30)[1]
        seen = set()
        for line in err.splitlines():
            fields = line.split("|")
            name = fields[-1].strip() if len(fields) == 3 else None
            if name in imports and name not in seen:
                seen.add(name)
                imports[name].append(int(fields[1]) / 1e6)
    if any(len(v) != IMPORT_PROBES for v in imports.values()):
        raise BenchError("-X importtime did not report coxkit.cli, networkx and numpy")
    return {
        "cli.interpreter_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports["coxkit.cli"]),
        "cli.import.networkx_s": statistics.median(imports["networkx"]),
        "cli.import.numpy_s": statistics.median(imports["numpy"]),
    }


def layer_values(spans):
    calls, self_s, total_s, counts = (spans[k] for k in ("calls", "self_s", "total_s", "counts"))
    values = {}
    for name in set(calls) | {f"{m}.{f}" for m, fs in TRACED.items() for f in fs}:
        values[f"{name}.calls"] = calls.get(name, 0)
        values[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in COUNTERS:
        values[name] = counts.get(name, 0)
    multiplies = calls.get("core.multiply", 0)
    values["core.multiply.memo_hit_ratio"] = (
        counts.get("core.multiply.memo_hits", 0) / multiplies if multiplies else 0.0)
    values["cli.parse_system_file_s"] = total_s.get("cli.parse_system_file", 0.0)
    values["cli.handler_s"] = total_s.get("cli.handler", 0.0)
    return values


def per_layer(args):
    fixed = ["--workload", args.workload, "--seed", args.seed, "--passes", 1]
    # untraced and traced one-pass runs alternate, so drift hits both alike
    runs = [session(fixed + ["--trace"] * (i % 2), 40) for i in range(4)]
    base, traced = runs[0::2], runs[1::2]
    values = [layer_values(t["spans"]) for t in traced]
    count_names = sorted(set(COUNTERS) | {n for v in values for n in v if n.endswith(".calls")})
    mismatched = [n for n in count_names if values[0].get(n) != values[1].get(n)]
    metrics = {}
    for name in values[0]:
        if name in count_names or name.endswith("_ratio"):
            metrics[name] = (values[0][name], "count in one pass" if name in count_names else "")
        else:
            metrics[name] = (statistics.mean(v[name] for v in values), "mean of 2 traced runs")
    traced_s = statistics.mean(sum(t["best"]) for t in traced)
    base_s = statistics.mean(sum(b["best"]) for b in base)
    metrics["trace_overhead_ratio"] = (
        traced_s / base_s, f"{traced_s:.3f} s traced / {base_s:.3f} s untraced query time, "
        "means of 2")
    metrics.update((k, (v, f"median of {IMPORT_PROBES}")) for k, v in cli_probes().items())
    report = {key: sum(r[key] for r in runs) for key in ("attempted", "failed")}
    report["failures"] = [f for r in runs for f in r["failures"]]
    extra = {"query_digest": base[0]["digest"],
             "digests_match": all(r["digest"] == base[0]["digest"] for r in runs),
             "count_mismatches": mismatched}
    if mismatched or not extra["digests_match"]:
        report["failed"] += 1
        report["failures"].append(f"layer counts differ between traced runs: {mismatched}")
    return report, metrics, extra


def environment(seed):
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    commit = None
    try:
        lines = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                               capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        lines = []
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        commit = lines[1]
    source = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "coxkit"))):
        dirnames.sort()
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, filename), "rb") as handle:
                source.update(filename.encode() + b"\0" + handle.read())
    return {
        "python": platform.python_version(), "numpy": version("numpy"),
        "networkx": version("networkx"), "nproc": os.cpu_count(), "git_commit": commit,
        "source_sha256": source.hexdigest(), "seed": int(seed), "PYTHONHASHSEED": HASH_SEED,
        "client": "closed loop, 1 process, 1 thread",
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed = str(args.seed)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    if not os.path.isfile(os.path.join(SRC, "coxkit", "__init__.py")):
        sys.exit(f"no coxkit sources under {SRC}: run from the root of a coxkit checkout")
    try:
        report, metrics, extra = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        sys.exit(f"benchmark run failed: {exc}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, base) in sorted(metrics.items()):
        unit = next((m["unit"] for m in declared if m["name"] == name), "")
        print(f"  {name:42s} {value:14.6f} {unit:6s} {base}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")
    print("inputs " + json.dumps(extra))
    print("env " + json.dumps(environment(args.seed)))
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.exit(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
