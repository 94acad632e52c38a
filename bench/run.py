"""Benchmark of the cuemoments CLI.

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 30 --trace 0

A closed loop: one client in one worker process sends one query at a time
through ``cuemoments.cli.main(argv)`` in process. The driver runs worker
passes one after another, each a fresh process over the seed's whole query
list, until ``--seconds`` have passed and at least three passes ran. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics.
Answers are checked here, outside the timed region.

Times are reported in reference seconds: each query's measured time is
multiplied by REFERENCE_KERNEL_S over the mean time of the calibration
kernels that the worker ran just before and after it. On a shared machine
whose speed drifts this removes much of the drift; on a quiet machine it
changes little. The measured times and each pass's mean factor are kept in
the record.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record of the run, with its
environment, goes to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

MIN_PASSES = 3
WORKER_TIMEOUT_S = 150
STOP_STARTING_S = 100     # no new pass after this, so a run ends within 180 s
TAIL_BEYOND = 10          # queries that must lie beyond the tail percentile
# About the time of worker.calibration_kernel on the machine the bounds were
# set on (2 cores, Python 3.11.7, numpy 2.4.6) in a quiet period.
REFERENCE_KERNEL_S = 0.001

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("query_s.p50", "s"),
    ("query_s.tail", "s"), ("peak_rss_mb", "MB"), ("fail_frac", "ratio"),
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def percentile(values, pct):
    """Linear interpolation between the closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(queries_per_pass, min_passes):
    """The highest percentile with at least TAIL_BEYOND queries beyond it in
    the smallest sample a run can have, so every run reports the same one."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / float(queries_per_pass * min_passes)))


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "cuemoments")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".json")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_revision():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, passes):
    import numpy
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "platform": platform.platform(),
        "git_revision": git_revision(), "source_digest": source_digest(),
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "pass_modes": ["traced" if p["traced"] else "untraced" for p in passes],
    }


def run_worker(queries, traced, spans_path):
    job = json.dumps({"queries": [q["argv"] for q in queries], "trace": traced,
                      "spans": spans_path})
    # A fixed hash seed keeps set orders, and with them the counts, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER], input=job, capture_output=True,
                              text=True, timeout=WORKER_TIMEOUT_S, cwd=ROOT, env=env)
    except subprocess.TimeoutExpired:
        raise BenchError("a worker pass took longer than %d s" % WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("worker exited with %d:\n%s" % (proc.returncode, proc.stderr[-2000:]))
    doc = json.loads(proc.stdout)
    # Each query is scaled by the kernel times just before and after it, and
    # set-up by the median kernel time of the pass.
    cal = doc["calibration"]
    for q, before, after in zip(doc["queries"], cal, cal[1:]):
        q["raw_elapsed"] = q["elapsed"]
        q["elapsed"] *= 2 * REFERENCE_KERNEL_S / (before + after)
    doc["raw_setup_s"] = doc["ready"] - spawned
    doc["setup_s"] = doc["raw_setup_s"] * REFERENCE_KERNEL_S / statistics.median(cal)
    doc["raw_wall_s"] = sum(q["raw_elapsed"] for q in doc["queries"])
    doc["wall_s"] = sum(q["elapsed"] for q in doc["queries"])
    doc["speed"] = doc["wall_s"] / doc["raw_wall_s"]
    for name in doc.get("layers", {}):
        if name.endswith("_s"):
            doc["layers"][name] *= doc["speed"]
    doc["traced"] = traced
    return doc


def run_passes(args, queries, min_passes):
    """Worker passes until the time is up; with tracing, untraced and traced
    passes alternate so both see the same machine state."""
    passes = []
    start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        spans = os.path.join(OUT, "spans", "%s-seed%d-pass%d.json"
                             % (args.workload, args.seed, len(passes)))
        passes.append(run_worker(queries, traced, spans))
        elapsed = time.monotonic() - start
        need = 2 if args.trace else min_passes
        if len(passes) >= need and (elapsed >= args.seconds or elapsed >= STOP_STARTING_S):
            return passes


def check_answers(queries, passes, checker):
    """Per-query statuses over all passes; returns (records, attempted, failed, wrong)."""
    records = []
    attempted = failed = wrong = 0
    for i, q in enumerate(queries):
        statuses = []
        for p in passes:
            status, reason = checker.check(q, p["queries"][i])
            attempted += 1
            failed += status != "ok"
            wrong += status == "wrong"
            statuses.append((status, reason))
        records.append({
            "argv": q["argv"], "documented_exit": q["exit"],
            "exit": passes[0]["queries"][i]["exit"],
            "status": sorted({s for s, _ in statuses}),
            "reasons": sorted({r for _, r in statuses if r}),
            "elapsed_s": [p["queries"][i]["elapsed"] for p in passes],
            "error": passes[0]["queries"][i]["error"],
        })
    return records, attempted, failed, wrong


def end_to_end(passes, queries, min_passes, attempted, failed):
    untraced = [p for p in passes if not p["traced"]]
    latencies = [q["elapsed"] for p in untraced for q in p["queries"]]
    pct = tail_percentile(len(queries), min_passes)
    values = {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "query_s.p50": statistics.median(latencies),
        "query_s.tail": percentile(latencies, pct),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
        "fail_frac": failed / float(attempted),
    }
    return values, {"tail_percentile": pct, "latency_samples": len(latencies)}


def ess_per_s(queries, passes):
    ess = seconds = 0.0
    for p in passes:
        if p["traced"]:
            continue
        for q, out in zip(queries, p["queries"]):
            if q["check"]["kind"] == "mc" and out["exit"] == 0:
                ess += json.loads(out["stdout"])["result"]["ess"]
                seconds += out["elapsed"]
    return ess / seconds if seconds else 0.0


def per_layer(args, queries, passes, problems):
    from tracing import per_layer_metrics
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    metrics = per_layer_metrics()
    values = {}
    counts = {}
    for name, unit, _ in metrics:
        if name in ("mc.ess_per_s", "trace.overhead_s"):
            continue
        series = [p["layers"][name] for p in traced]
        if unit == "s":
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            counts[name] = series[0]
            if any(v != series[0] for v in series):
                problems.append("%s differs between traced passes: %s" % (name, series))
    values["mc.ess_per_s"] = ess_per_s(queries, passes)
    values["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    for name, unit, workload in metrics:
        if workload in (args.workload, "all") and unit == "count" and values[name] <= 0:
            problems.append("%s is zero on %s, the workload meant to exercise it"
                            % (name, args.workload))
    compare_counts(args, queries, counts, problems)
    return values, {name: unit for name, unit, _ in metrics}


def compare_counts(args, queries, counts, problems):
    """Exact counts must repeat across runs of the same source and queries."""
    key = hashlib.sha256((source_digest() + json.dumps([q["argv"] for q in queries]))
                         .encode()).hexdigest()[:16]
    path = os.path.join(OUT, "counts", "%s-seed%d-%s.json" % (args.workload, args.seed, key))
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        for name, value in counts.items():
            if before.get(name) != value:
                problems.append("%s is %r, an earlier run of this source and seed had %r"
                                % (name, value, before.get(name)))
    else:
        with open(path, "w") as fh:
            json.dump(counts, fh, indent=1, sort_keys=True)


def findings(queries, passes):
    """Measured facts worth keeping beside the numbers."""
    traced = next(p for p in passes if p["traced"])
    draws = sum(json.loads(out["stdout"])["result"]["draws"]
                for q, out in zip(queries, traced["queries"])
                if q["check"]["kind"] == "mc" and out["exit"] == 0)
    if not draws:
        return {}
    ratio = traced["layers"]["mc.integrand_draws"] / float(draws)
    return {"mc_integrand_draws_per_draw": ratio,
            "note": "cmd_mc_estimate evaluates the integrand once for the estimate and "
                    "again for the ESS, so every draw is evaluated %g times" % ratio}


def parse_args(argv):
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="one cheap query per command and a single pass (self-test)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cuemoments", "cli.py")):
        raise BenchError("no cuemoments sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import workloads
    from checks import Checker

    for sub in ("spans", "counts"):
        os.makedirs(os.path.join(OUT, sub), exist_ok=True)
    queries = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    min_passes = 1 if args.tiny else MIN_PASSES
    checker = Checker()
    passes = run_passes(args, queries, min_passes)

    records, attempted, failed, wrong = check_answers(queries, passes, checker)
    problems = ["%d answers disagree with their checks" % wrong] if wrong else []
    if args.trace:
        values, units = per_layer(args, queries, passes, problems)
        detail = {"findings": findings(queries, passes)}
    else:
        values, detail = end_to_end(passes, queries, min_passes, attempted, failed)
        units = dict(END_TO_END)
    correct = not problems
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": {name: {"value": values[name], "unit": units[name]}
                           for name in sorted(values)}}

    record = {"environment": environment(args, passes), "summary": summary,
              "detail": detail, "problems": problems, "queries": records,
              "passes": [{k: p[k] for k in ("traced", "speed", "wall_s", "raw_wall_s",
                                            "setup_s", "raw_setup_s", "peak_rss_mb")}
                         for p in passes]}
    path = os.path.join(OUT, "%s-seed%d-trace%d%s.json"
                        % (args.workload, args.seed, args.trace, "-tiny" if args.tiny else ""))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print("%s seed %d: %d passes (%s) of %d queries; record in %s" % (
        args.workload, args.seed, len(passes), ", ".join(record["environment"]["pass_modes"]),
        len(queries), os.path.relpath(path, ROOT)))
    for name in sorted(values):
        print("  %-42s %14.6g %s" % (name, values[name], units[name]))
    if "tail_percentile" in detail:
        print("  query_s.tail is the %.2fth percentile of %d query latencies" % (
            detail["tail_percentile"], detail["latency_samples"]))
    for key, value in detail.get("findings", {}).items():
        print("  finding %s: %s" % (key, value))
    for rec in records:
        if rec["status"] != ["ok"]:
            print("  %s: %s (%s)" % ("/".join(rec["status"]), " ".join(rec["argv"]),
                                     "; ".join(rec["reasons"])))
    for problem in problems:
        print("  problem: " + problem)
    print(json.dumps(summary))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        sys.stderr.write("benchmark error: %s\n" % exc)
        sys.exit(2)
