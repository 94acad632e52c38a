"""Tiny-mode self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload end to end in tiny mode, untraced and traced, and checks
the printed result against BENCHMARK.json: the keys of the last line, every
metric name and unit, nonzero calls on the layers each workload is meant to
exercise (run.py enforces that), and exact counts that repeat across two runs
of the same seed. It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only BENCHMARK.json and the
benchmark's own files. Exits 0 when everything holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          capture_output=True, text=True, cwd=cwd, timeout=TIMEOUT_S)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            layers = []
            for _ in range(2 if trace else 1):
                proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                            "--trace", str(trace), "--tiny"])
                tag = "%s trace %d" % (workload, trace)
                if proc.returncode != 0:
                    errors.append("%s: exit %d\n%s%s" % (tag, proc.returncode,
                                                         proc.stdout[-1500:], proc.stderr[-1500:]))
                    break
                doc = json.loads(proc.stdout.strip().splitlines()[-1])
                if sorted(doc) != ["attempted", "correct", "failed", "metrics"]:
                    errors.append("%s: result keys %s" % (tag, sorted(doc)))
                if not doc["correct"] or doc["attempted"] < 1:
                    errors.append("%s: correct %s, attempted %s" % (tag, doc["correct"], doc["attempted"]))
                got = {name: m["unit"] for name, m in doc["metrics"].items()}
                if got != expected[trace]:
                    missing = sorted(set(expected[trace]) - set(got))
                    extra = sorted(set(got) - set(expected[trace]))
                    errors.append("%s: metrics differ from BENCHMARK.json; missing %s, extra %s"
                                  % (tag, missing, extra))
                layers.append({k: v["value"] for k, v in doc["metrics"].items()
                               if v["unit"] == "count"})
            if len(layers) == 2 and layers[0] != layers[1]:
                errors.append("%s: counts differ between two runs of one seed" % workload)

    bare = os.path.join(ROOT, ".bench_out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(["--workload", bench["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("without sources: exit %d, stdout %r" % (proc.returncode, proc.stdout[-300:]))
    shutil.rmtree(bare)

    for error in errors:
        print("FAIL " + error)
    print("selftest: %s" % ("ok" if not errors else "%d failures" % len(errors)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
