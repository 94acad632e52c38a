"""Record the canonical results that checks.py compares answers against.

    python3 bench/record_reference.py

Runs every seed-independent spec of the workload tables that has no
closed-form oracle through the CLI and writes the sha256 digest of its
canonical result part to bench/reference.json. Run it only on a commit whose
results are trusted; a later change must reproduce these digests.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import workloads as w  # noqa: E402
from cuemoments import cli  # noqa: E402


def result_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit("%s exited with %d" % (" ".join(argv), code))
    return json.loads(out.getvalue())["result"]


def main():
    checker = checks.Checker(reference={})
    queries = [w.finite_query(N, v, o, e, "7/3") for N, v, o, e in w.FINITE_SPECS]
    queries += [w.leading_query(v, o, e, "7/3") for v, o, e in w.LEADING_SPECS]
    queries += [w.p5_query(N, s) for N, s in w.P5_SPECS]
    queries += [w.p3_query(s, order) for s, order in w.P3_SPECS]
    parts = {"rational": checks.rational_part, "p5": checks.p5_part, "p3": checks.p3_part}
    reference = {}
    for q in queries:
        c = q["check"]
        if c["kind"] == "rational" and checker.oracle(c["key"]) is not None:
            continue
        reference[c["key"]] = checks.digest(parts[c["kind"]](result_of(q["argv"])))
        print(c["key"], reference[c["key"]][:16], flush=True)
    with open(checks.REFERENCE_PATH, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
