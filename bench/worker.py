"""One benchmark pass: a single closed-loop client in a fresh process.

Reads ``{"queries": [argv, ...], "trace": bool, "spans": path}`` as JSON on
stdin, sends one query at a time through ``cuemoments.cli.main(argv)`` in
process with stdout captured, and writes one JSON document to stdout. The
first thing it does is import ``cuemoments.cli`` from the checkout's
``src/``, so the driver can time set-up from process start to that import.

Before each query and after the last, outside the timed regions, the worker
times a fixed calibration kernel. The driver uses these times to take out
the drift of a shared machine's speed (see run.py).
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import cuemoments.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402


def calibration_kernel():
    """Time a fixed mix of Fraction arithmetic, dict updates keyed by tuples
    and scalar float math, the operations the exact engines and the Monte
    Carlo sampler spend their time on. The cyclic collector is off while it
    runs, so its time depends on the machine only."""
    gc.disable()
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(1, i * i + 1)
    table = {}
    for i in range(3000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i
    x = 0.3
    for _ in range(1500):
        x = math.tan(math.pi * ((x * 7.31 + 0.123) % 1.0 - 0.5))
        x = math.log1p(x * x)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def run_query(main, argv):
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            error = traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - start
    return {"exit": code, "elapsed": elapsed, "stdout": out.getvalue(), "error": error}


def main():
    if not os.path.abspath(cuemoments.cli.__file__).startswith(SRC + os.sep):
        sys.exit("cuemoments was not imported from %s" % SRC)
    job = json.load(sys.stdin)
    tracer = None
    run = cuemoments.cli.main
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        run = tracer.install(cuemoments.cli)
    results = []
    calibration = []
    for qid, argv in enumerate(job["queries"]):
        calibration.append(calibration_kernel())
        if tracer is not None:
            tracer.qid = qid
        results.append(run_query(run, argv))
    calibration.append(calibration_kernel())
    doc = {"ready": READY, "queries": results, "calibration": calibration,
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        doc["layers"] = tracer.layer_values()
        tracer.write_spans(job["spans"])
    json.dump(doc, sys.stdout)


if __name__ == "__main__":
    main()
