"""One benchmark worker: a fresh interpreter that runs a batch of ops.

Reads a JSON job on stdin and writes a JSON result on stdout. Starting from
a fresh interpreter means the library's ``lru_cache``s start cold and the
peak resident memory belongs to this batch alone. The worker receives only
generated inputs; the benchmark process checks the outputs it returns.

Job kinds:

- ``cli``: run each argv in ``job["argvs"]`` in-process through
  ``qkostant.cli.run``, capturing stdout, and time each call;
- ``deep``: run ``(algebra, m, n, x, y)`` q-multiplicity queries in rounds
  until ``job["seconds"]`` have passed and at least ``job["min_rounds"]``
  rounds are done; resident memory is read at the end of round
  ``min_rounds`` so it measures a fixed amount of work.

Every op is timed between two calibration chunks (calib.py) and reported
both raw and scaled to reference speed. With ``job["calibrate"]`` set, a
calibration sampler also runs inside long ops. With ``job["trace"]`` set,
the layers are traced (see tracer.py) and the spans are written to
``job["spans_out"]`` after the last op; traced jobs run no sampler, so the
spans hold only the package's own time.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
from time import perf_counter

import calib


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def run_cli(job: dict, tracer, sampler) -> dict:
    import qkostant.cli as cli

    def call(argv):
        try:
            return cli.run(argv), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            return None, repr(exc)

    ops = []
    for op_id, argv in enumerate(job["argvs"]):
        if tracer is not None:
            tracer.op = op_id
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            (rc, error), raw, scaled = calib.timed(lambda: call(argv), sampler)
        ops.append({"ms": raw, "scaled_ms": scaled, "rc": rc, "out": out.getvalue(),
                    "err": err.getvalue(), "error": error})
    return {"ops": ops, "maxrss_kb": _maxrss_kb()}


def run_deep(job: dict, tracer, sampler) -> dict:
    import qkostant.g2_multiplicity as g2m
    import qkostant.sp4 as sp4
    from qkostant.rootsys import FundCoord

    def query(algebra, lam, mu):
        try:
            if algebra == "g2":
                return g2m.qmultiplicity_closed(lam, mu).mq, None
            return sp4.multiplicity_c2_weyl_sum(lam, mu), None
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            return None, repr(exc)

    rounds = []
    rss_kb = None
    start = perf_counter()
    op_id = 0
    for round_index, queries in enumerate(job["rounds"]):
        done = []
        for algebra, m, n, x, y in queries:
            lam, mu = FundCoord(m, n), FundCoord(x, y)
            if tracer is not None:
                tracer.op = op_id
            (poly, error), raw, scaled = calib.timed(lambda: query(algebra, lam, mu), sampler)
            if error is None:
                coeffs = poly.coeffs
                done.append([raw, scaled, sum(coeffs), min(coeffs, default=0), None])
            else:
                done.append([raw, scaled, None, None, error])
            op_id += 1
        rounds.append(done)
        if round_index + 1 == job["min_rounds"]:
            rss_kb = _maxrss_kb()
        if round_index + 1 >= job["min_rounds"] and perf_counter() - start >= job["seconds"]:
            break
    return {"rounds": rounds, "maxrss_kb": rss_kb if rss_kb is not None else _maxrss_kb()}


def main() -> None:
    job = json.load(sys.stdin)
    import qkostant.cli  # noqa: F401  (imports every module of the package)
    from qkostant.rootsys import weyl_group
    from qkostant.sp4 import fundamental_weights_c2, weyl_group_c2

    weyl_group()
    weyl_group_c2()
    fundamental_weights_c2()

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    run = run_cli if job["kind"] == "cli" else run_deep
    if job.get("calibrate"):
        with calib.Sampler() as sampler:
            result = run(job, tracer, sampler)
    else:
        result = run(job, tracer, None)
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write_spans(job["spans_out"])
    json.dump(result, sys.stdout)


if __name__ == "__main__":
    main()
