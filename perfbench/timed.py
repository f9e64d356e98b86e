"""One timed pass of a workload, in a fresh interpreter.

Run by ``run.py``, never twice in one process: a second pass would measure
warm caches.  Imports flaglift, loads the generated inputs with
``repfile``, collects garbage once, then runs every operation in order with
the collector left on, timing each.  With ``--trace 1`` the layer wrappers
are installed before loading.  Writes one JSON result file.

    python3 perfbench/timed.py --inputs IN.json --launch T --trace 0 --out OUT.json

``--launch`` is the ``time.monotonic()`` reading taken just before this
interpreter was started, so set-up time includes interpreter start.

The host's speed drifts by tens of percent within minutes, so a pass also
measures it: every ``CAL_EVERY_S`` between operations it times a fixed
integer kernel that shares no code with flaglift and, inside its loop,
allocates nothing the garbage collector tracks.  The mean kernel time is reported as
``cal_s``; its time is excluded from every other time reported.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import time
import traceback

CAL_EVERY_S = 0.2
_CAL_N = 6
_CAL_X = [(i * 5 + j * 7) % 9 for i in range(_CAL_N) for j in range(_CAL_N)]


def calibrate() -> float:
    """Seconds for a fixed 6x6 multiply-accumulate kernel mod 9 (about 10 ms)."""
    n, x, out = _CAL_N, _CAL_X, [0] * (_CAL_N * _CAL_N)
    t0 = time.perf_counter()
    for _ in range(300):
        for i in range(n):
            base = i * n
            for k in range(n):
                av = x[base + k]
                kb = k * n
                for j in range(n):
                    out[base + j] = (out[base + j] + av * x[kb + j]) % 9
    return time.perf_counter() - t0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--launch", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans", help="where a traced pass writes its spans")
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import workloads  # imports flaglift

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install([workloads])
    with open(args.inputs) as fh:
        text = fh.read()
    t_load = time.perf_counter()
    ops = workloads.load(text)
    gc.collect()
    t_first = time.perf_counter()
    setup_s = time.monotonic() - args.launch
    result = {"setup_s": setup_s, "load_s": t_first - t_load}
    cal = [calibrate()]
    if args.setup_only:
        cal += [calibrate() for _ in range(9)]
    else:
        times = []
        failures = []
        digest = hashlib.sha256()
        t_cal = time.perf_counter()
        for i, (tag, op) in enumerate(ops):
            if tracer is not None:
                tracer.op = i
            t0 = time.perf_counter()
            try:
                part = op()
            except Exception as exc:  # a failed op is counted, never fatal
                part = f"failed {type(exc).__name__}"
                failures.append(f"{tag}: {type(exc).__name__}: {exc}")
                if len(failures) == 1:
                    traceback.print_exc()
            t1 = time.perf_counter()
            times.append(t1 - t0)
            digest.update(f"{tag}\n{part}\n".encode())
            if t1 - t_cal >= CAL_EVERY_S:
                cal.append(calibrate())
                t_cal = time.perf_counter()
        cal.append(calibrate())
        t_end = time.perf_counter()
        ops_wall_s = t_end - t_first - sum(cal)
        result.update({
            "op_s": times,
            "failures": failures,
            "ops_wall_s": ops_wall_s,
            "section_wall_s": ops_wall_s + (t_first - t_load),
            "digest": digest.hexdigest(),
        })
        if tracer is not None:
            result["trace"] = tracer.report()
            if args.spans:
                tracer.write_spans(args.spans, t_load)
    result["cal_s"] = sum(cal) / len(cal)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
