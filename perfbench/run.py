"""flaglift benchmark: seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload lift-battery --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --selfcheck

A run generates the workload's inputs twice, each in a fresh interpreter,
and requires the two documents to be byte-identical.  It then times
set-up alone a few times and runs passes of the whole workload, each in a
fresh interpreter (``timed.py``), until ``--seconds`` have passed.  Every
operation checks its own postconditions; a pass's output digest (sha256
over lifted flags, cohomology invariants and verdicts) must be the same in
every pass, traced or not, and in every run of the same sources and seed.

``--trace 0`` reports the end-to-end metrics, with times scaled to a
reference host speed (see ``CAL_REF_S``).  ``--trace 1`` reports the
per-layer ones: one untraced pass, then traced passes whose wrappers time
each layer from outside the program.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Scratch files go to ``.bench_build/perfbench`` under the repository root.

``--selfcheck`` runs every workload at a reduced size, traced and untraced,
and checks that every metric named in ``BENCHMARK.json`` is reported with
its unit, that no operation fails, and that the per-layer self times sum
to no more than the traced wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("lift-battery", "h-ladder", "oracle-audit")
SETUP_PROBES = 5  # set-up-only interpreters per run, besides each pass's own set-up
RUN_LIMIT_S = 170  # a run must end within 180 s, children included
# Mean time of timed.calibrate() on the machine the bounds were set on (Python
# 3.11, 2 vCPUs).  Timings are reported at that host speed: each pass's raw
# times are scaled by CAL_REF_S / its own mean calibration time, which cancels
# the host's drift; the raw figures are printed beside them.
CAL_REF_S = 0.0110
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


class BenchError(RuntimeError):
    """The benchmark itself could not run or measure as specified."""


def _child(argv: list[str], deadline: float) -> None:
    timeout = max(deadline - time.monotonic(), 1.0)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{argv[0]} did not finish within the run's time limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv)} exited with code {proc.returncode}")


def _sources_hash(inputs: Path) -> str:
    """Identifies what the output digest depends on: program, benchmark, inputs."""
    h = hashlib.sha256()
    for path in [*sorted((SRC / "flaglift").glob("*.py")), *sorted(HERE.glob("*.py")), inputs]:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _generate(workload: str, seed: int, size: str, wdir: Path,
              deadline: float) -> tuple[Path, bool]:
    """Inputs generated twice, in two interpreters; True if byte-identical."""
    paths = [wdir / "inputs.json", wdir / "inputs.again.json"]
    for path in paths:
        _child([str(HERE / "gen.py"), "--workload", workload, "--seed", str(seed),
                "--size", size, "--out", str(path)], deadline)
    return paths[0], paths[0].read_bytes() == paths[1].read_bytes()


def _pass(inputs: Path, out: Path, trace: int, deadline: float, setup_only: bool = False,
          spans: Path | None = None) -> dict:
    argv = [str(HERE / "timed.py"), "--inputs", str(inputs), "--trace", str(trace),
            "--out", str(out)]
    if setup_only:
        argv.append("--setup-only")
    if spans is not None:
        argv += ["--spans", str(spans)]
    out.unlink(missing_ok=True)
    launch = time.monotonic()
    _child(argv + ["--launch", repr(launch)], deadline)
    return json.loads(out.read_text())


def _tail(samples: list[float]) -> tuple[float, float]:
    """Highest ladder percentile with at least ten samples beyond it (nearest rank)."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        rank = max(math.ceil(q / 100 * n), 1)
        if n - rank >= 10 or q == TAIL_LADDER[-1]:
            return q, ordered[rank - 1]


def _layer_metrics(report: dict) -> dict[str, tuple[float, str]]:
    import tracing

    calls, self_s, total_s, extra = (report["calls"], report["self_s"], report["total_s"],
                                     report["extra"])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in tracing.LAYERS:
        out[f"{layer.name}.calls"] = (calls[layer.name], "count")
        if layer.kind != "count":
            out[f"{layer.name}.self_s"] = (self_s[layer.name], "s")
        if layer.name in tracing.INCLUSIVE:
            out[f"{layer.name}.total_s"] = (total_s[layer.name], "s")
    cache = report["complex_of_cache"]
    out["zmod.matmul.madds"] = (extra["zmod.matmul"]["madds"], "count")
    out["zmod.smithify.cells"] = (extra["zmod.smithify"]["cells"], "count")
    out["zmod.solve.none_ratio"] = (ratio(extra["zmod.solve"]["none"], calls["zmod.solve"]),
                                    "ratio")
    out["cohomology.complex_of.hit_ratio"] = (
        ratio(cache["hits"], cache["hits"] + cache["misses"]), "ratio")
    out["cohomology.complex_of.size"] = (cache["size"], "count")
    out["lifting.gluift.obstructed_ratio"] = (
        ratio(extra["lifting.gluift"]["obstructed"], calls["lifting.gluift"]), "ratio")
    out["lifting.wound.adjusted"] = (extra["lifting.lift_wound_kummer"]["adjusted"], "count")
    for name in ("oracle.brute_lift", "oracle.brute_glue"):
        cand = extra[name]["candidates"]
        out[f"{name}.candidates"] = (cand, "count")
        out[f"{name}.accept_ratio"] = (ratio(extra[name]["accepted"], cand), "ratio")
    out["repfile.load.bytes"] = (extra["repfile.load"]["bytes"], "bytes")
    out["trace.spans"] = (report["spans"], "count")
    return out


def _check_coverage(workload: str, report: dict) -> list[str]:
    """Wrapped functions that recorded no calls where the workload must reach them."""
    import tracing

    problems = []
    for layer in tracing.LAYERS:
        if report["bindings"][layer.name] == 0:
            problems.append(f"{layer.name}: wrapper installed under no binding")
        elif workload in layer.expect and report["calls"][layer.name] == 0:
            problems.append(f"{layer.name}: zero calls on {workload}; a binding was missed")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: int, size: str = "full") -> dict:
    """One benchmark run; returns the result object plus a human-readable report."""
    deadline = time.monotonic() + RUN_LIMIT_S
    wdir = STATE / f"{workload}-s{seed}-{size}"
    wdir.mkdir(parents=True, exist_ok=True)
    inputs, identical = _generate(workload, seed, size, wdir, deadline)
    problems = [] if identical else ["generating the inputs twice gave different bytes"]

    probes = [_pass(inputs, wdir / "setup.json", 0, deadline, setup_only=True)
              for _ in range(SETUP_PROBES)]
    passes: list[dict] = []
    traced: list[dict] = []
    # Passes until the window is used: a pass starts only if it is expected
    # to end no more than half a pass after the window closes.
    start = time.monotonic()
    while True:
        k = len(passes) + len(traced)
        t0 = time.monotonic()
        if trace and passes:
            traced.append(_pass(inputs, wdir / f"pass{k}.json", 1, deadline,
                                spans=wdir / f"spans-trace{len(traced)}.jsonl.gz"))
        else:
            passes.append(_pass(inputs, wdir / f"pass{k}.json", 0, deadline))
        took = time.monotonic() - t0
        if (traced or not trace) and time.monotonic() - start + took / 2 >= seconds:
            break
    measured_s = time.monotonic() - start

    everything = passes + traced
    digests = {p["digest"] for p in everything}
    if len(digests) != 1:
        problems.append(f"output digest differs between passes: {sorted(digests)}")
    digest = everything[0]["digest"]
    record = wdir / "digest.json"
    src = _sources_hash(inputs)
    if record.exists():
        before = json.loads(record.read_text())
        if before["src"] == src and before["digest"] != digest:
            problems.append(f"output digest {digest} differs from an earlier run's "
                            f"{before['digest']} on the same sources")
    record.write_text(json.dumps({"src": src, "digest": digest}))
    golden = json.loads((HERE / "golden.json").read_text()).get(f"{workload}/{seed}/{size}")

    attempted = sum(len(p["op_s"]) for p in everything)
    failures = [f for p in everything for f in p["failures"]]
    n_ops = len(passes[0]["op_s"])
    lines = [f"{workload}: seed {seed}, size {size}, {len(passes)} untraced + {len(traced)} "
             f"traced passes of {n_ops} ops in {measured_s:.1f}s"]
    if trace:
        metrics, layer_problems, layer_lines = _traced_metrics(workload, passes, traced)
        problems += layer_problems
        lines += layer_lines
    else:
        metrics, raw, notes = _end_to_end(passes, probes)
        for name, (value, unit) in metrics.items():
            lines.append(f"  {name:<12} {value:12.4f} {unit:<4} {notes.get(name, '')}")
        lines.append("  unscaled: " + ", ".join(f"{k} {v:.4f}" for k, v in raw.items()))
    lines.append(f"  {'fail_ratio':<12} {len(failures) / attempted:12.4f} ratio "
                 f"{len(failures)} of {attempted} ops failed")
    if golden is None:
        where = "no recorded digest for this seed and size"
    else:
        where = "matches the recorded digest" if golden == digest else "DIFFERS from the recorded digest"
    lines.append(f"  output digest sha256 {digest} ({where})")
    lines += [f"  FAILED {f}" for f in failures[:20]]
    lines += [f"  PROBLEM {p}" for p in problems]
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "lines": lines,
        "problems": problems,
    }


def _end_to_end(passes: list[dict], probes: list[dict]):
    """End-to-end metrics at reference host speed, their unscaled values, notes."""
    def speed(p: dict) -> float:
        return CAL_REF_S / p["cal_s"]

    def summary(scale) -> dict[str, float]:
        tails = [_tail([t * scale(p) for t in p["op_s"]]) for p in passes]
        return {
            "ops_per_s": statistics.median(len(p["op_s"]) / (p["ops_wall_s"] * scale(p))
                                           for p in passes),
            "op_p50_ms": statistics.median(t * scale(p) for p in passes for t in p["op_s"]) * 1e3,
            "op_tail_ms": statistics.median(v for _, v in tails) * 1e3,
            "setup_s": statistics.median(p["setup_s"] * scale(p) for p in probes + passes),
        }

    scaled = summary(speed)
    units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "setup_s": "s"}
    metrics = {k: (v, units[k]) for k, v in scaled.items()}
    metrics["peak_rss_mb"] = (statistics.median(p["peak_rss_mb"] for p in passes), "MB")
    q = _tail(passes[0]["op_s"])[0]
    notes = {
        "ops_per_s": f"median of {len(passes)} passes",
        "op_p50_ms": f"over {sum(len(p['op_s']) for p in passes)} op timings",
        "op_tail_ms": f"p{q:g} of {len(passes[0]['op_s'])} ops, median of {len(passes)} passes",
        "setup_s": f"median of {len(probes) + len(passes)} set-ups",
    }
    raw = summary(lambda p: 1.0)
    raw["host_speed"] = statistics.median(speed(p) for p in passes)
    return metrics, raw, notes


def _traced_metrics(workload: str, passes: list[dict], traced: list[dict]):
    import tracing

    problems: list[str] = []
    per_pass = []
    for p in traced:
        report = p["trace"]
        coverage = _check_coverage(workload, report)
        if coverage:
            raise BenchError("wrapper coverage check failed: " + "; ".join(coverage))
        m = _layer_metrics(report)
        self_sum = sum(v for k, (v, _) in m.items() if k.endswith(".self_s"))
        if self_sum > p["section_wall_s"]:
            problems.append(f"layer self times sum to {self_sum:.3f}s, more than the "
                            f"traced wall time {p['section_wall_s']:.3f}s")
        per_pass.append(m)
    metrics = {k: (statistics.median(m[k][0] for m in per_pass), unit)
               for k, (_, unit) in per_pass[0].items()}
    # the traced and untraced passes ran at different host speeds
    walls = [statistics.median(p["section_wall_s"] * CAL_REF_S / p["cal_s"] for p in group)
             for group in (traced, passes)]
    metrics["trace.wall_s"] = (walls[0], "s")
    metrics["trace.untraced_wall_s"] = (walls[1], "s")
    metrics["trace.overhead_s"] = (walls[0] - walls[1], "s")
    lines = []
    width = max(len(k) for k in metrics)
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name:<{width}} {value:14.4f} {unit}")
    selfs = {k: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    top = sorted(selfs, key=selfs.get, reverse=True)[:3]
    lines.append("  largest layer self times: " +
                 ", ".join(f"{k} {selfs[k]:.3f}s" for k in top))
    traced_wall = statistics.median(p["section_wall_s"] for p in traced)
    for name in tracing.INCLUSIVE:
        share = metrics[f"{name}.total_s"][0] / traced_wall
        lines.append(f"  {name} inclusive time: {share:.0%} of the traced wall time")
    for name, why in tracing.NOT_OBSERVABLE.items():
        lines.append(f"  {name}: not observable from outside the program ({why})")
    return metrics, problems, lines


def _selfcheck() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    bad = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        bad.append("BENCHMARK.json names other workloads than the benchmark runs")
    for workload in WORKLOADS:
        for trace, want in ((0, want_e2e), (1, want_layer)):
            res = measure(workload, 0, 0, trace, size="small")
            print("\n".join(res["lines"]))
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            for name, unit in want.items():
                if got.get(name) != unit:
                    bad.append(f"{workload} trace {trace}: {name} missing or not in {unit}")
            if res["failed"]:
                bad.append(f"{workload} trace {trace}: fail_ratio is not 0")
            bad += [f"{workload} trace {trace}: {p}" for p in res["problems"]]
    for line in bad:
        print(f"SELFCHECK FAIL {line}")
    print("selfcheck:", "FAIL" if bad else "PASS")
    return 1 if bad else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    if not (SRC / "flaglift" / "__init__.py").is_file():
        print(f"run.py: no flaglift sources under {SRC}", file=sys.stderr)
        return 2
    if not args.selfcheck and args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, str(SRC))
    try:
        if args.selfcheck:
            return _selfcheck()
        res = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 3
    print("\n".join(res["lines"]))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
