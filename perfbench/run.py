#!/usr/bin/env python3
"""tailkit benchmark: three closed-loop workloads, one job at a time.

    python3 perfbench/run.py --workload bounds|awgn|oracle --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; tailkit is imported from its ``src/``.
One process runs one job at a time, with no threads and numeric-library
thread pools pinned to 1. A workload is a seeded round of jobs, repeated
whole until ``--seconds`` have passed; then every output is checked
against references computed apart from tailkit (see checks.py). The last
line of standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with ``--trace 1``.
Details, the job-time percentiles and the check failures go to standard
error and to ``perfbench/out/``.

``--smoke`` runs the first job of each workload twice, traced, with every
check, and exits 0 only if all pass and the counters repeat.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
CSV_DIR = OUT / "csv"
#: Set-up is measured this many times per run, in fresh interpreters.
SETUP_PROBES = 9
WORKLOADS = ("bounds", "awgn", "oracle")
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def _prepare():
    """Pin thread pools (before numpy is imported) and put src/ first on
    the path, so the tailkit measured is the one in this checkout."""
    if not (SRC / "tailkit" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tailkit sources under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    CSV_DIR.mkdir(parents=True, exist_ok=True)


def _setup_samples(workload: str, seed: int) -> list[float]:
    """Seconds from starting a fresh interpreter to having tailkit and
    numpy imported and the workload's inputs built."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


@dataclasses.dataclass
class RunRecord:
    times: list = dataclasses.field(default_factory=list)  # seconds of each completed job
    attempted: int = 0
    failed: int = 0
    first: dict = dataclasses.field(default_factory=dict)  # job index -> first output
    errors: list = dataclasses.field(default_factory=list)


def run_workload(wl, seconds: float, tracer=None, min_rounds: int = 1) -> RunRecord:
    """Repeat whole rounds of the workload's jobs until ``seconds`` have
    passed. Only the job calls are timed; every output after the first
    round must equal the first one (the inputs are the same)."""
    rec = RunRecord()
    signatures = {}
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for i, job in enumerate(wl.jobs):
            if tracer is not None:
                tracer.begin_job(rec.attempted)
            t0 = time.perf_counter()
            try:
                out = wl.run(job)
            except Exception:  # a failed job is counted and the run goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            elapsed = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            rec.attempted += 1
            if out is None:
                rec.failed += 1
                continue
            rec.times.append(elapsed)
            sig = wl.signature(job, out)
            if i not in rec.first:
                rec.first[i], signatures[i] = out, sig
            elif sig != signatures[i]:
                rec.errors.append(f"{wl.name} job {i}: output differs from its first round")
        rounds += 1
    return rec


def check_outputs(wl, first: dict) -> list[str]:
    import checks
    from tailkit import awgn

    idx = sorted(first)
    jobs, outs = [wl.jobs[i] for i in idx], [first[i] for i in idx]
    if wl.name == "bounds":
        return [e for job, out in zip(jobs, outs) for e in checks.check_bounds(job, out)]
    if wl.name == "awgn":
        return checks.check_awgn(jobs, outs)
    return checks.check_oracle(jobs, outs, [awgn.converse_bounds(cfg) for cfg in jobs])


def _percentiles(times: list[float]) -> dict:
    """Median and the highest of p90/p99/p99.9 with ten samples beyond it."""
    out = {"jobs": len(times), "p50_ms": 1e3 * statistics.median(times)}
    tails = [q for q in (0.9, 0.99, 0.999) if len(times) * (1.0 - q) >= 10]
    if tails:
        cuts = statistics.quantiles(times, n=1000, method="inclusive")
        out[f"p{100 * tails[-1]:g}_ms"] = 1e3 * cuts[round(tails[-1] * 1000) - 1]
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    setup = [] if traced else _setup_samples(workload, seed)
    import workloads

    wl = workloads.build(workload, seed, CSV_DIR)
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    rec = run_workload(wl, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail = {"workload": workload, "seed": seed, "traced": traced, "setup_s": setup}
    if rec.times:
        detail |= _percentiles(rec.times)
        detail["mean_ms"] = 1e3 * statistics.fmean(rec.times)
    if traced:
        from tailkit.engine import GridSpec

        metrics = {
            name: _metric(value, tracing.METRICS[name])
            for name, value in tracer.per_layer(GridSpec().points).items()
        }
        tracer.write(OUT / f"trace-{workload}.csv.gz")
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setup), "s"),
            "jobs_per_s": _metric(len(rec.times) / sum(rec.times) if rec.times else 0.0, "1/s"),
            "job_ms_p50": _metric(detail.get("p50_ms", 0.0), "ms"),
            "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        }
    errors = rec.errors + check_outputs(wl, rec.first)
    detail["errors"] = errors
    result = {"correct": not errors, "attempted": rec.attempted, "failed": rec.failed, "metrics": metrics}
    (OUT / f"result-{workload}-trace{int(traced)}.json").write_text(json.dumps(result | {"detail": detail}, indent=1))
    for e in errors[:20]:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    print(f"perfbench: {json.dumps(detail)[:2000]}", file=sys.stderr)
    return result


def smoke() -> int:
    import tracing
    import workloads
    from tailkit.engine import GridSpec

    tracer = tracing.Tracer()
    tracer.install()
    ok = True
    for name in WORKLOADS:
        wl = workloads.build(name, 0, CSV_DIR)
        wl = dataclasses.replace(wl, jobs=wl.jobs[:1])
        tracer.clear()
        t0 = time.perf_counter()
        rec = run_workload(wl, 0.0, tracer, min_rounds=2)
        problems = rec.errors + check_outputs(wl, rec.first)
        if rec.failed:
            problems.append(f"{rec.failed} of {rec.attempted} jobs failed")
        if tracer.job_counts[0] != tracer.job_counts[1] or tracer.spans_per_job(0) != tracer.spans_per_job(1):
            problems.append("counters differ between two runs of the same job")
        layer = tracer.per_layer(GridSpec().points)
        if set(layer) != set(tracing.METRICS) or not all(math.isfinite(v) for v in layer.values()):
            problems.append(f"per-layer metrics incomplete: {layer}")
        ok = ok and not problems
        status = "PASS" if not problems else "FAIL: " + "; ".join(problems[:5])
        print(f"smoke {name}: {status} ({time.perf_counter() - t0:.1f} s)")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="one job per workload, all checks")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    _prepare()
    if args.smoke:
        return smoke()
    if args.setup_probe:
        import workloads

        workloads.build(args.workload, args.seed, CSV_DIR)
        print(repr(time.monotonic()))
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
