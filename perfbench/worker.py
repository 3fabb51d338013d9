"""Benchmark worker: one client driving one workload in a closed loop.

Started by ``run.py`` with the BLAS thread count pinned in its environment
and ``src`` on its path. Each request starts only after the previous one has
returned and its output has been checked. Prints one JSON object as the last
line of its standard output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibrate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected"
OUT = ROOT / ".bench_out"
#: failed requests whose problems are printed in full
REPORTED_FAILURES = 3


def _blas(module) -> str:
    try:
        cfg = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"
    return f"{cfg.get('name')} {cfg.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int | None) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas(numpy),
        "blas_scipy": _blas(scipy),
        "blas_threads": {k: v for k, v in sorted(os.environ.items())
                         if k.endswith("_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "seed": seed,
    }


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it, and its rank.

    Below 20 samples no percentile above the median qualifies, and the
    median is reported as the tail.
    """
    n = len(latencies)
    rank = math.floor(100 * (1 - 10 / n)) if n >= 20 else 50
    if rank == 50:
        return statistics.median(latencies), rank
    nearest = (rank * n + 99) // 100  # ceil(rank * n / 100), in integers
    return sorted(latencies)[nearest - 1], rank


def record(workload: workloads.Workload) -> int:
    """Write the workload's expectation from one call of each kind."""
    kinds = {}
    for kind, argv in workload.kinds.items():
        rows = workloads.call(argv)
        problems = workload.invariants(rows)
        if problems:
            print(f"{workload.name}/{kind}: refusing to record: {problems}", file=sys.stderr)
            return 1
        kinds[kind] = rows
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{workload.name}.json"
    path.write_text(json.dumps({"workload": workload.name, "environment": environment(None),
                                "kinds": kinds}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {path.relative_to(ROOT)}", file=sys.stderr)
    return 0


def run(workload: workloads.Workload, seed: int, seconds: float, trace: bool) -> dict:
    expected = json.loads((EXPECTED / f"{workload.name}.json").read_text())["kinds"]
    rng = random.Random(seed)
    tracer = spans.Tracer(workload.levels) if trace else None
    # latencies of untraced (False) and traced (True) requests. A traced run
    # starts with a warm-up request (None), so that the first untraced and
    # traced requests both find the process warm, then alternates the two.
    latencies = {None: [], False: [], True: []}
    # untraced request times rescaled to the probe's reference speed
    rescaled = []
    # every probe of the run, and the one that ran last; traced runs do not probe
    probes = [] if trace else [calibrate.probe()]
    probe_s = probes[-1] if probes else None
    attempted = failed = 0
    worst = 0.0
    start = time.perf_counter()
    previous = 0.0  # duration of the last iteration
    # Start another request while it is expected to end nearer the deadline
    # than stopping now would, so that a run lasts about ``seconds``; but
    # make two timed requests at least, and one traced.
    while attempted < (3 if trace else 2) or time.perf_counter() - start + previous / 2 < seconds:
        began = time.perf_counter()
        traced = (attempted % 2 == 0 if attempted else None) if trace else False
        kinds = workload.order(rng)
        problems = []
        outputs, elapsed, scaled = [], 0.0, 0.0
        with tracer.request() if traced else contextlib.nullcontext():
            try:
                for kind in kinds:
                    t0 = time.perf_counter()
                    try:
                        outputs.append((kind, workloads.call(workload.kinds[kind])))
                    finally:
                        dt = time.perf_counter() - t0
                        elapsed += dt
                        if probe_s is not None:
                            after = calibrate.probe(dt)
                            probes.append(after)
                            scaled += dt * calibrate.REFERENCE_S / ((probe_s + after) / 2)
                            probe_s = after
            except (Exception, SystemExit) as exc:  # the request fails, the run goes on
                outputs = []
                problems.append("".join(traceback.format_exception(exc)))
        latencies[traced].append(elapsed)
        if probe_s is not None:
            rescaled.append(scaled)
        for kind, rows in outputs:
            try:
                problems += [f"{kind}: {p}"
                             for p in workloads.check(workload, rows, expected[kind])]
            except (AttributeError, KeyError, TypeError) as exc:
                problems.append(f"{kind}: malformed output: {exc!r}")
        attempted += 1
        if problems:
            failed += 1
            if failed <= REPORTED_FAILURES:
                print(f"request {attempted} failed:\n  " + "\n  ".join(problems),
                      file=sys.stderr)
        else:
            worst = max([worst] + [workloads.max_rel_error(rows) for _, rows in outputs])
        previous = time.perf_counter() - began
    wall = time.perf_counter() - start

    result = {"attempted": attempted, "failed": failed}
    if trace:
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload.name}-seed{seed}-spans.json").write_text(json.dumps(tracer.dump()))
        metrics = spans.layer_metrics(tracer, latencies[True], latencies[False])
    else:
        tail_s, rank = tail(rescaled)
        raw_tail_s, _ = tail(latencies[False])
        result["tail"] = {"rank": rank, "samples": len(rescaled)}
        result["wall_clock"] = {"latency_s.p50": statistics.median(latencies[False]),
                                "latency_s.tail": raw_tail_s,
                                "throughput_rps": (attempted - failed) / wall,
                                "probe_s": statistics.median(probes)}
        metrics = {
            "latency_ref_s.p50": (statistics.median(rescaled), "s"),
            "latency_ref_s.tail": (tail_s, "s"),
            "throughput_ref_rps": ((attempted - failed) / sum(rescaled), "1/s"),
            "ok_ratio": ((attempted - failed) / attempted, "ratio"),
            "max_rel_error": (worst, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    result["environment"] = environment(seed)
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite the workload's expected output instead of running it")
    args = p.parse_args()
    workload = workloads.WORKLOADS[args.workload]
    if args.record:
        return record(workload)
    print(json.dumps(run(workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
