"""diracfem benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload pathology-z1 --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a traced run. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result, with the
environment it was measured in, is also written to ``.bench_out/``.
``--record`` rewrites the expected outputs in ``perfbench/expected/`` from
the current solver. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"
#: BLAS threads in every process the benchmark starts. One thread measured the
#: same as two on the QZ solve and keeps every result bit-reproducible.
BLAS_THREADS = "1"
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: fresh-interpreter imports per run; their median ignores a cold first one
#: and the machine's short slow spells
SETUP_REPEATS = 9
#: a run must end within 180 s; the worker is stopped at this many seconds
DEADLINE_S = 170.0


def measure_setup(env: dict) -> tuple[float, float]:
    """Median time for a fresh interpreter to import diracfem.cli: rescaled, and on the wall.

    Each import is rescaled to the probe's reference speed by the mean of
    the probes run just before and just after it, as the worker does with
    every request.
    """
    import calibrate

    rescaled, wall = [], []
    before = calibrate.probe()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import diracfem.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        wall.append(time.perf_counter() - t0)
        after = calibrate.probe()
        rescaled.append(wall[-1] * calibrate.REFERENCE_S / ((before + after) / 2))
        before = after
    return statistics.median(rescaled), statistics.median(wall)


def start_worker(args: list[str], env: dict, timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(WORKER)] + args, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", action="store_true",
                   help="rewrite the expected outputs (of --workload, or of every workload)")
    args = p.parse_args()
    if not (ROOT / "src" / "diracfem" / "cli.py").is_file():
        print(f"no diracfem sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    if not args.record and args.workload is None:
        p.error("--workload is required")
    # One CPU for this process and every process it starts, so that a probe
    # and the work it rescales run on the same CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.update((name, BLAS_THREADS) for name in THREAD_VARIABLES)

    if args.record:
        for name in [args.workload] if args.workload else sorted(WORKLOADS):
            if start_worker(["--workload", name, "--record"], env, None).returncode:
                return 1
        return 0

    started = time.perf_counter()
    try:
        setup_s, setup_wall_s = (None, None) if args.trace else measure_setup(env)
        done = start_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env, DEADLINE_S - (time.perf_counter() - started))
    except subprocess.CalledProcessError as exc:
        print(f"import of diracfem.cli failed ({exc.returncode})", file=sys.stderr)
        return 1
    except subprocess.TimeoutExpired:
        print(f"the run did not finish within {DEADLINE_S:.0f} s", file=sys.stderr)
        return 1
    if done.returncode:
        print(f"worker exited {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if setup_s is not None:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        result["wall_clock"]["setup_s"] = setup_wall_s
    result.update(workload=args.workload, trace=args.trace, seconds=args.seconds)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True) + "\n")

    env_stamp = result["environment"]
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"closed loop with one client, trace {args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env_stamp.items()))
    if "tail" in result:
        print(f"latency_ref_s.tail is the p{result['tail']['rank']} of "
              f"{result['tail']['samples']} requests")
    for name, m in result["metrics"].items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    if "wall_clock" in result:
        print("on the wall clock, not rescaled:")
        for name, value in result["wall_clock"].items():
            print(f"  {name:36s} {value:.6g}")
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
