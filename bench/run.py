#!/usr/bin/env python3
"""Benchmark of hyperhop's build and query phases, end to end and per layer.

A run generates its workload's inputs from the seed, then makes two
rounds of: a cold build (empty caches), a warm build (same caches), set-ups
(load the index, make the clients, answer a warm-up question) and a share of
the questions, asked in a closed loop by one client. The questions take
--seconds in all and at least one full pass. Every operation is checked.

The last line of standard output is the result as JSON; with --trace 1 it
holds the per-layer metrics of BENCHMARK.json instead of the end-to-end
ones, and the spans go to .bench_build/hyperhop/traces/. End-to-end times
are reference-machine times (see calibration.py). The line before the
metrics holds the environment, the measured times, the sample count and the
digest of every selection of the first pass.

    python3 bench/run.py --workload query_multihop --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seconds 20      # every workload, one process each

Run it from anywhere inside a hyperhop checkout; it reads and writes only
there. The exit code is 0 when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CACHE = ROOT / ".bench_build" / "hyperhop"
BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cap_blas_threads() -> int:
    """Allow one BLAS thread; must run before numpy is imported.

    The query path's BLAS calls are matrix-vector sized: a second thread
    gained about 5% on 2 cores, and on a shared machine it ties each call to
    the slower of two cores, which widens the spread between runs.
    """
    for var in BLAS_CAPS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(nproc: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "cpu": _cpu_model(),
        **{var: os.environ[var] for var in BLAS_CAPS},
    }


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(args, scale: float) -> int:
    nproc = _cap_blas_threads()
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workload

    metrics, gate, detail, spans = workload.run(
        ROOT, CACHE, args.workload, args.seed, args.seconds, bool(args.trace), scale
    )
    declared = _declared()["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        differ = sorted(set(metrics) ^ set(units))
        raise RuntimeError(f"metrics disagree with BENCHMARK.json: {differ}")
    if spans is not None:
        path = CACHE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
        detail["spans"] = str(path.relative_to(ROOT))

    print(json.dumps({"env": environment(nproc), **detail, "errors": gate.errors}))
    for name in units:
        print(f"{name:42s} {metrics[name]:>16.6g} {units[name]}")
    print(f"attempted {gate.attempted}  failed {gate.failed}")
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    for w in _declared()["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {w['name']}: {w['why']}", flush=True)
        proc = subprocess.run(cmd, cwd=ROOT)
        status = status or proc.returncode
    print("all workloads passed their checks" if status == 0 else "a workload FAILED its checks")
    return status


def main(argv: list[str] | None = None, scale: float = 1.0) -> int:
    """``scale`` shrinks the shape of the named workload; only the benchmark's
    tests set it, and the detail line records it."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload of BENCHMARK.json; all when omitted")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hyperhop").is_dir() or not (ROOT / "tests" / "reference.py").is_file():
        print(f"bench: {ROOT} is not a hyperhop checkout "
              "(src/hyperhop or tests/reference.py missing)", file=sys.stderr)
        return 2
    return run_one(args, scale) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
