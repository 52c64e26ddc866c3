#!/usr/bin/env python3
"""End-to-end benchmark of the two ways a Qutes program gets run: `qutes run`
as a process, and a request to the qutesd daemon.

    python3 perfbench/run.py --workload cli_programs --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run it from the repository root. The first run builds the repository's own
CMake project (Release) plus perfbench/probe.cpp into .bench_build/. The
workloads and metrics are described in perfbench/README.md.

With --trace 0 the last stdout line is one JSON object holding every
end-to-end metric; with --trace 1 it holds every per-layer metric and the
tracing overhead. A layer the workload does not use reads 0 there, and the
table printed before it says why. Every result is stamped with the commit,
SIMD ISA, thread counts, compiler, build type and seed. The exit code is
non-zero when a correctness gate fails.
"""

import argparse
import hashlib
import json
import random
import signal
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from env import BENCH, BUILD, NPROC, OUT, ROOT, WORKERS, probe  # noqa: E402
from gates import GateError  # noqa: E402
import workloads  # noqa: E402

# A seed no tuning used: a claimed gain must also hold on it.
HELD_OUT_SEED = 90417


def build():
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "perfbench-build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "qutes_cli", "qutesd",
                  "perfbench_probe", "-j", str(min(4, NPROC))])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                sys.stderr.write(log_path.read_text()[-4000:])
                raise SystemExit("perfbench: build failed")


def commit_id():
    """git HEAD, or a hash of the sources when the checkout is not a repo."""
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                                   check=True, capture_output=True, text=True).stdout.split()
        if Path(top).resolve() == ROOT.resolve():
            return head
    except (OSError, ValueError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
                        *(ROOT / "tools").rglob("*")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def stamp(workload, seed):
    env = probe("env")[0]
    return {"commit": commit_id(), "isa": env["isa"], "omp_threads": env["omp_threads"],
            "qutesd_workers": WORKERS, "nproc": NPROC, "compiler": env["compiler"],
            "build_type": env["build_type"], "workload": workload, "seed": seed,
            "held_out_seed": HELD_OUT_SEED}


def run_one(name, args):
    """One workload: stamp, metric table, then the JSON result line."""
    info = stamp(name, args.seed)
    print("stamp:", json.dumps(info))
    traced = args.trace == 1
    try:
        metrics, attempted = workloads.run(workloads.WORKLOADS[name](),
                                           random.Random(args.seed), args.seconds, traced)
    except GateError as gate:
        print(f"perfbench: correctness gate failed: {gate}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    wanted = [n for n, _ in (workloads.PER_LAYER if traced else workloads.END_TO_END)]
    missing = [n for n in wanted if n not in metrics]
    if missing:
        raise SystemExit(f"perfbench: metrics neither measured nor absent: {missing}")
    metrics = {n: metrics[n] for n in wanted}
    with open(OUT / f"{name}-{args.seed}-trace{args.trace}.json", "w") as f:
        json.dump({"stamp": info, "metrics": {n: getattr(m, "reason", m)
                                              for n, m in metrics.items()}}, f, indent=1)
    result = {}
    for metric, m in metrics.items():
        if isinstance(m, workloads.Absent):
            # The result line must name every metric: an absent one reads 0.
            unit = workloads.UNITS[metric]
            print(f"  {metric:32s} {'absent':>16s} {unit:6s} {m.reason}")
            result[metric] = {"value": 0.0, "unit": unit}
            continue
        value, unit, n = m
        print(f"  {metric:32s} {value:16.4f} {unit:6s} n={n}")
        result[metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": result}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the cleanup that stops the daemons runs.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    OUT.mkdir(exist_ok=True)
    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_one(name, args) for name in names)


if __name__ == "__main__":
    sys.exit(main())
