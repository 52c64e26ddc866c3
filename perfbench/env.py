"""Paths, pinned thread counts and the helpers that start the programs under
test. Everything the benchmark reads or writes lives in the checkout it runs
from: the build in .bench_build/, scratch files in .bench_out/."""

import json
import os
import subprocess
import time
from pathlib import Path

import loadgen

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
QUTES = BUILD / "qutes" / "tools" / "qutes"
QUTESD = BUILD / "qutes" / "tools" / "qutesd"
PROBE = BUILD / "perfbench_probe"

NPROC = len(os.sched_getaffinity(0))
# OpenMP threads per process and qutesd workers: pinned, the same on every
# commit, and together no more than the box has.
THREADS = min(2, NPROC)
WORKERS = min(2, NPROC)


def child_env():
    # Passive waiting: OpenMP threads sleep between parallel regions instead
    # of spinning. On a VM whose vCPUs share host cores, a spinning thread
    # can hold the core its partner needs for a whole host time slice; on an
    # otherwise idle box that turned a 2.5 ms `qutes run ghz.qut` into 16 ms
    # and made whole runs jump between two modes.
    return dict(os.environ, OMP_NUM_THREADS=str(THREADS), OMP_WAIT_POLICY="passive")


def probe(*args):
    """Run perfbench_probe; return its stdout lines parsed as JSON."""
    proc = subprocess.run([str(PROBE), *map(str, args)], env=child_env(),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"perfbench_probe {args[0]}: {proc.stderr.strip()}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def run_process(cmd):
    """Run one process. Returns (start, end, exit code, stdout, stderr, peak
    RSS in MB from the process's own wait4 rusage)."""
    with open(OUT / "proc.stdout", "w+") as out, open(OUT / "proc.stderr", "w+") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=child_env())
        _, status, usage = os.wait4(proc.pid, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return start, end, proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024.0


def start_daemon(cache_mb, trace_path=None):
    # A relative socket path keeps it under sockaddr_un's ~107-byte limit.
    sock = str((OUT / f"qutesd-{os.getpid()}.sock").relative_to(ROOT))
    return loadgen.Daemon(str(QUTESD), sock, child_env(), WORKERS, cache_mb,
                          str(trace_path) if trace_path else None)
