"""The three workloads, their end-to-end metrics, and the traced pass that
measures each layer. perfbench/README.md describes what each one measures
and why."""

import json
import math
import statistics
import subprocess
import time

import loadgen
from env import (NPROC, OUT, PROBE, QUTES, ROOT, WORKERS, child_env, probe,
                 run_process, start_daemon)
from gates import (GateError, check_cli, check_miss_share, check_responses,
                   expected_pattern, may_miss)

SETUP_REPEATS = 5

CLI_BACKENDS = ("auto", "mps")
CLI_REPLAY = 64
# Runs of each (program, backend) pair per pass. Grover's pair takes most of
# a pass's ~10 s and runs once; every other pair takes milliseconds, and one
# process start can be off by half, so its median needs more than the two or
# three samples whole passes give it.
CLI_REPEATS = 4
CLI_ONCE = ("grover",)

WARM_BACKENDS = ("statevector", "auto")
WARM_SHOTS = 1024
WARM_CACHE_MB = 64
# One 1024-shot grover request holds a worker for about a minute; grover's
# trajectories are measured in cli_programs.
WARM_EXCLUDED = ("grover",)
# Open-loop Poisson rate of the latency phase: about a third of the
# capacity on a 4-core box, so that queueing shows without dominating.
WARM_RATE = 40.0
# Share of the measured time in the open-loop latency phase; the rest is
# the closed loop that measures throughput.
WARM_OPEN_SHARE = 0.6
WARM_CHECKED = 24  # responses re-run in-process per run

COLD_SHOTS = 64
COLD_CACHE_MB = 1
COLD_POOL = 80000  # never-seen sources generated per set-up
COLD_CHECKED = 24
# Untimed requests before the measured phase, so that it starts with a full
# cache that evicts on every insert.
COLD_WARMUP_S = 2.0
# qutesd_cold reports medians over windows of this width (see Phase).
COLD_WINDOW_S = 1.0

# The rate ladder behind server.sustained_rps: 10 to 2560 requests/s in
# steps of 2^(1/16) (4.4%). A step passes when no request fails, at most 1%
# miss LADDER_LIMIT_MS (its p99 meets the limit) and completions keep up
# with arrivals (no growing backlog).
LADDER = tuple(round(10.0 * 2 ** (k / 16), 3) for k in range(129))
LADDER_LIMIT_MS = 250.0
LADDER_STEP_S = 3.0
LADDER_STRIDE = 4  # rungs per climbing step (19%)
LADDER_MAX_STEPS = 8
LADDER_BACKLOG_SHARE = 0.9

END_TO_END = (
    ("setup_s", "s"), ("latency_geomean_ms", "ms"), ("throughput_ops_per_s", "1/s"),
)
PER_LAYER = (
    ("lang.compile_ms", "ms"), ("lang.tokens_per_s", "1/s"), ("lang.lower_ms", "ms"),
    ("lang.vm_ms", "ms"), ("circuit.pipeline_ms", "ms"), ("circuit.ir_gates_out", "count"),
    ("circuit.fusion_plan_ms", "ms"), ("circuit.fused_blocks", "count"),
    ("circuit.execute_ms", "ms"), ("circuit.trajectories", "count"),
    ("circuit.fast_path_share", "ratio"), ("sim.statevector.execute_ms", "ms"),
    ("sim.mps.execute_ms", "ms"), ("sim.stabilizer.execute_ms", "ms"),
    ("service.hit_ms", "ms"), ("service.miss_ms", "ms"), ("service.serialize_ms", "ms"),
    ("service.response_bytes", "bytes"), ("service.cache_hit_ratio", "ratio"),
    ("service.evictions", "count"), ("service.cache_bytes", "bytes"),
    ("service.compiles_per_miss", "count"), ("server.wait_ms", "ms"),
    ("server.ping_rtt_ms", "ms"), ("server.sustained_rps", "1/s"),
    ("cli.process_floor_ms", "ms"), ("loadgen.lateness_ms", "ms"),
    ("memory.peak_rss_mb", "MB"), ("dist.latency_p50_ms", "ms"), ("dist.latency_p90_ms", "ms"),
    ("dist.latency_p99_ms", "ms"),
) + tuple((f"overhead.{name}", unit) for name, unit in END_TO_END)
UNITS = dict(END_TO_END + PER_LAYER)
# A p99 needs at least ten samples beyond it.
P99_MIN_SAMPLES = 1000
NO_DAEMON = "cli_programs runs no daemon"
NO_CLI = "this workload runs no qutes process"


class Absent:
    """A per-layer metric this run does not measure, and why."""

    def __init__(self, reason):
        self.reason = reason


# ---- statistics ----------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: a value that was actually observed."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def completion_windows(ops, width):
    """The latencies of the ops completed in each whole `width`-second window
    from the first send; the last, partial window is dropped."""
    start = min(op.sent for op in ops)
    slots = {}
    for op in ops:
        slots.setdefault(int((op.done - start) // width), []).append(op.latency_ms)
    return [slots.get(k, []) for k in range(max(slots))]


def mean_metric(values):
    return (statistics.fmean(values) if values else 0.0, "ms", len(values))


class Phase:
    """One measured phase: each op's latency and group, the phase's length,
    and the peak memory of the program under test.

    With `per_program`, the latency percentiles run over each group's median
    instead of over single ops. cli_programs needs this: its ~150 ops are 20
    programs whose times differ by orders of magnitude, so any per-op
    percentile sits on the edge between two programs and jumps between them
    from run to run.

    With `windows` (the latencies completed in each of a closed loop's
    `window_s`-second windows, as completion_windows gives them), both
    latency_geomean_ms and throughput_ops_per_s are medians over the windows:
    a slow spell of the host that covers less than half the run does not
    move them. qutesd_cold needs this: its ~1 ms requests, all front end and
    IPC, follow the host's speed more closely than any other workload."""

    def __init__(self, latencies, labels, elapsed, rss_mb, per_program=False,
                 throughput=None, windows=None, window_s=None, **extra):
        self.latencies = latencies
        self.labels = labels
        self.elapsed = elapsed
        self.rss_mb = rss_mb
        self.per_program = per_program
        # (ops, seconds) of a separate closed-loop throughput phase, if any.
        self.throughput = throughput or (len(latencies), elapsed)
        self.attempted = len(latencies) + (throughput[0] if throughput else 0)
        self.windows = windows
        self.window_s = window_s
        self.__dict__.update(extra)

    def e2e(self, setup_s):
        """Every end-to-end metric as (value, unit, sample count)."""
        n = len(self.latencies)
        groups = {}
        for label, ms in zip(self.labels, self.latencies):
            groups.setdefault(label, []).append(ms)
        medians = [statistics.median(v) for v in groups.values()]
        ranked = medians if self.per_program else self.latencies
        done, seconds = self.throughput
        if self.windows:
            latency = statistics.median(geomean(w) for w in self.windows if w)
            throughput = statistics.median(len(w) for w in self.windows) / self.window_s
        else:
            latency, throughput = geomean(medians), done / seconds
        return {
            "setup_s": (setup_s, "s", SETUP_REPEATS),
            "latency_geomean_ms": (latency, "ms", len(medians)),
            "throughput_ops_per_s": (throughput, "1/s", done),
            # Reported per layer: their spread across seeds was too wide to bound.
            "dist.latency_p50_ms": (percentile(ranked, 0.50), "ms", len(ranked)),
            "dist.latency_p90_ms": (percentile(ranked, 0.90), "ms", len(ranked)),
            "dist.latency_p99_ms": (
                (percentile(ranked, 0.99), "ms", len(ranked)) if len(ranked) >= P99_MIN_SAMPLES
                else Absent(f"{len(ranked)} samples, fewer than {P99_MIN_SAMPLES}")),
        }


def overhead_metrics(plain, traced):
    """Traced minus untraced, for every end-to-end metric."""
    return {f"overhead.{name}": (traced[name][0] - plain[name][0], unit, traced[name][2])
            for name, unit in END_TO_END}



# ---- spans ---------------------------------------------------------------------

class Spans:
    """The load generator's spans: name, start, end, parent, op id and the
    op's program/backend/shots. Kept in memory; written when the run ends."""

    def __init__(self):
        self.records = []

    def add(self, name, start, end, op, parent=-1, **attrs):
        self.records.append({"id": len(self.records), "name": name, "start": start,
                             "end": end, "parent": parent, "op": op, **attrs})
        return len(self.records) - 1

    def add_requests(self, ops):
        for op in ops:
            if op.done is None:
                continue
            root = self.add("request", op.due, op.done, op.index,
                            program=str(op.label), backend=op.request.get("backend"),
                            shots=op.request.get("shots"))
            self.add("loadgen.lateness", op.due, op.sent, op.index, root)
            self.add("server.round_trip", op.sent, op.done, op.index, root,
                     elapsed_ms=op.response.get("elapsed_ms"))

    def write(self, path):
        with open(path, "w") as f:
            for record in self.records:
                f.write(json.dumps(record) + "\n")


# ---- daemon-side measurements ----------------------------------------------------

def daemon_stats(sock):
    conn = loadgen.Connection(sock)
    try:
        return conn.call({"op": "stats", "id": "stats"})["stats"]
    finally:
        conn.close()


def stats_delta(before, after):
    delta = {k: after[k] - before[k]
             for k in ("cache_hits", "cache_misses", "compiles", "evictions")}
    delta["cache_bytes"] = after["cache_bytes"]
    return delta


def service_layer(delta):
    lookups = delta["cache_hits"] + delta["cache_misses"]
    misses = delta["cache_misses"]
    return {
        "service.cache_hit_ratio": (delta["cache_hits"] / lookups if lookups else 0.0,
                                    "ratio", lookups),
        "service.evictions": (float(delta["evictions"]), "count", lookups),
        "service.cache_bytes": (float(delta["cache_bytes"]), "bytes", 1),
        "service.compiles_per_miss": (delta["compiles"] / misses if misses else 0.0,
                                      "count", misses),
    }


def server_layer(ops, sock):
    """server.wait_ms (client round trip minus the daemon's own elapsed_ms)
    and server.ping_rtt_ms at idle."""
    waits = [(op.done - op.sent) * 1000.0 - op.response.get("elapsed_ms", 0.0)
             for op in ops if op.ok]
    conn = loadgen.Connection(sock)
    rtts = []
    try:
        for i in range(50):
            t0 = time.monotonic()
            conn.call({"op": "ping", "id": f"ping{i}"})
            rtts.append((time.monotonic() - t0) * 1000.0)
    finally:
        conn.close()
    return {"server.wait_ms": mean_metric(waits),
            "server.ping_rtt_ms": (statistics.median(rtts), "ms", len(rtts))}


def check_in_process(ops, sample, rng, name, also=()):
    """Re-run a seeded sample of responses, plus `also`, in-process
    (perfbench_probe check): counts must be bit-identical under the same seed
    and an error must be the error the request raises in-process."""
    ok_ops = [op for op in ops if op.ok]
    chosen = rng.sample(ok_ops, min(sample, len(ok_ops))) + list(also)
    path = OUT / f"{name}-check.ndjson"
    with open(path, "w") as f:
        for op in chosen:
            f.write(op.line.decode() + op.raw + "\n")
    result = probe("check", path)[0]
    if result["mismatches"]:
        raise GateError(f"{name}: {result['mismatches']} of {result['checked']} responses "
                        f"differ from the same request in-process: {result['first']}")


def poisson_arrivals(rng, rate, seconds):
    """A Poisson process over `seconds` conditioned on exactly
    round(rate * seconds) arrivals (sorted uniform times): runs differ in when
    requests arrive, not in how many."""
    return sorted(rng.uniform(0.0, seconds) for _ in range(round(rate * seconds)))


def ladder_step(sock, make_request, rate, rng):
    arrivals = poisson_arrivals(rng, rate, LADDER_STEP_S)
    allowed = len(arrivals) // 100
    pool = loadgen.Pool(sock, WORKERS)
    try:
        ops, aborted = loadgen.open_loop(pool, make_request, arrivals,
                                         abort_misses=allowed + 1, limit_ms=LADDER_LIMIT_MS)
    finally:
        pool.close()
    deadline = time.monotonic() + loadgen.REQUEST_TIMEOUT_S
    while daemon_stats(sock)["queue_depth"] and time.monotonic() < deadline:
        time.sleep(0.05)  # let an aborted step's backlog clear
    done = [op for op in ops if op.done is not None]
    failed = sum(1 for op in ops if not op.ok)
    missed = sum(1 for op in done if op.latency_ms > LADDER_LIMIT_MS) + len(ops) - len(done)
    span = max(op.done for op in done) - min(op.due for op in ops) if done else 1.0
    achieved = len(done) / span
    keeps_up = achieved >= LADDER_BACKLOG_SHARE * len(ops) / LADDER_STEP_S
    passed = not aborted and failed == 0 and missed <= allowed and keeps_up
    return passed, {"rate": rate, "sent": len(ops), "failed": failed, "missed": missed,
                    "keeps_up": keeps_up, "passed": passed, "achieved": achieved}


def rate_ladder(sock, make_request, start, rng):
    """The highest LADDER rung that passes: climb (or descend) LADDER_STRIDE
    rungs at a time from rung `start`, then bisect between the highest pass
    and the lowest failure, in at most LADDER_MAX_STEPS steps once a rung has
    passed. Reports the completion rate measured on that rung."""
    steps, best = [], None
    lo = hi = None  # highest passing rung, lowest failing rung
    i = start
    while True:
        passed, step = ladder_step(sock, make_request, LADDER[i], rng)
        steps.append(step)
        if passed:
            lo, best = i, (step["achieved"], "1/s", step["sent"])
        else:
            hi = i
        if hi is None:
            if i == len(LADDER) - 1:
                break
            i = min(i + LADDER_STRIDE, len(LADDER) - 1)
        elif lo is None:
            if i == 0:
                best = (0.0, "1/s", step["sent"])  # not even the lowest rung holds
                break
            # Nothing has passed yet: keep descending, twice as far each time.
            i = max(i - LADDER_STRIDE * 2 ** (len(steps) - 1), 0)
            continue
        elif hi - lo > 1:
            i = (lo + hi) // 2
        else:
            break
        if len(steps) >= LADDER_MAX_STEPS:
            break
    print("ladder:", json.dumps(steps))
    return best


def probe_trace(name, ops, service_ops, mode, cache_mb=WARM_CACHE_MB):
    """perfbench_probe trace: the in-process stage chain over `ops`, then
    `service_ops` (if any) through an in-process Service."""
    args = ["trace", "--mode", mode, "--cache-mb", cache_mb,
            "--spans", OUT / f"{name}-probe-spans.jsonl"]
    for flag, rows in (("--ops", ops), ("--service-ops", service_ops)):
        if not rows:
            continue
        path = OUT / f"{name}-trace{flag[1:]}.ndjson"
        with open(path, "w") as f:
            for i, row in enumerate(rows):
                f.write(json.dumps({"id": str(i)} | row) + "\n")
        args += [flag, path]
    lines = probe(*args)
    summary = {k: (v["value"], v["unit"], v["n"]) for k, v in lines[-1]["summary"].items()}
    return lines[:-1], summary


def process_floor(count=20):
    """cli.process_floor_ms: `qutes run` on an empty program."""
    empty = OUT / "empty.qut"
    empty.write_text("")
    walls = []
    for _ in range(count):
        t0, t1, rc, _, stderr, _ = run_process([str(QUTES), "run", str(empty)])
        if rc != 0:
            raise GateError(f"qutes run on an empty program: exit {rc}: {stderr.strip()}")
        walls.append((t1 - t0) * 1000.0)
    return (statistics.median(walls), "ms", count)


def program_source(program):
    return (ROOT / "examples" / "programs" / f"{program}.qut").read_text()


def example_programs():
    programs = sorted(p.stem for p in (ROOT / "examples" / "programs").glob("*.qut"))
    if not programs:
        raise SystemExit("perfbench: no examples/programs/*.qut in the checkout")
    return programs


class KeyStream:
    """Seeded requests over fixed keys: each block of len(keys) requests is a
    fresh shuffle of every key, so every run sees the same mix."""

    def __init__(self, rng, requests):
        self.rng = rng
        self.requests = requests  # label -> request
        self.block = []

    def __call__(self, _index):
        if not self.block:
            self.block = list(self.requests)
            self.rng.shuffle(self.block)
        label = self.block.pop()
        return self.requests[label] | {"seed": self.rng.randrange(1, 2 ** 31),
                                       "_label": label}


class Workload:
    """What the workloads share: per-layer metrics a workload never measures
    (name -> why), its daemon if it has one, and the hooks run() calls."""

    absent = {}
    daemon = None

    def teardown(self):
        if self.daemon:
            self.daemon.stop()
            self.daemon = None

    def check_run(self):
        """Gates over the whole run, after every phase has been measured."""

    def daemon_layers(self, rng, phase):
        return {}


# ---- cli_programs ------------------------------------------------------------------

class CliPrograms(Workload):
    """Every examples/programs/*.qut as its own `qutes run --replay 64`
    process, under --backend auto and --backend mps, CLI_REPEATS times per
    pass (grover once); one caller, closed loop, seeded order."""

    name = "cli_programs"
    absent = {name: NO_DAEMON for name, _ in PER_LAYER if name.startswith(("service.", "server."))}

    def __init__(self):
        self.programs = example_programs()
        self.trace_dir = None
        self.searches = self.misses = 0  # ops of programs that may miss, misses

    def setup(self, rng, traced=False):
        start = time.monotonic()
        self.patterns = {p: expected_pattern(p) for p in self.programs}
        self.trace_dir = OUT / "cli-obs" if traced else None
        cmd = [str(QUTES), "run", str(OUT / "empty.qut")]
        (OUT / "empty.qut").write_text("")
        if self.trace_dir:
            self.trace_dir.mkdir(exist_ok=True)
            cmd += ["--trace", str(self.trace_dir / "setup.json")]
        # Page the binary in, as any later run finds it. Ten runs rather than
        # one, so that one slow process start does not decide setup_s.
        for _ in range(10):
            run_process(cmd)
        return time.monotonic() - start

    def measure(self, rng, seconds, spans=None):
        """Whole passes over every (program, backend), each CLI_REPEATS
        times (CLI_ONCE programs once), in seeded order: as many passes as fit
        in `seconds` at the mean pass time so far (at least one)."""
        records = []
        start = prev_end = time.monotonic()
        passes = 0
        while passes == 0 or (prev_end - start) * (passes + 1) / passes <= seconds:
            passes += 1
            order = [(p, b, rng.randrange(1, 2 ** 31))
                     for p in self.programs for b in CLI_BACKENDS
                     for _ in range(1 if p in CLI_ONCE else CLI_REPEATS)]
            rng.shuffle(order)
            for program, backend, seed in order:
                cmd = [str(QUTES), "run", str(ROOT / "examples" / "programs" / f"{program}.qut"),
                       "--seed", str(seed), "--replay", str(CLI_REPLAY), "--backend", backend]
                if self.trace_dir:
                    cmd += ["--trace", str(self.trace_dir / f"{len(records)}.json")]
                t0, t1, rc, stdout, stderr, rss = run_process(cmd)
                ran_on, counts, missed = check_cli(program, backend, rc, stdout, stderr,
                                                   self.patterns[program])
                if may_miss(self.patterns[program]):
                    self.searches += 1
                    self.misses += missed
                if spans is not None:
                    root = spans.add("cli.op", prev_end, t1, len(records), program=program,
                                     backend=backend, shots=CLI_REPLAY)
                    spans.add("cli.process", t0, t1, len(records), root, program=program,
                              backend=ran_on, shots=CLI_REPLAY)
                records.append({"program": program, "backend": backend, "seed": seed,
                                "ms": (t1 - t0) * 1000.0, "lateness_ms": (t0 - prev_end) * 1000.0,
                                "rss_mb": rss, "stdout": stdout, "counts": counts})
                prev_end = t1
        return Phase([r["ms"] for r in records], [(r["program"], r["backend"]) for r in records],
                     prev_end - start, max(r["rss_mb"] for r in records), per_program=True,
                     records=records)

    def check_run(self):
        check_miss_share(self.searches, self.misses, self.name)

    def layers(self, rng, phase):
        # The in-process stages of every op must reproduce the CLI's output
        # and counts (qutes run is run_source plus printing).
        ops = [{"op": "run", "source": program_source(r["program"]), "backend": r["backend"],
                "shots": CLI_REPLAY, "seed": r["seed"]} for r in phase.records]
        results, layer = probe_trace(self.name, ops, [], mode="cli")
        for r, got in zip(phase.records, results):
            if got.get("output") != r["stdout"] or got.get("counts") != r["counts"]:
                raise GateError(f"in-process stages of {r['program']} ({r['backend']}, "
                                f"seed {r['seed']}) differ from qutes run")
        layer["loadgen.lateness_ms"] = mean_metric([r["lateness_ms"] for r in phase.records])
        layer["cli.process_floor_ms"] = process_floor()
        return layer


# ---- qutesd_warm -------------------------------------------------------------------

class QutesdWarm(Workload):
    """Warm qutesd hits: every program but grover, compiled at set-up under
    statevector and auto; a seeded open loop of Poisson arrivals sends
    1024-shot runs with fresh seeds, then a closed loop over the same keys
    measures throughput."""

    name = "qutesd_warm"
    absent = {"sim.mps.execute_ms": "no warm key runs on mps (backends statevector and auto)",
              "cli.process_floor_ms": NO_CLI}

    def __init__(self):
        programs = [p for p in example_programs() if p not in WARM_EXCLUDED]
        self.requests = {(p, b): {"op": "run", "source": program_source(p), "backend": b,
                                  "shots": WARM_SHOTS}
                         for p in programs for b in WARM_BACKENDS}

    def setup(self, rng, traced=False):
        start = time.monotonic()
        self.daemon = start_daemon(WARM_CACHE_MB, OUT / "qutesd_warm-obs.json" if traced else None)
        conn = loadgen.Connection(self.daemon.sock_path)
        try:
            for (program, backend), request in self.requests.items():
                resp = conn.call(request | {"seed": 1, "id": program})
                if not resp.get("ok"):
                    raise GateError(f"warm-up of {program} ({backend}): {resp.get('error')}")
        finally:
            conn.close()
        return time.monotonic() - start

    def measure(self, rng, seconds, spans=None):
        sock = self.daemon.sock_path
        before = daemon_stats(sock)
        pool = loadgen.Pool(sock, WORKERS)
        try:
            ops, _ = loadgen.open_loop(pool, KeyStream(rng, self.requests),
                                       poisson_arrivals(rng, WARM_RATE, seconds * WARM_OPEN_SHARE))
        finally:
            pool.close()
        # Throughput: a closed loop over the same key mix, one caller per
        # worker, so it counts what the daemon can serve, not the offered rate.
        closed, closed_s = loadgen.closed_loop(sock, WORKERS, KeyStream(rng, self.requests),
                                               seconds * (1.0 - WARM_OPEN_SHARE))
        delta = stats_delta(before, daemon_stats(sock))
        for batch in (ops, closed):
            check_responses(batch, self.name, expect_cache="hit")
        if delta["cache_misses"] or delta["compiles"]:
            raise GateError(f"{self.name}: {delta['cache_misses']} misses in the measured phase")
        check_in_process(ops + closed, WARM_CHECKED, rng, self.name)
        if spans is not None:
            spans.add_requests(ops)
        elapsed = max(op.done for op in ops) - min(op.due for op in ops)
        return Phase([op.latency_ms for op in ops], [op.label for op in ops], elapsed,
                     self.daemon.peak_rss_mb(), throughput=(len(closed), closed_s),
                     ops=ops, delta=delta)

    def daemon_layers(self, rng, phase):
        layer = service_layer(phase.delta)
        layer.update(server_layer(phase.ops, self.daemon.sock_path))
        layer["loadgen.lateness_ms"] = mean_metric([op.lateness_ms for op in phase.ops])
        layer["server.sustained_rps"] = rate_ladder(
            self.daemon.sock_path, KeyStream(rng, self.requests), 52, rng)
        return layer

    def layers(self, rng, phase):
        warmup = [r | {"seed": 1} for r in self.requests.values()]
        sample = [dict(op.request) for op in phase.ops[:len(warmup) * 4]]
        return probe_trace(self.name, warmup, warmup + sample, mode="service")[1]


# ---- qutesd_cold -------------------------------------------------------------------

def lower_verdicts(sources):
    """The lang::lower_source verdict of each source, computed after the
    measured phase (untimed) by parallel probe processes."""
    size = max(1, math.ceil(len(sources) / NPROC))
    procs = []
    for k in range(0, len(sources), size):
        path = OUT / f"verdicts-{k}.ndjson"
        with open(path, "w") as f:
            for src in sources[k:k + size]:
                f.write(json.dumps(src) + "\n")
        procs.append(subprocess.Popen([str(PROBE), "verdicts", str(path)], env=child_env(),
                                      stdout=subprocess.PIPE, text=True))
    verdicts = []
    for proc in procs:
        out, _ = proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError("perfbench_probe verdicts failed")
        verdicts += [json.loads(line) for line in out.splitlines()]
    return verdicts


class QutesdCold(Workload):
    """Compile-cache misses: a daemon with a 1 MiB cache, so inserts evict; a
    closed loop over the worker count's connections where every request is a
    never-seen random program (a seeded half with pipeline o1)."""

    name = "qutesd_cold"
    absent = {"sim.mps.execute_ms": "every cold request runs on statevector",
              "sim.stabilizer.execute_ms": "every cold request runs on statevector",
              "service.hit_ms": "every cold request is a miss",
              "cli.process_floor_ms": NO_CLI}

    def setup(self, rng, traced=False):
        start = time.monotonic()
        self.sources = probe("cold-gen", "--seed", rng.randrange(1, 2 ** 62), "--count", COLD_POOL)
        self.next_source = 0
        self.daemon = start_daemon(COLD_CACHE_MB, OUT / "qutesd_cold-obs.json" if traced else None)
        return time.monotonic() - start

    def request(self, rng):
        """The next never-seen source as a run request (None when the pool
        is used up)."""
        if self.next_source >= len(self.sources):
            return None
        src = self.sources[self.next_source]
        self.next_source += 1
        return {"op": "run", "source": src["source"], "pipeline": src["pipeline"],
                "shots": COLD_SHOTS, "seed": rng.randrange(1, 2 ** 31), "backend": "statevector"}

    def measure(self, rng, seconds, spans=None):
        sock = self.daemon.sock_path
        warmup, _ = loadgen.closed_loop(sock, WORKERS, lambda _: self.request(rng), COLD_WARMUP_S)
        check_responses(warmup, f"{self.name} warm-up", expect_cache="miss",
                        expect_ok=lambda op: None)
        first = self.next_source
        before = daemon_stats(sock)
        ops, elapsed = loadgen.closed_loop(sock, WORKERS, lambda _: self.request(rng), seconds)
        delta = stats_delta(before, daemon_stats(sock))
        if self.next_source == len(self.sources):
            print(f"note: {self.name} used all {COLD_POOL} pooled sources")
        if delta["cache_hits"]:
            raise GateError(f"{self.name}: {delta['cache_hits']} hits on never-seen sources")
        # A source lower_source rejects must be refused. One it accepts may
        # still raise a run-time diagnostic (e.g. the qubit budget); every
        # such response is re-run in-process and must carry the same error.
        verdicts = lower_verdicts(self.sources[first:first + len(ops)])
        check_responses(ops, self.name, expect_cache="miss",
                        expect_ok=lambda op: None if verdicts[op.index]["lower_ok"] else False)
        diagnosed = [op for op in ops if not op.ok and verdicts[op.index]["lower_ok"]]
        check_in_process(ops, COLD_CHECKED, rng, self.name, diagnosed)
        if spans is not None:
            spans.add_requests(ops)
        # Each source is its own program: each window's geometric mean runs
        # over its ops.
        return Phase([op.latency_ms for op in ops], [op.index for op in ops], elapsed,
                     self.daemon.peak_rss_mb(), windows=completion_windows(ops, COLD_WINDOW_S),
                     window_s=COLD_WINDOW_S, ops=ops, delta=delta)

    def daemon_layers(self, rng, phase):
        layer = service_layer(phase.delta)
        layer.update(server_layer(phase.ops, self.daemon.sock_path))
        layer["loadgen.lateness_ms"] = mean_metric([op.lateness_ms for op in phase.ops])
        layer["server.sustained_rps"] = rate_ladder(
            self.daemon.sock_path, lambda _: self.request(rng), 108, rng)
        return layer

    def layers(self, rng, phase):
        sample = [dict(op.request) for op in phase.ops[:40]]
        return probe_trace(self.name, sample, sample, mode="service", cache_mb=COLD_CACHE_MB)[1]


WORKLOADS = {w.name: w for w in (CliPrograms, QutesdWarm, QutesdCold)}


def run(workload, rng, seconds, traced):
    """Set up SETUP_REPEATS times (setup_s is the median), then measure.
    Traced: half the time untraced, half with the load generator's spans and
    the program's own obs trace on (the difference is the tracing overhead),
    then the per-layer measurements. Returns (metrics, ops attempted); a
    per-layer metric the run does not measure is an Absent."""
    setups = []
    for i in range(SETUP_REPEATS):
        if i:
            workload.teardown()
        setups.append(workload.setup(rng))
    setup_s = statistics.median(setups)
    try:
        plain = workload.measure(rng, seconds / 2 if traced else seconds)
    finally:
        workload.teardown()
    if not traced:
        workload.check_run()
        return plain.e2e(setup_s), plain.attempted

    spans = Spans()
    traced_setup_s = workload.setup(rng, traced=True)
    try:
        phase = workload.measure(rng, seconds / 2, spans)
        layer = workload.daemon_layers(rng, phase)
    finally:
        workload.teardown()
    workload.check_run()
    layer.update(workload.layers(rng, phase))
    layer["memory.peak_rss_mb"] = (max(plain.rss_mb, phase.rss_mb), "MB", 2)
    spans.write(OUT / f"{workload.name}-spans.jsonl")
    plain_metrics = plain.e2e(setup_s)
    overhead = overhead_metrics(plain_metrics, phase.e2e(traced_setup_s))
    dist = {k: v for k, v in plain_metrics.items() if k.startswith("dist.")}
    metrics = layer | overhead | dist
    for name, reason in workload.absent.items():
        metrics.setdefault(name, Absent(reason))
    return metrics, plain.attempted + phase.attempted
