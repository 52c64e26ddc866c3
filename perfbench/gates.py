"""Correctness gates. A mismatch refuses the run instead of scoring it."""

import re

from env import BENCH


class GateError(Exception):
    """A correctness-gate mismatch."""


def expected_line(k, line):
    if line.startswith("~ "):
        return line[2:]
    if line.startswith("? "):
        answer, miss = line[2:].split(" | ")
        return f"{re.escape(answer)}|(?P<miss{k}>{re.escape(miss)})"
    return re.escape(line)


def expected_pattern(program):
    """perfbench/expected/<program>.out as one regex over the whole output.
    A line is matched literally; as a regex when it starts with "~ "; and
    as "? ANSWER | MISS" when a quantum search may print MISS instead of its
    answer (see misses_answer)."""
    path = BENCH / "expected" / f"{program}.out"
    if not path.exists():
        raise GateError(f"no expected output for {program}: add expected/{path.name}")
    parts = [expected_line(k, line) for k, line in enumerate(path.read_text().splitlines())]
    return re.compile("\n".join(f"(?:{p})" for p in parts))


def may_miss(pattern):
    return any(name.startswith("miss") for name in pattern.groupindex)


def misses_answer(match):
    """True when an output printed a search's tolerated miss on any line."""
    return any(v is not None for k, v in match.groupdict().items() if k.startswith("miss"))


def check_miss_share(searches, misses, where):
    """A correct search misses on a few percent of seeds; one that misses on
    more than half of a run's ops is broken."""
    if searches and misses * 2 > searches:
        raise GateError(f"{where}: {misses} of {searches} search ops printed the miss answer")


REPLAY_HEADER = re.compile(
    r"--- replay \((\d+) shots over (\d+) clbits, backend (\w+)\) ---")
HISTOGRAM_ROW = re.compile(r"([01]+): (\d+)")


def check_histogram(counts, shots, where):
    if sum(counts.values()) != shots:
        raise GateError(f"{where}: histogram sums to {sum(counts.values())}, not {shots}")
    if len({len(bits) for bits in counts}) > 1 or any(set(b) - {"0", "1"} for b in counts):
        raise GateError(f"{where}: malformed bitstrings {sorted(counts)[:4]}")


def check_cli(program, backend, rc, stdout, stderr, pattern):
    """`qutes run --replay N`: the printed output matches the expected file
    and the replay histogram on stderr sums to N. Returns (backend the replay
    ran on, counts, whether a search printed its miss answer)."""
    where = f"qutes run {program} --backend {backend}"
    if rc != 0:
        raise GateError(f"{where}: exit {rc}: {stderr.strip()[-300:]}")
    match = pattern.fullmatch(stdout.rstrip("\n"))
    if match is None:
        raise GateError(f"{where}: output {stdout!r} does not match expected/{program}.out")
    lines = stderr.splitlines()
    heads = [i for i, line in enumerate(lines) if REPLAY_HEADER.fullmatch(line)]
    if len(heads) != 1:
        raise GateError(f"{where}: no replay histogram")
    shots, clbits, ran_on = REPLAY_HEADER.fullmatch(lines[heads[0]]).groups()
    if backend != "auto" and ran_on != backend:
        raise GateError(f"{where}: replay ran on {ran_on}")
    counts = {}
    for line in lines[heads[0] + 1:]:
        row = HISTOGRAM_ROW.fullmatch(line)
        if row is None:
            break  # e.g. the note --trace prints after the histogram
        counts[row[1]] = int(row[2])
    check_histogram(counts, int(shots), where)
    if any(len(bits) != int(clbits) for bits in counts):
        raise GateError(f"{where}: bitstrings are not {clbits} wide")
    return ran_on, counts, misses_answer(match)


def check_responses(ops, name, expect_ok=None, expect_cache=None):
    """Every qutesd response arrived, has the expected verdict (expect_ok(op):
    True, False, or None for "either, checked in-process") and cache state,
    and its histogram sums to the request's shots."""
    for op in ops:
        where = f"{name} request {op.index}"
        if op.response is None:
            raise GateError(f"{where}: no response")
        want_ok = True if expect_ok is None else expect_ok(op)
        if want_ok is not None and op.ok != want_ok:
            raise GateError(f"{where}: ok={op.ok}, expected {want_ok}: "
                            f"{op.response.get('error', '')[:200]}")
        if not op.ok:
            continue
        if expect_cache and op.response.get("cache") != expect_cache:
            raise GateError(f"{where}: cache {op.response.get('cache')}, expected {expect_cache}")
        if op.response.get("counts"):
            check_histogram(op.response["counts"], op.request["shots"], where)
