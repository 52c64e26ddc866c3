"""Load generator for qutesd: daemon lifecycle, NDJSON connections, and the
closed and open request loops the benchmark workloads are built from.

Requests are sent from the caller's thread at their due times; a reader
thread per connection stamps each response as it arrives. The delay between
a request's due time and its send is measured (lateness), not hidden.
"""

import json
import os
import queue
import signal
import socket
import subprocess
import threading
import time

# A request that gets no answer within this many seconds is a failure.
REQUEST_TIMEOUT_S = 30.0


def vm_hwm_mb(pid):
    """Peak resident set of a live process, from /proc/<pid>/status VmHWM."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Daemon:
    """One qutesd process on a socket under the benchmark's output dir."""

    def __init__(self, binary, sock_path, env, workers, cache_mb, trace_path=None):
        self.sock_path = sock_path
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        cmd = [binary, "--socket", sock_path, "--workers", str(workers),
               "--cache-mb", str(cache_mb)]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE)
        deadline = time.monotonic() + 20.0
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError("qutesd exited at start: " +
                                   self.proc.stderr.read().decode(errors="replace"))
            try:
                conn = Connection(sock_path)
                conn.call({"op": "ping", "id": "ready"})
                conn.close()
                return
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise RuntimeError("qutesd did not come up")
                time.sleep(0.01)

    def peak_rss_mb(self):
        return vm_hwm_mb(self.proc.pid)

    def stop(self):
        """Graceful SIGTERM drain; kill if it does not finish."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stderr.close()
        if os.path.exists(self.sock_path):
            os.unlink(self.sock_path)


class Connection:
    """A pipelined NDJSON connection: send lines, read lines by id."""

    def __init__(self, sock_path):
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(sock_path)
        self.buffer = b""

    def send_line(self, line):
        self.sock.sendall(line)

    def read_lines(self):
        """Block until data arrives; return the complete lines ([] at EOF)."""
        data = self.sock.recv(1 << 20)
        if not data:
            return None
        self.buffer += data
        *lines, self.buffer = self.buffer.split(b"\n")
        return [line for line in lines if line]

    def read_line(self):
        """The next complete line (for a caller with one request in flight)."""
        while b"\n" not in self.buffer:
            data = self.sock.recv(1 << 20)
            if not data:
                raise ConnectionError("qutesd closed the connection")
            self.buffer += data
        line, _, self.buffer = self.buffer.partition(b"\n")
        return line

    def call(self, request):
        """One synchronous round trip."""
        self.send_line(json.dumps(request).encode() + b"\n")
        return json.loads(self.read_line())

    def close(self):
        self.sock.close()


class Op:
    """One request: its due time, send time, completion and response."""

    __slots__ = ("index", "request", "label", "line", "due", "sent", "done",
                 "response", "raw")

    def __init__(self, index, request, due=None):
        self.index = index
        # "_label" names the op's group for per-program statistics; it is
        # not sent.
        self.label = request.pop("_label", index)
        request["id"] = str(index)
        self.request = request
        self.line = json.dumps(request).encode() + b"\n"
        self.due = due
        self.sent = None
        self.done = None
        self.response = None
        self.raw = None

    @property
    def latency_ms(self):
        return (self.done - self.due) * 1000.0

    @property
    def lateness_ms(self):
        return (self.sent - self.due) * 1000.0

    @property
    def ok(self):
        return self.response is not None and self.response.get("ok", False)


class Pool:
    """A fixed set of connections. One reader thread per connection stamps
    each response the moment it arrives; the caller's thread only sends, so
    a send is never delayed behind parsing a response."""

    def __init__(self, sock_path, connections):
        self.conns = [Connection(sock_path) for _ in range(connections)]
        self.lock = threading.Lock()
        self.pending = {}  # request id -> (Op, Connection)
        self.completed = queue.SimpleQueue()
        self.readers = [threading.Thread(target=self._read, args=(conn,), daemon=True)
                        for conn in self.conns]
        for reader in self.readers:
            reader.start()

    def _read(self, conn):
        try:
            while True:
                lines = conn.read_lines()
                now = time.monotonic()
                if lines is None:
                    return
                for line in lines:
                    response = json.loads(line)
                    with self.lock:
                        entry = self.pending.pop(response.get("id"), None)
                    if entry is None:
                        self.completed.put(RuntimeError(f"unmatched response {line[:120]!r}"))
                        continue
                    op = entry[0]
                    op.done = now
                    op.response = response
                    op.raw = line.decode()
                    self.completed.put(entry)
        except OSError:
            return  # the pool was closed

    def close(self):
        for conn in self.conns:
            try:
                conn.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for reader in self.readers:
            reader.join()
        for conn in self.conns:
            conn.close()

    def outstanding(self):
        with self.lock:
            return [op for op, _ in self.pending.values()]

    def send(self, op, conn):
        with self.lock:
            self.pending[op.request["id"]] = (op, conn)
        op.sent = time.monotonic()
        if op.due is None:
            op.due = op.sent
        conn.send_line(op.line)

    def poll(self, timeout):
        """Wait up to `timeout` seconds for a completion; return every
        (op, connection) completed by then."""
        finished = []
        try:
            item = self.completed.get(timeout=max(0.0, timeout))
            while True:
                if isinstance(item, Exception):
                    raise item
                finished.append(item)
                item = self.completed.get_nowait()
        except queue.Empty:
            return finished

    def drain(self, deadline):
        while self.outstanding() and time.monotonic() < deadline:
            self.poll(min(0.1, deadline - time.monotonic()))


def closed_loop(sock_path, connections, make_request, seconds):
    """One caller thread per connection, each sending its next request the
    moment the previous response arrives (its due time). Runs for `seconds`,
    or until make_request returns None."""
    ops = []
    lock = threading.Lock()
    errors = []
    start = time.monotonic()
    end = start + seconds

    def caller():
        conn = Connection(sock_path)
        conn.sock.settimeout(REQUEST_TIMEOUT_S)
        due = None
        try:
            while True:
                with lock:
                    if time.monotonic() >= end:
                        return
                    request = make_request(len(ops))
                    if request is None:
                        return
                    op = Op(len(ops), request, due=due)
                    ops.append(op)
                op.sent = time.monotonic()
                if op.due is None:
                    op.due = op.sent
                conn.send_line(op.line)
                line = conn.read_line()
                op.done = due = time.monotonic()
                op.raw = line.decode()
                op.response = json.loads(line)
        except (OSError, ValueError) as e:
            errors.append(e)  # the op stays unanswered; the gate reports it
        finally:
            conn.close()

    threads = [threading.Thread(target=caller) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(op.done or time.monotonic() for op in ops) - start
    return ops, elapsed


def open_loop(pool, make_request, arrivals, abort_misses=None, limit_ms=None):
    """Send request i at its due time arrivals[i] (seconds from now), round
    robin over the connections, whether or not earlier ones have returned.
    Requests are built before the clock starts; if make_request returns None
    the schedule is cut there.

    With `abort_misses`, the loop stops as soon as that many requests have
    missed `limit_ms` (completed late, or still outstanding past it): the
    backlog is growing and the step can no longer pass."""
    ops = []
    for i in range(len(arrivals)):
        request = make_request(i)
        if request is None:
            break  # inputs used up: the loop ends early
        ops.append(Op(i, request))
    start = time.monotonic() + 0.01
    misses = 0
    aborted = False
    for op, offset in zip(ops, arrivals):
        op.due = start + offset
        while True:
            now = time.monotonic()
            if now >= op.due:
                break
            for done, _ in pool.poll(op.due - now):
                if limit_ms is not None and done.latency_ms > limit_ms:
                    misses += 1
        if abort_misses is not None:
            now = time.monotonic()
            overdue = sum(1 for o in pool.outstanding() if (now - o.due) * 1000.0 > limit_ms)
            if misses + overdue >= abort_misses:
                aborted = True
                break
        pool.send(op, pool.conns[op.index % len(pool.conns)])
    sent = [op for op in ops if op.sent is not None]
    pool.drain(time.monotonic() + (5.0 if aborted else REQUEST_TIMEOUT_S))
    return sent, aborted
