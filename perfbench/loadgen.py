"""HTTP/1.1 load from one thread over a few keep-alive connections.

* :func:`open_loop` sends each request at its scheduled time whether or
  not earlier answers have arrived (requests queue on the connection),
  and times each answer from that scheduled time, so a stall counts
  against every request that waited behind it.  How late the generator
  itself ran is reported separately.
* :func:`closed_loop` keeps one request in flight per connection and
  waits a fixed think time after each answer, as polling dashboards do.

Both use non-blocking sockets and one ``selectors`` loop, so the client
needs no more threads than one and no more connections than asked for.
"""

from __future__ import annotations

import selectors
import socket
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter

#: Seconds an open loop waits for answers after its last due time.
DRAIN_S = 10.0


@dataclass
class Answer:
    target: str
    status: int
    body: bytes
    due: float
    done: float

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0


@dataclass
class LoadReport:
    answers: list = field(default_factory=list)
    #: Requests never answered (connection lost or drain deadline).
    lost: list = field(default_factory=list)
    #: Seconds each open-loop send ran behind its schedule.
    late: list = field(default_factory=list)
    sent: int = 0
    seconds: float = 0.0


class _Connection:
    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.pending: deque = deque()  # (target, due)
        self.closed = False
        self.mask = selectors.EVENT_READ

    def send_pending(self) -> None:
        while self.wbuf:
            try:
                sent = self.sock.send(self.wbuf)
            except BlockingIOError:
                return
            del self.wbuf[:sent]

    def responses(self):
        """Pop every complete (status, body) in the read buffer."""
        out = []
        buf = self.rbuf
        while True:
            head_end = buf.find(b"\r\n\r\n")
            if head_end < 0:
                break
            head = bytes(buf[:head_end])
            length = 0
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                if name.strip().lower() == b"content-length":
                    length = int(value.strip())
            end = head_end + 4 + length
            if len(buf) < end:
                break
            status = int(head.split(b" ", 2)[1])
            out.append((status, bytes(buf[head_end + 4:end])))
            del buf[:end]
        return out

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass


def _request(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("latin-1")


def _pump(selector, connections, timeout: float, report: LoadReport, on_answer) -> None:
    """One select round: flush writes, read, hand answers to ``on_answer``."""
    for conn in connections:
        if conn.wbuf and not conn.closed:
            conn.send_pending()
        if not conn.closed:
            mask = selectors.EVENT_READ | (selectors.EVENT_WRITE if conn.wbuf else 0)
            if mask != conn.mask:
                selector.modify(conn.sock, mask, conn)
                conn.mask = mask
    for key, mask in selector.select(max(timeout, 0.0)):
        conn = key.data
        if mask & selectors.EVENT_WRITE:
            conn.send_pending()
        if not mask & selectors.EVENT_READ:
            continue
        try:
            data = conn.sock.recv(1 << 18)
        except (BlockingIOError, InterruptedError):
            continue
        except OSError:
            data = b""
        if not data:
            selector.unregister(conn.sock)
            conn.close()
            report.lost.extend(target for target, _due in conn.pending)
            conn.pending.clear()
            continue
        conn.rbuf += data
        done = perf_counter()
        for status, body in conn.responses():
            target, due = conn.pending.popleft()
            on_answer(conn, Answer(target, status, body, due, done))


def _open(host: str, port: int, count: int):
    selector = selectors.DefaultSelector()
    connections = [_Connection(host, port) for _ in range(count)]
    for conn in connections:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    return selector, connections


def _close(selector, connections) -> None:
    for conn in connections:
        if not conn.closed:
            selector.unregister(conn.sock)
            conn.close()
    selector.close()


def open_loop(host: str, port: int, schedule: list, connections: int) -> LoadReport:
    """Send ``schedule`` = [(offset seconds, target), ...] on time.

    Request ``i`` goes on connection ``i % connections``; answers are
    timed from ``start + offset``.  Requests still unanswered
    ``DRAIN_S`` after the last due time are reported lost.
    """
    report = LoadReport()
    selector, conns = _open(host, port, connections)
    encoded = {}
    start = perf_counter() + 0.01
    index = 0
    last_due = start + (schedule[-1][0] if schedule else 0.0)
    try:
        while True:
            now = perf_counter()
            while index < len(schedule) and start + schedule[index][0] <= now:
                offset, target = schedule[index]
                conn = conns[index % connections]
                due = start + offset
                if conn.closed:
                    report.lost.append(target)
                else:
                    request = encoded.get(target)
                    if request is None:
                        request = encoded[target] = _request(target)
                    conn.wbuf += request
                    conn.pending.append((target, due))
                    report.late.append(now - due)
                    report.sent += 1
                index += 1
            waiting = any(conn.pending for conn in conns)
            if index >= len(schedule) and not waiting:
                break
            if index >= len(schedule) and now > last_due + DRAIN_S:
                for conn in conns:
                    report.lost.extend(target for target, _due in conn.pending)
                    conn.pending.clear()
                break
            timeout = (start + schedule[index][0] - now) if index < len(schedule) else 0.05
            _pump(selector, conns, min(timeout, 0.05), report,
                  lambda _conn, answer: report.answers.append(answer))
    finally:
        _close(selector, conns)
    report.seconds = perf_counter() - start
    return report


def closed_loop(host: str, port: int, next_target, connections: int,
                think_s: float, timeout_s: float) -> LoadReport:
    """Poll until ``next_target(answer_or_None)`` returns None everywhere.

    Each connection sends ``next_target(previous answer)`` (None for its
    first request), waits for the answer, then ``think_s`` seconds.
    Latency is timed from each send.
    """
    report = LoadReport()
    selector, conns = _open(host, port, connections)
    ready_at = {id(conn): perf_counter() for conn in conns}
    stopped: set = set()
    previous: dict = {id(conn): None for conn in conns}
    deadline = perf_counter() + timeout_s

    def on_answer(conn, answer: Answer) -> None:
        report.answers.append(answer)
        previous[id(conn)] = answer
        ready_at[id(conn)] = answer.done + think_s

    try:
        while True:
            now = perf_counter()
            for conn in conns:
                key = id(conn)
                if conn.closed or key in stopped or conn.pending or ready_at[key] > now:
                    continue
                target = next_target(previous[key])
                if target is None:
                    stopped.add(key)
                    continue
                conn.wbuf += _request(target)
                conn.pending.append((target, perf_counter()))
                report.sent += 1
            active = [c for c in conns if not c.closed and (c.pending or id(c) not in stopped)]
            if not active:
                break
            if now > deadline:
                for conn in conns:
                    report.lost.extend(target for target, _due in conn.pending)
                    conn.pending.clear()
                break
            waits = [ready_at[id(c)] - now for c in active if not c.pending]
            _pump(selector, conns, min(waits + [0.05]), report, on_answer)
    finally:
        _close(selector, conns)
    return report
