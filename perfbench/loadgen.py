"""Seeded open-loop and closed-loop load generation.

The generator is one process with at most ``nproc`` worker threads,
each holding one connection at a time. In an open loop, request ``i``
is *due* at a time drawn from a seeded Poisson schedule and its latency
is timed from that due time, so a stalled server (or a generator that
fell behind) is charged for the wait it imposed on later requests. How
late each request was actually sent is recorded separately; a phase
whose lateness exceeds :data:`BEHIND_MS` at p90 is flagged as behind.

A request that fails (HTTP 429, 5xx, timeout or a connection error)
counts as failed and is charged ``timeout_ms`` of latency, so it
misses every latency limit.

The clock is injectable: tests drive the loops with a fake clock.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

#: a phase whose p90 send lateness exceeds this is flagged as behind.
BEHIND_MS = 100.0


class RealClock:
    """Monotonic wall clock."""

    def now(self) -> float:
        return time.perf_counter()

    def sleep_until(self, t: float) -> None:
        delay = t - time.perf_counter()
        if delay > 0:
            time.sleep(delay)


@dataclass
class Outcome:
    """One request's fate, all times in seconds on the generator clock."""

    index: int
    due: float
    sent: float
    done: float
    ok: bool
    result: object = None
    error: str = ""

    @property
    def late_ms(self) -> float:
        return max(0.0, self.sent - self.due) * 1000.0

    def latency_ms(self, timeout_ms: float) -> float:
        """Due-time latency; a failed request costs ``timeout_ms``."""
        if not self.ok:
            return timeout_ms
        return (self.done - self.due) * 1000.0

    @property
    def service_ms(self) -> float:
        """Send-to-answer time as the client saw it."""
        return (self.done - self.sent) * 1000.0


def poisson_schedule(rate: float, n: int, seed: int) -> List[float]:
    """``n`` due offsets (s) of a Poisson process at ``rate`` per second."""
    if rate <= 0 or n < 1:
        raise ValueError(f"need rate > 0 and n >= 1: {rate}, {n}")
    rng = random.Random(seed)
    t, out = 0.0, []
    for _ in range(n):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def _drive(
    send: Callable[[int], object],
    n: int,
    due_at: Callable[[int, float], float],
    connections: int,
    clock,
) -> List[Outcome]:
    """Run ``n`` requests over ``connections`` threads; input order out."""
    outcomes: List[Optional[Outcome]] = [None] * n
    lock = threading.Lock()
    cursor = [0]

    def worker() -> None:
        while True:
            with lock:
                i = cursor[0]
                cursor[0] += 1
            if i >= n:
                return
            due = due_at(i, clock.now())
            clock.sleep_until(due)
            sent = clock.now()
            try:
                result = send(i)
                ok, error = True, ""
            except Exception as exc:  # noqa: BLE001 - every failure counts
                result, ok, error = None, False, f"{type(exc).__name__}: {exc}"
            outcomes[i] = Outcome(i, due, sent, clock.now(), ok, result, error)

    if connections == 1:
        worker()
    else:
        threads = [threading.Thread(target=worker) for _ in range(connections)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    return outcomes  # type: ignore[return-value]


def open_loop(
    send: Callable[[int], object],
    schedule: Sequence[float],
    connections: int,
    clock=None,
) -> List[Outcome]:
    """Send request ``i`` at ``start + schedule[i]`` regardless of answers."""
    clock = clock or RealClock()
    start = clock.now()
    return _drive(
        send, len(schedule), lambda i, _now: start + schedule[i],
        connections, clock,
    )


def closed_loop(
    send: Callable[[int], object],
    n: int,
    connections: int,
    clock=None,
) -> List[Outcome]:
    """Each connection sends its next request when the last one answered."""
    clock = clock or RealClock()
    return _drive(send, n, lambda _i, now: now, connections, clock)


def lockstep(
    send: Callable[[int], object],
    n: int,
    width: int,
    clock=None,
) -> List[Outcome]:
    """Rounds of ``width`` simultaneous requests; each round starts when
    the previous one has been fully answered."""
    clock = clock or RealClock()
    out: List[Outcome] = []
    for base in range(0, n, width):
        k = min(width, n - base)
        for o in _drive(lambda i: send(base + i), k, lambda _i, now: now, k, clock):
            o.index += base
            out.append(o)
    return out
