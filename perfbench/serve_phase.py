"""The served-query phase: ``repro serve`` on the reordered family tree.

Clients reach the reordered program through its dispatcher names, so a
request reads like a query of the original program. The load comes
from this one process and one thread (asyncio) over two connections:

* an open loop at a fixed offered rate, pipelined, replies matched by
  ``id``, each request timed from when it was due;
* then a closed loop, each connection sending its next request when
  the previous reply is in.

While the phase runs, a pacer process (``pacer.py``) on each CPU spins
at idle priority, so the server and the load generator preempt it at
once. It keeps the CPUs from halting between requests: on the shared
2-vCPU reference host, waking a halted vCPU added 1–3 ms of
host-dependent delay to a round trip. And it times the pace kernel
(:func:`util.pace_kernel`) in the CPU's idle moments, so the host's pace
on both CPUs is known for the very seconds the requests were served.
Both loops run in segments of about a second; each segment's latencies
and throughput are scaled to the reference pace by the mean of the two
CPUs' pace over that segment.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import random
import selectors
import signal
import subprocess
import sys
from time import perf_counter, sleep
from typing import Dict, List, Optional, Tuple

from repro.programs import family_tree
from repro.prolog.engine import Engine
from repro.prolog.reader.parser import parse_term
from repro.prolog.writer import term_to_string

from util import REFERENCE_PACE_S, median

HERE = os.path.dirname(os.path.abspath(__file__))

#: One request in this many is an update.
UPDATE_EVERY = 50
READ_MODES = ("--", "-+", "+-", "++")
#: Seconds a run waits for replies or for the server to start or stop.
WAIT_S = 30.0
#: The open loop spins (yielding) for this long before each due time.
SPIN_S = 0.002
#: Kernel times a pace estimate needs; a window holding fewer takes the
#: ones nearest to it.
PACE_SAMPLES = 5
#: Seconds the pacers get after each closed-loop segment, which leaves
#: them little idle time.
PACE_GAP_S = 0.15
#: Requests per open-loop segment, and seconds per closed-loop segment.
OPEN_SEGMENT = 100
CLOSED_SEGMENT_S = 0.5


class Server:
    """A ``repro serve`` subprocess on an ephemeral TCP port."""

    def __init__(self, root: str, program: str, spans_path: Optional[str] = None):
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", program, "--port", "0"]
        else:
            launcher = os.path.join(root, "perfbench", "serve_traced.py")
            command = [sys.executable, launcher, spans_path, program, "--port", "0"]
        started = perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            line = self._first_line()
            self.host, port = line.split(" on ", 1)[1].split()[0].rsplit(":", 1)
            self.port = int(port)
            asyncio.run(_ping(self.host, self.port))
        except BaseException:
            self.stop()
            raise
        #: Subprocess spawn to the first answered ping.
        self.startup_s = perf_counter() - started

    def _first_line(self) -> str:
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stderr, selectors.EVENT_READ)
            if not selector.select(WAIT_S):
                raise RuntimeError("serve: server did not start")
        line = self.process.stderr.readline().decode("utf-8", "replace")
        if " on " not in line:
            raise RuntimeError(f"serve: unexpected server output {line.strip()!r}")
        return line

    def stop(self) -> None:
        """Drain with SIGTERM (the traced server then writes its spans)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(WAIT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stderr.close()


class Pacer:
    """A ``pacer.py`` process on one CPU, and the kernel times it reports."""

    def __init__(self, cpu: int):
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "pacer.py"), str(cpu), str(os.getpid())],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        )
        os.set_blocking(self.process.stdout.fileno(), False)
        self._partial = b""
        #: (perf_counter at the kernel's end, its CPU seconds)
        self.samples: List[Tuple[float, float]] = []

    def drain(self) -> None:
        while True:
            try:
                chunk = os.read(self.process.stdout.fileno(), 1 << 16)
            except BlockingIOError:
                return
            if not chunk:
                return
            *lines, self._partial = (self._partial + chunk).split(b"\n")
            for line in lines:
                end, seconds = line.split()
                self.samples.append((float(end), float(seconds)))

    def wait_ready(self) -> None:
        deadline = perf_counter() + WAIT_S
        while True:
            self.drain()
            if len(self.samples) >= PACE_SAMPLES:
                return
            if perf_counter() > deadline or self.process.poll() is not None:
                raise RuntimeError("serve: the pacer reports no kernel times")
            sleep(0.02)

    def factor(self, begin: float, end: float) -> float:
        """Reference pace ÷ this CPU's pace between ``begin`` and ``end``."""
        self.drain()
        inside = [seconds for at, seconds in self.samples if begin <= at <= end]
        if len(inside) < PACE_SAMPLES:
            middle = (begin + end) / 2
            nearest = sorted(self.samples, key=lambda sample: abs(sample[0] - middle))
            inside = [seconds for _at, seconds in nearest[:PACE_SAMPLES]]
        return REFERENCE_PACE_S / median(inside)

    def stop(self) -> None:
        self.process.kill()
        self.process.wait()
        self.process.stdout.close()


async def _ping(host: str, port: int) -> None:
    deadline = perf_counter() + WAIT_S
    while True:
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError:
            if perf_counter() > deadline:
                raise
            await asyncio.sleep(0.01)
            continue
        writer.write(b'{"op": "ping", "id": "ping"}\n')
        reply = json.loads(await reader.readline())
        writer.close()
        await writer.wait_closed()
        if reply.get("status") != "ok":
            raise RuntimeError(f"serve: ping answered {reply}")
        return


def toggle_fact(rng: random.Random) -> str:
    """The seeded base fact every update toggles."""
    facts = [f"mother({c}, {m})" for c, m in family_tree.MOTHER_FACTS]
    facts += [f"wife({h}, {w})" for h, w in family_tree.WIFE_FACTS]
    return rng.choice(facts)


def make_ops(rng: random.Random, count: int) -> List[Optional[str]]:
    """``count`` requests: query texts, with ``None`` marking an update.

    Reads come in blocks holding each predicate × mode class once, in a
    seeded order, so every class has the same weight in every run (the
    open ``(-,-)`` classes set the tail latency).
    """
    persons = family_tree.PERSONS
    classes = [
        (name, mode)
        for name, _arity in family_tree.TESTED_PREDICATES
        for mode in READ_MODES
    ]
    block: List[Tuple[str, str]] = []
    ops: List[Optional[str]] = []
    for index in range(count):
        if index % UPDATE_EVERY == UPDATE_EVERY - 1:
            ops.append(None)
            continue
        if not block:
            block = rng.sample(classes, len(classes))
        name, mode = block.pop()
        args = [rng.choice(persons) if m == "+" else var for m, var in zip(mode, "XY")]
        ops.append(f"{name}({args[0]}, {args[1]})")
    return ops


class Load:
    """Client state shared by the open and the closed loop."""

    def __init__(self, host: str, port: int, fact: str):
        self.host, self.port, self.fact = host, port, fact
        #: Updates sent so far; update k moves generation k to k + 1.
        self.updates = 0
        #: (phase, query or None, due, sent, received, reply, update number)
        self.records: List[tuple] = []
        #: Per record: the pace factor of its segment.
        self.factors: List[float] = []

    def scale(self, factor: float) -> None:
        """Give the records of the segment that just ended ``factor``."""
        self.factors += [factor] * (len(self.records) - len(self.factors))

    def message(self, request_id: str, query: Optional[str]) -> Tuple[bytes, int]:
        if query is not None:
            body = {"op": "query", "id": request_id, "query": query}
            number = -1
        else:
            number, self.updates = self.updates, self.updates + 1
            # The fact is present at even generations.
            body = (
                {"op": "update", "id": request_id, "retract": [self.fact]}
                if number % 2 == 0
                else {"op": "update", "id": request_id, "assert": [self.fact + "."]}
            )
        return (json.dumps(body) + "\n").encode(), number

    async def connect(self):
        return await asyncio.open_connection(self.host, self.port, limit=1 << 24)

    async def open_loop(self, ops: List[Optional[str]], rate: float) -> None:
        loop = asyncio.get_running_loop()
        connections = [await self.connect() for _ in range(2)]
        waiting: Dict[str, asyncio.Future] = {}

        async def read(reader):
            while True:
                line = await reader.readline()
                if not line:
                    return
                received = perf_counter()
                reply = json.loads(line)
                future = waiting.pop(reply.get("id"), None)
                if future is not None:
                    future.set_result((received, reply))

        readers = [asyncio.create_task(read(reader)) for reader, _ in connections]
        pending = []
        last_update: Optional[asyncio.Future] = None
        start = perf_counter() + 0.05
        for index, query in enumerate(ops):
            due = start + index / rate
            delay = due - perf_counter()
            if delay > SPIN_S:
                await asyncio.sleep(delay - SPIN_S)
            # The loop's timers fire up to a millisecond late; yielding
            # in a spin for the last stretch keeps replies flowing and
            # sends on time.
            while perf_counter() < due:
                await asyncio.sleep(0)
            if query is None and last_update is not None and not last_update.done():
                # Updates apply in the order sent, so parity tracks state.
                await asyncio.wait([last_update], timeout=WAIT_S)
            request_id = f"o{index}"
            future = loop.create_future()
            waiting[request_id] = future
            data, number = self.message(request_id, query)
            sent = perf_counter()
            connections[index % 2][1].write(data)
            pending.append(("open", query, due, sent, future, number))
            if query is None:
                last_update = future
        await asyncio.wait([entry[4] for entry in pending], timeout=WAIT_S)
        for phase, query, due, sent, future, number in pending:
            received, reply = future.result() if future.done() else (None, None)
            self.records.append((phase, query, due, sent, received, reply, number))
        await _close(connections, readers)

    async def closed_loop(self, source, seconds: float) -> float:
        """Two connections, one request outstanding each, drawing
        ``(index, query)`` from ``source``; returns seconds."""
        update_lock = asyncio.Lock()
        deadline = perf_counter() + seconds

        async def client(reader, writer):
            for index, query in source:
                if perf_counter() >= deadline:
                    return
                if query is None:
                    async with update_lock:
                        await self._exchange(reader, writer, index, query)
                else:
                    await self._exchange(reader, writer, index, query)

        connections = [await self.connect() for _ in range(2)]
        started = perf_counter()
        await asyncio.wait_for(
            asyncio.gather(*(client(r, w) for r, w in connections)),
            seconds + WAIT_S,
        )
        elapsed = perf_counter() - started
        await _close(connections, [])
        return elapsed

    async def _exchange(self, reader, writer, index: int, query: Optional[str]) -> None:
        data, number = self.message(f"c{index}", query)
        sent = perf_counter()
        writer.write(data)
        line = await reader.readline()
        received = perf_counter()
        self.records.append(
            ("closed", query, sent, sent, received, json.loads(line), number)
        )

    async def stats(self) -> Dict[str, object]:
        reader, writer = await self.connect()
        writer.write(b'{"op": "stats", "id": "stats"}\n')
        reply = json.loads(await reader.readline())
        await _close([(reader, writer)], [])
        return reply


async def _close(connections, tasks) -> None:
    for _reader, writer in connections:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    for task in tasks:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)


class Oracle:
    """Answers of the original family tree at each generation parity."""

    def __init__(self, fact: str):
        present = family_tree.database()
        absent = present.copy()
        target = parse_term(fact)
        indicator = (target.name, target.arity)
        absent.replace_predicate(
            indicator,
            [c for c in present.clauses(indicator) if term_to_string(c.head) != fact],
        )
        self.engines = (Engine(present), Engine(absent))
        self._memo: Dict[Tuple[str, int], frozenset] = {}

    def answers(self, query: str, generation: int) -> frozenset:
        key = (query, generation % 2)
        if key not in self._memo:
            self._memo[key] = frozenset(
                tuple(sorted((n, term_to_string(t)) for n, t in s.bindings.items()))
                for s in self.engines[key[1]].ask(query)
            )
        return self._memo[key]


def served_answers(reply) -> frozenset:
    return frozenset(tuple(sorted(s.items())) for s in reply["solutions"])


def check(records, oracle: Oracle) -> Tuple[int, int, List[str]]:
    """(failed, wrong, errors) over every request's reply."""
    failed = wrong = 0
    errors: List[str] = []
    for _phase, query, _due, _sent, received, reply, number in records:
        if received is None or reply.get("status") != "ok":
            failed += 1
            continue
        if query is None:
            if reply.get("generation") != number + 1 or (
                reply.get("retracted", 0) + reply.get("asserted", 0) != 1
            ):
                wrong += 1
                errors.append(f"serve: update {number} answered {reply}")
        elif served_answers(reply) != oracle.answers(query, reply["generation"]):
            wrong += 1
            if len(errors) < 5:
                errors.append(f"serve: wrong answers to {query} at {reply['generation']}")
    return failed, wrong, errors


def run(
    root: str,
    program: str,
    rng: random.Random,
    rate: float,
    open_count: int,
    closed_seconds: float,
    spawns: int,
    spans_path: Optional[str] = None,
) -> Dict[str, object]:
    """Spawn the server ``spawns`` times (keeping the last), then drive it."""
    fact = toggle_fact(rng)
    open_ops, closed_ops = make_ops(rng, open_count), make_ops(rng, 1 << 16)
    cpus = os.sched_getaffinity(0)
    # With two CPUs or more, the server gets all but one and the load
    # generator the last, so the two never queue for the same CPU.
    client = {max(cpus)} if len(cpus) > 1 else cpus
    host = cpus - client or cpus
    pacers: List[Pacer] = []

    def factor(begin: float) -> float:
        """The mean pace factor of the CPUs from ``begin`` to now."""
        end = perf_counter()
        return sum(pacer.factor(begin, end) for pacer in pacers) / len(pacers)

    startups = []
    server = None
    try:
        for cpu in sorted(cpus):
            pacers.append(Pacer(cpu))
        for pacer in pacers:
            pacer.wait_ready()
        for attempt in range(spawns):
            os.sched_setaffinity(0, host)
            begin = perf_counter()
            server = Server(root, program, spans_path if attempt == spawns - 1 else None)
            os.sched_setaffinity(0, client)
            sleep(PACE_GAP_S)
            startups.append(server.startup_s * factor(begin))
            if attempt < spawns - 1:
                server.stop()
        load = Load(server.host, server.port, fact)
        closed_qps = []
        # A collection in the load generator would stall the schedule.
        gc.disable()
        for first in range(0, open_count, OPEN_SEGMENT):
            begin = perf_counter()
            asyncio.run(load.open_loop(open_ops[first:first + OPEN_SEGMENT], rate))
            load.scale(factor(begin))
        source = iter(enumerate(closed_ops))
        for _ in range(max(1, round(closed_seconds / CLOSED_SEGMENT_S))):
            done = len(load.records)
            begin = perf_counter()
            seconds = asyncio.run(load.closed_loop(source, CLOSED_SEGMENT_S))
            answered = sum(
                1 for record in load.records[done:]
                if record[4] is not None and record[5].get("status") == "ok"
            )
            sleep(PACE_GAP_S)
            pace = factor(begin)
            load.scale(pace)
            closed_qps.append(answered / (seconds * pace))
        stats = asyncio.run(load.stats())
    finally:
        gc.enable()
        if server is not None:
            server.stop()
        os.sched_setaffinity(0, cpus)
        for pacer in pacers:
            pacer.stop()
    failed, wrong, errors = check(load.records, Oracle(fact))
    summary = summarize(load.records, load.factors, stats, startups, failed, wrong, errors)
    summary["serve_max_qps"] = median(closed_qps)
    return summary


def summarize(records, factors, stats, startups, failed, wrong, errors) -> Dict[str, object]:
    """Latencies at the reference pace; the lateness and the server/transport
    split as measured."""
    inf = float("inf")
    reads, updates, late, server, transport, rtt = [], [], [], [], [], []
    for record, factor in zip(records, factors):
        phase, query, due, sent, received, reply, _number = record
        if phase == "closed":
            continue
        ok = received is not None and reply.get("status") == "ok"
        late.append((sent - due) * 1e3)
        latency = (received - due) * 1e3 * factor if ok else inf
        (updates if query is None else reads).append(latency)
        if ok and query is not None:
            round_trip = (received - sent) * 1e3
            rtt.append(round_trip)
            server.append(reply["elapsed_ms"])
            transport.append(round_trip - reply["elapsed_ms"])
    return {
        "startups": startups,
        "reads": reads,
        "updates": updates,
        "late_ms": late,
        "server_ms": server,
        "transport_ms": transport,
        "rtt_ms": rtt,
        "stats": stats,
        "records": records,
        "attempted": len(records),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
    }
