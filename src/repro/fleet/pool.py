"""One pool of long-lived framed workers and the loop that drives it.

Every fleet sweep that leaves the calling process — plain parallel
(``workers > 1``) or supervised — and every service shard runs through
:func:`run_tasks`.  A :class:`Task` means "call this picklable
function on these payloads".  The pool keeps a few **long-lived
worker processes**, each connected back over a stream socket, feeds
them one task at a time and gets the results back by value, together
with the wall time and the ECC kernel-stats delta the worker measured
around the task.  The parent folds every remote kernel delta into its
own :data:`repro.ecc.kernel.kernel_stats`, so before/after readings
there count the whole sweep whatever the worker count.

Wire protocol (both directions)::

    offset  size  field
    0       4     frame length n (u32, little-endian)
    4       n     pickled message

Messages are ``(type, payload)`` tuples:

* ``("hello", {"worker", "pid", "protocol"})`` — worker → pool, once,
  right after connecting.  A worker that dies before its hello
  surfaces as a :class:`WorkerHandshakeError` naming its exit code —
  never a hang.
* ``("task", {"fn", "index", "attempt", "payloads", "inject"})`` —
  pool → worker: call ``fn`` on every payload.
* ``("result", {"results", "seconds", "kernel", "pid"})`` — worker →
  pool on success.
* ``("error", {"detail", "error", "traceback"})`` — worker → pool when
  the task raised; ``error`` is the pickled exception.  The worker
  stays alive and accepts further tasks.
* ``("shutdown", None)`` — pool → worker: exit the loop.

Two transports bind the protocol: ``"pipe"`` (an ``AF_UNIX`` stream
socket in a private temporary directory) and ``"tcp"`` (loopback TCP,
port chosen by the OS).  Fleet sweeps use ``"pipe"``; the service's
:func:`~repro.service.stream.submit_sweep` lets the caller choose.

With a :class:`~repro.fleet.resilience.RetryPolicy` the loop
**supervises**: the fault-injection hook fires in the worker keyed on
``(task index, attempt)``, a worker death is a ``crash``, a watchdog
overrun a ``timeout``, an in-band error an ``exception``; failed tasks
retry on the seeded backoff schedule, tasks that exhaust their retries
run once more in the calling process (quarantine), and tasks that fail
there too poison the run (:class:`PoisonedSweepError`) unless the
policy allows partial results.  Without a policy nothing is retried:
the first in-band error re-raises the job's own exception and a dead
worker raises :class:`WorkerDiedError`.  A pool lives for one
:func:`run_tasks` call.
"""

from __future__ import annotations

import copy
import multiprocessing
import os
import pickle
import selectors
import socket
import struct
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.ecc.kernel import kernel_stats
from repro.fleet import faultinject
from repro.fleet.resilience import (
    ChunkFailure,
    PoisonedSweepError,
    ResilienceReport,
    RetryPolicy,
)

#: Protocol version carried in every hello frame; a mismatch is a
#: deployment error and fails the handshake loudly.
PROTOCOL_VERSION = 2

#: Supported worker transports.
TRANSPORTS = ("pipe", "tcp")

#: Granularity of the scheduling loop (seconds); bounds how late a
#: watchdog kill or backed-off relaunch can be, never what the
#: results are.
_POLL_SECONDS = 0.05

#: Frames beyond this are a protocol violation, not a huge payload.
_MAX_FRAME = 1 << 31


class ServiceProtocolError(RuntimeError):
    """A peer sent bytes violating the framed message protocol."""


class WorkerHandshakeError(RuntimeError):
    """A pool worker failed to complete the handshake.

    Raised instead of blocking on ``accept()`` forever when a worker
    process dies (or stalls) before sending its hello frame: every
    spawned worker must check in within the handshake timeout or name
    the reason it could not.
    """


class WorkerDiedError(RuntimeError):
    """A worker of an unsupervised pool died while running a chunk.

    Nothing retries the chunk without a supervisor, so the sweep
    fails with this structured error instead of hanging.
    :attr:`failure` is the ``crash`` :class:`ChunkFailure` naming the
    chunk, the worker pid and its exit code.
    """

    def __init__(self, failure: ChunkFailure) -> None:
        self.failure = failure
        super().__init__(
            f"pool worker (pid {failure.pid}) died running chunk "
            f"{failure.chunk}: {failure.detail}")


class _RemoteTraceback(Exception):
    """A worker-side traceback, chained as the cause of its error."""

    def __str__(self) -> str:
        return self.args[0]


# ----------------------------------------------------------------------
# framing


def _encode(message: Tuple[str, object]) -> bytes:
    payload = pickle.dumps(message)
    return struct.pack("<I", len(payload)) + payload


def send_frame(sock: socket.socket, message: Tuple[str, object]
               ) -> None:
    """Send one length-prefixed pickled message."""
    sock.sendall(_encode(message))


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            raise EOFError("peer closed the connection mid-frame"
                           if chunks or remaining < count
                           else "peer closed the connection")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Tuple[str, object]:
    """Receive one length-prefixed pickled message.

    Raises :class:`EOFError` on a cleanly closed peer and
    :class:`ServiceProtocolError` on malformed framing.
    """
    (length,) = struct.unpack("<I", _recv_exact(sock, 4))
    if length > _MAX_FRAME:
        raise ServiceProtocolError(
            f"frame length {length} exceeds the protocol bound")
    message = pickle.loads(_recv_exact(sock, length))
    if not (isinstance(message, tuple) and len(message) == 2
            and isinstance(message[0], str)):
        raise ServiceProtocolError(
            "message is not a (type, payload) tuple")
    return message


# ----------------------------------------------------------------------
# transports


def _make_listener(transport: str, tmpdir: str
                   ) -> Tuple[socket.socket, Tuple]:
    """Bind a listening socket; returns ``(listener, address)``.

    The address tuple is what workers receive (picklable under every
    multiprocessing start method): ``("unix", path)`` or
    ``("tcp", host, port)``.
    """
    if transport == "pipe":
        path = os.path.join(tmpdir, "pool.sock")
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(path)
        listener.listen()
        return listener, ("unix", path)
    if transport == "tcp":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()
        return listener, ("tcp", host, port)
    raise ValueError(f"unknown transport {transport!r}; expected one "
                     f"of {TRANSPORTS}")


def _connect(address: Tuple) -> socket.socket:
    """Worker-side connect to a pool address tuple."""
    if address[0] == "unix":
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.connect(address[1])
    elif address[0] == "tcp":
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.connect((address[1], address[2]))
    else:
        raise ValueError(f"unknown address family {address[0]!r}")
    return sock


def _pool_context():
    """The platform-default multiprocessing start method.

    Deliberately not forced to ``fork``: CPython picks per platform
    and version (fork on Linux ≤ 3.13, forkserver on Linux 3.14+,
    spawn on macOS/Windows) precisely because forking a multi-threaded
    parent can deadlock children.  Task payloads are picklable, so
    every start method works; under spawn/forkserver, scripts calling
    parallel sweeps at module level need the standard
    ``if __name__ == "__main__":`` guard.
    """
    return multiprocessing.get_context()


# ----------------------------------------------------------------------
# task execution (in a worker, or in the caller for quarantine and the
# single-worker path)


def execute(fn: Callable, payloads, tripwire=None, shared=None
            ) -> Tuple[list, float, Dict[str, float]]:
    """Call *fn* on every payload; returns ``(results, seconds, kernel)``.

    *kernel* is the :data:`~repro.ecc.kernel.kernel_stats` delta of
    the calls.  *tripwire* (a fault-injection item tripwire) is
    stepped after each payload.  With *shared* given, every payload
    is deep-copied first, keeping the objects in *shared* by
    reference: the in-process path, where a job must not touch the
    caller's payloads, exactly as if they had been pickled to a
    worker.  The caller guarantees jobs never mutate *shared* (fleet
    sweeps treat device models as read-only).
    """
    before = (kernel_stats.calls, kernel_stats.rows,
              kernel_stats.seconds)
    begin = time.perf_counter()
    results = []
    for payload in payloads:
        if shared is not None:
            payload = copy.deepcopy(
                payload, {id(obj): obj for obj in shared})
        results.append(fn(payload))
        if tripwire is not None:
            tripwire.step()
    kernel = {"calls": kernel_stats.calls - before[0],
              "rows": kernel_stats.rows - before[1],
              "seconds": kernel_stats.seconds - before[2]}
    return results, time.perf_counter() - begin, kernel


def _run_task(task: Dict[str, object]) -> bytes:
    """Run one task frame; returns the encoded reply frame."""
    try:
        spec = (faultinject.active_spec(task["index"], task["attempt"])
                if task["inject"] else None)
        results, seconds, kernel = execute(
            task["fn"], task["payloads"], faultinject.entry_fire(spec))
        return _encode(("result", {"results": results,
                                   "seconds": seconds,
                                   "kernel": kernel,
                                   "pid": os.getpid()}))
    except Exception as error:
        try:
            blob = pickle.dumps(error)
        except Exception:
            blob = None
        return _encode(("error", {
            "detail": f"{type(error).__name__}: {error}",
            "error": blob, "traceback": traceback.format_exc()}))


def worker_main(address: Tuple, worker_id: int) -> None:
    """Entry point of one long-lived pool worker process.

    Connects back to the pool, introduces itself, then runs tasks
    until told to shut down.
    """
    sock = _connect(address)
    try:
        send_frame(sock, ("hello", {"worker": int(worker_id),
                                    "pid": os.getpid(),
                                    "protocol": PROTOCOL_VERSION}))
        while True:
            try:
                kind, task = recv_frame(sock)
            except EOFError:
                return
            if kind == "shutdown":
                return
            if kind != "task":
                raise ServiceProtocolError(
                    f"worker expected a task frame, got {kind!r}")
            sock.sendall(_run_task(task))
    finally:
        sock.close()


def _remote_error(payload: Dict[str, object]) -> BaseException:
    """The job's own exception from an error frame, remote traceback
    chained as its cause."""
    try:
        error = pickle.loads(payload["error"])
    except Exception:
        error = RuntimeError(payload["detail"])
    error.__cause__ = _RemoteTraceback(payload["traceback"])
    return error


# ----------------------------------------------------------------------
# the pool and its scheduling loop


@dataclass
class Task:
    """One unit of pool work: call ``fn`` on each of ``payloads``.

    ``index`` is the task's chunk (or shard) number — its
    fault-injection coordinate and its name in failure records;
    ``digest`` identifies the payload content and seeds the retry
    backoff jitter.
    """

    index: int
    fn: Callable
    payloads: List[object]
    digest: str = ""
    attempt: int = 0
    ready_at: float = 0.0


@dataclass(frozen=True)
class TaskResult:
    """The result envelope of one finished task.

    ``results`` holds ``fn(payload)`` per payload, in order (``None``
    for a poisoned task under ``allow_partial``); ``seconds`` and
    ``kernel`` were measured around the task in the process that ran
    it, ``worker`` is that process's pid.
    """

    index: int
    results: Optional[list]
    seconds: float
    kernel: Dict[str, float]
    attempt: int
    worker: Optional[int]
    degraded: bool = False
    poisoned: bool = False


@dataclass(eq=False)
class _Worker:
    """One connected worker (identity-hashed: lives in the selector)."""

    proc: object
    sock: socket.socket
    pid: int
    task: Optional[Task] = None
    deadline: Optional[float] = None


class _Pool:
    """The processes, sockets and selector of one :func:`run_tasks`."""

    def __init__(self, transport: str, tmpdir: str,
                 handshake_timeout: float) -> None:
        self.listener, self.address = _make_listener(transport, tmpdir)
        self.handshake_timeout = float(handshake_timeout)
        self.selector = selectors.DefaultSelector()
        self.workers: List[_Worker] = []
        self.ctx = _pool_context()
        self.next_id = 0

    def spawn(self, count: int) -> None:
        """Start *count* workers, then complete every handshake."""
        starting = {}
        for _ in range(count):
            proc = self.ctx.Process(target=worker_main,
                                    args=(self.address, self.next_id),
                                    daemon=True)
            proc.start()
            starting[self.next_id] = proc
            self.next_id += 1
        deadline = time.monotonic() + self.handshake_timeout
        self.listener.settimeout(_POLL_SECONDS)
        try:
            while starting:
                for worker_id, proc in starting.items():
                    if not proc.is_alive():
                        raise WorkerHandshakeError(
                            f"pool worker {worker_id} (pid {proc.pid}) "
                            f"exited with code {proc.exitcode} before "
                            f"completing the handshake")
                if time.monotonic() >= deadline:
                    raise WorkerHandshakeError(
                        f"{len(starting)} pool worker(s) did not "
                        f"complete the handshake within "
                        f"{self.handshake_timeout:g}s")
                try:
                    sock, _ = self.listener.accept()
                except socket.timeout:
                    continue
                sock.settimeout(self.handshake_timeout)
                try:
                    kind, hello = recv_frame(sock)
                except (EOFError, OSError):
                    sock.close()
                    continue  # a dying worker's half-open connection
                if kind != "hello" or hello.get("worker") not in starting:
                    sock.close()
                    raise ServiceProtocolError(
                        f"expected a hello frame, got {kind!r}")
                if hello.get("protocol") != PROTOCOL_VERSION:
                    sock.close()
                    raise WorkerHandshakeError(
                        f"pool worker {hello['worker']} speaks protocol "
                        f"{hello.get('protocol')}, the pool speaks "
                        f"{PROTOCOL_VERSION}")
                sock.settimeout(None)
                worker = _Worker(starting.pop(hello["worker"]), sock,
                                 int(hello["pid"]))
                self.workers.append(worker)
                self.selector.register(sock, selectors.EVENT_READ,
                                       worker)
        finally:
            for proc in starting.values():
                proc.kill()
                proc.join()

    def exit_code(self, worker: _Worker) -> Optional[int]:
        """The exit code of a worker whose connection dropped."""
        worker.proc.join(timeout=1.0)
        return worker.proc.exitcode

    def retire(self, worker: _Worker) -> None:
        """Kill, reap and forget one worker."""
        self.selector.unregister(worker.sock)
        worker.sock.close()
        worker.proc.kill()
        worker.proc.join()
        self.workers.remove(worker)

    def shutdown(self) -> None:
        """Stop every worker (busy ones are killed) and the listener."""
        for worker in self.workers:
            if worker.task is not None:
                worker.proc.kill()
            else:
                try:
                    send_frame(worker.sock, ("shutdown", None))
                except OSError:
                    pass
            worker.sock.close()
        for worker in self.workers:
            worker.proc.join(timeout=5.0)
            if worker.proc.is_alive():  # pragma: no cover - stuck
                worker.proc.kill()
                worker.proc.join()
        self.selector.close()
        self.listener.close()


def run_tasks(tasks: List[Task], workers: int,
              policy: Optional[RetryPolicy] = None,
              report: Optional[ResilienceReport] = None, *,
              shared=(), transport: str = "pipe",
              handshake_timeout: float = 30.0
              ) -> Iterator[TaskResult]:
    """Run *tasks* on a pool of at most *workers* long-lived processes.

    Yields one :class:`TaskResult` per task in completion order.  With
    a *policy* the run is supervised (see the module docstring) and
    every failure lands in *report*; quarantined tasks re-run in this
    process on deep copies of their payloads, keeping the objects in
    *shared* by reference.  Without one, the first failure ends the
    run.  The pool is torn down when the iterator finishes or is
    closed.
    """
    if not tasks:
        return
    width = max(1, min(int(workers), len(tasks)))
    pending: List[Task] = list(tasks)
    quarantined: List[Task] = []
    with tempfile.TemporaryDirectory(prefix="repro-pool-") as tmpdir:
        pool = _Pool(transport, tmpdir, handshake_timeout)

        def fail(worker: _Worker, kind: str, detail: str,
                 retire: bool) -> None:
            task = worker.task
            failure = ChunkFailure(
                kind=kind, chunk=task.index, attempt=task.attempt,
                pid=worker.pid, payload_digest=task.digest,
                detail=detail)
            worker.task = worker.deadline = None
            if retire:
                pool.retire(worker)
            if policy is None:
                raise WorkerDiedError(failure)
            report.failures.append(failure)
            if task.attempt < policy.max_retries:
                delay = policy.backoff_delay(task.digest, task.attempt)
                task.attempt += 1
                task.ready_at = time.monotonic() + delay
                report.retried += 1
                pending.append(task)
            else:
                quarantined.append(task)

        try:
            while pending or any(w.task for w in pool.workers):
                if pending and len(pool.workers) < width:
                    pool.spawn(width - len(pool.workers))
                now = time.monotonic()
                for worker in [w for w in pool.workers if w.task is None]:
                    task = next((t for t in pending if t.ready_at <= now),
                                None)
                    if task is None:
                        break
                    pending.remove(task)
                    worker.task = task
                    if policy is not None and policy.chunk_timeout:
                        worker.deadline = now + policy.chunk_timeout
                    try:
                        send_frame(worker.sock, ("task", {
                            "fn": task.fn, "index": task.index,
                            "attempt": task.attempt,
                            "payloads": task.payloads,
                            "inject": policy is not None}))
                    except OSError:
                        fail(worker, "crash", "worker connection lost "
                             "while sending the task", retire=True)

                busy = [w for w in pool.workers if w.task is not None]
                if not busy:
                    if pending:
                        wake = min(task.ready_at for task in pending)
                        time.sleep(min(_POLL_SECONDS,
                                       max(0.0, wake - time.monotonic())))
                    continue
                timeout = _POLL_SECONDS
                deadlines = [w.deadline for w in busy
                             if w.deadline is not None]
                if deadlines:
                    timeout = min(timeout, max(
                        0.0, min(deadlines) - time.monotonic()))
                ready = {key.data
                         for key, _ in pool.selector.select(timeout)}

                now = time.monotonic()
                for worker in list(pool.workers):
                    if worker in ready and worker.task is None:
                        pool.retire(worker)  # idle workers speak only
                        continue             # by dying
                    if worker in ready:
                        # A worker replies with one sendall once its
                        # task is done, so a readable socket holds a
                        # whole frame or the EOF of a dead worker.
                        try:
                            kind, payload = recv_frame(worker.sock)
                        except (EOFError, OSError,
                                ServiceProtocolError):
                            fail(worker, "crash",
                                 f"worker died without a message (exit "
                                 f"code {pool.exit_code(worker)})",
                                 retire=True)
                            continue
                        task = worker.task
                        if kind == "result":
                            worker.task = worker.deadline = None
                            kernel = payload["kernel"]
                            kernel_stats.calls += kernel["calls"]
                            kernel_stats.rows += kernel["rows"]
                            kernel_stats.seconds += kernel["seconds"]
                            yield TaskResult(
                                task.index, payload["results"],
                                payload["seconds"], kernel,
                                task.attempt, payload["pid"])
                        elif kind == "error" and policy is None:
                            raise _remote_error(payload)
                        elif kind == "error":
                            fail(worker, "exception",
                                 str(payload["detail"]), retire=False)
                        else:
                            fail(worker, "crash", f"worker sent "
                                 f"unexpected frame {kind!r}",
                                 retire=True)
                    elif (worker.deadline is not None
                          and now >= worker.deadline):
                        fail(worker, "timeout",
                             f"chunk exceeded the "
                             f"{policy.chunk_timeout:g}s watchdog",
                             retire=True)
        finally:
            pool.shutdown()

    yield from _quarantine(quarantined, policy, report, shared)
    if report is not None and report.poisoned \
            and not policy.allow_partial:
        raise PoisonedSweepError(report)


def _quarantine(tasks: List[Task], policy: RetryPolicy,
                report: ResilienceReport, shared
                ) -> Iterator[TaskResult]:
    """Graceful degradation: one in-process run per exhausted task.

    Only ``raise``-mode injected faults fire here (crash/hang would
    take the caller down), so genuinely poisonous tasks stay
    poisoned.
    """
    for task in sorted(tasks, key=lambda item: item.index):
        attempt = policy.max_retries + 1
        try:
            faultinject.fire(faultinject.active_spec(task.index, attempt),
                             inprocess=True)
            results, seconds, kernel = execute(
                task.fn, task.payloads, shared=tuple(shared))
        except Exception as error:
            report.failures.append(ChunkFailure(
                kind="poison", chunk=task.index, attempt=attempt,
                pid=None, payload_digest=task.digest,
                detail=f"{type(error).__name__}: {error}"))
            report.poisoned.append(task.index)
            if policy.allow_partial:
                yield TaskResult(task.index, None, 0.0,
                                 {"calls": 0, "rows": 0, "seconds": 0.0},
                                 attempt, None, poisoned=True)
            continue
        report.degraded.append(task.index)
        yield TaskResult(task.index, results, seconds, kernel, attempt,
                         os.getpid(), degraded=True)
