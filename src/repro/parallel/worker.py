"""One forked worker process behind a pipe: the only process plumbing.

The sweep pool (:func:`repro.parallel.executor.run_tasks` at
``jobs > 1``) and the query service's per-family shard workers
(:class:`repro.service.workers.ShardWorker`) both run on
:class:`WorkerProcess`.  It lives here, not in the service, because the
service already imports :mod:`repro.parallel` and never the reverse.

A worker is a forked child answering one message at a time over a
duplex :func:`multiprocessing.Pipe`.  The child builds its handler once
(``make_handler(*args)``, so warm state such as a service shard lives
there) and then maps each request to one reply.  A reply that cannot be
pickled ends the child, exactly like a crash: the parent sees the
death, never a half-sent message.

The parent side waits for a reply while checking the child's liveness
every :data:`_POLL_S` seconds, so a dead child surfaces as
:class:`~repro.errors.WorkerDied` within one poll.  With a deadline,
the parent terminates the child before raising, so a retry on a
restarted worker cannot race the old process.  Only the worker that
died or hit its deadline is restarted; its siblings keep their work.
"""

from __future__ import annotations

import multiprocessing
import time
from collections.abc import Collection
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from repro.errors import WorkerDied

__all__ = ["WorkerProcess"]

#: Sentinel asking a worker's loop to exit cleanly.
_STOP = "__stop__"

#: Seconds between liveness probes while waiting on a reply.
_POLL_S = 0.1


def _serve(make_handler, args, conn, inherited) -> None:
    """The worker process body: build the handler, then answer forever.

    ``inherited`` holds parent-side objects the fork copied in, and the
    child closes them first.  The first is the parent's end of this
    worker's pipe: while the worker holds it, ``conn.recv()`` never sees
    EOF, and a SIGKILLed parent would leave the worker running forever.
    A worker forked later also holds the parent ends of its older
    siblings; it exits on EOF too, which releases them in turn.  The
    rest are sockets of the parent's: a worker holding a listening
    socket keeps a dead parent's socket accepting connections and its
    port bound, and one holding a client's connection keeps it open
    after the parent closed it.  Closing the Python objects, not raw fd
    numbers, leaves no stale fd number behind to be closed again later.
    """
    for obj in inherited:
        obj.close()
    handle = make_handler(*args)
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        if msg == _STOP:
            break
        reply = handle(msg)
        try:
            conn.send(reply)
        except Exception:  # noqa: BLE001 - closed pipe, or unpicklable reply
            break  # either way, die like a crash
    conn.close()


class WorkerProcess:
    """One forked worker process plus its parent-side plumbing.

    ``make_handler(*args)`` runs once in the child and returns the
    function that turns each request into its reply.  The paired
    one-thread :class:`~concurrent.futures.ThreadPoolExecutor` parks a
    blocking :meth:`call` off the caller's thread (the service's event
    loop, the sweep pool's scheduling loop); one thread per worker keeps
    one request in flight per process.  ``inherited`` holds parent
    sockets the child closes right after the fork; it is read at every
    fork (a restart too), so the parent may keep a live collection
    there.
    """

    def __init__(
        self,
        make_handler: Callable[..., Callable[[Any], Any]],
        args: tuple = (),
        *,
        name: str,
        inherited: Collection = (),
    ) -> None:
        self.make_handler = make_handler
        self.args = tuple(args)
        self.name = name
        self.inherited = inherited
        self.restarts = 0
        self.executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=name)
        self._spawn()

    def _spawn(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_serve,
            args=(
                self.make_handler,
                self.args,
                child_conn,
                (self._conn, *self.inherited),
            ),
            name=self.name,
            daemon=True,
        )
        self.process.start()
        child_conn.close()

    def call(self, msg: Any, *, timeout: float | None = None) -> Any:
        """One blocking request/reply round trip.

        Raises :class:`WorkerDied` when the process is gone or (with
        ``timeout``) has not replied within ``timeout`` seconds; in the
        second case the process is terminated first.
        """
        try:
            self._conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerDied(
                f"worker {self.name!r} is gone (send failed: {exc})"
            ) from exc
        deadline = time.monotonic() + timeout if timeout is not None else None
        while True:
            try:
                if self._conn.poll(_POLL_S):
                    return self._conn.recv()
            except (EOFError, OSError) as exc:
                raise WorkerDied(f"worker {self.name!r} died mid-call") from exc
            if not self.process.is_alive():
                raise WorkerDied(
                    f"worker {self.name!r} (pid {self.process.pid}) died mid-call"
                )
            if deadline is not None and time.monotonic() >= deadline:
                self.process.terminate()
                raise WorkerDied(
                    f"worker {self.name!r} exceeded {timeout:.1f}s; terminated"
                )

    def restart(self) -> None:
        """Replace a dead or wedged process with a fresh one."""
        self._reap()
        self.restarts += 1
        self._spawn()

    def stop(self) -> None:
        """Ask the worker to exit, then reap it (idempotent)."""
        try:
            self._conn.send(_STOP)
        except (BrokenPipeError, OSError):
            pass
        self._reap()
        self.executor.shutdown(wait=False)

    def _reap(self) -> None:
        try:
            self._conn.close()
        except OSError:
            pass
        if self.process.is_alive():
            self.process.join(timeout=2.0)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=2.0)
