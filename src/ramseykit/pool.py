"""Run jobs and report each job's fate: its result, the exception it raised
(with the worker's traceback as its cause), or ``WorkerLost`` when the
worker died without a word, as a killed or out-of-memory worker does.
A lone job runs in the calling process, so no engine decides that itself."""

import multiprocessing
from contextlib import closing

from .errors import CapabilityError, InputError, WorkerLost

MAX_JOBS = 64  # the most worker processes one call may start


def check_workers(workers: int | None) -> int:
    """An engine's worker count, checked before any work: ``None`` is 1, below
    1 raises ``InputError`` and past ``MAX_JOBS`` ``CapabilityError``."""
    if workers is None:
        return 1
    if workers < 1:
        raise InputError(f"workers must be at least 1, not {workers}")
    if workers > MAX_JOBS:
        raise CapabilityError(f"{workers} workers exceed the cap of {MAX_JOBS} worker processes")
    return workers


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""


def _run_one(fn, args, conn) -> None:
    try:
        conn.send((fn(*args), None))
    except Exception as exc:  # the parent re-raises it with this traceback
        import traceback

        conn.send((exc, traceback.format_exc()))


def run_jobs(fn, jobs):
    """Run ``fn(*args)`` for each argument tuple in the list ``jobs`` and
    yield ``(index, result | exception | WorkerLost)`` as jobs finish.

    A single job runs in the calling process.  Otherwise each job gets its
    own process; a worker's pipe reaches EOF when it exits, so a loss is
    seen at once.  Closing the generator terminates the workers still
    running.  More than ``MAX_JOBS`` jobs raise ``CapabilityError`` before
    any process starts."""
    if len(jobs) > MAX_JOBS:
        raise CapabilityError(f"{len(jobs)} jobs exceed the cap of {MAX_JOBS} worker processes")
    if len(jobs) == 1:
        try:
            value = fn(*jobs[0])
        except Exception as exc:
            value = exc
        yield 0, value
        return
    # imported here, not at the top, so that importing the package and
    # running a single job stay cheap
    from multiprocessing.connection import wait

    running = {}
    try:
        for i, args in enumerate(jobs):
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_run_one, args=(fn, args, send), daemon=True)
            proc.start()
            send.close()  # before the next fork: a sibling holding it would hide the EOF
            running[recv] = (i, proc)
        while running:
            for conn in wait(list(running)):
                i, proc = running.pop(conn)
                try:
                    value, tb = conn.recv()
                except EOFError:
                    proc.join()
                    value, tb = WorkerLost(i, proc.exitcode), None
                conn.close()
                proc.join()
                if tb is not None:
                    value.__cause__ = _WorkerTraceback(tb)
                yield i, value
    finally:
        for conn, (_, proc) in running.items():
            proc.terminate()
            proc.join()
            conn.close()


def map_jobs(fn, jobs) -> list:
    """``[fn(*args) for args in jobs]`` through ``run_jobs``.  The first crash
    or loss is raised."""
    results = [None] * len(jobs)
    with closing(run_jobs(fn, jobs)) as finished:
        for i, value in finished:
            if isinstance(value, Exception):
                raise value
            results[i] = value
    return results
