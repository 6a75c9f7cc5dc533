"""One process per job, and each job's fate: its result, the exception it
raised (with the worker's traceback as its cause), or ``WorkerLost`` when
the worker died without a word, as a killed or out-of-memory worker does."""

import multiprocessing
from contextlib import closing

from .errors import WorkerLost


class _WorkerTraceback(Exception):
    """The formatted traceback of an exception raised in a worker."""


def _run_one(fn, args, conn) -> None:
    try:
        conn.send((fn(*args), None))
    except Exception as exc:  # the parent re-raises it with this traceback
        import traceback

        conn.send((exc, traceback.format_exc()))


def run_jobs(fn, jobs):
    """Run ``fn(*args)`` for each argument tuple in ``jobs``, each in its own
    process, and yield ``(index, result | exception | WorkerLost)`` as jobs
    finish.  A worker's pipe reaches EOF when it exits, so a loss is seen at
    once.  Closing the generator terminates the workers still running."""
    # imported here, not at the top, so that importing the package stays cheap
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
    """``[fn(*args) for args in jobs]``, one process per job.  A single job
    runs in this process.  The first crash or loss is raised."""
    if len(jobs) == 1:
        return [fn(*jobs[0])]
    results = [None] * len(jobs)
    with closing(run_jobs(fn, jobs)) as finished:
        for i, value in finished:
            if isinstance(value, Exception):
                raise value
            results[i] = value
    return results
