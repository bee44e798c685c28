"""Independent tasks run on every CPU the process may use.

run(tasks) shares a list of zero-argument tasks between W = min(CPUs,
tasks) processes: the calling process and W - 1 workers forked from it,
or the caller alone without os.fork.  Task i runs in process i mod W, so
a task list ordered for that split balances it.  Each task runs whole in
one process, so its result does not depend on W.  This is the package's
one fork, shared by the FD battery and the identity suite.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from contextvars import ContextVar


def _processes() -> int:
    """The number of CPUs this process may run on, and so the most
    processes that run tasks (see run)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


# The pid of the process running tasks (see run), set while it runs and
# inherited by the workers it forks (see exit_if_orphaned); None otherwise.
_OWNER: ContextVar[int | None] = ContextVar("fork_owner", default=None)


def exit_if_orphaned() -> None:
    """Ends this process at once if it is a worker (see run) whose parent
    has gone.  Long tasks call it between their steps."""
    owner = _OWNER.get()
    if owner is not None and owner not in (os.getpid(), os.getppid()):
        os._exit(1)


def _run_share(tasks, first: int, stride: int) -> tuple[dict, tuple | None]:
    """The tasks first, first + stride, ... one after another: {task:
    result} of those that return, and (task, exception) of the first that
    raises, or None."""
    done = {}
    for i in range(first, len(tasks), stride):
        try:
            done[i] = tasks[i]()
        except Exception as e:
            return done, (i, e)
    return done, None


def _portable(exc: Exception) -> Exception:
    """exc if it survives pickling, else a RuntimeError naming its type
    and message."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _worker(tasks, first: int, stride: int, out_fd: int):
    """The whole life of a forked worker: its share of the tasks (see
    _run_share), pickled to out_fd, then os._exit, whatever happens, so
    that nothing of the parent's stack, buffers or exit handlers runs
    here."""
    code = 1
    try:
        done, failure = _run_share(tasks, first, stride)
        if failure is not None:
            failure = (failure[0], _portable(failure[1]))
        payload = pickle.dumps((done, failure))
        with os.fdopen(out_fd, "wb") as out:
            out.write(payload)
        code = 0
    finally:
        os._exit(code)


def run(tasks) -> list:
    """The result of each task, in task order, each run in process i mod W
    (see the module docstring), which runs its tasks one after another; a
    worker sends its results back pickled over a pipe.  When tasks raise,
    the exception of the lowest one is raised, as a loop over the tasks
    would, with the type and message it had in its process (a RuntimeError
    naming them if it cannot be pickled).

    No worker outlives the call: a worker ends through os._exit after its
    share, or at a task's next exit_if_orphaned once its parent is gone,
    and every worker not yet reaped when this returns or raises is killed
    and reaped.  Each process holds its own buffers, so the memory of the
    whole run grows with W.
    """
    tasks = list(tasks)
    count = max(1, min(_processes(), len(tasks))) if hasattr(os, "fork") else 1
    token = _OWNER.set(os.getpid())
    workers = []  # (pid, read end of its pipe) of each worker not yet reaped
    try:
        for first in range(1, count):
            read_fd, write_fd = os.pipe()
            with warnings.catch_warnings():
                # Python 3.12+ warns about forking a process that has threads
                # (BLAS's); a worker uses none.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
            if pid == 0:
                _worker(tasks, first, count, write_fd)
            os.close(write_fd)
            workers.append((pid, read_fd))
        results, failure = _run_share(tasks, 0, count)
        failures = [failure]
        while workers:
            pid, read_fd = workers[0]
            with os.fdopen(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            os.waitpid(pid, 0)
            os.close(read_fd)
            workers.pop(0)
            if not payload:
                raise RuntimeError(f"worker {pid} ended without a result")
            done, failure = pickle.loads(payload)
            results.update(done)
            failures.append(failure)
    finally:
        _OWNER.reset(token)
        for pid, read_fd in workers:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read_fd)
    failures = [f for f in failures if f is not None]
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [results[i] for i in range(len(tasks))]
