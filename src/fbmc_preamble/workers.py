"""Persistent worker processes that run calls of the Monte Carlo engine.

Each worker is a fresh interpreter started with `subprocess` and
`close_fds=True`, not a `multiprocessing` pool: a fork pool hands every
open pipe of the caller to its workers, so the reader of such a pipe never
sees EOF, and spawn or forkserver pools re-execute the caller's
`__main__`.  A worker imports this package from the parent's own package
root, reads pickled `(function, args)` calls on stdin, answers each with a
pickled `(ok, value)` pair and exits at EOF, that is when its parent closes
the pipe or exits.  Only this package's parent and workers write the
pickles either side reads.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import subprocess
import sys
import threading
from pathlib import Path

_PACKAGE_ROOT = str(Path(__file__).resolve().parents[1])
_WORKER_MAIN = "from fbmc_preamble.workers import serve; serve()"
_EXIT_WAIT_S = 10.0


def cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:          # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def serve() -> None:
    """A worker's loop: answer pickled calls on stdin until EOF."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)   # the parent handles Ctrl-C
    replies = os.fdopen(os.dup(1), "wb")
    os.dup2(2, 1)                   # a stray print must not corrupt the replies
    calls = sys.stdin.buffer
    while True:
        try:
            fn, args = pickle.load(calls)
        except EOFError:
            return
        try:
            reply = (True, fn(*args))
        except Exception as exc:    # handed to the parent, which raises it
            reply = (False, _portable(exc))
        pickle.dump(reply, replies, protocol=pickle.HIGHEST_PROTOCOL)
        replies.flush()


def _portable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RuntimeError naming it."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RuntimeError(f"{type(exc).__name__}: {exc}")


def _start() -> subprocess.Popen:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=_PACKAGE_ROOT + (os.pathsep + path if path else ""))
    return subprocess.Popen([sys.executable, "-c", _WORKER_MAIN], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, env=env)


def _died(proc: subprocess.Popen) -> ChildProcessError:
    try:
        how = f"exited with code {proc.wait(timeout=_EXIT_WAIT_S)}"
    except subprocess.TimeoutExpired:
        how = "closed its output"
    return ChildProcessError(f"engine worker {proc.pid} {how}; the workers are "
                             f"started again on the next call")


class WorkerPool:
    """Worker processes of one parent process, started as calls need them."""

    def __init__(self):
        self._workers: list[subprocess.Popen] = []
        self._pid = os.getpid()
        self._lock = threading.Lock()

    def run(self, fn, calls: list[tuple]) -> list:
        """[fn(*args) for args in calls]: the first call in this process and
        each other in a worker of its own.

        A worker's exception is raised here, with its type, once every call
        has ended.  A worker that has died raises ChildProcessError.  After
        that, or any other failure while calls are out, the workers are
        killed and new ones start on the next call.
        """
        with self._lock:
            workers = self._take(len(calls) - 1)
            try:
                for proc, args in zip(workers, calls[1:]):
                    try:
                        pickle.dump((fn, args), proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
                        proc.stdin.flush()
                    except BrokenPipeError:
                        raise _died(proc) from None
                results = [fn(*calls[0])]
                replies = []
                for proc in workers:
                    try:
                        replies.append(pickle.load(proc.stdout))
                    except (EOFError, pickle.UnpicklingError):
                        raise _died(proc) from None
            except BaseException:
                self.close(kill=True)
                raise
        for ok, value in replies:
            if not ok:
                raise value
            results.append(value)
        return results

    def _forget_if_forked(self) -> None:
        if self._pid != os.getpid():
            # A forked child holds copies of the parent's pipes; the workers
            # answer the parent, so the child only closes its copies.
            for proc in self._workers:
                proc.stdin.close()
                proc.stdout.close()
            self._workers, self._pid = [], os.getpid()

    def _take(self, count: int) -> list[subprocess.Popen]:
        self._forget_if_forked()
        while len(self._workers) < count:
            self._workers.append(_start())
        return self._workers[:count]

    def close(self, kill: bool = False) -> None:
        """Stop the workers: they exit at EOF, or at once with kill=True."""
        self._forget_if_forked()
        workers, self._workers = self._workers, []
        for proc in workers:
            if kill:
                proc.kill()
            try:
                proc.stdin.close()
            except BrokenPipeError:
                pass
        for proc in workers:
            try:
                proc.wait(timeout=_EXIT_WAIT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


POOL = WorkerPool()
atexit.register(POOL.close)
