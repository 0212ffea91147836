"""Independent trainings side by side, one forked worker per CPU.

Training a net is CPU-bound, runs one core at a time and shares nothing
with another net, so ``map_tasks`` deals independent tasks to worker
processes, one per CPU the process may use (its affinity mask: ``taskset``
limits it). ``train`` and ``tune`` deal monitor pairs this way, and a lone
monitor pair deals its two nets (``ann.train_monitor_pair``).

The workers are ``os.fork`` children: the task function and the tasks, with
every input they read, reach them by inheritance and are never pickled, so
a task may be a closure over the caller's training sets and truth cache.
The caller writes the task indices, the largest ``cost`` first, into one
pipe; each worker reads an index, runs the task and reads the next until the
pipe is empty, then pickles its results (trained models and histories, a
few KB), or the exception a task raised, back through a pipe of its own and
leaves by ``os._exit``. Inside a worker ``map_tasks`` runs in-process, so
pools never nest. gridmon starts no thread of its own, which keeps ``fork``
safe here. With one task or one CPU the same function runs in-process
through plain ``map``. Either way the results are equal and come back in
task order.
"""

from __future__ import annotations

import os
import pickle
import sys

_in_worker = False  # set in a forked worker as it starts
_INDEX_BYTES = 4  # one task index in the task pipe: a write this small is atomic


class PoolError(Exception):
    """A worker died before it sent back the results of its tasks."""


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, else all CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def n_workers(n_tasks: int) -> int:
    """The workers ``map_tasks`` forks for ``n_tasks`` tasks: one per usable
    CPU, at most one per task, none inside a worker. Below two, it forks
    none and runs the tasks in-process."""
    return 0 if _in_worker else min(usable_cpus(), n_tasks)


def _work(fn, tasks, queue: int, out: int):
    """A forked worker's life; it never returns. Runs the tasks whose
    indices it reads from ``queue`` until the pipe is empty or a task
    raises, then writes the pickled ``(results by index, (index, exception)
    or None)`` to ``out``."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        done, error, i = {}, None, None
        try:
            while record := os.read(queue, _INDEX_BYTES):
                i = int.from_bytes(record, "little")
                done[i] = fn(tasks[i])
        except Exception as exc:  # raised again by the caller
            import traceback  # only here: the caller's import need not load it

            exc.add_note(f"in pool worker {os.getpid()}:\n{traceback.format_exc()}")
            error = i, exc
        with open(out, "wb") as f:
            f.write(pickle.dumps((done, error)))
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)  # never unwind into the caller's frames


def map_tasks(fn, tasks, cost) -> list:
    """``[fn(task) for task in tasks]``, in forked workers when
    ``n_workers(len(tasks))`` is at least two.

    Tasks are dealt one at a time, the largest ``cost(task)`` first. An
    exception raised by ``fn`` reaches the caller as raised, once every
    worker has left; the worker that ran it takes no further task, and the
    others go on. A worker that dies instead raises a ``PoolError`` naming
    the tasks whose results were lost. No worker outlives the call.
    """
    tasks = list(tasks)
    n = n_workers(len(tasks))
    if n < 2:
        return list(map(fn, tasks))
    order = sorted(range(len(tasks)), key=lambda i: cost(tasks[i]), reverse=True)
    sys.stdout.flush()  # else a worker's flush would print the buffer again
    sys.stderr.flush()
    fds = list(os.pipe())  # the descriptors this call has yet to close
    queue, feed = fds
    workers = []  # (pid, read end of its result pipe)
    payloads = []
    try:
        for _ in range(n):
            fds += os.pipe()
            result, out = fds[-2:]
            pid = os.fork()
            if pid == 0:
                os.close(feed)  # else the task pipe never reads as empty
                _work(fn, tasks, queue, out)
            workers.append((pid, result))
            _close(fds, out)
        _close(fds, queue)
        try:
            for i in order:
                os.write(feed, i.to_bytes(_INDEX_BYTES, "little"))
        except BrokenPipeError:  # every worker has left; the rest are lost
            pass
        _close(fds, feed)
        for _, result in workers:
            with open(result, "rb", closefd=False) as f:
                payloads.append(f.read())
            _close(fds, result)
    except BaseException:
        import signal  # only here, as traceback in a worker

        for pid, _ in workers:  # an interrupted call leaves no worker running
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in fds:
            os.close(fd)
        statuses = [os.waitpid(pid, 0)[1] for pid, _ in workers]

    results, errors, died = {}, [], []
    for (pid, _), status, payload in zip(workers, statuses, payloads):
        if status != 0 or not payload:
            died.append(f"{pid} {_exit_reason(status)}")
            continue
        done, error = pickle.loads(payload)  # written by a worker of this call
        results.update(done)
        if error is not None:
            errors.append(error)
    if died:
        lost = sorted(set(range(len(tasks))) - results.keys() - {i for i, _ in errors})
        raise PoolError(f"tasks {lost} were lost: worker {'; '.join(died)}")
    if errors:
        rank = {i: k for k, i in enumerate(order)}
        raise min(errors, key=lambda error: rank.get(error[0], -1))[1]
    return [results[i] for i in range(len(tasks))]


def _close(fds: list, fd: int) -> None:
    fds.remove(fd)
    os.close(fd)


def _exit_reason(status: int) -> str:
    code = os.waitstatus_to_exitcode(status)
    if code < 0:
        return f"was killed by signal {-code}"
    return f"exited with status {code}" + ("" if code else " before sending its results")
