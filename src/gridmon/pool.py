"""Independent monitor-pair trainings side by side, one per CPU.

Training a pair is CPU-bound, runs one core at a time and shares nothing
with another pair, so ``map_tasks`` deals independent tasks to worker
processes, one per CPU the process may use (its affinity mask: ``taskset``
limits it). The workers are forked: the task function and the tasks, with
every input they read, reach them by inheritance and are never pickled, so
a task may be a closure over the caller's training sets and truth cache.
Only the results (trained models and histories, a few KB) are pickled back.
gridmon starts no thread of its own, which keeps ``fork`` safe here. With
one task or one CPU the same function runs in-process through plain
``map``. Either way the results are equal and come back in task order.
"""

from __future__ import annotations

import os

_worker_tasks = None  # (fn, tasks) inside a worker, set as it starts


def usable_cpus() -> int:
    """CPUs in this process's affinity mask, else all CPUs."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _start_worker(fn, tasks) -> None:
    global _worker_tasks
    _worker_tasks = fn, tasks


def _run(i: int):
    fn, tasks = _worker_tasks
    return fn(tasks[i])


def map_tasks(fn, tasks, cost) -> list:
    """``[fn(task) for task in tasks]``, in forked workers when at least two
    tasks meet at least two CPUs.

    Tasks are dealt one at a time, the largest ``cost(task)`` first. An
    exception raised by ``fn`` reaches the caller as raised, once the other
    tasks have finished. No worker outlives the call.
    """
    tasks = list(tasks)
    n_workers = min(usable_cpus(), len(tasks))
    if n_workers < 2:
        return list(map(fn, tasks))
    import multiprocessing  # only here: a bare numpy process need not load it

    order = sorted(range(len(tasks)), key=lambda i: cost(tasks[i]), reverse=True)
    pool = multiprocessing.get_context("fork").Pool(n_workers, _start_worker, (fn, tasks))
    try:
        results = dict(zip(order, pool.imap(_run, order, chunksize=1)))
    except (KeyboardInterrupt, SystemExit):
        pool.terminate()  # an interrupted worker may have lost its task
        raise
    finally:
        # after an error the other tasks still finish: no file is left half written
        pool.close()
        pool.join()
    return [results[i] for i in range(len(tasks))]
