import dataclasses
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from gridmon import pool
from gridmon.ann import AnnError, TrainConfig
from gridmon.cli import EXIT_OK, EXIT_VALIDATION, main
from gridmon.evaluation import load_catalog
from gridmon.scenarios import DEFAULT_AXES, generate_set
from gridmon.tuning import tune_architecture


@pytest.fixture
def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)


@pytest.fixture
def two_cpus(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.fixture(autouse=True)
def no_worker_outlives_a_call():
    yield
    with pytest.raises(ChildProcessError):  # no child at all, running or unreaped
        os.waitpid(-1, os.WNOHANG)


def _pid_and_square(x):
    if x == 5:
        raise AnnError("task 5 fails")
    return os.getpid(), x * x


def test_pool_returns_results_in_task_order(two_cpus):
    results = pool.map_tasks(_pid_and_square, range(4), cost=lambda x: x)
    assert [square for _, square in results] == [0, 1, 4, 9]
    assert os.getpid() not in {pid for pid, _ in results}


def test_one_task_runs_in_process(two_cpus):
    assert pool.map_tasks(_pid_and_square, [3], cost=abs) == [(os.getpid(), 9)]


def test_one_cpu_runs_every_task_in_process(one_cpu):
    assert pool.map_tasks(_pid_and_square, range(3), cost=abs) == [
        (os.getpid(), x * x) for x in range(3)]


def test_worker_error_reaches_the_caller(two_cpus):
    with pytest.raises(AnnError, match="task 5 fails"):
        pool.map_tasks(_pid_and_square, range(8), cost=abs)


def _exit_at_3(x):
    if x == 3:
        os._exit(3)
    return x


def test_dead_worker_is_an_error_not_a_hang(two_cpus):
    """The worker that dies loses task 3 and every task it had run before;
    the other worker's results arrive."""
    with pytest.raises(pool.PoolError, match=r"^tasks \[(\d, )*3\] were lost: "
                                              r"worker \d+ exited with status 3$"):
        pool.map_tasks(_exit_at_3, range(6), cost=lambda x: -x)  # dealt 0, 1, ...


def _sleep(x):
    time.sleep(60)


def test_an_interrupted_call_leaves_no_worker(two_cpus):
    """An exception in the caller while it waits (an alarm here, Ctrl-C in
    use) kills and reaps the workers at once."""
    def interrupt(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGALRM, interrupt)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.5)  # a fork child inherits no timer
        with pytest.raises(KeyboardInterrupt):
            pool.map_tasks(_sleep, range(2), cost=abs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.perf_counter() - start < 30


def test_the_pool_imports_no_multiprocessing():
    """Its import alone costs the parent about 1.65 MB RSS."""
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; import gridmon.cli; "
            "from gridmon import pool; assert pool.map_tasks(abs, [-1, -2], cost=abs) == [1, 2]; "
            "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
    assert out.stdout.strip() == "[]"


def _inner_pids(x):
    return pool.map_tasks(lambda y: (os.getpid(), y), range(3), cost=abs), os.getpid()


def test_pools_do_not_nest(two_cpus):
    outer = pool.map_tasks(_inner_pids, range(2), cost=abs)
    for inner, worker in outer:
        assert worker != os.getpid()
        assert inner == [(worker, y) for y in range(3)]


def test_a_lone_pair_deals_its_nets_and_a_pair_in_a_worker_stacks_them(
        cigre, monkeypatch):
    """On two CPUs a lone pair's nets are two tasks of one net each; on one
    CPU, or when the pair itself trains in a worker, one stack of two."""
    from gridmon import ann

    dealt = []

    def recording_map(fn, tasks, cost):
        tasks = list(tasks)
        dealt.append(tasks)
        return map_tasks(fn, tasks, cost)

    map_tasks = pool.map_tasks
    monkeypatch.setattr(pool, "map_tasks", recording_map)
    data = ann.TrainingData(x=np.arange(40.0).reshape(20, 2) % 7, y_voltage=np.ones((20, 3)),
                            y_loading=np.ones((20, 3)), spec_hash="pair", n_switch_bits=0)
    cfg = TrainConfig(max_epochs=2, seed=1)

    def stacks(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        dealt.clear()
        ann.train_monitor_pair(cigre, data, cfg)
        return dealt[-1]

    assert stacks({0, 1}) == [["voltage"], ["loading"]]
    assert stacks({0}) == [["voltage", "loading"]]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    in_workers = map_tasks(lambda _: (stacks({0, 1}), os.getpid()), range(2), cost=abs)
    assert [got for got, _ in in_workers] == [[["voltage", "loading"]]] * 2
    assert os.getpid() not in {pid for _, pid in in_workers}


@pytest.fixture(scope="module")
def small_setup():
    from gridmon.grid import load_bundled

    grid = load_bundled("cigre_mv_mod")
    catalog = load_catalog(grid)
    test_scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=41)[::40]  # 28
    return grid, catalog, test_scenarios


def _sweep(small_setup):
    grid, catalog, test_scenarios = small_setup
    return tune_architecture(
        grid, DEFAULT_AXES, [catalog.case("M4")], test_scenarios,
        catalog.switch_configs[:1],
        layer_counts=(1, 3), multipliers=(1, 2), repetition_counts=(1,),
        train_cfg=TrainConfig(max_epochs=6, seed=3),
        train_seed=11, meas_seed=12)


def test_sweep_rows_equal_in_process_and_in_workers(small_setup, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    alone = _sweep(small_setup)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    side_by_side = _sweep(small_setup)
    assert len(alone) == 4
    assert all(row.train_seconds > 0 for row in alone + side_by_side)
    assert ([dataclasses.replace(row, train_seconds=0.0) for row in alone]
            == [dataclasses.replace(row, train_seconds=0.0) for row in side_by_side])


def test_sweep_worker_error_reaches_the_caller(small_setup, two_cpus, monkeypatch):
    from gridmon import tuning

    def failing_pair(grid, data, cfg, arch_overrides):
        if arch_overrides["n_hidden_layers"] == 3:
            raise AnnError("deep nets fail")
        return train_pair(grid, data, cfg, arch_overrides=arch_overrides)

    train_pair = tuning.train_monitor_pair
    monkeypatch.setattr(tuning, "train_monitor_pair", failing_pair)
    with pytest.raises(AnnError, match="deep nets fail"):
        _sweep(small_setup)


def _train(out, *extra):
    return main(["train", "--cases", "M4,M8", "--epochs", "2", "--repetitions", "1",
                 "--seed", "5", "--out", str(out), *extra])


def test_train_outputs_equal_in_process_and_in_workers(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert _train(tmp_path / "alone") == EXIT_OK
    alone_stdout = capsys.readouterr().out
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert _train(tmp_path / "side") == EXIT_OK
    assert capsys.readouterr().out == alone_stdout
    models = sorted(p.name for p in (tmp_path / "alone").glob("*.npz"))
    assert len(models) == 4
    assert sorted(p.name for p in (tmp_path / "side").glob("*.npz")) == models
    for name in models:
        assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "side" / name).read_bytes()

    def history(d):
        lines = (d / "training_history.csv").read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    assert history(tmp_path / "alone") == history(tmp_path / "side")
    assert len(history(tmp_path / "side")) == 3 + 1 + 4


def test_train_worker_error_is_a_validation_error(tmp_path, two_cpus, monkeypatch, capsys):
    from gridmon import cli

    def failing_pair(grid, data, cfg):
        raise AnnError(f"layout {data.spec_hash} fails")

    monkeypatch.setattr(cli, "train_monitor_pair", failing_pair)
    assert _train(tmp_path / "out") == EXIT_VALIDATION
    assert "error: layout" in capsys.readouterr().err
    assert not (tmp_path / "out" / "training_history.csv").exists()
