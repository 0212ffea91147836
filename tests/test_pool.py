import dataclasses
import multiprocessing
import os

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
    assert multiprocessing.active_children() == []


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
