import pytest

from gridmon.ann import TrainConfig, train_monitor_pair
from gridmon.evaluation import load_catalog
from gridmon.scenarios import DEFAULT_AXES, generate_set
from gridmon.tuning import tune_architecture


@pytest.fixture(scope="module")
def small_setup():
    from gridmon.grid import load_bundled

    grid = load_bundled("cigre_mv_mod")
    catalog = load_catalog(grid)
    test_scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=41)[::40]  # 28
    return grid, catalog, test_scenarios


def test_single_combination_single_row(small_setup):
    grid, catalog, test_scenarios = small_setup
    rows = tune_architecture(
        grid, DEFAULT_AXES, [catalog.case("M4")], test_scenarios,
        catalog.switch_configs[:1],
        layer_counts=(3,), multipliers=(1,), repetition_counts=(1,),
        train_cfg=TrainConfig(max_epochs=8, seed=3),
        train_seed=11, meas_seed=12)
    assert len(rows) == 1
    assert 0.0 <= rows[0].mean_sr_c1 <= 1.0
    assert 0.0 <= rows[0].mean_sr_c2 <= rows[0].mean_sr_c1 + 1e-12
    assert rows[0].train_seconds > 0


def test_bigger_multiplier_trains_longer(small_setup):
    grid, catalog, test_scenarios = small_setup
    rows = tune_architecture(
        grid, DEFAULT_AXES, [catalog.case("M4")], test_scenarios,
        catalog.switch_configs[:1],
        layer_counts=(3,), multipliers=(1, 4), repetition_counts=(1,),
        train_cfg=TrainConfig(max_epochs=8, seed=3),
        train_seed=11, meas_seed=12)
    by_mult = {r.layer_size_multiplier: r for r in rows}
    assert by_mult[4].train_seconds > by_mult[1].train_seconds


def test_default_combination_flagged(small_setup):
    grid, catalog, test_scenarios = small_setup
    rows = tune_architecture(
        grid, DEFAULT_AXES, [catalog.case("M4")], test_scenarios,
        catalog.switch_configs[:1],
        layer_counts=(3,), multipliers=(1,), repetition_counts=(1, 3),
        train_cfg=TrainConfig(max_epochs=8, seed=3),
        train_seed=11, meas_seed=12)
    defaults = [r for r in rows if r.is_default]
    assert len(defaults) == 1
    assert defaults[0].repetitions == 3


def test_train_seconds_counts_each_pair_once(small_setup, monkeypatch):
    from gridmon import tuning

    grid, catalog, test_scenarios = small_setup
    pair_seconds = []

    def recording_pair(*args, **kwargs):
        models, histories = train_monitor_pair(*args, **kwargs)
        pair_seconds.append(histories["voltage"].wall_seconds)
        assert histories["loading"].wall_seconds == pair_seconds[-1]
        return models, histories

    monkeypatch.setattr(tuning, "train_monitor_pair", recording_pair)
    rows = tune_architecture(
        grid, DEFAULT_AXES, [catalog.case("M4")], test_scenarios,
        catalog.switch_configs[:1],
        layer_counts=(1,), multipliers=(1,), repetition_counts=(1,),
        train_cfg=TrainConfig(max_epochs=4, seed=3),
        train_seed=11, meas_seed=12)
    assert len(pair_seconds) == 1
    assert rows[0].train_seconds == pair_seconds[0] > 0
