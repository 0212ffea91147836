import pytest

from gridmon.ann import TrainConfig
from gridmon.evaluation import METHOD_ANN, load_catalog, search_measurement_config
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


def test_search_with_ann_method(small_setup):
    grid, catalog, test_scenarios = small_setup
    train_scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=43)[::10]

    def train_fn(spec):
        from gridmon.ann import build_training_set, train_monitor_pair

        data = build_training_set(grid, train_scenarios, spec,
                                  catalog.switch_configs[:1], 43)
        models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=8, seed=3))
        return models

    steps, tc, reached = search_measurement_config(
        grid, test_scenarios[:6], catalog.switch_configs[:1],
        method=METHOD_ANN, target_sr=1.01,
        pool=[("bus", 0), ("bus", 7)], train_fn=train_fn)
    assert len(steps) == 2
    assert not reached
    assert all(0.0 <= s.sr <= 1.0 for s in steps)
    assert tc.s_buses == (0, 7)
