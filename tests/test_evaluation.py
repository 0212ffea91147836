import numpy as np
import pytest

from gridmon.ann import TrainConfig, build_training_set, train_monitor_pair
from gridmon.evaluation import (C1, C2, METHOD_ANN, METHOD_WLS, Criterion,
                                EvaluationError, TruthCache, error_stats,
                                load_catalog, run_test_case, sota_extreme_tuples)
from gridmon.scenarios import DEFAULT_AXES, generate_set

from conftest import n_known

CONFIG_0 = (False, False, False, True, True, True)


@pytest.fixture(scope="module")
def setup(cigre_module):
    grid = cigre_module
    catalog = load_catalog(grid)
    scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=31)[::23]  # 48 scenarios
    m4 = catalog.case("M4")
    data = build_training_set(grid, generate_set(DEFAULT_AXES, grid, 1, seed=77),
                              m4.spec(grid), catalog.switch_configs, seed=77)
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=60, seed=5))
    return grid, catalog, scenarios, models


@pytest.fixture(scope="module")
def cigre_module():
    from gridmon.grid import load_bundled

    return load_bundled("cigre_mv_mod")


def test_criterion_constants():
    assert (C1.v_err_limit_pct, C1.loading_err_limit_pct) == (1.0, 10.0)
    assert (C2.v_err_limit_pct, C2.loading_err_limit_pct) == (0.5, 5.0)
    with pytest.raises(EvaluationError):
        Criterion(0.0, 5.0)


def passes(criterion, v_est, v_true, loading_est, loading_true):
    """One scenario scored as ``_score`` scores it: the largest voltage error
    in percent and the largest loading error in points."""
    return bool(criterion.passes(np.max(np.abs(v_est - v_true) * 100.0),
                                 np.max(np.abs(loading_est - loading_true))))


def test_is_successful_zero_errors():
    v = np.ones(3)
    loading = np.array([10.0, 20.0, 30.0])
    assert passes(C1, v, v, loading, loading)
    assert passes(C2, v, v, loading, loading)


def test_is_successful_between_limits():
    v_true = np.ones(3)
    v_est = v_true + 0.007  # 0.7 % error
    l_true = np.array([50.0, 60.0])
    l_est = l_true + 3.0  # 3 points
    assert passes(C1, v_est, v_true, l_est, l_true)
    assert not passes(C2, v_est, v_true, l_est, l_true)


def test_is_successful_strict_boundary():
    v_true = np.ones(2)
    v_est = v_true + 0.010  # exactly 1.0 %
    l = np.zeros(2)
    assert not passes(C1, v_est, v_true, l, l)


def test_catalog_shape(cigre_module):
    catalog = load_catalog(cigre_module)
    assert len(catalog.default_case_ids) == 32
    assert len(catalog.cases) == 39  # 32 + R0..R6
    assert len(catalog.switch_configs) == 4
    assert catalog.switch_configs[0] == CONFIG_0
    m4 = catalog.case("M4")
    assert m4.v_buses == (0, 6, 8, 10)
    assert m4.s_buses == (4, 7)
    assert m4.s_lines == ("1-2", "12-13")
    # fault cases inherit M4's measurement layout
    f1 = catalog.case("F1")
    assert f1.spec(cigre_module).spec_hash == m4.spec(cigre_module).spec_hash
    assert f1.faults[0].kind == "zero_value"
    assert catalog.case("T2").flip_switches == (2,)
    assert catalog.case("T5").rx_uniform == (0.9, 1.1)
    assert catalog.case("R6").v_buses == catalog.case("M9").v_buses


def test_starred_case_label(cigre_module):
    catalog = load_catalog(cigre_module)
    starred = catalog.case("F1*")
    assert starred.correction
    assert starred.label == "F1*"
    assert catalog.case("F1").label == "F1"


def test_unknown_case_rejected(cigre_module):
    with pytest.raises(EvaluationError):
        load_catalog(cigre_module).case("M99")


def test_run_m4_both_methods(setup):
    grid, catalog, scenarios, models = setup
    res = run_test_case(catalog.case("M4"), grid, scenarios,
                        catalog.switch_configs, models=models, meas_seed=3)
    for method in (METHOD_ANN, METHOD_WLS):
        r = res[method]
        assert r.n_scenarios == len(scenarios) * 4
        assert 0.0 <= r.sr_c2 <= r.sr_c1 <= 1.0
        assert r.bus_err_mean.shape == (15,)
        assert r.line_err_mean.shape == (15,)
    assert res[METHOD_ANN].sr_c1 > res[METHOD_WLS].sr_c1


def test_run_deterministic(setup):
    grid, catalog, scenarios, models = setup
    kwargs = dict(models=models, meas_seed=3, fault_seed=9)
    a = run_test_case(catalog.case("M4"), grid, scenarios, catalog.switch_configs,
                      **kwargs)
    b = run_test_case(catalog.case("M4"), grid, scenarios, catalog.switch_configs,
                      **kwargs)
    for method in (METHOD_ANN, METHOD_WLS):
        assert np.array_equal(a[method].v_err_max_pct, b[method].v_err_max_pct)
        assert np.array_equal(a[method].success_c1, b[method].success_c1)


def test_per_sample_impedance_truths_bypass_cache(setup):
    grid, catalog, scenarios, _ = setup
    cache = TruthCache()
    t4 = catalog.case("T4")
    assert t4.rx_uniform is not None
    run_test_case(t4, grid, scenarios[:3], catalog.switch_configs,
                  methods=(METHOD_WLS,), truth_cache=cache)
    assert len(cache) == 0
    run_test_case(catalog.case("T0"), grid, scenarios[:3], catalog.switch_configs,
                  methods=(METHOD_WLS,), truth_cache=cache)
    assert len(cache) == len(catalog.switch_configs)
    assert n_known(cache) == 3 * len(catalog.switch_configs)


def test_missing_models_rejected(setup):
    grid, catalog, scenarios, _ = setup
    with pytest.raises(EvaluationError, match="trained models"):
        run_test_case(catalog.case("M4"), grid, scenarios,
                      catalog.switch_configs, models=None)


def test_models_for_wrong_layout_rejected(setup):
    grid, catalog, scenarios, models = setup
    from gridmon.ann import SpecHashMismatch

    with pytest.raises(SpecHashMismatch):
        run_test_case(catalog.case("M0"), grid, scenarios,
                      catalog.switch_configs, models=models)


def test_fault_case_degrades_ann(setup):
    grid, catalog, scenarios, models = setup
    clean = run_test_case(catalog.case("M4"), grid, scenarios,
                          catalog.switch_configs, models=models,
                          methods=(METHOD_ANN,), meas_seed=3)[METHOD_ANN]
    f1 = run_test_case(catalog.case("F1"), grid, scenarios,
                       catalog.switch_configs, models=models,
                       methods=(METHOD_ANN,), meas_seed=3)[METHOD_ANN]
    assert f1.sr_c1 < clean.sr_c1


def test_t2_breaks_wls_on_config_two(setup):
    grid, catalog, scenarios, models = setup
    res = run_test_case(catalog.case("T2"), grid, scenarios,
                        catalog.switch_configs, models=models, meas_seed=3)
    wls = res[METHOD_WLS]
    n = len(scenarios)
    # flipping switch 2 under config 2 leaves buses 9-11 without a source in
    # the assumed model: structural failure for every scenario of that config
    config2 = slice(2 * n, 3 * n)
    assert wls.failed_structurally[config2].all()
    assert not wls.failed_structurally[:n].any()
    # the ANN keeps answering (flagged inputs, no crash)
    assert np.isfinite(res[METHOD_ANN].v_err_max_pct).all()


def test_t0_perturbs_truth_not_estimator(setup):
    grid, catalog, scenarios, models = setup
    clean = run_test_case(catalog.case("M4"), grid, scenarios,
                          catalog.switch_configs, models=models,
                          methods=(METHOD_WLS,), meas_seed=3)[METHOD_WLS]
    t0 = run_test_case(catalog.case("T0"), grid, scenarios,
                       catalog.switch_configs, models=models,
                       methods=(METHOD_WLS,), meas_seed=3)[METHOD_WLS]
    # small single-line model error: results differ but nothing collapses
    assert not np.array_equal(t0.v_err_max_pct, clean.v_err_max_pct)
    assert t0.sr_c1 > 0


def test_truth_cache_shared_across_cases(setup):
    grid, catalog, scenarios, models = setup
    cache = TruthCache()
    run_test_case(catalog.case("M4"), grid, scenarios, catalog.switch_configs,
                  models=models, methods=(METHOD_WLS,), meas_seed=3,
                  truth_cache=cache)
    n_after_m4 = n_known(cache)
    res_a = run_test_case(catalog.case("M0"), grid, scenarios,
                          catalog.switch_configs, methods=(METHOD_WLS,),
                          meas_seed=3, truth_cache=cache)
    assert n_known(cache) == n_after_m4  # M0 reuses M4's truths
    res_b = run_test_case(catalog.case("M0"), grid, scenarios,
                          catalog.switch_configs, methods=(METHOD_WLS,),
                          meas_seed=3)
    assert np.array_equal(res_a[METHOD_WLS].v_err_max_pct,
                          res_b[METHOD_WLS].v_err_max_pct)


def test_truth_cache_keys_each_scenario_list_by_its_injections(setup):
    """Two scenario lists of one length share no truths through a cache."""
    grid, catalog, _, _ = setup
    scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=31)
    m4 = catalog.case("M4")
    kwargs = dict(methods=(METHOD_WLS,), meas_seed=3)
    cache = TruthCache()
    run_test_case(m4, grid, scenarios[:4], catalog.switch_configs, truth_cache=cache,
                  **kwargs)
    shared = run_test_case(m4, grid, scenarios[4:8], catalog.switch_configs,
                           truth_cache=cache, **kwargs)[METHOD_WLS]
    alone = run_test_case(m4, grid, scenarios[4:8], catalog.switch_configs,
                          **kwargs)[METHOD_WLS]
    for field in ("v_err_max_pct", "loading_err_max_pp", "success_c1", "success_c2",
                  "failed_structurally"):
        assert getattr(shared, field).tobytes() == getattr(alone, field).tobytes(), field


def test_truth_cache_keys_each_deviation_by_its_own_factor(setup):
    from dataclasses import replace

    grid, catalog, scenarios, _ = setup
    case_a = catalog.case("P3")  # bus 4 at 0.7, buses 5, 9, 10 at 1.3
    first, second = case_a.faults
    # the same bus sets and factors, each factor on the other bus set
    case_b = replace(case_a, id="P3b", faults=(replace(second, factor=first.factor),
                                               replace(first, factor=second.factor)))
    cache = TruthCache()
    kwargs = dict(methods=(METHOD_WLS,), meas_seed=3)
    run_test_case(case_a, grid, scenarios[:4], catalog.switch_configs,
                  truth_cache=cache, **kwargs)
    after_a = run_test_case(case_b, grid, scenarios[:4], catalog.switch_configs,
                            truth_cache=cache, **kwargs)[METHOD_WLS]
    alone = run_test_case(case_b, grid, scenarios[:4], catalog.switch_configs,
                          **kwargs)[METHOD_WLS]
    assert len(cache) == 2 * len(catalog.switch_configs)
    assert n_known(cache) == 2 * 4 * len(catalog.switch_configs)
    assert np.array_equal(after_a.v_err_max_pct, alone.v_err_max_pct)


def test_error_stats_sorted_by_wls_max(setup):
    grid, catalog, scenarios, models = setup
    res = run_test_case(catalog.case("M4"), grid, scenarios,
                        catalog.switch_configs, models=models, meas_seed=3)
    stats = error_stats(res, grid)
    wls_max = [row["wls_max"] for row in stats["buses"]]
    assert wls_max == sorted(wls_max)
    assert len(stats["buses"]) == 15
    assert len(stats["lines"]) == 15
    assert all("ann_mean" in row for row in stats["buses"])


def test_sota_extreme_tuples_shape():
    tuples = sota_extreme_tuples(DEFAULT_AXES)
    assert len(tuples) == 5
    assert tuples[0] == (0.1, 0.0, 0.0)
    assert tuples[1] == (1.0, 1.0, 0.9)


@pytest.mark.parametrize("case_id, methods", [
    ("M4", (METHOD_ANN, METHOD_WLS)),
    ("F1*", (METHOD_WLS,)),  # zeroed reading plus correction
    ("T5", (METHOD_WLS,)),  # per-sample impedances
], ids=["M4", "F1star", "T5"])
def test_shared_pairs_match_across_batch_sizes(setup, case_id, methods):
    """Noise and T5 factors are keyed by (config, scenario), so a pair's row
    does not depend on which other pairs share its batch."""
    grid, catalog, scenarios, models = setup
    tc = catalog.case(case_id)
    small, large = (run_test_case(tc, grid, scenarios[:n], catalog.switch_configs,
                                  models=models, methods=methods, meas_seed=3,
                                  fault_seed=9)
                    for n in (3, 6))
    # rows of scenarios 0-2 under each config, config-major
    shared = np.add.outer(6 * np.arange(len(catalog.switch_configs)), np.arange(3)).ravel()
    for method in methods:
        for field in ("v_err_max_pct", "loading_err_max_pp", "success_c1", "success_c2",
                      "failed_structurally", "pf_diverged", "unseen_topology"):
            a, b = getattr(small[method], field), getattr(large[method], field)
            if a is None:
                assert b is None
                continue
            assert a.tobytes() == b[shared].tobytes(), (method, field)


def test_fault_targeting_nothing_fails_before_any_truth(setup, monkeypatch):
    from dataclasses import replace

    from gridmon import powerflow
    from gridmon.measurements import FaultInjection, MeasurementError

    grid, catalog, scenarios, _ = setup

    def solve(*args, **kwargs):
        raise AssertionError("a truth was solved")

    monkeypatch.setattr(powerflow, "solve_flows", solve)
    # M4 reads no voltage at bus 5
    tc = replace(catalog.case("M4"), faults=(
        FaultInjection(kind="zero_value", target_kind="v_bus", buses=(5,)),))
    with pytest.raises(MeasurementError, match="targets nothing"):
        run_test_case(tc, grid, scenarios[:2], catalog.switch_configs, methods=(METHOD_WLS,))
