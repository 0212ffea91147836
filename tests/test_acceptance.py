"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a PASS/FAIL line with the measured values. The expensive
shared artifacts (trained monitor pair for the reference measurement layout,
power-flow truth cache) are built once per session.
"""

import time

import numpy as np
import pytest

from gridmon.ann import (AnnArchitecture, TrainConfig, build_training_set,
                         init_model, train_monitor_pair)
from gridmon.correction import correct_rows
from gridmon.evaluation import (METHOD_ANN, METHOD_WLS, TruthCache, compare_sota,
                                load_catalog, run_test_case)
from gridmon.grid import StatePass, apply_switch_config, load_bundled
from gridmon.measurements import MeasurementSpec, MeasurementSet, make_spec, simulate_batch
from gridmon.powerflow import InjectionSet, line_flows, solve_pf, solve_truths
from gridmon.scenarios import (DEFAULT_AXES, bus_injections, generate_set, injections,
                               unit_powers)
from gridmon.wls import estimate

from conftest import flat_scenario, mse_and_grads, noise_free

TRAIN_SEED = 1001
TEST_SEED = 2002
NOISE_SEED = 3003
ANN_SEED = 7

CONFIG_0 = (False, False, False, True, True, True)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def bundle():
    t0 = time.perf_counter()
    grid = load_bundled("cigre_mv_mod")
    catalog = load_catalog(grid)
    m4 = catalog.case("M4")
    train_scenarios = generate_set(DEFAULT_AXES, grid, 3, TRAIN_SEED)
    test_scenarios = generate_set(DEFAULT_AXES, grid, 3, TEST_SEED)
    data = build_training_set(grid, train_scenarios, m4.spec(grid),
                              catalog.switch_configs, TRAIN_SEED)
    models, _ = train_monitor_pair(grid, data, TrainConfig(seed=ANN_SEED))
    train_seconds = time.perf_counter() - t0
    cache = TruthCache()
    t1 = time.perf_counter()
    m4_results = run_test_case(m4, grid, test_scenarios, catalog.switch_configs,
                               models=models, meas_seed=NOISE_SEED,
                               truth_cache=cache)
    eval_seconds = time.perf_counter() - t1
    return {
        "grid": grid, "catalog": catalog, "m4": m4, "models": models,
        "data": data, "test_scenarios": test_scenarios, "cache": cache,
        "m4_results": m4_results,
        "train_seconds": train_seconds, "eval_seconds": eval_seconds,
    }


def test_criterion_1_power_flow_oracles(cigre):
    start = time.perf_counter()
    # analytic two-bus case
    from gridmon.grid import Bus, GridModel, Line, Unit

    grid2 = GridModel(
        buses=(Bus(0, "slack", 20.0), Bus(1, "pq", 20.0)),
        lines=(Line(0, 0, 1, 0.0, 40.0, 0.0, 100.0),),
        switches=(), units=(Unit(0, 1, "load", 100.0),))
    view2 = apply_switch_config(grid2, ())
    p, q, x = 0.1, 0.0, 0.1
    sol2 = solve_pf(view2, InjectionSet(np.array([0.0, -p]), np.array([0.0, -q])))
    b = 2 * q * x - 1
    v_exact = np.sqrt((-b + np.sqrt(b * b - 4 * x * x * (p * p + q * q))) / 2)
    two_bus_err = abs(sol2.v_mag_pu[1] - v_exact)

    # power balance identity on 1000 random scenarios
    rng = np.random.default_rng(99)
    view = apply_switch_config(cigre, CONFIG_0)
    worst = 0.0
    for _k in range(1000):
        scale = {"load": rng.uniform(0.1, 1.0), "wec": rng.uniform(0, 1.0),
                 "pv": rng.uniform(0, 0.9)}
        p_kw = np.array([u.p_nom_kw * scale[u.kind] * rng.uniform(0.7, 1.3)
                         for u in cigre.units])
        q_kvar = p_kw * np.tan(np.arccos(0.97))
        from gridmon.scenarios import Scenario

        inj = injections(cigre, Scenario(p_kw, q_kvar, (), 0, 0, None))
        sol = solve_pf(view, inj)
        flows = line_flows(StatePass(view.branches, sol.v_mag_pu, sol.v_ang_rad))
        losses = flows.p_from_pu + flows.p_to_pu
        balance = inj.p_pu.sum() + sol.p_slack_kw / 1e3 - losses.sum()
        worst = max(worst, abs(balance))
    elapsed = time.perf_counter() - start
    ok = two_bus_err < 1e-8 and worst < 1e-8 and elapsed < 10.0
    report(1, ok, f"two-bus err {two_bus_err:.2e}, worst balance {worst:.2e}, "
                  f"{elapsed:.1f} s")
    assert two_bus_err < 1e-8
    assert worst < 1e-8
    assert elapsed < 10.0


def test_criterion_2_scenario_counts(cigre):
    n1 = len(generate_set(DEFAULT_AXES, cigre, 1, seed=1))
    n3 = len(generate_set(DEFAULT_AXES, cigre, 3, seed=1))
    ok = (n1, n3) == (1100, 3300)
    report(2, ok, f"1 repetition -> {n1}, 3 repetitions -> {n3}")
    assert n1 == 1100
    assert n3 == 3300


def test_criterion_3_gradient_check():
    start = time.perf_counter()
    arch = AnnArchitecture(n_in=4, n_out=3, n_hidden_layers=2,
                           hidden_size_override=8)  # 4-8-8-3
    assert arch.layer_sizes() == [4, 8, 8, 3]
    model = init_model(arch, seed=12)
    rng = np.random.default_rng(34)
    worst = 0.0
    eps = 1e-6
    for _point in range(100):
        x = rng.normal(size=(1, 4))
        y = rng.normal(size=(1, 3))
        _, gw, gb = mse_and_grads(model, x, y)
        for params, grads in ((model.weights, gw), (model.biases, gb)):
            for p_arr, g_arr in zip(params, grads):
                flat_p = p_arr.ravel()
                flat_g = g_arr.ravel()
                for i in range(flat_p.size):
                    orig = flat_p[i]
                    flat_p[i] = orig + eps
                    hi, _, _ = mse_and_grads(model, x, y)
                    flat_p[i] = orig - eps
                    lo, _, _ = mse_and_grads(model, x, y)
                    flat_p[i] = orig
                    numeric = (hi - lo) / (2 * eps)
                    denom = max(abs(numeric), 1e-8)
                    worst = max(worst, abs(flat_g[i] - numeric) / denom)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-5 and elapsed < 30.0
    report(3, ok, f"worst relative gradient error {worst:.2e}, {elapsed:.1f} s")
    assert worst < 1e-5
    assert elapsed < 30.0


def test_criterion_4_m4_reproduction(bundle):
    res = bundle["m4_results"][METHOD_ANN]
    minutes = (bundle["train_seconds"] + bundle["eval_seconds"]) / 60.0
    ok = res.sr_c1 >= 0.98 and res.sr_c2 >= 0.94 and minutes < 30.0
    report(4, ok, f"ANN SR_C1 {100 * res.sr_c1:.2f} % (>=98), "
                  f"SR_C2 {100 * res.sr_c2:.2f} % (>=94), {minutes:.1f} min (<30)")
    assert res.sr_c1 >= 0.98
    assert res.sr_c2 >= 0.94
    assert minutes < 30.0


def test_criterion_5_baseline_separation(bundle):
    ann = bundle["m4_results"][METHOD_ANN]
    wls = bundle["m4_results"][METHOD_WLS]
    gap = (ann.sr_c1 - wls.sr_c1) * 100.0
    ok = gap >= 20.0
    report(5, ok, f"ANN SR_C1 {100 * ann.sr_c1:.2f} % vs WLS "
                  f"{100 * wls.sr_c1:.2f} % -> separation {gap:.1f} pp (>=20)")
    assert gap >= 20.0


@pytest.fixture(scope="session")
def sota(bundle):
    return compare_sota(bundle["grid"], bundle["m4"], DEFAULT_AXES,
                        bundle["catalog"].switch_configs,
                        bundle["test_scenarios"], bundle["data"], bundle["cache"],
                        train_seed=TRAIN_SEED, meas_seed=NOISE_SEED,
                        train_cfg=TrainConfig(seed=ANN_SEED))


def test_criterion_6a_few_scenario_training(sota):
    ok = sota.few_scenario_sr_c1 < 0.05
    report("6a", ok, f"five-scenario training SR_C1 "
                     f"{100 * sota.few_scenario_sr_c1:.2f} % (<5)")
    assert sota.few_scenario_sr_c1 < 0.05


def test_criterion_6b_small_architecture_anchor(sota):
    """The published two-neuron baseline lands near its reported figure.

    A single-hidden-layer network with two sigmoid units, fed the
    measurements alone (no switch bits), estimates the bus voltages and is
    scored on the C1 voltage limit only. Its success rate must fall in the
    band [60 %, 90 %] around the published 78.48 %; this anchors the claim
    that the full monitor outperforms earlier ANN schemes on the same data.

    C1 bounds the largest per-unit voltage error over all buses, so the
    baseline is trained on the MSE of per-unit voltages (mean-centred, not
    scaled per bus). Per-bus z-scores would spend its two units on the stiff
    buses near the substation and leave the feeder end, which sets the C1
    maximum, poorly fitted.
    """
    sr = sota.small_arch_voltage_sr_c1
    ok = 0.60 <= sr <= 0.90
    report("6b", ok, f"1x2-neuron voltage SR_C1 {100 * sr:.2f} % "
                     f"(band [60, 90]; published value 78.48)")
    assert 0.60 <= sr <= 0.90


def test_criterion_7_error_correction(bundle):
    grid = bundle["grid"]
    catalog = bundle["catalog"]
    f1 = catalog.case("F1")
    base = run_test_case(f1, grid, bundle["test_scenarios"],
                         catalog.switch_configs, models=bundle["models"],
                         methods=(METHOD_ANN,), meas_seed=NOISE_SEED,
                         truth_cache=bundle["cache"])[METHOD_ANN]
    corrected = run_test_case(f1.with_correction(True), grid,
                              bundle["test_scenarios"], catalog.switch_configs,
                              models=bundle["models"], methods=(METHOD_ANN,),
                              meas_seed=NOISE_SEED,
                              truth_cache=bundle["cache"])[METHOD_ANN]

    # clean-data false positives and idempotence over the cached truths
    spec = f1.spec(grid)
    false_positives = 0
    total = 0
    idempotent = True
    views = [apply_switch_config(grid, c) for c in catalog.switch_configs]
    n_tables = len(bundle["cache"])
    truths = solve_truths(views, bus_injections(grid, *unit_powers(bundle["test_scenarios"])),
                          cache=bundle["cache"])
    assert len(bundle["cache"]) == n_tables and not truths.diverged.any()  # a cache hit
    n = len(bundle["test_scenarios"])
    for ci in range(len(catalog.switch_configs)):
        keys = [(ci, si) for si in range(n)]
        rows = slice(ci * n, (ci + 1) * n)
        readings = simulate_batch(views[ci], truths.v[rows], truths.th[rows], spec,
                                  NOISE_SEED, keys)
        screened = readings.copy()
        correct_rows(screened, spec)
        total += len(readings)
        false_positives += int(np.any(screened != readings, axis=1).sum())
        again = screened[::500].copy()
        correct_rows(again, spec)
        idempotent &= np.array_equal(again, screened[::500])
    fp_rate = false_positives / total
    ok = (base.sr_c1 < 0.05 and corrected.sr_c1 > 0.70
          and fp_rate < 0.01 and idempotent)
    report(7, ok, f"F1 SR_C1 {100 * base.sr_c1:.2f} % -> F1* "
                  f"{100 * corrected.sr_c1:.2f} % (>70), clean FP "
                  f"{100 * fp_rate:.3f} % (<1), idempotent {idempotent}")
    assert base.sr_c1 < 0.05
    assert corrected.sr_c1 > 0.70
    assert fp_rate < 0.01
    assert idempotent


def test_criterion_8_wls_sanity(bundle):
    grid = bundle["grid"]
    catalog = bundle["catalog"]
    # noiseless, fully measured estimation recovers the power-flow truth
    view = apply_switch_config(grid, CONFIG_0)
    sol = solve_pf(view, injections(grid, flat_scenario(grid, load=0.7, dg=0.6)))
    spec = make_spec(grid, v_buses=range(15), s_buses=range(15))
    spec0 = MeasurementSpec(entries=tuple(
        type(e)(e.kind, e.location, 0.0) for e in spec.entries))
    ms = MeasurementSet(values=noise_free(sol, view, spec0),
                        switch_states=np.array(CONFIG_0, dtype=float),
                        spec_hash=spec0.spec_hash)
    est = estimate(view, ms, spec0)
    recovery = float(np.max(np.abs(est.v_mag - sol.v_mag_pu)))

    m8 = run_test_case(catalog.case("M8"), grid, bundle["test_scenarios"],
                       catalog.switch_configs, methods=(METHOD_WLS,),
                       meas_seed=NOISE_SEED,
                       truth_cache=bundle["cache"])[METHOD_WLS]
    ok = recovery < 1e-6 and m8.sr_c1 >= 0.95
    report(8, ok, f"noiseless recovery {recovery:.2e} pu (<1e-6), "
                  f"M8 WLS SR_C1 {100 * m8.sr_c1:.2f} % (>=95)")
    assert recovery < 1e-6
    assert m8.sr_c1 >= 0.95


def test_criterion_9_deterministic_reruns(tmp_path):
    from gridmon.cli import main

    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = main(["generate", "--repetitions", "1", "--seed", "17",
                     "--out", str(out)])
        assert code == 0
        outs.append(out)
    same_csv = (outs[0] / "scenarios.csv").read_bytes() == \
        (outs[1] / "scenarios.csv").read_bytes()
    a = np.load(outs[0] / "truth_cache.npz")
    b = np.load(outs[1] / "truth_cache.npz")
    same_truths = all(np.array_equal(a[k], b[k]) for k in a.files)
    ok = same_csv and same_truths
    report(9, ok, f"scenario CSV identical {same_csv}, truth cache identical "
                  f"{same_truths}")
    assert same_csv
    assert same_truths
