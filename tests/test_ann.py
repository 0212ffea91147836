import os
import time

import numpy as np
import pytest

from gridmon.ann import (AnnArchitecture, AnnError, SpecHashMismatch, TrainConfig,
                         TrainingData, build_training_set, forward, hidden_size, init_model,
                         load_model, predict_batch,
                         save_model, train, train_monitor_pair)
from gridmon.measurements import make_spec
from gridmon.scenarios import DEFAULT_AXES, generate_set
from gridmon.seeding import STREAM_ANN, rng as seeded_rng

from conftest import mse_and_grads

CONFIG_0 = (False, False, False, True, True, True)


def test_hidden_size_two_thirds_rule():
    assert hidden_size(18, 15) == 27
    assert hidden_size(3, 3) == 5
    assert hidden_size(1, 1) == 2
    with pytest.raises(AnnError):
        hidden_size(0, 3)


def test_architecture_layer_sizes():
    arch = AnnArchitecture(n_in=18, n_out=15)
    assert arch.layer_sizes() == [18, 27, 27, 27, 15]
    assert AnnArchitecture(n_in=18, n_out=15, layer_size_multiplier=2).layer_sizes() \
        == [18, 54, 54, 54, 15]
    assert AnnArchitecture(n_in=18, n_out=15, n_hidden_layers=1,
                           hidden_size_override=2).layer_sizes() == [18, 2, 15]
    # a negative depth is no linear net, and a zero width no net at all
    with pytest.raises(AnnError, match="n_hidden_layers"):
        AnnArchitecture(n_in=18, n_out=15, n_hidden_layers=-2)
    with pytest.raises(AnnError, match="hidden_size_override"):
        AnnArchitecture(n_in=18, n_out=15, hidden_size_override=0)


def test_init_bounds_follow_fan_in():
    arch = AnnArchitecture(n_in=100, n_out=3, n_hidden_layers=1)
    model = init_model(arch, seed=0)
    w0 = model.weights[0]  # fan-in 100 -> bound 0.238
    assert np.abs(w0).max() <= 2.38 / 10 + 1e-12
    assert np.abs(w0).max() > 0.9 * 2.38 / 10  # bound is actually exercised
    assert all(np.all(b == 0) for b in model.biases)


def test_init_bound_fan_in_one():
    arch = AnnArchitecture(n_in=1, n_out=1, n_hidden_layers=1)
    model = init_model(arch, seed=3)
    assert np.abs(model.weights[0]).max() <= 2.38


def test_init_deterministic():
    arch = AnnArchitecture(n_in=7, n_out=2)
    a = init_model(arch, seed=9)
    b = init_model(arch, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_forward_single_linear_layer_is_matmul():
    arch = AnnArchitecture(n_in=4, n_out=3, n_hidden_layers=0)
    model = init_model(arch, seed=1)
    x = np.random.default_rng(0).normal(size=(11, 4))
    manual = x @ model.weights[0] + model.biases[0]
    assert np.max(np.abs(forward(model, x) - manual)) < 1e-12


def central_difference_grads(model, x, y, eps=1e-6):
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    for params, grads in ((model.weights, grads_w), (model.biases, grads_b)):
        for p, g in zip(params, grads):
            flat_p = p.ravel()
            flat_g = g.ravel()
            for i in range(flat_p.size):
                orig = flat_p[i]
                flat_p[i] = orig + eps
                hi, _, _ = mse_and_grads(model, x, y)
                flat_p[i] = orig - eps
                lo, _, _ = mse_and_grads(model, x, y)
                flat_p[i] = orig
                flat_g[i] = (hi - lo) / (2 * eps)
    return grads_w, grads_b


def test_gradients_match_central_differences():
    rng = np.random.default_rng(42)
    arch = AnnArchitecture(n_in=4, n_out=3, n_hidden_layers=2)
    model = init_model(arch, seed=4)
    x = rng.normal(size=(5, 4))
    y = rng.normal(size=(5, 3))
    _, gw, gb = mse_and_grads(model, x, y)
    num_w, num_b = central_difference_grads(model, x, y)
    for analytic, numeric in list(zip(gw, num_w)) + list(zip(gb, num_b)):
        scale = np.maximum(np.abs(numeric), 1e-8)
        assert np.max(np.abs(analytic - numeric) / scale) < 1e-5


def test_identity_task_converges():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(256, 3))
    arch = AnnArchitecture(n_in=3, n_out=3, n_hidden_layers=0)
    model = init_model(arch, seed=7)
    model, history = train(model, x, x.copy(),
                           TrainConfig(max_epochs=500, patience=500,
                                       batch_size=8, seed=7))
    assert history.train_loss[-1] < 1e-4


def test_early_stopping_patience_zero():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(64, 2))
    y = rng.normal(size=(64, 2))  # pure noise plus a hot learning rate: the
    # validation loss bounces, so patience 0 must stop at the first bounce
    arch = AnnArchitecture(n_in=2, n_out=2, n_hidden_layers=1)
    model = init_model(arch, seed=3)
    _, history = train(model, x, y, TrainConfig(max_epochs=200, patience=0,
                                                learning_rate=0.1, seed=3))
    assert history.stopped_epoch < 199
    assert history.stopped_epoch == history.best_epoch + 1


def test_best_validation_weights_restored():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(128, 3))
    y = rng.normal(size=(128, 2))
    arch = AnnArchitecture(n_in=3, n_out=2, n_hidden_layers=1)
    model = init_model(arch, seed=5)
    model, history = train(model, x, y, TrainConfig(max_epochs=120, patience=30, seed=5))
    assert min(history.val_loss) == history.val_loss[history.best_epoch]
    assert history.val_loss[history.best_epoch] <= history.val_loss[-1] + 1e-15


def test_training_bitwise_deterministic():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(200, 4))
    y = rng.normal(size=(200, 2)) * 0.1 + x[:, :2]
    arch = AnnArchitecture(n_in=4, n_out=2)
    runs = []
    for _ in range(2):
        model = init_model(arch, seed=13)
        model, _ = train(model, x.copy(), y.copy(),
                         TrainConfig(max_epochs=30, seed=13))
        runs.append([w.copy() for w in model.weights])
    for wa, wb in zip(*runs):
        assert np.array_equal(wa, wb)


def reference_train(model, x, y, cfg, standardize_targets=True):
    """Plain minibatch Adam with one moment pair per weight/bias array.

    Same RNG streams, validation split, loss reports and early stopping as
    ``train``; returns (weights, biases, out_mean, out_sd, train_loss,
    val_loss, best_epoch, stopped_epoch). The train loss of an epoch is the
    squared error of each batch before its update, per output column, in
    target units.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    gen = seeded_rng(cfg.seed, STREAM_ANN, 1)
    order = gen.permutation(len(x))
    n_val = max(1, int(round(cfg.validation_fraction * len(x))))
    val_idx, train_idx = order[:n_val], order[n_val:]
    mean, sd = x[train_idx].mean(axis=0), x[train_idx].std(axis=0)
    model.norm_mean = np.where(model.norm_mask, mean, 0.0)
    model.norm_sd = np.where(model.norm_mask & ~(sd < 1e-12), sd, 1.0)
    model.out_mean = y[train_idx].mean(axis=0)
    out_sd = y[train_idx].std(axis=0) if standardize_targets else np.ones(y.shape[1])
    model.out_sd = np.where(out_sd < 1e-12, 1.0, out_sd)
    xt = model.normalize(x)[train_idx]
    yt = ((y - model.out_mean) / model.out_sd)[train_idx]

    params = model.weights + model.biases
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    t = 0
    train_loss, val_loss = [], []
    best_val, best, best_epoch, since = np.inf, None, -1, 0
    for epoch in range(cfg.max_epochs):
        perm = gen.permutation(len(xt))
        sq_err = np.zeros(y.shape[1])
        for lo in range(0, len(xt), cfg.batch_size):
            batch = perm[lo:lo + cfg.batch_size]
            diff = forward(model, xt[batch]) - yt[batch]
            sq_err += np.sum(diff * diff, axis=0)
            _, gw, gb = mse_and_grads(model, xt[batch], yt[batch])
            t += 1
            for p, g, mk, vk in zip(params, gw + gb, m, v):
                mk *= beta1
                mk += (1.0 - beta1) * g
                vk *= beta2
                vk += (1.0 - beta2) * g * g
                p -= cfg.learning_rate * (mk / (1.0 - beta1**t)) / (
                    np.sqrt(vk / (1.0 - beta2**t)) + eps)
        train_loss.append(float(np.sum(sq_err * model.out_sd**2)) / yt.size)
        diff = predict_batch(model, x[val_idx]) - y[val_idx]
        val_loss.append(float(np.mean(diff * diff)))
        if val_loss[-1] < best_val:
            best_val, best, best_epoch, since = val_loss[-1], [p.copy() for p in params], epoch, 0
        else:
            since += 1
            if since > cfg.patience:
                break
    n_w = len(model.weights)
    return (best[:n_w], best[n_w:], model.out_mean, model.out_sd, train_loss, val_loss,
            best_epoch, len(train_loss) - 1)


REFERENCE_RUNS = {
    # name: (arch keywords, rows, TrainConfig, standardize_targets)
    "relu_3_hidden": (dict(n_hidden_layers=3), 172, TrainConfig(max_epochs=12, seed=1), True),
    "no_hidden": (dict(n_hidden_layers=0), 172, TrainConfig(max_epochs=12, seed=2), True),
    "tanh": (dict(n_hidden_layers=2, hidden_activation="tanh"), 172,
             TrainConfig(max_epochs=12, seed=3), True),
    "sigmoid": (dict(n_hidden_layers=1, hidden_activation="sigmoid",
                     hidden_size_override=2), 172, TrainConfig(max_epochs=12, seed=4), True),
    "unstandardized": (dict(n_hidden_layers=1), 172, TrainConfig(max_epochs=12, seed=5),
                       False),
    # 130 training rows in batches of 32: the last batch holds 2 rows
    "ragged_batches": (dict(n_hidden_layers=2), 173, TrainConfig(max_epochs=12, seed=6),
                       True),
    "patience_stop": (dict(n_hidden_layers=1), 64,
                      TrainConfig(max_epochs=200, patience=0, learning_rate=0.1, seed=7),
                      True),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_RUNS))
def test_train_matches_reference_bitwise(name):
    arch_kw, rows, cfg, standardize = REFERENCE_RUNS[name]
    gen = np.random.default_rng(cfg.seed)
    x = gen.normal(size=(rows, 4))
    y = np.column_stack([np.tanh(x[:, 0] - x[:, 1]), 3.0 + 0.2 * x[:, 2]]) \
        + 0.1 * gen.normal(size=(rows, 2))
    arch = AnnArchitecture(n_in=4, n_out=2, **arch_kw)
    model, history = train(init_model(arch, cfg.seed), x, y, cfg,
                           standardize_targets=standardize)
    weights, biases, out_mean, out_sd, train_loss, val_loss, best_epoch, stopped = \
        reference_train(init_model(arch, cfg.seed), x, y, cfg, standardize)

    for got, want in zip(model.weights + model.biases + [model.out_mean, model.out_sd],
                         weights + biases + [out_mean, out_sd]):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert history.train_loss == train_loss
    assert history.val_loss == val_loss
    assert (history.best_epoch, history.stopped_epoch) == (best_epoch, stopped)
    if name == "patience_stop":
        assert stopped < cfg.max_epochs - 1


def pair_data(rows, seed, n_loading=3):
    """Four measurements and two switch bits, with three voltage targets and
    ``n_loading`` noisier loading targets."""
    gen = np.random.default_rng(seed)
    meas = gen.normal(size=(rows, 4))
    bits = gen.integers(0, 2, size=(rows, 2)).astype(float)
    noise = gen.normal(size=(rows, 3 + n_loading))
    y_voltage = np.column_stack([1.0 + 0.02 * np.tanh(meas[:, 0] - meas[:, 1]),
                                 1.0 - 0.03 * bits[:, 0] + 0.01 * meas[:, 2],
                                 0.98 + 0.01 * meas[:, 3] * bits[:, 1]]) \
        + 0.002 * noise[:, :3]
    y_loading = 0.5 + 0.2 * np.abs(meas[:, :n_loading]) + 0.1 * noise[:, 3:]
    return TrainingData(x=np.column_stack([meas, bits]), y_voltage=y_voltage,
                        y_loading=y_loading, spec_hash="pair", n_switch_bits=2)


PAIR_RUNS = {
    # name: (arch overrides, rows, TrainConfig, loading columns)
    "loading_stops_first": (dict(n_hidden_layers=1), 128,
                            TrainConfig(max_epochs=100, patience=2, learning_rate=0.05,
                                        seed=3), 3),
    "voltage_stops_first": (dict(n_hidden_layers=1), 128,
                            TrainConfig(max_epochs=100, patience=1, learning_rate=0.05,
                                        seed=9), 3),
    "tanh": (dict(n_hidden_layers=2, hidden_activation="tanh"), 128,
             TrainConfig(max_epochs=10, seed=4), 3),
    "sigmoid": (dict(n_hidden_layers=1, hidden_activation="sigmoid"), 128,
                TrainConfig(max_epochs=10, seed=5), 3),
    # 130 training rows in batches of 32: the last batch holds 2 rows
    "ragged_batches": (dict(n_hidden_layers=2), 173, TrainConfig(max_epochs=10, seed=6), 3),
    # nets of two shapes train as two stacks of one
    "loading_narrower": (dict(n_hidden_layers=2), 128, TrainConfig(max_epochs=10, seed=7), 2),
}


# one CPU: the pair trains in-process as one stack; two CPUs: each net in a
# worker of its own
AFFINITIES = ({0}, {0, 1})


@pytest.mark.parametrize("name", sorted(PAIR_RUNS))
def test_monitor_pair_matches_reference_bitwise(cigre_module, name, monkeypatch):
    overrides, rows, cfg, n_loading = PAIR_RUNS[name]
    data = pair_data(rows, cfg.seed, n_loading)
    references = {}
    for kind, y in (("voltage", data.y_voltage), ("loading", data.y_loading)):
        ref = init_model(AnnArchitecture(n_in=6, n_out=y.shape[1], **overrides), cfg.seed)
        ref.norm_mask = np.array([True] * 4 + [False] * 2)
        references[kind] = ref, reference_train(ref, data.x, y, cfg)

    for cpus in AFFINITIES:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        models, histories = train_monitor_pair(cigre_module, data, cfg,
                                               arch_overrides=overrides)
        for kind, (ref, trained) in references.items():
            got, history = models[kind], histories[kind]
            assert got.arch == ref.arch
            weights, biases, out_mean, out_sd, train_loss, val_loss, best_epoch, stopped = \
                trained
            for a, b in zip(got.weights + got.biases + [got.out_mean, got.out_sd,
                                                        got.norm_mean, got.norm_sd],
                            weights + biases + [out_mean, out_sd, ref.norm_mean, ref.norm_sd]):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert history.train_loss == train_loss
            assert history.val_loss == val_loss
            assert (history.best_epoch, history.stopped_epoch) == (best_epoch, stopped)
        stops = {kind: h.stopped_epoch for kind, h in histories.items()}
        if name == "loading_stops_first":
            assert stops["loading"] < stops["voltage"] < cfg.max_epochs - 1
        if name == "voltage_stops_first":
            assert stops["voltage"] < stops["loading"] < cfg.max_epochs - 1


@pytest.mark.parametrize("name", ["loading_stops_first", "voltage_stops_first"])
def test_monitor_pair_histories_end_at_each_nets_stop(cigre_module, name, monkeypatch):
    overrides, rows, cfg, n_loading = PAIR_RUNS[name]
    for cpus in AFFINITIES:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        _, histories = train_monitor_pair(cigre_module, pair_data(rows, cfg.seed, n_loading),
                                          cfg, arch_overrides=overrides)
        assert histories["voltage"].stopped_epoch != histories["loading"].stopped_epoch
        for history in histories.values():
            assert len(history.train_loss) == len(history.val_loss) == history.stopped_epoch + 1
            assert np.isfinite(history.train_loss).all()


def test_best_epoch_weights_are_returned():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(128, 3))
    y = rng.normal(size=(128, 2))
    arch = AnnArchitecture(n_in=3, n_out=2, n_hidden_layers=1)
    cfg = TrainConfig(max_epochs=120, patience=5, learning_rate=0.01, seed=5)
    model, history = train(init_model(arch, seed=5), x, y, cfg)
    assert history.stopped_epoch > history.best_epoch
    # the validation rows, split off as train() does
    order = seeded_rng(cfg.seed, STREAM_ANN, 1).permutation(len(x))
    val_rows = order[:int(round(cfg.validation_fraction * len(x)))]
    diff = predict_batch(model, x[val_rows]) - y[val_rows]
    assert float(np.mean(diff * diff)) == history.val_loss[history.best_epoch]
    # every returned parameter owns its memory
    assert all(p.base is None for p in model.weights + model.biases)


def test_unstandardized_targets_train_in_target_units():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(64, 2))
    # two target columns whose spreads differ by a factor of 100
    y = np.column_stack([1.0 + 0.01 * x[:, 0], 5.0 + 1.0 * x[:, 1]])
    arch = AnnArchitecture(n_in=2, n_out=2, n_hidden_layers=1)
    cfg = TrainConfig(max_epochs=5, seed=21)
    # the training rows, split off as train() does
    order = seeded_rng(cfg.seed, STREAM_ANN, 1).permutation(len(x))
    train_rows = order[int(round(cfg.validation_fraction * len(x))):]

    model, _ = train(init_model(arch, seed=21), x, y, cfg,
                     standardize_targets=False)
    assert np.array_equal(model.out_sd, np.ones(2))
    assert np.allclose(model.out_mean, y[train_rows].mean(axis=0))
    # raw network outputs are centred target units: only the mean is added back
    raw = forward(model, model.normalize(x))
    assert np.array_equal(predict_batch(model, x), raw + model.out_mean)

    default, _ = train(init_model(arch, seed=21), x, y, cfg)
    assert np.allclose(default.out_sd, y[train_rows].std(axis=0))


def test_non_finite_loss_raises():
    x = np.array([[1.0, 1.0], [2.0, 2.0]])
    y = np.array([[np.nan], [np.nan]])
    arch = AnnArchitecture(n_in=2, n_out=1, n_hidden_layers=1)
    model = init_model(arch, seed=0)
    with pytest.raises(AnnError, match="non-finite"):
        train(model, x, y, TrainConfig(max_epochs=3, seed=0))


@pytest.fixture(scope="module")
def m4_training(cigre_module):
    grid = cigre_module
    spec = make_spec(grid, v_buses=[0, 6, 8, 10], s_buses=[4, 7],
                     s_lines=["1-2", "12-13"])
    scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=501)[:300]
    data = build_training_set(grid, scenarios, spec,
                              [CONFIG_0, (True, False, True, False, True, False)],
                              seed=501)
    return grid, spec, data


@pytest.fixture(scope="module")
def cigre_module():
    from gridmon.grid import load_bundled

    return load_bundled("cigre_mv_mod")


def test_build_training_set_shapes(m4_training):
    grid, spec, data = m4_training
    assert data.x.shape == (600, 12 + 6)
    assert data.y_voltage.shape == (600, 15)
    assert data.y_loading.shape == (600, 15)
    assert data.skipped == 0
    assert data.spec_hash == spec.spec_hash
    # loading targets are fractions of rating, not percent
    assert data.y_loading.max() < 3.0


def test_build_training_set_skips_diverged_pair(m4_training, monkeypatch):
    from gridmon import powerflow

    grid, spec, data = m4_training
    scenarios = generate_set(DEFAULT_AXES, grid, 1, seed=501)[:3]
    real = powerflow.solve_flows
    calls = []

    def diverge_fourth(view, p, q):
        v, th, loading, diverged = real(view, p, q)
        for i in range(len(p)):
            calls.append(None)
            if len(calls) == 4:  # config 1, scenario 0
                v[i] = th[i] = loading[i] = np.nan
                diverged[i] = True
        return v, th, loading, diverged

    monkeypatch.setattr(powerflow, "solve_flows", diverge_fourth)
    small = build_training_set(grid, scenarios, spec,
                               [CONFIG_0, (True, False, True, False, True, False)],
                               seed=501)
    assert small.skipped == 1
    assert small.x.shape[0] == 5
    # rows are config-major and keep the rows of the parent set's pairs
    assert np.array_equal(small.x[:3], data.x[:3])
    assert np.array_equal(small.x[3:], data.x[301:303])


def test_train_monitor_pair_independent_weights(m4_training):
    grid, spec, data = m4_training
    models, histories = train_monitor_pair(
        grid, data, TrainConfig(max_epochs=10, seed=3))
    assert models["voltage"].spec_hash == spec.spec_hash
    assert models["voltage"].target_kind == "voltage"
    assert not np.array_equal(models["voltage"].weights[0],
                              models["loading"].weights[0])
    for kind in ("voltage", "loading"):
        assert len(histories[kind].train_loss) == len(histories[kind].val_loss)


def test_monitor_pair_shares_no_memory(m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=3, seed=3))
    voltage, loading = models["voltage"], models["loading"]
    for a in voltage.weights + voltage.biases:
        for b in loading.weights + loading.biases:
            assert not np.shares_memory(a, b)


def test_switch_bits_bypass_normalization(m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=5, seed=3))
    model = models["voltage"]
    assert not model.norm_mask[-6:].any()
    assert model.norm_mask[:-6].all()
    bits = data.x[0, -6:]
    assert np.array_equal(model.normalize(data.x[0])[None][0, -6:], bits)


def test_topology_seen_flag(m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=5, seed=3))
    assert models["voltage"].topology_seen(CONFIG_0)
    assert not models["voltage"].topology_seen((True,) * 6)


def test_prediction_latency_batch(m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=5, seed=3))
    x = np.tile(data.x, (10, 1))[:5500]
    start = time.perf_counter()
    out = predict_batch(models["voltage"], x)
    elapsed = time.perf_counter() - start
    assert out.shape == (5500, 15)
    assert elapsed < 1.0


def test_prediction_is_lipschitz_in_inputs(m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=10, seed=3))
    model = models["voltage"]
    x = data.x[:1].copy()
    base = predict_batch(model, x)
    deltas = np.logspace(-4, -1, 8)
    outs = []
    for d in deltas:
        probe = x.copy()
        probe[0, 0] += d
        outs.append(np.abs(predict_batch(model, probe) - base).max())
    ratios = np.array(outs) / deltas
    # sensitivity stays bounded as the perturbation shrinks
    assert ratios.max() < 1e3
    assert np.isfinite(ratios).all()


def test_seen_patterns_are_the_distinct_switch_rows(tmp_path, m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=1, seed=3))
    patterns = models["voltage"].seen_patterns
    assert patterns == {tuple(int(b) for b in row) for row in data.x[:, -6:]}
    assert len(patterns) == 2
    assert all(type(b) is int for pattern in patterns for b in pattern)
    assert models["loading"].seen_patterns == patterns
    save_model(models["voltage"], tmp_path / "voltage.npz")
    assert load_model(tmp_path / "voltage.npz").seen_patterns == patterns


def test_model_save_load_round_trip(tmp_path, m4_training):
    grid, spec, data = m4_training
    models, _ = train_monitor_pair(grid, data, TrainConfig(max_epochs=5, seed=3))
    path = tmp_path / "voltage.npz"
    save_model(models["voltage"], path)
    loaded = load_model(path, expect_spec_hash=spec.spec_hash)
    assert np.array_equal(loaded.weights[1], models["voltage"].weights[1])
    assert np.array_equal(loaded.out_mean, models["voltage"].out_mean)
    assert loaded.seen_patterns == models["voltage"].seen_patterns
    x = data.x[:5]
    assert np.array_equal(predict_batch(loaded, x),
                          predict_batch(models["voltage"], x))
    with pytest.raises(SpecHashMismatch):
        load_model(path, expect_spec_hash="ffff000011112222")
