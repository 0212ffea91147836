"""Multilayer-perceptron monitors for bus voltages and line loadings.

Two sibling regressors share one input layout (measurement vector plus
switch status bits): one maps to all bus voltage magnitudes (pu), the other
to the loading fraction of every monitored line. Implemented directly on
numpy: ReLU hidden layers sized by the two-thirds rule, uniform init within
the Bottou bounds, Adam on the mean squared error, early stopping on a
validation split.

The two nets start from one seed and draw the same validation split and
batch order; only their targets differ. Nets of one shape therefore train as
one stack: weights are ``(K, fan_in, fan_out)`` and biases ``(K, fan_out)``,
and one forward and backward pass per batch runs with ``np.matmul`` on the
stacks. Every weight and bias is a view of one ``(K, n_params)`` array, with
a matching gradient buffer, and Adam updates the whole array in place in
the same operation order as a per-array update. Early stopping is per net:
a net that stops keeps its best weights and leaves the stack, and the
others carry on. A single net (``train``) is a stack of one, so the weights
of a pair are bitwise equal to training each net alone. That leaves
``train_monitor_pair`` free to train a pair's nets side by side in forked
workers when each has a CPU (``pool.map_tasks``), and as one stack where
they share a core: in a pool worker or on one CPU.

An epoch's train loss is taken from its own batches: each batch's output
errors, before that batch's update, summed per output column and reported
in target units. Only the validation rows get a second forward pass, one
for the whole stack, which early stopping reads.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import pool
from .grid import GridModel, apply_switch_config, grid_fingerprint
from .measurements import MeasurementSpec, simulate_truths
from .powerflow import solve_truths
from .scenarios import bus_injections, unit_powers
from .seeding import STREAM_ANN, rng

MODEL_FORMAT = 1

ACTIVATIONS = ("relu", "sigmoid", "tanh")


class AnnError(Exception):
    pass


class SpecHashMismatch(AnnError):
    """Input vector layout does not match the layout the model was trained on."""


def hidden_size(n_in: int, n_out: int) -> int:
    """Neurons per hidden layer: round(2/3 * n_in + n_out)."""
    if n_in < 1 or n_out < 1:
        raise AnnError("layer sizes require n_in >= 1 and n_out >= 1")
    return int(round(2.0 / 3.0 * n_in + n_out))


@dataclass(frozen=True)
class AnnArchitecture:
    n_in: int
    n_out: int
    n_hidden_layers: int = 3
    layer_size_multiplier: int = 1
    hidden_activation: str = "relu"
    hidden_size_override: int | None = None  # explicit width, e.g. for baselines

    def __post_init__(self):
        if self.n_in < 1 or self.n_out < 1:
            raise AnnError("n_in and n_out must be >= 1")
        if self.n_hidden_layers < 0:
            raise AnnError("n_hidden_layers must be >= 0")
        if self.layer_size_multiplier < 1:
            raise AnnError("layer_size_multiplier must be >= 1")
        if self.hidden_size_override is not None and self.hidden_size_override < 1:
            raise AnnError("hidden_size_override must be >= 1")
        if self.hidden_activation not in ACTIVATIONS:
            raise AnnError(f"unsupported activation {self.hidden_activation!r}")

    def layer_sizes(self) -> list[int]:
        if self.hidden_size_override is not None:
            hidden = self.hidden_size_override
        else:
            hidden = hidden_size(self.n_in, self.n_out) * self.layer_size_multiplier
        return [self.n_in] + [hidden] * self.n_hidden_layers + [self.n_out]


@dataclass(frozen=True)
class TrainConfig:
    max_epochs: int = 150
    learning_rate: float = 0.001
    validation_fraction: float = 0.25
    patience: int = 20
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.validation_fraction < 1.0:
            raise AnnError("validation_fraction must be in (0, 1)")
        if self.max_epochs < 1 or self.batch_size < 1 or self.patience < 0:
            raise AnnError("need max_epochs >= 1, batch_size >= 1 and patience >= 0")


@dataclass
class AnnModel:
    arch: AnnArchitecture
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm_mean: np.ndarray
    norm_sd: np.ndarray
    norm_mask: np.ndarray  # False where a feature bypasses normalization (switch bits)
    seed: int
    # the network regresses centred (by default also standardized) targets;
    # outputs are mapped back so the model's external units stay pu voltages /
    # loading fractions
    out_mean: np.ndarray = None
    out_sd: np.ndarray = None
    spec_hash: str = ""
    target_kind: str = ""  # "voltage" or "loading"
    train_fingerprint: str = ""
    seen_patterns: frozenset = frozenset()

    def __post_init__(self):
        if self.out_mean is None:
            self.out_mean = np.zeros(self.arch.n_out)
        if self.out_sd is None:
            self.out_sd = np.ones(self.arch.n_out)

    def normalize(self, x: np.ndarray) -> np.ndarray:
        z = (x - self.norm_mean) / self.norm_sd
        return np.where(self.norm_mask, z, x)

    def denormalize_output(self, y: np.ndarray) -> np.ndarray:
        return y * self.out_sd + self.out_mean

    def topology_seen(self, switch_bits) -> bool:
        return tuple(int(round(b)) for b in switch_bits) in self.seen_patterns


def init_model(arch: AnnArchitecture, seed: int) -> AnnModel:
    """Uniform weight init within +-2.38 / sqrt(fan_in); zero biases."""
    gen = rng(seed, STREAM_ANN)
    weights = []
    biases = []
    sizes = arch.layer_sizes()
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 2.38 / np.sqrt(fan_in)
        weights.append(gen.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return AnnModel(
        arch=arch, weights=weights, biases=biases,
        norm_mean=np.zeros(arch.n_in), norm_sd=np.ones(arch.n_in),
        norm_mask=np.ones(arch.n_in, dtype=bool), seed=seed,
    )


def _activate(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``; may overwrite ``z``."""
    if kind == "relu":
        return np.maximum(z, 0.0, out=z)
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    return np.tanh(z, out=z)


def _activate_grad(a: np.ndarray, kind: str) -> np.ndarray:
    # gradients expressed through the activation output; ReLU's is a bool
    # mask, which multiplies as 1.0 / 0.0
    if kind == "relu":
        return a > 0.0
    if kind == "sigmoid":
        return a * (1.0 - a)
    return 1.0 - a * a


def _layer_outputs(weights, biases, kind: str, x: np.ndarray):
    """Yield each layer's output for a stack of K nets of one shape.

    ``weights[l]`` is ``(K, fan_in, fan_out)`` and ``biases[l]`` is
    ``(K, 1, fan_out)``, or ``(1, fan_out)`` for one net. The inputs ``x``
    are ``(B, n_in)`` and shared by the stack; every output is
    ``(K, B, fan_out)``.
    """
    a = x
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, biases)):
        z = np.matmul(a, w)
        z += b
        a = z if k == last else _activate(z, kind)
        yield a


def forward(model: AnnModel, x: np.ndarray) -> np.ndarray:
    """Batch forward pass on already-normalized inputs."""
    for a in _layer_outputs([w[None] for w in model.weights],
                            [b[None] for b in model.biases],
                            model.arch.hidden_activation, x):
        pass
    return a[0]


def _backprop(weights, biases, kind: str, x: np.ndarray, y: np.ndarray,
              grad_w, grad_b) -> np.ndarray:
    """Gradients of each net's MSE on one batch, for a stack of K nets.

    Shapes are as in ``_layer_outputs``, with targets ``y`` of
    ``(K, B, n_out)``. The gradients are written into ``grad_w`` and
    ``grad_b``, shaped ``(K, fan_in, fan_out)`` and ``(K, fan_out)``.
    Returns the output errors ``(K, B, n_out)``; the loss itself is left to
    the caller.
    """
    acts = [x, *_layer_outputs(weights, biases, kind, x)]
    diff = acts[-1] - y
    delta = 2.0 * diff
    delta /= y.shape[1] * y.shape[2]
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(acts[k].swapaxes(-1, -2), delta, out=grad_w[k])
        np.add.reduce(delta, 1, out=grad_b[k])
        if k > 0:
            delta = np.matmul(delta, weights[k].swapaxes(-1, -2))
            delta *= _activate_grad(acts[k], kind)
    return diff


@dataclass
class TrainHistory:
    """Per-epoch losses in target units, one entry per epoch run.

    ``train_loss`` is the mean squared error of each batch's outputs before
    that batch's update, over the epoch's training rows; ``val_loss`` is the
    validation MSE after the epoch.
    """
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    best_epoch: int = -1
    stopped_epoch: int = -1
    wall_seconds: float = 0.0


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def _param_views(flat: np.ndarray, sizes: list[int]):
    """Weight and bias views of the last axis of ``flat``, for ``sizes``.

    The parameters lie as all weight matrices, then all bias vectors. A
    ``(K, n_params)`` array gives ``(K, fan_in, fan_out)`` and
    ``(K, fan_out)`` stacks; a vector gives one net's arrays.
    """
    lead = flat.shape[:-1]
    weights, biases = [], []
    lo = 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[..., lo:lo + fan_in * fan_out].reshape(
            lead + (fan_in, fan_out)))
        lo += fan_in * fan_out
    for fan_out in sizes[1:]:
        biases.append(flat[..., lo:lo + fan_out])
        lo += fan_out
    return weights, biases


def _train_stack(models: list[AnnModel], x: np.ndarray, ys: list[np.ndarray],
                 cfg: TrainConfig, standardize_targets: bool = True) -> list[TrainHistory]:
    """Train K nets of one architecture and ``norm_mask`` in place, net j on
    (x, ys[j]); each ends with the weights of its best validation epoch.

    The nets share the validation split, the batch order and one forward and
    backward pass per batch. Net j's parameters are row j of a ``(K, n_params)``
    array that Adam updates in place. A net that stops early keeps its best
    weights and leaves the stack; the others carry on as a smaller stack.
    Every history's ``wall_seconds`` is the stack's training time.
    """
    arch, mask = models[0].arch, models[0].norm_mask
    if any(x.shape[0] != y.shape[0] for y in ys):
        raise AnnError("x and y row counts differ")
    if x.shape[1] != arch.n_in:
        raise AnnError(f"expected {arch.n_in} features, got {x.shape[1]}")

    start = time.perf_counter()
    gen = rng(cfg.seed, STREAM_ANN, 1)
    order = gen.permutation(x.shape[0])
    n_val = max(1, int(round(cfg.validation_fraction * x.shape[0])))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if len(train_idx) == 0:
        raise AnnError("validation split leaves no training data")

    # normalization statistics from the training rows only; the nets read
    # the same inputs, so they share them
    x_train = x[train_idx]
    sd = x_train.std(axis=0)
    norm_mean = np.where(mask, x_train.mean(axis=0), 0.0)
    norm_sd = np.where(mask & ~(sd < 1e-12), sd, 1.0)
    yt_raw = [y[train_idx] for y in ys]
    yv_raw = [y[val_idx] for y in ys]
    for model, y_train in zip(models, yt_raw):
        model.norm_mean, model.norm_sd = norm_mean.copy(), norm_sd.copy()
        model.out_mean = y_train.mean(axis=0)
        if standardize_targets:
            out_sd = y_train.std(axis=0)
            model.out_sd = np.where(out_sd < 1e-12, 1.0, out_sd)
        else:
            model.out_sd = np.ones(y_train.shape[1])
    xt = models[0].normalize(x_train)
    xv = models[0].normalize(x[val_idx])
    yt = np.stack([(y_train - model.out_mean) / model.out_sd
                   for model, y_train in zip(models, yt_raw)])

    sizes = arch.layer_sizes()
    kind = arch.hidden_activation
    flat = np.stack([np.concatenate([p.ravel() for p in model.weights + model.biases])
                     for model in models])
    best = flat.copy()  # row j: net j's parameters at its best epoch
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    histories = [TrainHistory() for _ in models]
    live = list(range(len(models)))  # the net of each row of flat
    weights = None
    t = 0

    for epoch in range(cfg.max_epochs):
        if weights is None:  # the first epoch, or a net left the stack
            # each live net's arrays are views of its row of flat, and every
            # gradient a view of a matching buffer
            weights, biases = _param_views(flat, sizes)
            for i, j in enumerate(live):
                models[j].weights = [w[i] for w in weights]
                models[j].biases = [b[i] for b in biases]
            bias_rows = [b[:, None] for b in biases]  # broadcast over a batch
            grads = np.empty_like(flat)
            grad_w, grad_b = _param_views(grads, sizes)
            step = np.empty_like(flat)
            denom = np.empty_like(flat)

        perm = gen.permutation(len(xt))
        xe, ye = xt[perm], yt[:, perm]  # contiguous batches are slices
        sq_err = np.zeros((len(live), yt.shape[2]))  # per net and output column
        for lo in range(0, len(xt), cfg.batch_size):
            diff = _backprop(weights, bias_rows, kind, xe[lo:lo + cfg.batch_size],
                             ye[:, lo:lo + cfg.batch_size], grad_w, grad_b)
            diff *= diff
            sq_err += np.add.reduce(diff, 1)
            # Adam (Kingma & Ba, 2015), in place over every live net at once
            t += 1
            b1t = 1.0 - ADAM_BETA1**t
            b2t = 1.0 - ADAM_BETA2**t
            m *= ADAM_BETA1
            np.multiply(grads, 1.0 - ADAM_BETA1, out=step)
            m += step
            v *= ADAM_BETA2
            np.multiply(grads, 1.0 - ADAM_BETA2, out=step)
            step *= grads
            v += step
            np.divide(m, b1t, out=step)
            step *= cfg.learning_rate
            np.divide(v, b2t, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            flat -= step

        # one stacked validation forward over the live nets
        for val_out in _layer_outputs(weights, bias_rows, kind, xv):
            pass
        keep = []  # rows of flat whose nets carry on
        for i, j in enumerate(live):
            model, history = models[j], histories[j]
            # losses reported in original target units; the train loss is
            # the mean of each batch's error before its update
            train_loss = float(np.sum(sq_err[i] * model.out_sd**2)) / yt[i].size
            val_diff = model.denormalize_output(val_out[i]) - yv_raw[j]
            val_loss = float(np.mean(val_diff * val_diff))
            if not np.isfinite(train_loss) or not np.isfinite(val_loss):
                raise AnnError(f"training diverged to non-finite loss at epoch {epoch}")
            history.train_loss.append(train_loss)
            history.val_loss.append(val_loss)
            if history.best_epoch < 0 or val_loss < history.val_loss[history.best_epoch]:
                np.copyto(best[j], flat[i])
                history.best_epoch = epoch
            if epoch - history.best_epoch <= cfg.patience:
                keep.append(i)
        if len(keep) < len(live):
            if not keep:
                break
            live = [live[i] for i in keep]
            flat, m, v, yt = flat[keep], m[keep], v[keep], yt[keep]
            weights = None

    seconds = time.perf_counter() - start
    for model, history, row in zip(models, histories, best):
        history.stopped_epoch = len(history.train_loss) - 1
        history.wall_seconds = seconds
        # the returned model owns one array per parameter, independent of the
        # training buffers
        weights, biases = _param_views(row, sizes)
        model.weights = [w.copy() for w in weights]
        model.biases = [b.copy() for b in biases]
    return histories


def train(model: AnnModel, x: np.ndarray, y: np.ndarray, cfg: TrainConfig,
          *, standardize_targets: bool = True) -> tuple[AnnModel, TrainHistory]:
    """Train in place on (x, y); returns the weights of the best validation epoch.

    This is the stacked trainer with a stack of one net; see
    ``train_monitor_pair`` for a stack of two.

    By default the network regresses per-column z-scores of y, so every
    output weighs equally in the loss whatever its spread. With
    standardize_targets=False the targets are only mean-centred (out_sd stays
    at ones) and the loss is the MSE in target units, so equal errors in
    target units weigh equally across columns.

    The validation split and all batch shuffles are derived from cfg.seed, so
    identical calls reproduce identical weights.
    """
    history, = _train_stack([model], x, [y], cfg, standardize_targets)
    return model, history


def predict_batch(model: AnnModel, x: np.ndarray) -> np.ndarray:
    if x.shape[1] != model.arch.n_in:
        raise AnnError(f"expected {model.arch.n_in} features, got {x.shape[1]}")
    return model.denormalize_output(forward(model, model.normalize(x)))


@dataclass
class TrainingData:
    x: np.ndarray
    y_voltage: np.ndarray
    y_loading: np.ndarray
    spec_hash: str
    n_switch_bits: int
    skipped: int = 0
    fingerprint: str = ""


def build_training_set(grid: GridModel, scenario_list, spec: MeasurementSpec,
                       configs, seed: int, truth_cache=None) -> TrainingData:
    """Run the truth pipeline over scenarios x switch configs.

    Features are the noisy measurement vector plus switch bits; targets are
    noise-free voltages (pu) and loading fractions of monitored lines.
    Rows are config-major; diverging power flows are skipped and counted.
    The truths are read from and kept in ``truth_cache`` (an
    ``evaluation.TruthCache``) when one is given, so layouts trained on the
    same scenarios solve them once.
    """
    monitored = [ln.id for ln in grid.monitored_lines]
    views = [apply_switch_config(grid, config) for config in configs]
    injections = bus_injections(grid, *unit_powers(scenario_list))
    truths = solve_truths(views, injections, cache=truth_cache)
    readings = simulate_truths(truths, views, spec, seed)
    ok = np.flatnonzero(~truths.diverged)
    if not ok.size:
        raise AnnError("every scenario diverged; no training data")
    bits = np.array([view.config for view in views], dtype=float)
    return TrainingData(
        x=np.hstack([readings[ok], bits[truths.config[ok]]]), y_voltage=truths.v[ok],
        y_loading=truths.loading[ok][:, monitored] / 100.0,
        spec_hash=spec.spec_hash, n_switch_bits=len(grid.switches),
        skipped=int(truths.diverged.sum()),
        fingerprint=f"{grid_fingerprint(grid)}:{spec.spec_hash}:{ok.size}",
    )


def train_monitor_pair(grid: GridModel, data: TrainingData, cfg: TrainConfig,
                       arch_overrides: dict | None = None):
    """Train the voltage and loading models from one training set.

    Both nets start from ``init_model(arch, cfg.seed)`` and draw the same
    validation split and batch order; only their targets differ, so each
    net's weights are bitwise those of a ``train`` call of its own. When
    ``pool.n_workers`` gives each net a CPU, the two nets train side by
    side, each a stack of one in a forked worker. Otherwise (one CPU, or a
    pair that already trains in a pool worker) nets of one shape (every
    bundled grid: as many monitored lines as buses) train in-process as one
    stack of two, which on a shared core is faster than two stacks of one,
    and nets of two shapes as two stacks of one. Both histories'
    ``wall_seconds`` hold the pair's training time, so count it once per
    pair.
    """
    n_in = data.x.shape[1]
    norm_mask = np.ones(n_in, dtype=bool)
    if data.n_switch_bits:
        norm_mask[n_in - data.n_switch_bits:] = False
    patterns = frozenset(map(tuple, np.rint(
        data.x[:, n_in - data.n_switch_bits:]).astype(int).tolist())
    ) if data.n_switch_bits else frozenset()

    targets = {"voltage": data.y_voltage, "loading": data.y_loading}
    split = pool.n_workers(len(targets)) == len(targets)  # a CPU for each net
    models = {}
    stacks: dict[AnnArchitecture | str, list[str]] = {}
    for kind, y in targets.items():
        arch = AnnArchitecture(n_in=n_in, n_out=y.shape[1],
                               **(arch_overrides or {}))
        model = init_model(arch, cfg.seed)
        model.norm_mask = norm_mask.copy()
        model.spec_hash = data.spec_hash
        model.target_kind = kind
        model.train_fingerprint = data.fingerprint
        model.seen_patterns = patterns
        models[kind] = model
        stacks.setdefault(kind if split else arch, []).append(kind)

    def train_stack(kinds):
        stack = [models[k] for k in kinds]
        histories = _train_stack(stack, data.x, [targets[k] for k in kinds], cfg)
        return dict(zip(kinds, stack)), dict(zip(kinds, histories))

    start = time.perf_counter()
    # a worker trains a copy of its models: take back what each stack returns
    trained = pool.map_tasks(train_stack, stacks.values(), cost=len)
    seconds = time.perf_counter() - start
    histories = {}
    for stack_models, stack_histories in trained:
        models.update(stack_models)
        histories.update(stack_histories)
    for history in histories.values():
        history.wall_seconds = seconds
    return models, histories


def save_model(model: AnnModel, path: str | Path) -> None:
    meta = {
        "format": MODEL_FORMAT,
        "arch": {
            "n_in": model.arch.n_in,
            "n_out": model.arch.n_out,
            "n_hidden_layers": model.arch.n_hidden_layers,
            "layer_size_multiplier": model.arch.layer_size_multiplier,
            "hidden_activation": model.arch.hidden_activation,
            "hidden_size_override": model.arch.hidden_size_override,
        },
        "seed": model.seed,
        "spec_hash": model.spec_hash,
        "target_kind": model.target_kind,
        "train_fingerprint": model.train_fingerprint,
        "seen_patterns": sorted(list(p) for p in model.seen_patterns),
    }
    arrays = {"meta": np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
              "norm_mean": model.norm_mean, "norm_sd": model.norm_sd,
              "norm_mask": model.norm_mask,
              "out_mean": model.out_mean, "out_sd": model.out_sd}
    for k, (w, b) in enumerate(zip(model.weights, model.biases)):
        arrays[f"w{k}"] = w
        arrays[f"b{k}"] = b
    np.savez(path, **arrays)


def load_model(path: str | Path, expect_spec_hash: str | None = None) -> AnnModel:
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta"]).decode())
        if meta.get("format") != MODEL_FORMAT:
            raise AnnError(f"{path}: unsupported model format")
        arch = AnnArchitecture(**meta["arch"])
        n_layers = len(arch.layer_sizes()) - 1
        model = AnnModel(
            arch=arch,
            weights=[data[f"w{k}"] for k in range(n_layers)],
            biases=[data[f"b{k}"] for k in range(n_layers)],
            norm_mean=data["norm_mean"], norm_sd=data["norm_sd"],
            norm_mask=data["norm_mask"], seed=meta["seed"],
            out_mean=data["out_mean"], out_sd=data["out_sd"],
            spec_hash=meta["spec_hash"], target_kind=meta["target_kind"],
            train_fingerprint=meta["train_fingerprint"],
            seen_patterns=frozenset(tuple(p) for p in meta["seen_patterns"]),
        )
    if expect_spec_hash is not None and model.spec_hash != expect_spec_hash:
        raise SpecHashMismatch(
            f"{path}: trained for layout {model.spec_hash}, expected {expect_spec_hash}")
    return model
