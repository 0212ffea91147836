"""Architecture and training-data sweeps.

Evaluates combinations of hidden-layer count, layer-size multiplier and
training-data repetitions by the mean success rate over a set of test cases,
and reports training time per combination: the sum over its monitor
pairs of each pair's own training time. The pairs train side by side (see
:mod:`gridmon.pool`), so that sum is not the sweep's wall time.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ann import TrainConfig, build_training_set, train_monitor_pair
from .evaluation import METHOD_ANN, TruthCache, run_test_case
from .grid import GridModel
from .pool import map_tasks
from .scenarios import generate_set

DEFAULT_COMBINATION = (3, 1, 3)  # hidden layers, size multiplier, repetitions


@dataclass(frozen=True)
class TuneRow:
    n_hidden_layers: int
    layer_size_multiplier: int
    repetitions: int
    mean_sr_c1: float
    mean_sr_c2: float
    train_seconds: float  # each pair's own training time, summed over its pairs
    is_default: bool


def tune_architecture(grid: GridModel, axes, test_cases, test_scenarios, configs,
                      *, layer_counts=(1, 2, 3, 4, 5), multipliers=(1, 2, 3, 4),
                      repetition_counts=(1, 2, 3, 4),
                      train_cfg: TrainConfig = TrainConfig(),
                      train_seed: int = 0, meas_seed: int = 0) -> list[TuneRow]:
    """Grid sweep; every combination trains a fresh monitor pair per layout.

    The pairs are independent, so they train first, side by side
    (``pool.map_tasks``); the combinations are then scored in turn. Returns
    one row per combination with the mean SR over all given test cases. The
    row matching the default combination is flagged.
    """
    # training sets and truths do not depend on the architecture, so they
    # are built once and shared by every combination
    truth_cache = TruthCache()
    data = {}
    for reps in sorted(set(repetition_counts)):
        scenario_list = generate_set(axes, grid, reps, train_seed)
        for tc in test_cases:
            spec = tc.spec(grid)
            if (reps, spec.spec_hash) not in data:
                data[reps, spec.spec_hash] = build_training_set(
                    grid, scenario_list, spec, configs, train_seed,
                    truth_cache=truth_cache)
    combinations = [(n_layers, mult, reps) for n_layers in layer_counts
                    for mult in multipliers for reps in repetition_counts]
    layouts = list(dict.fromkeys(tc.spec(grid).spec_hash for tc in test_cases))

    def train_pair(task):
        (n_layers, mult, reps), key = task
        return train_monitor_pair(grid, data[reps, key], train_cfg,
                                  arch_overrides={"n_hidden_layers": n_layers,
                                                  "layer_size_multiplier": mult})

    # the deepest, then widest nets take longest
    pairs = iter(map_tasks(train_pair, [(combo, key) for combo in combinations
                                        for key in layouts],
                           cost=lambda task: task[0][:2]))
    rows: list[TuneRow] = []
    for n_layers, mult, reps in combinations:
        models_by_spec = {}
        seconds = 0.0
        for key in layouts:
            models, histories = next(pairs)
            # both histories hold the pair's shared training time
            seconds += histories["voltage"].wall_seconds
            models_by_spec[key] = models
        sr1 = []
        sr2 = []
        for tc in test_cases:
            result = run_test_case(
                tc, grid, test_scenarios, configs,
                models=models_by_spec[tc.spec(grid).spec_hash],
                methods=(METHOD_ANN,), meas_seed=meas_seed,
                truth_cache=truth_cache)[METHOD_ANN]
            sr1.append(result.sr_c1)
            sr2.append(result.sr_c2)
        rows.append(TuneRow(
            n_hidden_layers=n_layers, layer_size_multiplier=mult,
            repetitions=reps,
            mean_sr_c1=sum(sr1) / len(sr1), mean_sr_c2=sum(sr2) / len(sr2),
            train_seconds=seconds,
            is_default=(n_layers, mult, reps) == DEFAULT_COMBINATION,
        ))
    return rows
