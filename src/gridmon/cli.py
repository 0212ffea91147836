"""Batch command-line front end.

Subcommands wire the pipeline end to end: ``generate`` writes scenario sets
and a power-flow truth cache, ``train`` fits monitor pairs per measurement
configuration, ``evaluate`` runs test cases for both methods and writes
per-scenario CSVs plus a summary, ``tune`` sweeps architectures.

All three solve their truths through ``powerflow.solve_truths``. A diverged
(switch config, scenario) pair is skipped by ``generate`` (NaN truth rows)
and ``train`` and scored as failed by ``evaluate``; each command checks its
diverged pairs against ``PF_FAILURE_BUDGET`` after writing all its outputs.
``generate`` writes each switch config's truths to ``truth_cache.npz`` next
to their ``powerflow.truth_keys`` key, and ``evaluate`` loads the file in its
own ``--out`` into its truth cache under those keys: a truth it reads is one
solved from the same grid content, switch config and injections. ``train``
solves its truths once for all its layouts, and ``train`` and ``tune``
train their independent monitor pairs side by side, one worker per CPU the
process may use (see :mod:`gridmon.pool`).

Every output embeds the config hash and master seed; reruns with identical
configs reproduce identical CSV bodies. Exit codes: 0 success, 2 validation
error, 3 numerical failure (diverged power flows over budget).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
import zipfile
from pathlib import Path

import numpy as np

from . import __version__
from .ann import (AnnError, TrainConfig, build_training_set, load_model,
                  save_model, train_monitor_pair)
from .evaluation import (METHOD_ANN, METHOD_WLS, EvaluationError, TruthCache,
                         error_stats, load_catalog, run_test_case)
from .grid import GridError, apply_switch_config, load_bundled, load_grid
from .measurements import MeasurementError
from .pool import map_tasks
from .powerflow import TruthTable, solve_truths, truth_keys
from .scenarios import (DEFAULT_AXES, FIVE_AXES, ScenarioError, generate_set,
                        bus_injections, unit_powers)
from .seeding import seed_sequence
from .tuning import tune_architecture

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3

PF_FAILURE_BUDGET = 0.001  # diverged power flows per (config, scenario) pair
TRUTH_FILE = "truth_cache.npz"  # written by generate, read by evaluate

# stream tags for deriving sub-seeds from the master seed
SEED_TRAIN_SCENARIOS = 10
SEED_TEST_SCENARIOS = 11
SEED_TRAIN_NOISE = 12
SEED_TEST_NOISE = 13
SEED_ANN = 14
SEED_FAULTS = 15


def derive_seed(master: int, tag: int) -> int:
    return int(seed_sequence(master, tag).generate_state(1)[0])


def _axes(name: str):
    if name == "default":
        return DEFAULT_AXES
    if name == "five":
        return FIVE_AXES
    raise ScenarioError(f"unknown axes preset {name!r} (use default|five)")


def _load_any_grid(ref: str):
    if ref.startswith("bundled:"):
        return load_bundled(ref.split(":", 1)[1])
    return load_grid(ref)


# keys that do not influence results (paths) stay out of the hash
NON_SEMANTIC_KEYS = ("out", "models", "config")


def _config_hash(resolved: dict) -> str:
    semantic = {k: v for k, v in resolved.items() if k not in NON_SEMANTIC_KEYS}
    return hashlib.sha256(
        json.dumps(semantic, sort_keys=True).encode()).hexdigest()[:12]


def _header_lines(resolved: dict) -> list[str]:
    return [f"# config_hash={_config_hash(resolved)}",
            f"# seed={resolved['seed']}",
            f"# gridmon={__version__}"]


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    lines = list(header)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join([repr(v) if isinstance(v, float) else str(v) for v in row]))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# settings read as comma-separated integers, where a config may give one int
INT_LIST_KEYS = ("layers", "multipliers", "data_repetitions")


def _resolved_config(args, keys) -> dict:
    """The settings ``keys`` from the flags, overridden by the config file,
    whose values must pass their flag's type (a string is converted) and choices.
    A flag without a type takes a string (or, in ``INT_LIST_KEYS``, an int)."""
    resolved = {k: getattr(args, k) for k in keys}
    if args.config:
        overrides = json.loads(Path(args.config).read_text(encoding="utf-8"))
        unknown = set(overrides) - set(keys)
        if unknown:
            raise EvaluationError(f"config file sets unknown keys {sorted(unknown)}")
        flags = {action.dest: action for action in args.parser._actions}
        for key, value in overrides.items():
            kind = flags[key].type
            kinds = (kind,) if kind else (str, int) if key in INT_LIST_KEYS else (str,)
            try:
                value = kind(value) if kind and isinstance(value, str) else value
            except ValueError:
                pass
            if type(value) not in kinds or value not in (flags[key].choices or (value,)):
                raise EvaluationError(f"config file sets {key} to invalid value {value!r}")
            resolved[key] = value
    return resolved


def _check_pf_budget(diverged: int, total: int) -> int:
    """Exit code for ``diverged`` of ``total`` pairs, with an error line over budget."""
    if diverged > PF_FAILURE_BUDGET * total:
        print(f"error: diverged power flows exceed budget "
              f"({diverged}/{total})", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _model_paths(models_dir: Path, spec_hash: str) -> dict[str, Path]:
    return {kind: models_dir / f"{spec_hash}_{kind}.npz"
            for kind in ("voltage", "loading")}


def cmd_generate(args) -> int:
    keys = ("grid", "axes", "repetitions", "seed", "out")
    cfg = _resolved_config(args, keys)
    grid = _load_any_grid(cfg["grid"])
    axes = _axes(cfg["axes"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    scen_seed = derive_seed(cfg["seed"], SEED_TEST_SCENARIOS)
    scenarios = generate_set(axes, grid, cfg["repetitions"], scen_seed)
    _write_csv(out / "scenarios.csv", _header_lines(cfg),
               [f"unit_{u.id}_{col}" for u in grid.units for col in ("p_kw", "q_kvar")],
               (np.column_stack((sc.p_kw, sc.q_kvar)).ravel().tolist()
                for sc in scenarios))

    views = [apply_switch_config(grid, config)
             for config in load_catalog(grid).switch_configs]
    injections = bus_injections(grid, *unit_powers(scenarios))
    # diverged pairs keep NaN rows
    truths = solve_truths(views, injections)
    skipped = int(truths.diverged.sum())
    n = len(scenarios)
    arrays = {f"{name}_config{c}": getattr(truths, field)[c * n:(c + 1) * n]
              for c in range(len(views))
              for name, field in (("v_mag", "v"), ("v_ang", "th"), ("loading", "loading"))}
    keys = {f"key_config{c}": key for c, key in enumerate(truth_keys(views, injections))}
    np.savez(out / TRUTH_FILE, config_hash=_config_hash(cfg), seed=cfg["seed"],
             **arrays, **keys)
    print(f"generated {len(scenarios)} scenarios x {len(views)} "
          f"configs -> {out} (skipped {skipped} diverged power flows)")
    return _check_pf_budget(skipped, len(scenarios) * len(views))


def _generated_truths(out: Path, grid, n_configs: int, n_scenarios: int) -> TruthCache:
    """A truth cache holding the truths that ``generate`` wrote to ``out``,
    each under the key it was written with; an empty one when the file is
    missing, unreadable or holds tables of the wrong shape."""
    cache = TruthCache()
    try:
        with np.load(out / TRUTH_FILE) as data:
            tables = {}
            for c in range(n_configs):
                v, th, loading = (data[f"{name}_config{c}"]
                                  for name in ("v_mag", "v_ang", "loading"))
                if (v.shape != th.shape or v.shape != (n_scenarios, grid.n_bus)
                        or loading.shape != (n_scenarios, len(grid.lines))):
                    return cache
                tables[str(data[f"key_config{c}"])] = TruthTable(
                    v=v, th=th, loading=loading, diverged=np.isnan(v).any(axis=1))
    except (OSError, EOFError, KeyError, ValueError, zipfile.BadZipFile):
        return cache
    cache.update(tables)
    return cache


def cmd_train(args) -> int:
    keys = ("grid", "axes", "cases", "repetitions", "seed", "epochs",
            "batch_size", "patience", "out")
    cfg = _resolved_config(args, keys)
    grid = _load_any_grid(cfg["grid"])
    axes = _axes(cfg["axes"])
    catalog = load_catalog(grid)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)

    case_ids = cfg["cases"].split(",") if cfg["cases"] else list(catalog.default_case_ids)
    cases = [catalog.case(case_id) for case_id in case_ids]
    scen_seed = derive_seed(cfg["seed"], SEED_TRAIN_SCENARIOS)
    noise_seed = derive_seed(cfg["seed"], SEED_TRAIN_NOISE)
    ann_seed = derive_seed(cfg["seed"], SEED_ANN)
    scenarios = generate_set(axes, grid, cfg["repetitions"], scen_seed)
    train_cfg = TrainConfig(max_epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                            patience=cfg["patience"], seed=ann_seed)

    # one task per layout, on the first case that reads it
    layouts = {}
    for tc in cases:
        layouts.setdefault(tc.spec(grid).spec_hash, tc)
    # every layout reads the same truths: solved once, before any worker starts
    truth_cache = TruthCache()
    solve_truths([apply_switch_config(grid, config) for config in catalog.switch_configs],
                 bus_injections(grid, *unit_powers(scenarios)), cache=truth_cache)

    def train_layout(tc):
        spec = tc.spec(grid)
        data = build_training_set(grid, scenarios, spec, catalog.switch_configs,
                                  noise_seed, truth_cache=truth_cache)
        models, histories = train_monitor_pair(grid, data, train_cfg)
        for kind, model in models.items():
            save_model(model, _model_paths(out, spec.spec_hash)[kind])
        return data.skipped, data.x.shape[0] + data.skipped, histories

    history_rows = []
    total_skipped = 0
    total_rows = 0
    # wider inputs make wider nets, which take longer
    results = map_tasks(train_layout, layouts.values(),
                        cost=lambda tc: len(tc.spec(grid).entries))
    for (spec_hash, tc), (skipped, rows, histories) in zip(layouts.items(), results):
        total_skipped += skipped
        total_rows += rows
        for kind, h in histories.items():
            history_rows.append((tc.id, spec_hash, kind, h.best_epoch,
                                 h.stopped_epoch, float(min(h.val_loss)),
                                 round(h.wall_seconds, 3)))
        print(f"trained {tc.id} (layout {spec_hash}): "
              f"voltage best epoch {histories['voltage'].best_epoch}, "
              f"loading best epoch {histories['loading'].best_epoch}")
    _write_csv(out / "training_history.csv", _header_lines(cfg),
               ["case", "spec_hash", "target", "best_epoch", "stopped_epoch",
                "best_val_mse", "wall_seconds"], history_rows)
    return _check_pf_budget(total_skipped, total_rows)


def cmd_evaluate(args) -> int:
    keys = ("grid", "axes", "cases", "methods", "v_correction", "repetitions",
            "seed", "models", "out")
    cfg = _resolved_config(args, keys)
    grid = _load_any_grid(cfg["grid"])
    axes = _axes(cfg["axes"])
    catalog = load_catalog(grid)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    models_dir = Path(cfg["models"]) if cfg["models"] else out

    case_ids = cfg["cases"].split(",") if cfg["cases"] else list(catalog.default_case_ids)
    methods = tuple(cfg["methods"].split(","))
    for m in methods:
        if m not in (METHOD_ANN, METHOD_WLS):
            raise EvaluationError(f"unknown method {m!r}")
    scen_seed = derive_seed(cfg["seed"], SEED_TEST_SCENARIOS)
    noise_seed = derive_seed(cfg["seed"], SEED_TEST_NOISE)
    fault_seed = derive_seed(cfg["seed"], SEED_FAULTS)
    scenarios = generate_set(axes, grid, cfg["repetitions"], scen_seed)

    cases = [catalog.case(case_id) for case_id in case_ids]
    if cfg["v_correction"] == "on":
        cases = [tc.with_correction(True) for tc in cases]
    # load every model pair up front, so a missing one fails before any scoring
    models_by_layout: dict[str, dict] = {}
    for tc in cases if METHOD_ANN in methods else ():
        spec_hash = tc.spec(grid).spec_hash
        if spec_hash in models_by_layout:
            continue
        paths = _model_paths(models_dir, spec_hash)
        missing = [str(p) for p in paths.values() if not p.exists()]
        if missing:
            raise EvaluationError(
                f"case {tc.label}: no trained model for layout {spec_hash}; "
                f"run `gridmon train` first (missing {missing[0]})")
        models_by_layout[spec_hash] = {kind: load_model(path, expect_spec_hash=spec_hash)
                                       for kind, path in paths.items()}

    cache = _generated_truths(out, grid, len(catalog.switch_configs), len(scenarios))
    summary_rows = []
    header = _header_lines(cfg)
    diverged = 0
    total = 0
    for tc in cases:
        models = models_by_layout.get(tc.spec(grid).spec_hash)
        t0 = time.perf_counter()
        results = run_test_case(
            tc, grid, scenarios, catalog.switch_configs, models=models,
            methods=methods, meas_seed=noise_seed, fault_seed=fault_seed,
            truth_cache=cache)
        wall = time.perf_counter() - t0
        # the methods share each pair's truth, so its divergence counts once
        first = next(iter(results.values()))
        diverged += int(first.pf_diverged.sum())
        total += first.n_scenarios
        index = np.arange(first.n_scenarios)
        for method, res in results.items():
            rows = zip(index.tolist(), (index // len(scenarios)).tolist(),
                       (index % len(scenarios)).tolist(), res.v_err_max_pct.tolist(),
                       res.loading_err_max_pp.tolist(),
                       *(flags.astype(int).tolist() for flags in (
                           res.success_c1, res.success_c2, res.failed_structurally)))
            _write_csv(out / f"{tc.label.replace('*', 'star')}_{method}.csv",
                       header,
                       ["index", "config", "scenario", "v_err_max_pct",
                        "loading_err_max_pp", "c1", "c2", "failed"], rows)
            summary_rows.append((tc.label, method, res.n_scenarios,
                                 float(res.sr_c1), float(res.sr_c2)))
            print(f"{tc.label:5s} {method:4s} SR_C1 {100 * res.sr_c1:6.2f} %  "
                  f"SR_C2 {100 * res.sr_c2:6.2f} %")
        if METHOD_ANN in results:
            unseen = int(results[METHOD_ANN].unseen_topology.sum())
            if unseen:
                print(f"{tc.label:5s} ann  {unseen} of {first.n_scenarios} evaluated "
                      f"pairs had switch bits unseen in training")
        print(f"{tc.label:5s} case time {wall:.1f} s")
        stats = error_stats(results, grid)
        (out / f"{tc.label.replace('*', 'star')}_stats.json").write_text(
            json.dumps({"config_hash": _config_hash(cfg), **stats}, indent=1,
                       allow_nan=False)
            + "\n", encoding="utf-8")
    _write_csv(out / "summary.csv", header,
               ["case", "method", "n", "sr_c1", "sr_c2"], summary_rows)
    lines = ["case   method   n      SR_C1     SR_C2"]
    for case, method, n, sr1, sr2 in summary_rows:
        lines.append(f"{case:6s} {method:6s} {n:6d} {100 * sr1:8.2f}% {100 * sr2:8.2f}%")
    (out / "summary.txt").write_text("\n".join(header + lines) + "\n",
                                     encoding="utf-8")
    if diverged:
        print(f"{diverged} of {total} evaluated pairs had a diverged power flow "
              f"(scored as failed)")
    return _check_pf_budget(diverged, total)


def _int_list(cfg: dict, key: str) -> list[int]:
    """The comma-separated integers of setting ``key``."""
    try:
        return [int(x) for x in str(cfg[key]).split(",")]
    except ValueError:
        raise EvaluationError(f"{key} must be comma-separated integers, "
                              f"got {cfg[key]!r}") from None


def cmd_tune(args) -> int:
    keys = ("grid", "axes", "cases", "layers", "multipliers", "data_repetitions",
            "repetitions", "seed", "out")
    cfg = _resolved_config(args, keys)
    grid = _load_any_grid(cfg["grid"])
    axes = _axes(cfg["axes"])
    catalog = load_catalog(grid)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    case_ids = cfg["cases"].split(",") if cfg["cases"] else list(catalog.default_case_ids)
    cases = [catalog.case(cid) for cid in case_ids]
    test_scenarios = generate_set(axes, grid, cfg["repetitions"],
                                  derive_seed(cfg["seed"], SEED_TEST_SCENARIOS))
    rows = tune_architecture(
        grid, axes, cases, test_scenarios, catalog.switch_configs,
        layer_counts=_int_list(cfg, "layers"),
        multipliers=_int_list(cfg, "multipliers"),
        repetition_counts=_int_list(cfg, "data_repetitions"),
        train_cfg=TrainConfig(seed=derive_seed(cfg["seed"], SEED_ANN)),
        train_seed=derive_seed(cfg["seed"], SEED_TRAIN_SCENARIOS),
        meas_seed=derive_seed(cfg["seed"], SEED_TEST_NOISE))
    _write_csv(out / "tuning.csv", _header_lines(cfg),
               ["hidden_layers", "size_multiplier", "data_repetitions",
                "mean_sr_c1", "mean_sr_c2", "train_seconds", "is_default"],
               [(r.n_hidden_layers, r.layer_size_multiplier, r.repetitions,
                 r.mean_sr_c1, r.mean_sr_c2, round(r.train_seconds, 3),
                 int(r.is_default)) for r in rows])
    best = max(rows, key=lambda r: r.mean_sr_c1)
    print(f"best combination: {best.n_hidden_layers} hidden layers, "
          f"multiplier {best.layer_size_multiplier}, "
          f"{best.repetitions} repetitions (mean SR_C1 {100 * best.mean_sr_c1:.2f} %)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridmon",
        description="Train and benchmark grid monitors against WLS state estimation")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--grid", default="bundled:cigre_mv_mod",
                       help="grid file path or bundled:<name>")
        p.add_argument("--axes", default="default", help="axes preset (default|five)")
        p.add_argument("--seed", type=int, default=0, help="master seed")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--config", default=None,
                       help="JSON config file; its values override flags")
        p.set_defaults(parser=p)

    p = sub.add_parser("generate", help="write scenario CSV and PF truth cache")
    common(p)
    p.add_argument("--repetitions", type=int, default=3)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train monitor pairs for test cases")
    common(p)
    p.add_argument("--cases", default="", help="comma-separated case ids (default: all)")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--epochs", type=int, default=150)
    p.add_argument("--batch-size", dest="batch_size", type=int, default=32)
    p.add_argument("--patience", type=int, default=20)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run test cases and write reports")
    common(p)
    p.add_argument("--cases", default="", help="comma-separated case ids (default: all)")
    p.add_argument("--methods", default="ann,wls")
    p.add_argument("--v-correction", dest="v_correction", choices=("on", "off"),
                   default="off", help="voltage outlier pre-processing (starred cases)")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("--models", default="", help="directory with trained models")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("tune", help="architecture and training-data sweep")
    common(p)
    p.add_argument("--cases", default="M4")
    p.add_argument("--layers", default="1,2,3,4,5")
    p.add_argument("--multipliers", default="1,2,3,4")
    p.add_argument("--data-repetitions", dest="data_repetitions", default="1,2,3,4")
    p.add_argument("--repetitions", type=int, default=1,
                   help="test scenario repetitions")
    p.set_defaults(func=cmd_tune)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GridError, ScenarioError, MeasurementError, AnnError,
            EvaluationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
