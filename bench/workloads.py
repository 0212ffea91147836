"""The benchmark's three workloads.

Each workload has a set-up (grid and catalog load, scenario generation), a
round of timed operations that is the same in every round of a run, a
scoring step that counts attempted and failed operations and checks the
round's outputs, and final checks made once per run. Inputs come from the
benchmark seed only; gridmon receives the generated scenarios and seeds.
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gridmon" / "data"
GRID_NAME = "cigre_mv_mod"


def sub_seed(seed: int, tag: int) -> int:
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def _sample_pairs(seed: int, n_cfg: int, n_sc: int, k: int):
    gen = np.random.default_rng(sub_seed(seed, 99))
    return [(int(c), int(s)) for c, s in zip(gen.integers(0, n_cfg, k),
                                              gen.integers(0, n_sc, k))]


@dataclass
class Round:
    wall_s: float
    eval_s: float  # wall time of the evaluation stage
    pairs: int  # scored (config, scenario) pairs the round attempts
    outputs: dict = field(default_factory=dict)


@dataclass
class Context:
    seed: int
    grid: object
    catalog: object
    ref_grid: checks.RefGrid
    ref_configs: list
    limits: dict
    extra: dict = field(default_factory=dict)


def _base_setup(seed: int) -> Context:
    from gridmon import load_bundled, load_catalog
    grid = load_bundled(GRID_NAME)
    catalog = load_catalog(grid)
    ref_configs, limits = checks.load_ref_catalog(DATA / "catalog.json")
    return Context(seed=seed, grid=grid, catalog=catalog,
                   ref_grid=checks.load_ref_grid(DATA / f"{GRID_NAME}.grid.json"),
                   ref_configs=ref_configs, limits=limits)


def _pf_truth_samples(ctx: Context, scenarios, k: int) -> list[str]:
    """Program power flows on sampled (config, scenario) pairs vs the reference."""
    from gridmon.grid import apply_switch_config
    from gridmon.powerflow import solve_pf
    from gridmon.scenarios import injections
    samples = []
    configs = ctx.catalog.switch_configs
    for ci, si in _sample_pairs(ctx.seed, len(configs), len(scenarios), k):
        sc = scenarios[si]
        sol = solve_pf(apply_switch_config(ctx.grid, configs[ci]), injections(ctx.grid, sc))
        ref = checks.ref_voltages(ctx.ref_grid, ctx.ref_configs[ci], sc.p_kw, sc.q_kvar)
        samples.append((f"solve_pf config {ci} scenario {si}", sol.v_mag_pu, ref))
    return checks.check_truths(samples)


def _forward_samples(label, model, arrays, seed, n_rows=16) -> list[str]:
    """predict_batch on sampled rows vs the reference forward pass."""
    from gridmon.ann import predict_batch
    gen = np.random.default_rng(sub_seed(seed, 98))
    mask = np.asarray(arrays["norm_mask"], bool)
    x = arrays["norm_mean"] + arrays["norm_sd"] * gen.standard_normal((n_rows, mask.size))
    x[:, ~mask] = gen.integers(0, 2, (n_rows, int((~mask).sum())))
    return checks.check_forward(label, predict_batch(model, x), checks.ref_forward(arrays, x))


# ---------------------------------------------------------------------------
# ann_study: the CLI path generate -> train -> evaluate in a fresh directory

def _call_cli(argv) -> int:
    from gridmon import cli
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = 1
    if rc != 0:
        sys.stderr.write(f"gridmon {' '.join(argv)} exited {rc}\n{buf.getvalue()}")
    return rc


def _read_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[0], rows[1:]


class AnnStudy:
    name = "ann_study"
    cases = ("M4", "F1", "P2", "T4")
    # patience = epochs, so every seed trains the same number of epochs; at 150
    # epochs the M4 pair fell below the 90 % C1 floor on some seeds (86-88 %)
    epochs = 300
    commands = 3
    truth_samples = 8
    m4_c1_floor = 0.90

    def setup(self, seed: int) -> Context:
        from gridmon.scenarios import DEFAULT_AXES, enumerate_tuples
        ctx = _base_setup(seed)
        ctx.extra["n_scenarios"] = len(enumerate_tuples(DEFAULT_AXES))
        return ctx

    def n_pairs(self, ctx) -> int:
        return len(self.cases) * len(ctx.ref_configs) * ctx.extra["n_scenarios"]

    def run_round(self, ctx: Context, out: Path, tracer) -> Round:
        common = ["--seed", str(ctx.seed), "--out", str(out), "--repetitions", "1"]
        steps = (
            ("cli.generate", ["generate", *common]),
            ("cli.train", ["train", "--cases", "M4", "--epochs", str(self.epochs),
                           "--patience", str(self.epochs), *common]),
            ("cli.evaluate", ["evaluate", "--cases", ",".join(self.cases),
                              "--methods", "ann", *common]),
        )
        codes = {}
        start = time.perf_counter()
        for name, argv in steps:
            t0 = time.perf_counter()
            with _span(tracer, name):
                codes[name] = _call_cli(argv)
        end = time.perf_counter()
        return Round(wall_s=end - start, eval_s=end - t0, pairs=self.n_pairs(ctx),
                     outputs={"dir": out, "codes": codes})

    def attempted(self, ctx) -> int:
        return self.commands + 1 + self.n_pairs(ctx)

    def score_round(self, ctx: Context, rnd: Round):
        """(failed operations, problems) of one round, read from its output files."""
        from gridmon.ann import load_model
        out = rnd.outputs["dir"]
        failed = sum(1 for rc in rnd.outputs["codes"].values() if rc != 0)
        problems = []
        n_sc = ctx.extra["n_scenarios"]
        n_expected = len(ctx.ref_configs) * n_sc

        history = out / "training_history.csv"
        targets = {r[2] for r in _read_csv(history)[1]} if history.exists() else set()
        models = {kind: sorted(out.glob(f"*_{kind}.npz")) for kind in ("voltage", "loading")}
        if targets != {"voltage", "loading"} or any(len(p) != 1 for p in models.values()):
            failed += 1
            problems.append("train: no single M4 monitor pair was written")

        summary = {}
        if (out / "summary.csv").exists():
            for case, _method, n, sr1, sr2 in _read_csv(out / "summary.csv")[1]:
                summary[case] = (int(n), float(sr1), float(sr2))
        for case in self.cases:
            path = out / f"{case}_ann.csv"
            if not path.exists() or case not in summary:
                failed += n_expected
                problems.append(f"{case}: no ANN results")
                continue
            cols, rows = _read_csv(path)
            tab = np.array(rows, dtype=float).reshape(-1, len(cols))
            col = {name: tab[:, i] for i, name in enumerate(cols)}
            v_err, l_err = col["v_err_max_pct"], col["loading_err_max_pp"]
            bad = (col["failed"] != 0) | ~np.isfinite(v_err) | ~np.isfinite(l_err)
            failed += int(bad.sum()) + max(0, n_expected - len(rows))
            n, sr1, sr2 = summary[case]
            if n != n_expected:
                problems.append(f"{case}: summary counts {n} pairs, expected {n_expected}")
            problems += checks.check_scores(f"{case} ann", v_err, l_err, col["c1"], col["c2"],
                                            sr1, sr2, n_expected, ctx.limits)
        if "M4" in summary:
            problems += checks.check_min_rate("M4 ann SR_C1", summary["M4"][1],
                                              self.m4_c1_floor)

        if (out / "truth_cache.npz").exists() and (out / "scenarios.csv").exists():
            problems += self._check_truths(ctx, out)
        else:
            problems.append("generate: no truth cache or scenario file")
        for kind, paths in models.items():
            if len(paths) == 1:
                problems += _forward_samples(f"M4 {kind} model", load_model(paths[0]),
                                             checks.model_file_arrays(paths[0]), ctx.seed)
        return failed, problems

    def _check_truths(self, ctx, out: Path) -> list[str]:
        cols, rows = _read_csv(out / "scenarios.csv")
        tab = np.array(rows, dtype=float)
        unit_ids = sorted(int(c.split("_")[1]) for c in cols if c.endswith("_p_kw"))
        p_idx = [cols.index(f"unit_{u}_p_kw") for u in unit_ids]
        q_idx = [cols.index(f"unit_{u}_q_kvar") for u in unit_ids]
        samples = []
        with np.load(out / "truth_cache.npz") as truths:
            for ci, si in _sample_pairs(ctx.seed, len(ctx.ref_configs), len(tab),
                                        self.truth_samples):
                ref = checks.ref_voltages(ctx.ref_grid, ctx.ref_configs[ci],
                                          tab[si, p_idx], tab[si, q_idx])
                samples.append((f"truth_cache config {ci} scenario {si}",
                                truths[f"v_mag_config{ci}"][si], ref))
        return checks.check_truths(samples)

    def final_checks(self, ctx) -> list[str]:
        return []


# ---------------------------------------------------------------------------
# wls_catalog: run_test_case(methods=("wls",)) over five converging cases

class WlsCatalog:
    name = "wls_catalog"
    cases = ("M4", "M8", "A3", "P2", "T4")
    stride = 20  # every 20th scenario of the 1100-tuple test set
    truth_samples = 6
    m8_c1_floor = 0.95

    def setup(self, seed: int) -> Context:
        from gridmon.scenarios import DEFAULT_AXES, generate_set
        ctx = _base_setup(seed)
        ctx.extra["scenarios"] = generate_set(DEFAULT_AXES, ctx.grid, 1,
                                              sub_seed(seed, 1))[::self.stride]
        ctx.extra["cases"] = [ctx.catalog.case(c) for c in self.cases]
        return ctx

    def n_pairs(self, ctx) -> int:
        return len(self.cases) * len(ctx.ref_configs) * len(ctx.extra["scenarios"])

    def attempted(self, ctx) -> int:
        return self.n_pairs(ctx)

    def run_round(self, ctx: Context, out: Path, tracer) -> Round:
        from gridmon.evaluation import TruthCache, run_test_case
        scenarios = ctx.extra["scenarios"]
        results = {}
        start = time.perf_counter()
        cache = TruthCache()
        for tc in ctx.extra["cases"]:
            try:
                results[tc.id] = run_test_case(
                    tc, ctx.grid, scenarios, ctx.catalog.switch_configs, methods=("wls",),
                    meas_seed=sub_seed(ctx.seed, 2), fault_seed=sub_seed(ctx.seed, 3),
                    truth_cache=cache)["wls"]
            except Exception:
                traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        return Round(wall_s=wall, eval_s=wall, pairs=self.n_pairs(ctx),
                     outputs={"results": results})

    def score_round(self, ctx: Context, rnd: Round):
        n_expected = len(ctx.ref_configs) * len(ctx.extra["scenarios"])
        failed, problems = 0, []
        for case in self.cases:
            res = rnd.outputs["results"].get(case)
            if res is None:
                failed += n_expected
                problems.append(f"{case}: run_test_case raised")
                continue
            v_err, l_err = res.v_err_max_pct, res.loading_err_max_pp
            failed += int(np.sum(res.failed_structurally | ~np.isfinite(v_err)
                                 | ~np.isfinite(l_err)))
            problems += checks.check_all_ok(f"{case} wls", res.failed_structurally,
                                            v_err, l_err)
            problems += checks.check_scores(f"{case} wls", v_err, l_err, res.success_c1,
                                            res.success_c2, res.sr_c1, res.sr_c2,
                                            n_expected, ctx.limits)
            if case == "M8":
                problems += checks.check_min_rate("M8 wls SR_C1", res.sr_c1, self.m8_c1_floor)
        return failed, problems

    def final_checks(self, ctx) -> list[str]:
        return _pf_truth_samples(ctx, ctx.extra["scenarios"], self.truth_samples)


# ---------------------------------------------------------------------------
# tune_sweep: tune_architecture over hidden-layer counts and size multipliers

class TuneSweep:
    name = "tune_sweep"
    layer_counts = (1, 3)
    multipliers = (1, 2)
    epochs = 150
    test_stride = 10  # every 10th scenario of the 1100-tuple test set
    truth_samples = 6

    @staticmethod
    def sweep_axes():
        """Training axes: the default ranges and noise on a 20 % grid (150 tuples)."""
        from gridmon.scenarios import DEFAULT_AXES, ScenarioAxis
        return tuple(ScenarioAxis(ax.unit_kind, ax.min_pct, ax.max_pct, 20.0, ax.noise_sd_pct)
                     for ax in DEFAULT_AXES)

    def combos(self):
        return [(n, m) for n in self.layer_counts for m in self.multipliers]

    def setup(self, seed: int) -> Context:
        from gridmon import TrainConfig
        from gridmon.scenarios import DEFAULT_AXES, generate_set
        ctx = _base_setup(seed)
        ctx.extra["test"] = generate_set(DEFAULT_AXES, ctx.grid, 1,
                                         sub_seed(seed, 1))[::self.test_stride]
        ctx.extra["case"] = ctx.catalog.case("M4")
        ctx.extra["train_cfg"] = TrainConfig(max_epochs=self.epochs, patience=self.epochs,
                                             seed=sub_seed(seed, 4))
        return ctx

    def n_test_pairs(self, ctx) -> int:
        return len(ctx.ref_configs) * len(ctx.extra["test"])

    def attempted(self, ctx) -> int:
        return len(self.combos()) * (1 + self.n_test_pairs(ctx))

    def _seeds(self, ctx):
        return {"train_seed": sub_seed(ctx.seed, 5), "meas_seed": sub_seed(ctx.seed, 2)}

    def run_round(self, ctx: Context, out: Path, tracer) -> Round:
        from gridmon.tuning import tune_architecture
        rows = None
        start = time.perf_counter()
        try:
            rows = tune_architecture(
                ctx.grid, self.sweep_axes(), [ctx.extra["case"]], ctx.extra["test"],
                ctx.catalog.switch_configs, layer_counts=self.layer_counts,
                multipliers=self.multipliers, repetition_counts=(1,),
                train_cfg=ctx.extra["train_cfg"], **self._seeds(ctx))
        except Exception:
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - start
        return Round(wall_s=wall, eval_s=wall,
                     pairs=len(self.combos()) * self.n_test_pairs(ctx),
                     outputs={"rows": rows})

    def score_round(self, ctx: Context, rnd: Round):
        rows = rnd.outputs["rows"]
        per_combo = 1 + self.n_test_pairs(ctx)
        if rows is None:
            return self.attempted(ctx), ["tune_architecture raised"]
        failed = per_combo * sum(1 for r in rows
                                 if not (np.isfinite(r.mean_sr_c1) and np.isfinite(r.mean_sr_c2)))
        failed += per_combo * max(0, len(self.combos()) - len(rows))
        ctx.extra["last_rows"] = rows
        return failed, checks.check_tune_rows(rows, self.combos(), self.n_test_pairs(ctx))

    def final_checks(self, ctx) -> list[str]:
        """Re-run the first combination through the public pieces and check it."""
        from gridmon.ann import build_training_set, train_monitor_pair
        from gridmon.evaluation import run_test_case
        from gridmon.scenarios import generate_set
        seeds = self._seeds(ctx)
        tc, test, configs = ctx.extra["case"], ctx.extra["test"], ctx.catalog.switch_configs
        scen = generate_set(self.sweep_axes(), ctx.grid, 1, seeds["train_seed"])
        data = build_training_set(ctx.grid, scen, tc.spec(ctx.grid), configs,
                                  seeds["train_seed"])
        problems = []
        if data.skipped:
            problems.append(f"training set skipped {data.skipped} power flows")
        else:
            samples = []
            for ci, si in _sample_pairs(ctx.seed, len(configs), len(scen), self.truth_samples):
                sc = scen[si]
                ref = checks.ref_voltages(ctx.ref_grid, ctx.ref_configs[ci], sc.p_kw, sc.q_kvar)
                samples.append((f"training target config {ci} scenario {si}",
                                data.y_voltage[ci * len(scen) + si], ref))
            problems += checks.check_truths(samples)
        n_layers, mult = self.combos()[0]
        models, _ = train_monitor_pair(ctx.grid, data, ctx.extra["train_cfg"],
                                       arch_overrides={"n_hidden_layers": n_layers,
                                                       "layer_size_multiplier": mult})
        res = run_test_case(tc, ctx.grid, test, configs, models=models, methods=("ann",),
                            meas_seed=seeds["meas_seed"])["ann"]
        problems += checks.check_scores("tune combination 0", res.v_err_max_pct,
                                        res.loading_err_max_pp, res.success_c1,
                                        res.success_c2, res.sr_c1, res.sr_c2,
                                        self.n_test_pairs(ctx), ctx.limits)
        rows = ctx.extra.get("last_rows")
        if rows and (rows[0].mean_sr_c1, rows[0].mean_sr_c2) != (res.sr_c1, res.sr_c2):
            problems.append(f"tune row 0 SR ({rows[0].mean_sr_c1}, {rows[0].mean_sr_c2}) != "
                            f"re-run ({res.sr_c1}, {res.sr_c2})")
        for kind, model in models.items():
            problems += _forward_samples(f"tune {kind} model", model,
                                         checks.model_arrays(model), ctx.seed)
        return problems


WORKLOADS = {w.name: w for w in (AnnStudy(), WlsCatalog(), TuneSweep())}
