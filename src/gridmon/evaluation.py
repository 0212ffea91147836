"""Test-case execution and success-rate evaluation.

Each test case pairs a measurement configuration with optional bad-data
faults and topology errors, and is evaluated over every scenario and
switching configuration. The measurement configurations are the catalog's
fixed layouts (M0-M9, A0-A3); none is searched for at run time. Both
estimators consume identical measurement vectors; errors are scored against
the noise-free power flow truth. A pair whose truth power flow diverges is
scored as failed for every method. A case runs in one process over its
pairs, config-major, on arrays with one row per pair: the truths
(``powerflow.Truths``), the readings, and each batched WLS estimate
(``wls.Estimates``), whose pair counts when its status is converged and its
voltages are finite. Each switch config's readings are one ``(B, m)``
block: faults, voltage correction, ANN inputs and one batched WLS estimate
act on the block. A pair's noise and impedance factors are keyed by its
(config, scenario), so its row does not depend on which other pairs share
its block.

Error conventions: voltage error in percent of nominal (pu * 100), loading
error in percentage points, both as the maximum over buses / monitored
lines. A scenario passes a criterion, the fixed C1 or C2, only if both maxima
are strictly below its limits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import partial
from importlib import resources

import numpy as np

from .ann import AnnModel, SpecHashMismatch, predict_batch
from .correction import correct_rows
from .grid import GridModel, IsolationError, apply_switch_config
from .measurements import (FaultInjection, MeasurementSpec, apply_faults,
                           assumed_sd_overrides, make_spec, resolve_faults,
                           scale_powers_at, simulate_truths)
from .powerflow import solve_truths
from .scenarios import bus_injections, unit_powers
from .seeding import STREAM_FAULT, rngs
from .wls import CONVERGED, estimate_batch

METHOD_ANN = "ann"
METHOD_WLS = "wls"


class EvaluationError(Exception):
    pass


@dataclass(frozen=True)
class Criterion:
    v_err_limit_pct: float
    loading_err_limit_pct: float

    def __post_init__(self):
        if self.v_err_limit_pct <= 0 or self.loading_err_limit_pct <= 0:
            raise EvaluationError("criterion limits must be positive")

    def passes(self, v_err_pct, loading_err_pp):
        """Strict comparison on both errors: an error exactly at its limit
        fails. Works elementwise on arrays of per-scenario maxima."""
        return ((v_err_pct < self.v_err_limit_pct)
                & (loading_err_pp < self.loading_err_limit_pct))


C1 = Criterion(1.0, 10.0)
C2 = Criterion(0.5, 5.0)


@dataclass(frozen=True)
class TestCase:
    id: str
    group: str
    v_buses: tuple[int, ...]
    s_buses: tuple[int, ...]
    s_lines: tuple[str, ...]
    i_lines: tuple[str, ...]
    faults: tuple[FaultInjection, ...] = ()
    rx_model_factor: float | None = None  # model r/x = factor * actual
    rx_lines: tuple[str, ...] = ()
    rx_uniform: tuple[float, float] | None = None
    flip_switches: tuple[int, ...] = ()
    correction: bool = False

    @property
    def label(self) -> str:
        return f"{self.id}*" if self.correction else self.id

    def spec(self, grid: GridModel) -> MeasurementSpec:
        return make_spec(grid, v_buses=self.v_buses, s_buses=self.s_buses,
                         s_lines=self.s_lines, i_lines=self.i_lines)

    def with_correction(self, on: bool) -> TestCase:
        return replace(self, correction=on)


def _parse_fault(rec: dict, grid: GridModel | None) -> FaultInjection:
    lines = tuple(rec.get("lines", ()))
    if grid is not None:
        lines = tuple(grid.line_by_name(ref).id if isinstance(ref, str) else ref
                      for ref in lines)
    return FaultInjection(
        kind=rec["kind"],
        target_kind=rec.get("target_kind"),
        buses=tuple(rec.get("buses", ())),
        lines=lines,
        factor=float(rec.get("factor", 1.0)),
        value=float(rec.get("value", 0.0)),
        assumed_sd_pct=rec.get("assumed_sd_pct"),
    )


@dataclass(frozen=True)
class Catalog:
    cases: dict[str, TestCase]
    switch_configs: tuple[tuple[bool, ...], ...]
    default_case_ids: tuple[str, ...]

    def case(self, case_id: str) -> TestCase:
        base = case_id.rstrip("*")
        if base not in self.cases:
            raise EvaluationError(f"unknown test case {case_id!r}")
        tc = self.cases[base]
        return tc.with_correction(True) if case_id.endswith("*") else tc


def load_catalog(grid: GridModel | None = None) -> Catalog:
    """Read the bundled test-case tables; line names resolve against ``grid``."""
    doc = json.loads(resources.files("gridmon.data").joinpath("catalog.json")
                     .read_text("utf-8"))
    if doc.get("format") != 1:
        raise EvaluationError("unsupported catalog format")
    raw = {rec["id"]: rec for rec in doc["cases"]}
    cases: dict[str, TestCase] = {}
    for rec in doc["cases"]:
        meas = raw[rec["meas_like"]] if "meas_like" in rec else rec
        cases[rec["id"]] = TestCase(
            id=rec["id"],
            group=rec["group"],
            v_buses=tuple(meas.get("v", ())),
            s_buses=tuple(meas.get("s_bus", ())),
            s_lines=tuple(meas.get("s_line", ())),
            i_lines=tuple(meas.get("i_line", ())),
            faults=tuple(_parse_fault(f, grid) for f in rec.get("faults", ())),
            rx_model_factor=rec.get("rx_model_factor"),
            rx_lines=tuple(rec.get("rx_lines", ())),
            rx_uniform=tuple(rec["rx_uniform"]) if "rx_uniform" in rec else None,
            flip_switches=tuple(rec.get("flip_switches", ())),
        )
    return Catalog(
        cases=cases,
        switch_configs=tuple(tuple(bool(x) for x in cfg)
                             for cfg in doc["switch_configs"]),
        default_case_ids=tuple(doc["default_cases"]),
    )


@dataclass
class EvalResult:
    method: str
    case_label: str
    n_scenarios: int
    v_err_max_pct: np.ndarray  # per evaluated scenario-config pair
    loading_err_max_pp: np.ndarray
    success_c1: np.ndarray
    success_c2: np.ndarray
    failed_structurally: np.ndarray  # estimator produced no usable state
    pf_diverged: np.ndarray  # the truth power flow diverged (also failed)
    bus_err_mean: np.ndarray
    bus_err_sd: np.ndarray
    bus_err_max: np.ndarray
    line_err_mean: np.ndarray
    line_err_sd: np.ndarray
    line_err_max: np.ndarray
    # ANN only: the switch bits the model got were absent from its training set
    unseen_topology: np.ndarray | None = None

    @property
    def sr_c1(self) -> float:
        return float(np.mean(self.success_c1))

    @property
    def sr_c2(self) -> float:
        return float(np.mean(self.success_c2))


class TruthCache(dict):
    """Power-flow truths, one ``powerflow.TruthTable`` per solved switch
    config under the key ``powerflow.truth_keys`` computes from what it is
    solved from; filled and read by :func:`powerflow.solve_truths`."""


def _truth_rx_factors(tc: TestCase, grid: GridModel, fault_seed: int,
                      cfg_idx: int, scenarios):
    """Per-line multipliers applied to the real grid's impedances.

    None when the case keeps the nominal impedances. A case with fixed
    factors gets one row ``(n_line,)``. A case with uniform random factors
    gets one row per scenario index of ``scenarios`` ``(B, n_line)``, drawn
    from ``rng(fault_seed, STREAM_FAULT, cfg_idx, scenario)``.
    The catalog factor describes the estimator model as a fraction of the
    actual value, so reality is nominal divided by that factor.
    """
    if tc.rx_model_factor is None and tc.rx_uniform is None:
        return None
    factors = np.ones(len(grid.lines))
    if tc.rx_model_factor is not None:
        for name in tc.rx_lines:
            factors[grid.line_by_name(name).id] = 1.0 / tc.rx_model_factor
    if tc.rx_uniform is None:
        return factors
    lo, hi = tc.rx_uniform
    n_line = len(grid.lines)
    keys = np.column_stack([np.full(len(scenarios), STREAM_FAULT),
                            np.full(len(scenarios), cfg_idx), scenarios])
    draws = np.array([gen.uniform(lo, hi, size=n_line) for gen in rngs(fault_seed, keys)])
    return factors * (1.0 / draws.reshape(len(scenarios), n_line))


def _assumed_bits(tc: TestCase, config) -> tuple[bool, ...]:
    bits = list(config)
    for idx in tc.flip_switches:
        bits[idx] = not bits[idx]
    return tuple(bits)


def run_test_case(tc: TestCase, grid: GridModel, scenarios, configs,
                  models: dict[str, AnnModel] | None = None,
                  methods=(METHOD_ANN, METHOD_WLS),
                  meas_seed: int = 0, fault_seed: int = 0,
                  truth_cache: TruthCache | None = None) -> dict[str, EvalResult]:
    """Evaluate one test case for the selected methods.

    Every scenario is run under every switching configuration, config-major;
    estimators see the same (possibly faulted, possibly corrected)
    measurement vectors.
    """
    spec = tc.spec(grid)
    monitored = [ln.id for ln in grid.monitored_lines]
    if METHOD_ANN in methods:
        if not models or "voltage" not in models or "loading" not in models:
            raise EvaluationError(f"case {tc.label}: trained models required "
                                  "for the ann method")
        for m in models.values():
            if m.spec_hash != spec.spec_hash:
                raise SpecHashMismatch(
                    f"case {tc.label}: model trained for layout {m.spec_hash}, "
                    f"case layout is {spec.spec_hash}")

    # a fault that targets nothing fails the case before any truth is solved
    faults = resolve_faults(tc.faults, spec)
    deviations = [f for f in tc.faults if f.kind == "power_deviation"]
    sd_over = assumed_sd_overrides(tc.faults, spec) or None

    truth_views = [apply_switch_config(grid, config) for config in configs]
    sample_factors = None
    if tc.rx_uniform is None:
        # a fixed impedance perturbation is the same for every sample, so the
        # perturbed views (and their admittance models) are built once
        factors = _truth_rx_factors(tc, grid, fault_seed, 0, ())
        if factors is not None:
            truth_views = [view.with_scaled_impedance(factors) for view in truth_views]
    else:
        sample_factors = partial(_truth_rx_factors, tc, grid, fault_seed)

    p_kw, q_kvar = unit_powers(scenarios)
    for f in deviations:
        p_kw, q_kvar = scale_powers_at(grid, f.buses, f.factor, p_kw, q_kvar)
    truths = solve_truths(truth_views, bus_injections(grid, p_kw, q_kvar),
                          cache=truth_cache, sample_factors=sample_factors)
    readings = simulate_truths(truths, truth_views, spec, meas_seed)
    v_true, diverged, config = truths.v, truths.diverged, truths.config
    l_true = truths.loading[:, monitored]
    # the angles and every line's loading are not needed past here; freeing
    # them, and the readings after the loop, keeps the ANN pass's peak memory
    # down
    del truths
    n_pairs, n_meas = readings.shape
    x = np.full((n_pairs, n_meas + len(grid.switches)), np.nan) \
        if METHOD_ANN in methods else None
    if METHOD_WLS in methods:
        wls_v = np.full((n_pairs, grid.n_bus), np.nan)
        wls_loading = np.full((n_pairs, len(monitored)), np.nan)
        wls_failed = np.ones(n_pairs, dtype=bool)

    # one block of readings per switch config: faults, correction, ANN inputs
    # and one batched estimate on the assumed view; an isolating assumed
    # topology, an unobservable or diverging sample, a non-converged or a
    # non-finite state leaves the pair failed
    assumed = [_assumed_bits(tc, config) for config in configs]
    for cfg_idx, bits in enumerate(assumed):
        rows = np.flatnonzero((config == cfg_idx) & ~diverged)
        if not rows.size:
            continue
        values = readings[rows]
        apply_faults(values, faults)
        if tc.correction:
            correct_rows(values, spec)
        if x is not None:
            x[rows] = np.hstack([values, np.tile(np.array(bits, dtype=float),
                                                 (len(rows), 1))])
        if METHOD_WLS not in methods:
            continue
        try:
            assumed_view = apply_switch_config(grid, bits)
        except IsolationError:
            continue
        est = estimate_batch(assumed_view, values, spec, sd_overrides=sd_over)
        ok = (est.status == CONVERGED) & np.isfinite(est.v).all(axis=1)
        wls_v[rows[ok]] = est.v[ok]
        wls_loading[rows[ok]] = est.loading[ok][:, monitored]
        wls_failed[rows[ok]] = False
    del readings

    results: dict[str, EvalResult] = {}
    if METHOD_ANN in methods:
        v_est = predict_batch(models["voltage"], x)
        l_est = predict_batch(models["loading"], x) * 100.0
        results[METHOD_ANN] = _score(METHOD_ANN, tc.label, v_est, l_est,
                                     v_true, l_true, diverged, diverged)
        unseen = np.zeros(n_pairs, dtype=bool)
        if grid.switches:
            unseen_cfg = np.array([not models["voltage"].topology_seen(bits)
                                   for bits in assumed])
            unseen = unseen_cfg[config] & ~diverged
        results[METHOD_ANN].unseen_topology = unseen
    if METHOD_WLS in methods:
        results[METHOD_WLS] = _score(METHOD_WLS, tc.label, wls_v, wls_loading,
                                     v_true, l_true, wls_failed, diverged)
    return results


def _score(method, label, v_est, l_est, v_true, l_true, failed, diverged):
    n = v_true.shape[0]
    v_err_abs = np.abs(v_est - v_true) * 100.0
    l_err_abs = np.abs(l_est - l_true)
    v_err_abs[failed] = np.inf
    l_err_abs[failed] = np.inf
    v_max = v_err_abs.max(axis=1)
    l_max = l_err_abs.max(axis=1)
    ok = ~failed
    if ok.any():
        bus_mean, bus_sd = v_err_abs[ok].mean(axis=0), v_err_abs[ok].std(axis=0)
        bus_max = v_err_abs[ok].max(axis=0)
        line_mean, line_sd = l_err_abs[ok].mean(axis=0), l_err_abs[ok].std(axis=0)
        line_max = l_err_abs[ok].max(axis=0)
    else:
        bus_mean = bus_sd = bus_max = np.full(v_true.shape[1], np.nan)
        line_mean = line_sd = line_max = np.full(l_true.shape[1], np.nan)
    return EvalResult(
        method=method, case_label=label, n_scenarios=n,
        v_err_max_pct=v_max, loading_err_max_pp=l_max,
        success_c1=C1.passes(v_max, l_max),
        success_c2=C2.passes(v_max, l_max),
        failed_structurally=failed, pf_diverged=diverged,
        bus_err_mean=bus_mean, bus_err_sd=bus_sd, bus_err_max=bus_max,
        line_err_mean=line_mean, line_err_sd=line_sd, line_err_max=line_max,
    )


def error_stats(results: dict[str, EvalResult], grid: GridModel):
    """Per-bus and per-line error tables, sorted by the WLS maximum ascending.

    A statistic no pair produced (a method that failed on every pair) is
    None, since strict JSON has no NaN.
    """
    ref = results.get(METHOD_WLS) or next(iter(results.values()))
    line_names = [ln.name for ln in grid.monitored_lines]

    def table(key, names, part):
        rows = []
        for i in np.argsort(getattr(ref, f"{part}_err_max"), kind="stable"):
            row = {key: names[i]}
            for method, res in results.items():
                for stat in ("mean", "sd", "max"):
                    value = getattr(res, f"{part}_err_{stat}")[i]
                    row[f"{method}_{stat}"] = float(value) if np.isfinite(value) else None
            rows.append(row)
        return rows

    return {"buses": table("bus", range(grid.n_bus), "bus"),
            "lines": table("line", line_names, "line")}


@dataclass
class SotaComparison:
    """Success rates of two state-of-the-art baselines on the same data."""

    few_scenario_sr_c1: float
    few_scenario_sr_c2: float
    small_arch_voltage_sr_c1: float
    small_arch_voltage_sr_c2: float


def compare_sota(grid: GridModel, tc: TestCase, axes, configs, test_scenarios,
                 train_data, truth_cache: TruthCache, *, train_seed: int = 0,
                 meas_seed: int = 0, train_cfg=None,
                 small_arch_epochs: int = 1000) -> SotaComparison:
    """Reproduce earlier published baselines as regression anchors.

    (a) training on five hand-picked extreme scenarios instead of the full
        tuple grid; (b) a single-hidden-layer, two-neuron sigmoid network
        whose inputs are the measurements alone (no switch bits), estimating
        voltages only and scored on the voltage limit alone.

    ``train_data`` is the caller's full training set for ``tc``, and
    ``truth_cache`` holds (or receives) the unperturbed truths of
    ``test_scenarios``; both are reused, not rebuilt.

    Baseline (b) regresses per-unit voltages that are mean-centred only, not
    scaled per bus, so its loss is the MSE in pu. With two hidden units its
    15 outputs lie on a 2-D surface, and the loss weighting decides which
    buses get fitted. On the bundled feeder, per-bus z-scores would weight
    an error at the stiff buses near the substation (spread ~0.01 pu) about
    11x more than the same error at the feeder end (~0.033 pu), while the
    voltage limit it is scored on is the largest per-unit error over all
    buses, which the feeder end sets. The source paper, as held here
    (abstract only), does not say how the original baseline scaled its
    targets.
    """
    from .ann import (AnnArchitecture, TrainConfig, build_training_set,
                      init_model, predict_batch as ann_predict, train,
                      train_monitor_pair)
    from .scenarios import expand

    train_cfg = train_cfg or TrainConfig(seed=train_seed)
    spec = tc.spec(grid)
    n_meas = len(spec.entries)

    few = [expand(tv, axes, grid, train_seed, repetition=0, tuple_index=i)
           for i, tv in enumerate(sota_extreme_tuples(axes))]
    few_data = build_training_set(grid, few, spec, configs, train_seed)
    few_models, _ = train_monitor_pair(grid, few_data, train_cfg)
    few_res = run_test_case(tc, grid, test_scenarios, configs, models=few_models,
                            methods=(METHOD_ANN,), meas_seed=meas_seed,
                            truth_cache=truth_cache)[METHOD_ANN]

    # measurement-only inputs on the unperturbed test truths, read from the cache
    views = [apply_switch_config(grid, config) for config in configs]
    injections = bus_injections(grid, *unit_powers(test_scenarios))
    test = solve_truths(views, injections, cache=truth_cache)
    readings = simulate_truths(test, views, spec, meas_seed)
    ok = ~test.diverged
    arch = AnnArchitecture(n_in=n_meas, n_out=train_data.y_voltage.shape[1],
                           n_hidden_layers=1, hidden_size_override=2,
                           hidden_activation="sigmoid")
    small = init_model(arch, train_cfg.seed)
    small_cfg = TrainConfig(max_epochs=small_arch_epochs, patience=100,
                            seed=train_cfg.seed, batch_size=train_cfg.batch_size)
    small, _ = train(small, train_data.x[:, :n_meas], train_data.y_voltage, small_cfg,
                     standardize_targets=False)
    v_est = ann_predict(small, readings[ok])
    v_err = np.abs(v_est - test.v[ok]).max(axis=1) * 100.0
    return SotaComparison(
        few_scenario_sr_c1=few_res.sr_c1,
        few_scenario_sr_c2=few_res.sr_c2,
        small_arch_voltage_sr_c1=float(np.mean(v_err < C1.v_err_limit_pct)),
        small_arch_voltage_sr_c2=float(np.mean(v_err < C2.v_err_limit_pct)),
    )


def sota_extreme_tuples(axes) -> list[tuple[float, ...]]:
    """Five hand-picked scenarios: the four range corners plus the midpoint."""
    lows = [ax.grid_values()[0] for ax in axes]
    highs = [ax.grid_values()[-1] for ax in axes]
    mids = [vals[len(vals) // 2] for vals in (ax.grid_values() for ax in axes)]
    corners = [
        tuple(lows),
        tuple(highs),
        tuple(high if i == 0 else low for i, (low, high) in enumerate(zip(lows, highs))),
        tuple(low if i == 0 else high for i, (low, high) in enumerate(zip(lows, highs))),
        tuple(mids),
    ]
    return corners
