"""Weighted-least-squares state estimation with pseudo-measurement substitution.

The estimator needs P and Q information at every bus to be observable.
Buses without real injection measurements receive substitute values: DG
output is transferred from measured units of the same kind by relative
power, and the remaining balance (slack import minus measured injections
minus DG estimate) is split over unmeasured load buses proportionally to
installed power. Substitutes carry a 30 % standard deviation.

The measurement functions h(x) and their Jacobian H(x) are row selections of
the stacked bus and line quantities and their voltage derivatives, all
derived from the view's branch admittance model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridModel, GridView, dsbus_dv, dsf_dv
from .measurements import MeasurementSet, MeasurementSpec, stacked_positions
from .powerflow import line_flows

PSEUDO_SD_FRACTION = 0.30
PSEUDO_SD_FLOOR_PU = 1e-3  # 1 kW on the 1 MVA base
SD_FLOOR_PU = 1e-6


class ObservabilityError(Exception):
    """Gain matrix singular: the measurement set does not determine the state."""


@dataclass(frozen=True)
class WlsConfig:
    max_iterations: int = 10
    state_update_tolerance: float = 1e-6
    pseudo_sd_fraction: float = PSEUDO_SD_FRACTION


@dataclass(frozen=True)
class PseudoMeasurement:
    kind: str  # "p_bus" or "q_bus"
    bus: int
    value: float  # per-unit injection, generation positive
    sd_abs: float
    fallback: bool = False  # True when no measured DG of the kind existed


@dataclass(frozen=True)
class EstimatedState:
    v_mag: np.ndarray
    v_ang: np.ndarray
    loading_pct: np.ndarray  # derived on the assumed model
    converged: bool
    iterations: int
    objective: float
    objective_history: tuple[float, ...] = ()


def _measured_buses(spec: MeasurementSpec) -> set[int]:
    return {e.location for e in spec.entries if e.kind == "p_bus"}


def _slack_injection_estimate(grid: GridModel, ms: MeasurementSet,
                              spec: MeasurementSpec) -> tuple[float, float] | None:
    """Slack P, Q in per-unit: direct bus measurement if present, otherwise
    the sum of measured feeder line flows (oriented out of the from end)."""
    slack = grid.slack_bus
    measured = _measured_buses(spec)
    if slack in measured:
        p = ms.values[spec.index_of("p_bus", slack)]
        q = ms.values[spec.index_of("q_bus", slack)]
        return float(p), float(q)
    p_idx = spec.indices("p_line")
    q_idx = spec.indices("q_line")
    if p_idx:
        p = float(sum(ms.values[i] for i in p_idx))
        q = float(sum(ms.values[i] for i in q_idx))
        return p, q
    return None


def build_pseudo(grid: GridModel, ms: MeasurementSet, spec: MeasurementSpec,
                 cfg: WlsConfig = WlsConfig()) -> list[PseudoMeasurement]:
    """Substitute P/Q injections for every bus without a real injection measurement."""
    if spec.spec_hash != ms.spec_hash:
        raise ValueError("measurement set does not belong to this spec")
    s_base_kw = grid.s_base_mva * 1e3
    measured = _measured_buses(spec)
    slack = grid.slack_bus

    # nominal per-bus unit power, split by consumer/producer role
    dg_units = [u for u in grid.units if not u.is_consumer]
    load_units = [u for u in grid.units if u.is_consumer]

    # relative output of measured DG per kind, read from the net injection
    # at the measured bus (collocated loads bias this low; the 30 % pseudo
    # SD is meant to absorb exactly this kind of imprecision)
    rel_by_kind: dict[str, float] = {}
    fallback_kinds: set[str] = set()
    for kind in sorted({u.kind for u in dg_units}):
        units = [u for u in dg_units if u.kind == kind]
        meas_units = [u for u in units if u.bus in measured and u.bus != slack]
        if not meas_units:
            rel_by_kind[kind] = 0.5
            fallback_kinds.add(kind)
            continue
        inj_sum = sum(float(ms.values[spec.index_of("p_bus", u.bus)])
                      for u in meas_units)
        nom_sum = sum(u.p_nom_kw / s_base_kw for u in meas_units)
        rel_by_kind[kind] = min(max(inj_sum / nom_sum, 0.0), 1.0)

    def dg_estimate(bus: int) -> float:
        return sum(rel_by_kind[u.kind] * u.p_nom_kw / s_base_kw
                   for u in dg_units if u.bus == bus)

    slack_est = _slack_injection_estimate(grid, ms, spec)
    unmeasured = [b.id for b in grid.buses if b.id not in measured and b.id != slack]
    load_nom = {bus: sum(u.p_nom_kw for u in load_units if u.bus == bus) / s_base_kw
                for bus in unmeasured}
    total_load_nom = sum(load_nom.values())
    # DG at measured buses is already inside their net injection readings;
    # only the unmeasured DG estimate enters the load balance
    p_dg_unmeasured = sum(dg_estimate(bus) for bus in unmeasured)

    pseudos: list[PseudoMeasurement] = []
    if slack_est is not None and total_load_nom > 0:
        p_slack = slack_est[0]
        p_measured = sum(float(ms.values[spec.index_of("p_bus", b)])
                         for b in measured if b != slack)
        remainder = -p_slack - p_measured - p_dg_unmeasured
    else:
        # no balance information: every unmeasured load at half nominal
        remainder = None

    tan_phi = {u.id: math.tan(math.acos(u.cos_phi)) for u in grid.units}
    for bus in unmeasured:
        p_load = 0.0
        fallback = slack_est is None and load_nom[bus] > 0
        if load_nom[bus] > 0:
            if remainder is not None:
                p_load = remainder * load_nom[bus] / total_load_nom
            else:
                p_load = -0.5 * load_nom[bus]
        p_dg = dg_estimate(bus)
        fallback = fallback or any(
            u.kind in fallback_kinds for u in dg_units if u.bus == bus)
        p_value = p_load + p_dg
        # reactive follows the units' power factors, consistent in sign
        q_value = 0.0
        bus_units = [u for u in grid.units if u.bus == bus]
        if bus_units:
            load_share = p_load
            dg_parts = [(u, rel_by_kind[u.kind] * u.p_nom_kw / s_base_kw)
                        for u in dg_units if u.bus == bus]
            q_value = sum(part * tan_phi[u.id] for u, part in dg_parts)
            load_tan = [tan_phi[u.id] for u in bus_units if u.is_consumer]
            if load_tan:
                q_value += load_share * load_tan[0]
        sd = max(cfg.pseudo_sd_fraction * abs(p_value), PSEUDO_SD_FLOOR_PU)
        pseudos.append(PseudoMeasurement("p_bus", bus, p_value, sd, fallback))
        sd_q = max(cfg.pseudo_sd_fraction * abs(q_value), PSEUDO_SD_FLOOR_PU)
        pseudos.append(PseudoMeasurement("q_bus", bus, q_value, sd_q, fallback))
    return pseudos


def _measurement_rows(grid: GridModel, view: GridView, spec: MeasurementSpec,
                      ms: MeasurementSet, pseudos, sd_overrides):
    """Flatten real + pseudo measurements into (kind, location, value, sd_abs)."""
    rows = []
    for i, e in enumerate(spec.entries):
        sd_pct = sd_overrides.get(i, e.sd_pct) if sd_overrides else e.sd_pct
        sd_abs = max(sd_pct / 100.0 * abs(float(ms.values[i])), SD_FLOOR_PU)
        rows.append((e.kind, e.location, float(ms.values[i]), sd_abs))
    for p in pseudos:
        rows.append((p.kind, p.bus, p.value, max(p.sd_abs, SD_FLOOR_PU)))
    return rows


@dataclass(frozen=True)
class StateIndex:
    """Column layout of the WLS state vector: angles of reachable non-slack
    buses first, then magnitudes of all reachable buses."""

    non_slack: tuple[int, ...]
    mag_buses: tuple[int, ...]

    @classmethod
    def for_view(cls, view: GridView) -> StateIndex:
        n = view.grid.n_bus
        slack = view.grid.slack_bus
        dead = view.dead_buses
        return cls(
            non_slack=tuple(i for i in range(n) if i != slack and i not in dead),
            mag_buses=tuple(i for i in range(n) if i not in dead),
        )

    @property
    def n_state(self) -> int:
        return len(self.non_slack) + len(self.mag_buses)


def measurement_model(view: GridView, rows, v: np.ndarray, th: np.ndarray,
                      index: StateIndex):
    """Measurement functions h(x) and their Jacobian at the given state.

    ``rows`` are (kind, location, value, sd) tuples; h and H are their rows
    of the stacked quantities ``[V; P_bus; Q_bus; P_f; Q_f; |I_f|]``, and the
    Jacobian columns follow ``index``. Out-of-service line flows are
    identically zero.
    """
    n = view.n_bus
    net = view.branches
    s_bus, dsbus_th, dsbus_v = dsbus_dv(net.ybus, v, th)
    s_f, dsf_th, dsf_v = dsf_dv(net, v, th)
    # current magnitude |I_f| = |S_f| / V_f; the floor keeps H finite at zero flow
    v_f = v[net.f_bus]
    s_mag = np.abs(s_f)
    i_mag = s_mag / v_f
    denom = (np.maximum(s_mag, 1e-9) * v_f)[:, None]
    di_dth = (np.conj(s_f)[:, None] * dsf_th).real / denom
    di_dv = ((np.conj(s_f)[:, None] * dsf_v).real / denom
             - (i_mag / v_f)[:, None] * net.cf)

    h = np.concatenate([v, s_bus.real, s_bus.imag, s_f.real, s_f.imag, i_mag])
    d_th = np.vstack([np.zeros((n, n)), dsbus_th.real, dsbus_th.imag,
                      dsf_th.real, dsf_th.imag, di_dth])
    d_v = np.vstack([np.eye(n), dsbus_v.real, dsbus_v.imag,
                     dsf_v.real, dsf_v.imag, di_dv])
    pos = stacked_positions(((r[0], r[1]) for r in rows), n, len(net.f_bus))
    jac = np.hstack([d_th[np.ix_(pos, index.non_slack)],
                     d_v[np.ix_(pos, index.mag_buses)]])
    return h[pos], jac


def estimate(view: GridView, ms: MeasurementSet, spec: MeasurementSpec,
             pseudos: list[PseudoMeasurement] | None = None,
             cfg: WlsConfig = WlsConfig(),
             sd_overrides: dict[int, float] | None = None) -> EstimatedState:
    """Gauss-Newton WLS estimate of the full voltage state.

    Returns a flagged (converged=False) state on iteration exhaustion; raises
    ObservabilityError when the gain matrix is singular.
    """
    grid = view.grid
    if pseudos is None:
        pseudos = build_pseudo(grid, ms, spec, cfg)
    rows = _measurement_rows(grid, view, spec, ms, pseudos, sd_overrides)
    # injection info at buses cut off the slack constrains nothing
    rows = [r for r in rows
            if not (r[0] in ("p_bus", "q_bus", "v_bus") and r[1] in view.dead_buses)]
    index = StateIndex.for_view(view)

    z = np.array([r[2] for r in rows])
    weights = 1.0 / np.array([r[3] for r in rows]) ** 2
    non_slack = list(index.non_slack)
    mag_buses = list(index.mag_buses)

    v = np.ones(grid.n_bus)
    th = np.zeros(grid.n_bus)

    converged = False
    iterations = 0
    objective_history = []
    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        h, jac = measurement_model(view, rows, v, th, index)
        residual = z - h
        objective_history.append(float(np.sum(weights * residual**2)))
        wjac = jac * weights[:, None]
        gain = jac.T @ wjac
        rhs = wjac.T @ residual
        try:
            step = np.linalg.solve(gain, rhs)
        except np.linalg.LinAlgError as exc:
            raise ObservabilityError("singular gain matrix") from exc
        if not np.all(np.isfinite(step)):
            raise ObservabilityError("non-finite state update")
        th[non_slack] += step[:len(non_slack)]
        v[mag_buses] += step[len(non_slack):]
        if np.max(np.abs(step)) < cfg.state_update_tolerance:
            converged = True
            break

    h, _ = measurement_model(view, rows, v, th, index)
    objective = float(np.sum(weights * (z - h) ** 2))
    objective_history.append(objective)
    return EstimatedState(v_mag=v, v_ang=th,
                          loading_pct=line_flows(view, v, th).loading_pct,
                          converged=converged, iterations=iterations,
                          objective=objective,
                          objective_history=tuple(objective_history))
