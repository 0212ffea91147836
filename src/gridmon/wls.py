"""Weighted-least-squares state estimation with pseudo-measurement substitution.

The estimator needs P and Q information at every bus to be observable.
Buses without real injection measurements receive substitute values: DG
output is transferred from measured units of the same kind by relative
power, and the remaining balance (slack import minus measured injections
minus DG estimate) is split over unmeasured load buses proportionally to
installed power. Substitutes carry a 30 % standard deviation. They are
built as array operations on the grid's unit table (one bus, sign, kind,
rating and tan phi per unit), one measurement vector at a time.

Gauss-Newton runs at most ``MAX_ITERATIONS`` steps and converges when no
state update exceeds ``STATE_UPDATE_TOLERANCE``.

The measurement functions h(x) and their Jacobian H(x) are row selections of
the stacked bus and line quantities and their voltage derivatives, all
derived from the view's branch admittance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridModel, GridView, dsbus_dv, dsf_dv
from .measurements import MeasurementSet, MeasurementSpec, stacked_positions
from .powerflow import line_flows

MAX_ITERATIONS = 10
STATE_UPDATE_TOLERANCE = 1e-6
PSEUDO_SD_FRACTION = 0.30
PSEUDO_SD_FLOOR_PU = 1e-3  # 1 kW on the 1 MVA base
SD_FLOOR_PU = 1e-6


class ObservabilityError(Exception):
    """Gain matrix singular: the measurement set does not determine the state."""


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


def build_pseudo(grid: GridModel, ms: MeasurementSet,
                 spec: MeasurementSpec) -> list[PseudoMeasurement]:
    """Substitute P/Q injections for every bus without a real injection measurement."""
    if spec.spec_hash != ms.spec_hash:
        raise ValueError("measurement set does not belong to this spec")
    units = grid.unit_table
    n, slack, s_base_kw = grid.n_bus, grid.slack_bus, grid.s_base_mva * 1e3
    p_meas = np.zeros(n)
    measured = np.zeros(n, dtype=bool)
    for i in reversed(spec.indices("p_bus")):  # the first reading at a bus counts
        p_meas[spec.entries[i].location] = ms.values[i]
        measured[spec.entries[i].location] = True
    feeder = np.arange(n) != slack
    feeder_measured = feeder & measured
    unmeasured = feeder & ~measured
    dg = units.sign > 0

    # relative output of measured DG per kind, read from the net injection
    # at the measured bus (collocated loads bias this low; the 30 % pseudo
    # SD is meant to absorb exactly this kind of imprecision); a kind with
    # no measured unit falls back to half its nominal output
    seen = dg & feeder_measured[units.bus]
    n_kind = len(units.kinds)
    fallback_kind = np.bincount(units.kind[seen], minlength=n_kind) == 0
    inj_sum = np.bincount(units.kind[seen], weights=p_meas[units.bus[seen]],
                          minlength=n_kind)
    nom_sum = np.bincount(units.kind[seen], weights=units.p_nom_kw[seen] / s_base_kw,
                          minlength=n_kind)
    rel = np.clip(np.divide(inj_sum, nom_sum, out=np.full(n_kind, 0.5),
                            where=~fallback_kind), 0.0, 1.0)

    # per-bus sums accumulate in unit order, the scalar totals in bus order
    dg_part = np.where(dg, rel[units.kind] * units.p_nom_kw / s_base_kw, 0.0)
    p_dg = np.bincount(units.bus, weights=dg_part, minlength=n)
    q_dg = np.bincount(units.bus, weights=dg_part * units.tan_phi, minlength=n)
    load_nom = np.bincount(units.bus, weights=np.where(dg, 0.0, units.p_nom_kw),
                           minlength=n) / s_base_kw
    has_load = load_nom > 0
    # the bus's reactive load follows the power factor of its first load unit
    loads = np.flatnonzero(~dg)
    load_buses, first_load = np.unique(units.bus[loads], return_index=True)
    load_tan = np.zeros(n)
    load_tan[load_buses] = units.tan_phi[loads[first_load]]

    # slack P: its own reading, else the sum of the measured feeder line
    # flows (oriented out of the from end), else unknown
    line_idx = spec.indices("p_line")
    if measured[slack]:
        p_slack = p_meas[slack]
    elif line_idx:
        p_slack = sum(ms.values[line_idx])
    else:
        p_slack = None
    total_load_nom = sum(load_nom[unmeasured])
    if p_slack is not None and total_load_nom > 0:
        # DG at measured buses is already inside their net injection readings;
        # only the unmeasured DG estimate enters the load balance
        remainder = -p_slack - sum(p_meas[feeder_measured]) - sum(p_dg[unmeasured])
        p_load = np.where(has_load, remainder * load_nom / total_load_nom, 0.0)
    else:
        # no balance information: every unmeasured load at half nominal
        p_load = np.where(has_load, -0.5 * load_nom, 0.0)
    p_value = p_load + p_dg
    q_value = q_dg + p_load * load_tan
    fallback = (p_slack is None) & has_load
    fallback |= np.bincount(units.bus, weights=dg & fallback_kind[units.kind],
                            minlength=n) > 0
    sd_p = np.maximum(PSEUDO_SD_FRACTION * np.abs(p_value), PSEUDO_SD_FLOOR_PU)
    sd_q = np.maximum(PSEUDO_SD_FRACTION * np.abs(q_value), PSEUDO_SD_FLOOR_PU)
    return [PseudoMeasurement(kind, bus, float(value[bus]), float(sd[bus]), bool(fallback[bus]))
            for bus in np.flatnonzero(unmeasured).tolist()
            for kind, value, sd in (("p_bus", p_value, sd_p), ("q_bus", q_value, sd_q))]


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
             sd_overrides: dict[int, float] | None = None) -> EstimatedState:
    """Gauss-Newton WLS estimate of the full voltage state.

    Returns a flagged (converged=False) state on iteration exhaustion; raises
    ObservabilityError when the gain matrix is singular.
    """
    grid = view.grid
    if pseudos is None:
        pseudos = build_pseudo(grid, ms, spec)
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
    for iteration in range(1, MAX_ITERATIONS + 1):
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
        if np.max(np.abs(step)) < STATE_UPDATE_TOLERANCE:
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
