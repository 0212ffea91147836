"""Weighted-least-squares state estimation with pseudo-measurement substitution.

The estimator needs P and Q information at every bus to be observable.
Buses without real injection measurements receive substitute values: DG
output is transferred from measured units of the same kind by relative
power, and the remaining balance (slack import minus measured injections
minus DG estimate) is split over unmeasured load buses proportionally to
installed power. Substitutes carry a 30 % standard deviation. They are
built as array operations on the grid's unit table (one bus, sign, kind,
rating and tan phi per unit), one measurement vector at a time, and come
back as a ``PseudoSet`` of arrays.

Each estimate lays out its rows once: the spec's entries, then the
substitutes, as stacked positions, values z and weights W, less the rows at
buses cut off the slack. Gauss-Newton runs at most ``MAX_ITERATIONS`` steps
and converges when no state update exceeds ``STATE_UPDATE_TOLERANCE``.

The measurement functions h(x) and their Jacobian H(x) are row selections of
the stacked bus and line quantities and their voltage derivatives, all
derived from the view's branch admittance model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import GridModel, GridView, dsbus_dv, dsf_dv
from .measurements import (BUS_KINDS, KIND_CODE, MeasurementSet, MeasurementSpec,
                           stacked_positions)
from .powerflow import line_flows

MAX_ITERATIONS = 10
STATE_UPDATE_TOLERANCE = 1e-6
PSEUDO_SD_FRACTION = 0.30
PSEUDO_SD_FLOOR_PU = 1e-3  # 1 kW on the 1 MVA base
# The assumed SD is relative to the reading, taken of at least this magnitude
# per measurement kind (``ALL_KINDS`` order), per unit. A voltage counts as at
# least 0.5 pu, far below any fault-free reading, so a zeroed voltage does not
# enter as an exact constraint. Power and current readings are fault-free
# zeros where no unit or an open line is metered, so theirs stay as read.
READING_FLOOR_PU = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
SD_FLOOR_PU = 1e-6


class ObservabilityError(Exception):
    """Gain matrix singular: the measurement set does not determine the state."""


@dataclass(frozen=True)
class PseudoSet:
    """Substitute injections, one row each: unmeasured feeder buses in
    ascending order, P then Q at each."""

    kind: np.ndarray  # kind code into ``ALL_KINDS`` (p_bus or q_bus)
    bus: np.ndarray
    value: np.ndarray  # per-unit injection, generation positive
    sd: np.ndarray  # absolute SD, per unit
    fallback: np.ndarray  # True when part of the value is a half-nominal guess


@dataclass(frozen=True)
class EstimatedState:
    v_mag: np.ndarray
    v_ang: np.ndarray
    loading_pct: np.ndarray  # derived on the assumed model
    converged: bool
    iterations: int
    objective: float
    objective_history: tuple[float, ...] = ()


def build_pseudo(grid: GridModel, ms: MeasurementSet, spec: MeasurementSpec) -> PseudoSet:
    """Substitute P/Q injections for every bus without a real injection measurement."""
    if spec.spec_hash != ms.spec_hash:
        raise ValueError("measurement set does not belong to this spec")
    units = grid.unit_table
    n, slack, s_base_kw = grid.n_bus, grid.slack_bus, grid.s_base_mva * 1e3
    p_idx = spec.indices("p_bus")
    # the first reading at a bus counts
    read_buses, first = np.unique(spec.location[p_idx], return_index=True)
    p_meas = np.zeros(n)
    p_meas[read_buses] = ms.values[p_idx][first]
    measured = np.zeros(n, dtype=bool)
    measured[read_buses] = True
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
    buses = np.flatnonzero(unmeasured)
    value = np.column_stack([p_value[buses], q_value[buses]]).ravel()
    return PseudoSet(kind=np.tile([KIND_CODE["p_bus"], KIND_CODE["q_bus"]], len(buses)),
                     bus=np.repeat(buses, 2), value=value,
                     sd=np.maximum(PSEUDO_SD_FRACTION * np.abs(value), PSEUDO_SD_FLOOR_PU),
                     fallback=np.repeat(fallback[buses], 2))


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


def measurement_model(view: GridView, pos: np.ndarray, v: np.ndarray, th: np.ndarray,
                      index: StateIndex):
    """Measurement functions h(x) and their Jacobian at the given state.

    ``pos`` are the rows' positions in the stacked quantities
    ``[V; P_bus; Q_bus; P_f; Q_f; |I_f|]`` (see ``stacked_positions``); the
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
    jac = np.hstack([d_th[np.ix_(pos, index.non_slack)],
                     d_v[np.ix_(pos, index.mag_buses)]])
    return h[pos], jac


def estimate(view: GridView, ms: MeasurementSet, spec: MeasurementSpec,
             sd_overrides: dict[int, float] | None = None) -> EstimatedState:
    """Gauss-Newton WLS estimate of the full voltage state.

    Returns a flagged (converged=False) state on iteration exhaustion; raises
    ObservabilityError when the gain matrix is singular.
    """
    grid = view.grid
    pseudo = build_pseudo(grid, ms, spec)
    sd_pct = spec.sd_vector()
    for i, sd in (sd_overrides or {}).items():
        sd_pct[i] = sd
    kind = np.concatenate([spec.kind_code, pseudo.kind])
    location = np.concatenate([spec.location, pseudo.bus])
    z = np.concatenate([ms.values, pseudo.value])
    reading = np.maximum(np.abs(ms.values), READING_FLOOR_PU[spec.kind_code])
    sd_abs = np.maximum(np.concatenate([sd_pct / 100.0 * reading, pseudo.sd]), SD_FLOOR_PU)
    # injection info at buses cut off the slack constrains nothing
    keep = ~((kind < len(BUS_KINDS)) & np.isin(location, list(view.dead_buses)))
    pos = stacked_positions(kind[keep], location[keep], grid.n_bus, len(grid.lines))
    z = z[keep]
    weights = 1.0 / sd_abs[keep] ** 2
    index = StateIndex.for_view(view)
    non_slack = list(index.non_slack)
    mag_buses = list(index.mag_buses)

    v = np.ones(grid.n_bus)
    th = np.zeros(grid.n_bus)

    converged = False
    iterations = 0
    objective_history = []
    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations = iteration
        h, jac = measurement_model(view, pos, v, th, index)
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

    h, _ = measurement_model(view, pos, v, th, index)
    objective = float(np.sum(weights * (z - h) ** 2))
    objective_history.append(objective)
    return EstimatedState(v_mag=v, v_ang=th,
                          loading_pct=line_flows(view, v, th).loading_pct,
                          converged=converged, iterations=iterations,
                          objective=objective,
                          objective_history=tuple(objective_history))
