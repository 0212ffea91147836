"""Weighted-least-squares state estimation with pseudo-measurement substitution.

The estimator needs P and Q information at every bus to be observable.
Buses without real injection measurements receive substitute values: DG
output is transferred from measured units of the same kind by relative
power, and the remaining balance (slack import minus measured injections
minus DG estimate) is split over unmeasured load buses proportionally to
installed power. Substitutes carry a 30 % standard deviation. They are
built as array operations on the grid's unit table (one bus, sign, kind,
rating and tan phi per unit) for B measurement vectors ``(B, m)`` at once by
:func:`pseudo_batch`, and come back as a ``PseudoSet`` of arrays;
:func:`build_pseudo` is its one-vector call.

There is one Gauss-Newton, :func:`estimate_batch`. It estimates B
measurement vectors ``(B, m)`` of one spec on one assumed view at once, on
``(B, n_bus)`` states. The row layout (the spec's entries, then the
substitutes, less the rows at buses cut off the slack) and the state
columns depend on the spec and the view alone, so they are laid out once
per batch as one :class:`RowPlan`; values z and weights W are ``(B, m)``
arrays. A sample stops iterating when no state update exceeds
``STATE_UPDATE_TOLERANCE`` (converged) or after ``MAX_ITERATIONS`` steps
(flagged non-converged), and a singular gain matrix or a non-finite step
fails that sample alone. It returns one :class:`Estimates` record of
arrays, each sample's outcome a status code (``CONVERGED``,
``ITERATION_LIMIT``, ``SINGULAR_GAIN``, ``NON_FINITE_STEP``).
:func:`estimate` is its B = 1 call, and the only code that builds an
``EstimatedState`` or raises an ``ObservabilityError``.

The measurement functions h(x) are the simulator's own
(``measurements.measured_values``). Their Jacobian H(x) is the plan's
selection of the voltage derivatives of the stacked quantities, for the
lines that rows read. Each step makes one ``grid.StatePass`` of its
states, and h and H both read it.

Each sample's result is bitwise the same in any batch: every step is
elementwise per sample or one BLAS/LAPACK call per sample on a C-ordered
per-sample Jacobian, and each objective is the sum of its own row. A batch
is estimated in blocks whose arrays stay under 256 KiB
(``powerflow.ELISION_ELEMENTS`` complex elements): the complex
``(B, n_line, n_bus)`` and ``(B, n_bus, n_bus)`` derivatives, as in the
power flow, and the float ``(B, m, n_state)`` Jacobian, which sets the
working set. On the bundled feeder that is 31 samples for M4's layout, 20
for M8's, and never more than 64.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .grid import GridModel, GridView, StatePass, dsbus_dv, dsf_dv
from .measurements import (ALL_KINDS, BUS_KINDS, KIND_CODE, MeasurementSet,
                           MeasurementSpec, measured_values, stacked_positions)
from .powerflow import ELISION_ELEMENTS, line_flows, solve_samples

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
# each sample's outcome in a Gauss-Newton
CONVERGED = 0
ITERATION_LIMIT = 1
SINGULAR_GAIN = 2
NON_FINITE_STEP = 3
FAILURE_MESSAGES = {SINGULAR_GAIN: "singular gain matrix",
                    NON_FINITE_STEP: "non-finite state update"}


class ObservabilityError(Exception):
    """Gain matrix singular or a state update not finite: the measurement
    set does not determine the state."""


@dataclass(frozen=True)
class PseudoSet:
    """Substitute injections, one row each: unmeasured feeder buses in
    ascending order, P then Q at each."""

    kind: np.ndarray  # kind code into ``ALL_KINDS`` (p_bus or q_bus)
    bus: np.ndarray
    value: np.ndarray  # ([B,] k) per-unit injection, generation positive
    sd: np.ndarray  # ([B,] k) absolute SD, per unit
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


class Estimates(NamedTuple):
    """The estimates of B measurement vectors, row b for sample b.

    A sample that failed (``SINGULAR_GAIN`` or ``NON_FINITE_STEP``) has NaN
    state, loading and objective rows. ``objectives[b]`` holds the objective
    at the start of each iteration, then the final one at column
    ``iterations[b]``, and NaN after its last entry.
    """

    v: np.ndarray  # (B, n_bus) pu
    th: np.ndarray  # (B, n_bus) rad
    loading: np.ndarray  # (B, n_line) percent, derived on the assumed model
    status: np.ndarray  # (B,) CONVERGED, ITERATION_LIMIT, SINGULAR_GAIN or NON_FINITE_STEP
    iterations: np.ndarray  # (B,)
    objective: np.ndarray  # (B,)
    objectives: np.ndarray  # (B, MAX_ITERATIONS + 1)


def build_pseudo(grid: GridModel, ms: MeasurementSet, spec: MeasurementSpec) -> PseudoSet:
    """Substitute P/Q injections for every bus without a real injection
    measurement; the one-vector call of :func:`pseudo_batch`."""
    if spec.spec_hash != ms.spec_hash:
        raise ValueError("measurement set does not belong to this spec")
    pseudo = pseudo_batch(grid, ms.values[None], spec)
    return replace(pseudo, value=pseudo.value[0], sd=pseudo.sd[0])


def _bin_rows(bins: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    """``np.bincount(bins, weights=w, minlength=length)`` of each row w of
    ``weights``: the same additions, one column at a time in entry order."""
    out = np.zeros((len(weights), length))
    for i, b in enumerate(bins.tolist()):
        out[:, b] += weights[:, i]
    return out


def _sum_columns(a: np.ndarray) -> np.ndarray:
    """Python's ``sum`` of each row of ``a``: its columns added in order."""
    total = np.zeros(len(a))
    for col in a.T:
        total = total + col
    return total


def pseudo_batch(grid: GridModel, values: np.ndarray, spec: MeasurementSpec) -> PseudoSet:
    """Substitute injections for B measurement vectors ``(B, m)`` of one spec.

    Which buses get substitutes, their kinds and the balance weights follow
    from the spec alone and are shared; ``value`` and ``sd`` are ``(B, k)``.
    Each row is bitwise what one vector alone gives: per-bus sums add in unit
    order and the scalar totals in bus order, one column at a time.
    """
    units = grid.unit_table
    n, slack, s_base_kw = grid.n_bus, grid.slack_bus, grid.s_base_mva * 1e3
    n_samples = len(values)
    p_idx = np.array(spec.indices("p_bus"), dtype=int)
    # the first reading at a bus counts
    read_buses, first = np.unique(spec.location[p_idx], return_index=True)
    p_meas = np.zeros((n_samples, n))
    p_meas[:, read_buses] = values[:, p_idx[first]]
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
    inj_sum = _bin_rows(units.kind[seen], p_meas[:, units.bus[seen]], n_kind)
    nom_sum = np.bincount(units.kind[seen], weights=units.p_nom_kw[seen] / s_base_kw,
                          minlength=n_kind)
    rel = np.clip(np.divide(inj_sum, nom_sum, out=np.full((n_samples, n_kind), 0.5),
                            where=~fallback_kind), 0.0, 1.0)

    # per-bus sums accumulate in unit order, the scalar totals in bus order
    dg_part = np.where(dg, rel[:, units.kind] * units.p_nom_kw / s_base_kw, 0.0)
    p_dg = _bin_rows(units.bus, dg_part, n)
    q_dg = _bin_rows(units.bus, dg_part * units.tan_phi, n)
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
        p_slack = p_meas[:, slack]
    elif line_idx:
        p_slack = _sum_columns(values[:, line_idx])
    else:
        p_slack = None
    total_load_nom = sum(load_nom[unmeasured])
    if p_slack is not None and total_load_nom > 0:
        # DG at measured buses is already inside their net injection readings;
        # only the unmeasured DG estimate enters the load balance
        remainder = (-p_slack - _sum_columns(p_meas[:, feeder_measured])
                     - _sum_columns(p_dg[:, unmeasured]))
        p_load = np.where(has_load, remainder[:, None] * load_nom / total_load_nom, 0.0)
    else:
        # no balance information: every unmeasured load at half nominal
        p_load = np.where(has_load, -0.5 * load_nom, 0.0)
    p_value = p_load + p_dg
    q_value = q_dg + p_load * load_tan
    fallback = (p_slack is None) & has_load
    fallback |= np.bincount(units.bus, weights=dg & fallback_kind[units.kind],
                            minlength=n) > 0
    buses = np.flatnonzero(unmeasured)
    value = np.stack([p_value[:, buses], q_value[:, buses]], axis=-1).reshape(n_samples, -1)
    return PseudoSet(kind=np.tile([KIND_CODE["p_bus"], KIND_CODE["q_bus"]], len(buses)),
                     bus=np.repeat(buses, 2), value=value,
                     sd=np.maximum(PSEUDO_SD_FRACTION * np.abs(value), PSEUDO_SD_FLOOR_PU),
                     fallback=np.repeat(fallback[buses], 2))


class RowPlan(NamedTuple):
    """The read-only layout of h(x) and H(x), which depends on the rows and
    the view alone.

    The Jacobian's columns are the angles of reachable non-slack buses, then
    the magnitudes of all reachable buses. ``kinds[k]`` holds the rows of
    kind k (``ALL_KINDS`` order) and, as a column, each row's bus id or its
    index into ``lines``, the lines that rows read. ``identity`` is the
    voltage rows' magnitude block, a row selection of the identity.
    """

    pos: np.ndarray  # each row's position in the stacked quantities
    non_slack: np.ndarray  # the bus of each angle column
    mag_buses: np.ndarray  # the bus of each magnitude column
    lines: np.ndarray
    kinds: tuple  # (rows, ids) per kind
    identity: np.ndarray  # (voltage rows, magnitude columns)

    @property
    def n_state(self) -> int:
        return len(self.non_slack) + len(self.mag_buses)

    @classmethod
    def for_rows(cls, view: GridView, kind: np.ndarray, location: np.ndarray) -> RowPlan:
        """The plan of rows given by kind codes into ``ALL_KINDS`` and their
        bus or line ids."""
        n, n_line = view.n_bus, len(view.grid.lines)
        live = np.ones(n, dtype=bool)
        live[sorted(view.dead_buses)] = False
        mag_buses = np.flatnonzero(live)
        non_slack = mag_buses[mag_buses != view.grid.slack_bus]
        on_line = kind >= len(BUS_KINDS)
        ids = np.array(location)
        lines, ids[on_line] = np.unique(location[on_line], return_inverse=True)
        rows = [np.flatnonzero(kind == code) for code in range(len(ALL_KINDS))]
        kinds = tuple((r, ids[r][:, None]) for r in rows)
        plan = cls(pos=stacked_positions(kind, location, n, n_line), non_slack=non_slack,
                   mag_buses=mag_buses, lines=lines, kinds=kinds,
                   identity=np.eye(n)[kinds[0][1], mag_buses])
        for a in (plan.pos, non_slack, mag_buses, lines, plan.identity,
                  *(a for pair in kinds for a in pair)):
            a.setflags(write=False)
        return plan


def measurement_model(view: GridView, plan: RowPlan, v: np.ndarray, th: np.ndarray):
    """Measurement functions h(x) and their Jacobian at the given states.

    ``v`` and ``th`` are one state ``(n_bus,)`` or a stack ``(B, n_bus)``;
    ``h`` and the C-contiguous Jacobian take their leading shape, with rows
    and columns laid out by ``plan``. Both read one ``grid.StatePass`` of
    the states: ``h`` is ``measurements.measured_values``, and the Jacobian
    evaluates only the lines that rows read. Out-of-service line flows are
    identically zero.
    """
    net = view.branches
    state = StatePass(net, v, th)
    _, dsbus_th, dsbus_v = dsbus_dv(state)
    s_f, dsf_th, dsf_v = dsf_dv(state, plan.lines)
    # d|I_f| through |I_f| = |S_f| / V_f; the floor keeps H finite at zero flow
    v_f, s_mag = v[..., net.f_bus[plan.lines]], np.abs(s_f)
    denom = (np.maximum(s_mag, 1e-9) * v_f)[..., None]
    di_dth = (np.conj(s_f)[..., None] * dsf_th).real / denom
    di_dv = ((np.conj(s_f)[..., None] * dsf_v).real / denom
             - (s_mag / v_f / v_f)[..., None] * net.cf[plan.lines])

    # row by row into a C-ordered Jacobian: the layout a one-sample estimate
    # has, so BLAS takes the same path through every sample's
    derivatives = ((dsbus_th.real, dsbus_v.real), (dsbus_th.imag, dsbus_v.imag),
                   (dsf_th.real, dsf_v.real), (dsf_th.imag, dsf_v.imag), (di_dth, di_dv))
    n_ang = len(plan.non_slack)
    jac = np.zeros(v.shape[:-1] + (len(plan.pos), plan.n_state))
    jac[..., plan.kinds[0][0], n_ang:] = plan.identity
    for (rows, ids), (d_th, d_v) in zip(plan.kinds[1:], derivatives):
        jac[..., rows, :n_ang] = d_th[..., ids, plan.non_slack]
        jac[..., rows, n_ang:] = d_v[..., ids, plan.mag_buses]
    return measured_values(state, plan.pos), jac


def estimate(view: GridView, ms: MeasurementSet, spec: MeasurementSpec,
             sd_overrides: dict[int, float] | None = None) -> EstimatedState:
    """Gauss-Newton WLS estimate of the full voltage state.

    Returns a flagged (converged=False) state on iteration exhaustion; raises
    ObservabilityError when the gain matrix is singular or a step is not
    finite. This is the one-sample call of :func:`estimate_batch`.
    """
    if spec.spec_hash != ms.spec_hash:
        raise ValueError("measurement set does not belong to this spec")
    est = estimate_batch(view, ms.values[None], spec, sd_overrides)
    status, iterations = int(est.status[0]), int(est.iterations[0])
    if status in FAILURE_MESSAGES:
        raise ObservabilityError(FAILURE_MESSAGES[status])
    return EstimatedState(v_mag=est.v[0], v_ang=est.th[0], loading_pct=est.loading[0],
                          converged=status == CONVERGED, iterations=iterations,
                          objective=float(est.objective[0]),
                          objective_history=tuple(est.objectives[0, :iterations + 1].tolist()))


def estimate_batch(view: GridView, values: np.ndarray, spec: MeasurementSpec,
                   sd_overrides: dict[int, float] | None = None) -> Estimates:
    """Gauss-Newton WLS estimates of B measurement vectors ``(B, m)`` of one
    spec on one assumed view.

    Row b of the result is sample b's outcome: ``ITERATION_LIMIT`` when it
    used up ``MAX_ITERATIONS``, and a singular gain matrix or a non-finite
    step fails that sample only. Each sample's result is bitwise the same in
    any batch.
    """
    grid = view.grid
    values = np.asarray(values, dtype=float)
    pseudo = pseudo_batch(grid, values, spec)
    # the row layout depends on the spec and the view alone: the spec's
    # entries, then the substitutes, less injection rows at buses cut off
    # the slack, which constrain nothing
    kind = np.concatenate([spec.kind_code, pseudo.kind])
    location = np.concatenate([spec.location, pseudo.bus])
    keep = ~((kind < len(BUS_KINDS)) & np.isin(location, list(view.dead_buses)))
    plan = RowPlan.for_rows(view, kind[keep], location[keep])
    sd_pct = spec.sd_vector()
    for i, sd in (sd_overrides or {}).items():
        sd_pct[i] = sd
    z = np.concatenate([values, pseudo.value], axis=1)
    reading = np.maximum(np.abs(values), READING_FLOOR_PU[spec.kind_code])
    sd_abs = np.maximum(np.concatenate([sd_pct / 100.0 * reading, pseudo.sd], axis=1),
                        SD_FLOOR_PU)
    z = z[:, keep]
    weights = 1.0 / sd_abs[:, keep] ** 2
    # a block's arrays stay under 256 KiB (ELISION_ELEMENTS complex
    # elements), to bound memory: the complex (B, n_bus, n_bus) and
    # (B, n_line, n_bus) derivatives and the float (B, m, n_state) Jacobian,
    # which sets the working set
    per_sample = max(max(len(grid.lines), grid.n_bus) * grid.n_bus,
                     len(plan.pos) * plan.n_state // 2)
    block = max(1, (ELISION_ELEMENTS - 1) // per_sample)
    n_samples = len(values)
    out = Estimates(v=np.full((n_samples, grid.n_bus), np.nan),
                    th=np.full((n_samples, grid.n_bus), np.nan),
                    loading=np.full((n_samples, len(grid.lines)), np.nan),
                    status=np.full(n_samples, ITERATION_LIMIT),
                    iterations=np.zeros(n_samples, dtype=int),
                    objective=np.full(n_samples, np.nan),
                    objectives=np.full((n_samples, MAX_ITERATIONS + 1), np.nan))
    for start in range(0, n_samples, block):
        rows = slice(start, start + block)
        _gauss_newton(view, plan, z[rows], weights[rows],
                      Estimates(*(field[rows] for field in out)))
    return out


def _gauss_newton(view, plan, z, weights, out: Estimates) -> None:
    """Gauss-Newton from a flat start on the rows of ``z``/``weights``,
    written into the rows of ``out`` (an :class:`Estimates` of views).

    A sample leaves the live set at the iteration where its step falls below
    ``STATE_UPDATE_TOLERANCE`` or where it fails, so its state stays as it
    was then. Each block's objectives are one row reduction,
    ``np.add.reduce(terms, 1)``, which sums each row as ``np.sum`` sums it
    alone.
    """
    n_samples, n = len(z), view.n_bus
    n_ang = len(plan.non_slack)
    v = np.ones((n_samples, n))
    th = np.zeros((n_samples, n))
    status, iterations, objectives = out.status, out.iterations, out.objectives
    live = np.arange(n_samples)
    for iteration in range(1, MAX_ITERATIONS + 1):
        iterations[live] = iteration
        h, jac = measurement_model(view, plan, v[live], th[live])
        residual = z[live] - h
        objectives[live, iteration - 1] = np.add.reduce(weights[live] * residual**2, 1)
        wjac = jac * weights[live][..., None]
        gain = np.swapaxes(jac, 1, 2) @ wjac
        rhs = (np.swapaxes(wjac, 1, 2) @ residual[..., None])[..., 0]
        # not held through the solve and the next model call: a lower peak memory
        del jac, wjac
        step, singular = solve_samples(gain, rhs)
        del gain
        non_finite = ~singular & ~np.all(np.isfinite(step), axis=1)
        status[live[singular]] = SINGULAR_GAIN
        status[live[non_finite]] = NON_FINITE_STEP
        ok = ~(singular | non_finite)
        live, step = live[ok], step[ok]
        th[live[:, None], plan.non_slack] += step[:, :n_ang]
        v[live[:, None], plan.mag_buses] += step[:, n_ang:]
        done = np.abs(step).max(axis=1) < STATE_UPDATE_TOLERANCE
        status[live[done]] = CONVERGED
        live = live[~done]
        if not live.size:
            break

    ok = np.flatnonzero((status == CONVERGED) | (status == ITERATION_LIMIT))
    if not ok.size:
        return
    # one pass of the final states for h and the loading
    state = StatePass(view.branches, v[ok], th[ok])
    h = measured_values(state, plan.pos)
    out.objective[ok] = objectives[ok, iterations[ok]] = np.add.reduce(
        weights[ok] * (z[ok] - h) ** 2, 1)
    out.v[ok], out.th[ok] = v[ok], th[ok]
    out.loading[ok] = line_flows(state).loading_pct
